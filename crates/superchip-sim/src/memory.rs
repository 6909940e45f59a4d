//! Capacity-tracked memory pools (HBM, DDR).
//!
//! Pools are used by schedule builders to decide whether a model-state
//! placement fits (the paper's Fig. 13 "largest trainable model" experiment
//! is a search over these placements) and to report peak usage.
//!
//! For telemetry, the timed variants [`MemoryPool::allocate_at`] /
//! [`MemoryPool::free_at`] additionally record an occupancy timeline that
//! [`MemoryPool::record_into`] exports as a `mem:<name>` counter track plus
//! peak/capacity gauges.

use std::borrow::Cow;

use crate::error::SimError;
use crate::telemetry::MetricsRecorder;
use crate::time::SimTime;

/// A fixed-capacity memory pool with allocation tracking.
///
/// ```
/// use superchip_sim::MemoryPool;
/// let mut hbm = MemoryPool::new("hbm", 96 * (1 << 30));
/// hbm.allocate(10 << 30)?;
/// assert_eq!(hbm.allocated(), 10 << 30);
/// hbm.free(10 << 30)?;
/// # Ok::<(), superchip_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPool {
    name: String,
    capacity: u64,
    allocated: u64,
    peak: u64,
    /// Occupancy samples `(integer microseconds, allocated bytes)` recorded
    /// by the timed allocation variants, in call order.
    timeline: Vec<(u64, u64)>,
}

impl MemoryPool {
    /// Creates an empty pool with `capacity` bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        MemoryPool {
            name: name.into(),
            capacity,
            allocated: 0,
            peak: 0,
            timeline: Vec::new(),
        }
    }

    /// The pool's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Remaining bytes.
    pub fn available(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.allocated as f64 / self.capacity as f64
    }

    /// Returns whether an allocation of `bytes` would fit.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Allocates `bytes`.
    ///
    /// # Errors
    /// Returns [`SimError::OutOfMemory`] if the pool lacks space.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), SimError> {
        if !self.fits(bytes) {
            return Err(SimError::OutOfMemory {
                pool: self.name.clone(),
                requested: bytes,
                available: self.available(),
            });
        }
        self.allocated += bytes;
        self.peak = self.peak.max(self.allocated);
        Ok(())
    }

    /// Releases `bytes`.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidFree`] if more bytes are freed than are
    /// currently allocated.
    pub fn free(&mut self, bytes: u64) -> Result<(), SimError> {
        if bytes > self.allocated {
            return Err(SimError::InvalidFree {
                pool: self.name.clone(),
                bytes,
            });
        }
        self.allocated -= bytes;
        Ok(())
    }

    /// Releases everything, keeping the peak statistic and the timeline.
    pub fn reset(&mut self) {
        self.allocated = 0;
    }

    /// Allocates `bytes` and records the new occupancy at simulated time
    /// `at` on the pool's timeline.
    ///
    /// # Errors
    /// Returns [`SimError::OutOfMemory`] if the pool lacks space (in which
    /// case nothing is recorded).
    pub fn allocate_at(&mut self, bytes: u64, at: SimTime) -> Result<(), SimError> {
        self.allocate(bytes)?;
        self.timeline.push((at.as_micros_rounded(), self.allocated));
        Ok(())
    }

    /// Releases `bytes` and records the new occupancy at simulated time
    /// `at` on the pool's timeline.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidFree`] if more bytes are freed than are
    /// currently allocated (in which case nothing is recorded).
    pub fn free_at(&mut self, bytes: u64, at: SimTime) -> Result<(), SimError> {
        self.free(bytes)?;
        self.timeline.push((at.as_micros_rounded(), self.allocated));
        Ok(())
    }

    /// Occupancy samples `(integer microseconds, allocated bytes)` recorded
    /// so far, in call order.
    pub fn timeline(&self) -> &[(u64, u64)] {
        &self.timeline
    }

    /// Exports the pool's occupancy timeline as a `mem:<name>` counter track
    /// (unit `bytes`) plus `peak-bytes:<name>` and `capacity-bytes:<name>`
    /// gauges on `rec`. Samples are exported in time order (stable for
    /// equal times); a timeline recorded in time order, as a replay of an
    /// executed schedule is, is exported without a copy.
    pub fn record_into(&self, rec: &mut MetricsRecorder) {
        let samples: Cow<'_, [(u64, u64)]> = if self.timeline.is_sorted_by_key(|&(ts, _)| ts) {
            Cow::Borrowed(&self.timeline)
        } else {
            let mut sorted = self.timeline.clone();
            sorted.sort_by_key(|&(ts, _)| ts);
            Cow::Owned(sorted)
        };
        let track = format!("mem:{}", self.name);
        for &(ts, allocated) in samples.iter() {
            rec.sample_us(&track, "bytes", ts, allocated as f64);
        }
        rec.set_gauge(&format!("peak-bytes:{}", self.name), self.peak as f64);
        rec.set_gauge(
            &format!("capacity-bytes:{}", self.name),
            self.capacity as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    #[test]
    fn allocate_and_free_roundtrip() {
        let mut pool = MemoryPool::new("hbm", 96 * GIB);
        pool.allocate(40 * GIB).unwrap();
        pool.allocate(40 * GIB).unwrap();
        assert_eq!(pool.allocated(), 80 * GIB);
        assert_eq!(pool.available(), 16 * GIB);
        assert!((pool.occupancy() - 80.0 / 96.0).abs() < 1e-12);
        pool.free(80 * GIB).unwrap();
        assert_eq!(pool.allocated(), 0);
        assert_eq!(pool.peak(), 80 * GIB);
    }

    #[test]
    fn over_allocation_is_oom() {
        let mut pool = MemoryPool::new("hbm", GIB);
        let err = pool.allocate(2 * GIB).unwrap_err();
        match err {
            SimError::OutOfMemory {
                pool,
                requested,
                available,
            } => {
                assert_eq!(pool, "hbm");
                assert_eq!(requested, 2 * GIB);
                assert_eq!(available, GIB);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn over_free_is_invalid() {
        let mut pool = MemoryPool::new("ddr", GIB);
        pool.allocate(1024).unwrap();
        assert!(matches!(pool.free(2048), Err(SimError::InvalidFree { .. })));
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut pool = MemoryPool::new("hbm", GIB);
        assert!(pool.fits(GIB));
        pool.allocate(GIB).unwrap();
        assert!(!pool.fits(1));
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn reset_keeps_peak() {
        let mut pool = MemoryPool::new("hbm", GIB);
        pool.allocate(GIB / 2).unwrap();
        pool.reset();
        assert_eq!(pool.allocated(), 0);
        assert_eq!(pool.peak(), GIB / 2);
    }

    #[test]
    fn zero_capacity_occupancy_is_zero() {
        let pool = MemoryPool::new("null", 0);
        assert_eq!(pool.occupancy(), 0.0);
    }

    #[test]
    fn timed_allocations_build_a_timeline() {
        let mut pool = MemoryPool::new("hbm", 4 * GIB);
        pool.allocate_at(GIB, SimTime::ZERO).unwrap();
        pool.allocate_at(2 * GIB, SimTime::from_micros(10.0))
            .unwrap();
        pool.free_at(GIB, SimTime::from_micros(25.0)).unwrap();
        assert_eq!(pool.timeline(), &[(0, GIB), (10, 3 * GIB), (25, 2 * GIB)]);
        assert_eq!(pool.peak(), 3 * GIB);
    }

    #[test]
    fn failed_timed_allocation_records_nothing() {
        let mut pool = MemoryPool::new("hbm", GIB);
        assert!(pool.allocate_at(2 * GIB, SimTime::ZERO).is_err());
        assert!(pool.free_at(1, SimTime::ZERO).is_err());
        assert!(pool.timeline().is_empty());
    }

    #[test]
    fn record_into_exports_track_and_gauges() {
        let mut pool = MemoryPool::new("hbm", 2 * GIB);
        pool.allocate_at(GIB, SimTime::from_micros(5.0)).unwrap();
        pool.free_at(GIB, SimTime::from_micros(9.0)).unwrap();
        let mut rec = crate::telemetry::MetricsRecorder::new();
        pool.record_into(&mut rec);
        let track = rec.track("mem:hbm").unwrap();
        assert_eq!(track.unit, "bytes");
        assert_eq!(track.samples, vec![(5, GIB as f64), (9, 0.0)]);
        assert_eq!(rec.gauge("peak-bytes:hbm"), Some(GIB as f64));
        assert_eq!(rec.gauge("capacity-bytes:hbm"), Some(2.0 * GIB as f64));
    }

    #[test]
    fn record_into_sorts_an_out_of_order_timeline() {
        let mut pool = MemoryPool::new("ddr", 4 * GIB);
        pool.allocate_at(GIB, SimTime::from_micros(9.0)).unwrap();
        pool.allocate_at(GIB, SimTime::from_micros(5.0)).unwrap();
        pool.free_at(GIB, SimTime::from_micros(9.0)).unwrap();
        let mut rec = crate::telemetry::MetricsRecorder::new();
        pool.record_into(&mut rec);
        let samples = &rec.track("mem:ddr").unwrap().samples;
        // Time order, and call order among equal times.
        assert_eq!(
            samples,
            &vec![(5, 2.0 * GIB as f64), (9, GIB as f64), (9, GIB as f64)]
        );
    }
}
