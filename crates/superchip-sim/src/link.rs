//! Interconnect models with message-size-dependent effective bandwidth.
//!
//! The paper's Fig. 7 measures GH200 C2C bandwidth as a function of tensor
//! size: small transfers achieve as little as ~50 GB/s while large transfers
//! saturate near the link peak, with the knee around 64 MiB. We model this
//! with the classic latency/bandwidth (alpha-beta) cost:
//!
//! `time(bytes) = latency + bytes / peak`
//!
//! which yields `effective_bw(bytes) = bytes / time(bytes)`, a curve that
//! rises with message size and saturates exactly like the measurement.

use std::fmt;

use crate::telemetry::MetricsRecorder;
use crate::time::SimTime;

/// The physical technology of a link (affects presets, not the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LinkKind {
    /// NVLink Chip-2-Chip (GPU↔CPU inside a Superchip).
    NvlinkC2c,
    /// PCI Express (GPU↔CPU in loosely-coupled nodes).
    Pcie,
    /// NVLink between GPUs inside a node.
    Nvlink,
    /// Inter-node fabric (e.g. HPE Slingshot).
    Fabric,
    /// CPU memory bus (DDR/LPDDR).
    MemoryBus,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::NvlinkC2c => "nvlink-c2c",
            LinkKind::Pcie => "pcie",
            LinkKind::Nvlink => "nvlink",
            LinkKind::Fabric => "fabric",
            LinkKind::MemoryBus => "memory-bus",
        };
        f.write_str(s)
    }
}

/// An alpha-beta bandwidth curve: fixed per-message latency plus a
/// byte-proportional term at peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthCurve {
    /// Peak (asymptotic) uni-directional bandwidth in bytes/second.
    pub peak_bytes_per_sec: f64,
    /// Fixed per-message latency in seconds.
    pub latency_secs: f64,
}

impl BandwidthCurve {
    /// Creates a curve from a peak bandwidth (bytes/s) and latency (s).
    ///
    /// # Panics
    /// Panics if `peak` is not strictly positive or `latency` is negative.
    pub fn new(peak_bytes_per_sec: f64, latency_secs: f64) -> Self {
        assert!(peak_bytes_per_sec > 0.0, "peak bandwidth must be positive");
        assert!(latency_secs >= 0.0, "latency must be non-negative");
        BandwidthCurve {
            peak_bytes_per_sec,
            latency_secs,
        }
    }

    /// Time to move `bytes` over the link.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(self.latency_secs + bytes as f64 / self.peak_bytes_per_sec)
    }

    /// Effective bandwidth (bytes/s) achieved for a message of `bytes`.
    ///
    /// Returns 0 for empty messages.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.transfer_time(bytes).as_secs()
    }

    /// Smallest message size (bytes) that achieves `fraction` of peak
    /// bandwidth (e.g. `0.9` for the saturation knee).
    ///
    /// # Panics
    /// Panics unless `0 < fraction < 1`.
    pub fn saturation_size(&self, fraction: f64) -> u64 {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        // bytes / (lat + bytes/peak) = fraction * peak
        // => bytes = fraction * lat * peak / (1 - fraction)
        (fraction * self.latency_secs * self.peak_bytes_per_sec / (1.0 - fraction)).ceil() as u64
    }
}

/// A physical interconnect: a bandwidth curve plus host-memory interaction
/// effects (pinned vs pageable staging).
///
/// The paper (§4.5) observes that a transfer-then-cast pipeline stages
/// through an *unpinned* temporary buffer on the Grace CPU, falling off the
/// DMA fast path. [`Link::transfer_time_pageable`] models that penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Technology of the link.
    pub kind: LinkKind,
    /// Cost curve for pinned (DMA) transfers.
    pub curve: BandwidthCurve,
    /// Multiplier (< 1) applied to peak bandwidth when staging through
    /// pageable host memory.
    pub pageable_factor: f64,
}

impl Link {
    /// Creates a link with the given kind and pinned-path curve.
    ///
    /// The pageable penalty defaults to `0.25` (~112 GB/s on C2C),
    /// consistent with published GH200 measurements of pageable-vs-pinned
    /// host staging and with the paper's Fig. 9 casting-cost gap.
    pub fn new(kind: LinkKind, curve: BandwidthCurve) -> Self {
        Link {
            kind,
            curve,
            pageable_factor: 0.25,
        }
    }

    /// Time to move `bytes` via the pinned (DMA) path.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.curve.transfer_time(bytes)
    }

    /// Time to move `bytes` when staging through pageable host memory.
    pub fn transfer_time_pageable(&self, bytes: u64) -> SimTime {
        let slowed = BandwidthCurve {
            peak_bytes_per_sec: self.curve.peak_bytes_per_sec * self.pageable_factor,
            latency_secs: self.curve.latency_secs,
        };
        slowed.transfer_time(bytes)
    }

    /// Effective pinned-path bandwidth for a message of `bytes`.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        self.curve.effective_bandwidth(bytes)
    }

    /// Peak uni-directional bandwidth in bytes/second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.curve.peak_bytes_per_sec
    }

    /// Per-message latency.
    pub fn latency(&self) -> SimTime {
        SimTime::from_secs(self.curve.latency_secs)
    }

    /// Records one executed transfer of `bytes` over the interval
    /// `[start, end]` into `rec`, under the keys of one track (`keys`,
    /// typically built from the resource name, e.g. `c2c-d2h`):
    ///
    /// * a `bw:<track>` counter track (GB/s) sampling the *achieved*
    ///   bandwidth at `start` and dropping to 0 at `end`, so Perfetto shows
    ///   a bandwidth-over-time staircase,
    /// * `bytes:<track>` and `transfers:<track>` counters.
    ///
    /// Zero-duration transfers record the counters but no bandwidth sample.
    /// Nothing is allocated once the track's keys exist in `rec`.
    pub fn record_transfer(
        &self,
        rec: &mut MetricsRecorder,
        keys: &TransferKeys,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) {
        rec.add(&keys.transfers, 1);
        rec.add(&keys.bytes, bytes);
        let dur = end.saturating_sub(start).as_secs();
        if dur > 0.0 {
            let gbps = bytes as f64 / dur / 1e9;
            rec.sample(&keys.bw, "GB/s", start, gbps);
            rec.sample(&keys.bw, "GB/s", end, 0.0);
        }
    }
}

/// The telemetry keys [`Link::record_transfer`] writes for one track,
/// built once per track and reused for every transfer on it.
#[derive(Debug, Clone)]
pub struct TransferKeys {
    transfers: String,
    bytes: String,
    bw: String,
}

impl TransferKeys {
    /// The keys of track `track`: `transfers:<track>`, `bytes:<track>` and
    /// `bw:<track>`.
    pub fn new(track: &str) -> Self {
        TransferKeys {
            transfers: format!("transfers:{track}"),
            bytes: format!("bytes:{track}"),
            bw: format!("bw:{track}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GB, MIB};

    fn c2c() -> BandwidthCurve {
        // 450 GB/s uni-directional peak, ~18 us latency: saturates near 64 MiB.
        BandwidthCurve::new(450e9, 18e-6)
    }

    #[test]
    fn bandwidth_rises_with_size_and_saturates() {
        let c = c2c();
        let small = c.effective_bandwidth(256 * 1024);
        let medium = c.effective_bandwidth(8 * MIB);
        let large = c.effective_bandwidth(GB);
        assert!(small < medium && medium < large);
        assert!(large > 0.95 * c.peak_bytes_per_sec);
        // Small tensors drop well below peak, as in Fig. 7.
        assert!(small < 0.1 * c.peak_bytes_per_sec);
    }

    #[test]
    fn saturation_knee_near_64_mib() {
        let c = c2c();
        let knee = c.saturation_size(0.9);
        assert!(
            knee > 32 * MIB && knee < 128 * MIB,
            "knee was {} MiB",
            knee / MIB
        );
    }

    #[test]
    fn transfer_time_is_affine_in_bytes() {
        let c = c2c();
        let t1 = c.transfer_time(MIB).as_secs();
        let t2 = c.transfer_time(2 * MIB).as_secs();
        let t3 = c.transfer_time(3 * MIB).as_secs();
        assert!(((t2 - t1) - (t3 - t2)).abs() < 1e-15);
    }

    #[test]
    fn zero_bytes_zero_bandwidth() {
        assert_eq!(c2c().effective_bandwidth(0), 0.0);
        assert_eq!(c2c().transfer_time(0).as_secs(), 18e-6);
    }

    #[test]
    fn pageable_path_is_slower() {
        let link = Link::new(LinkKind::NvlinkC2c, c2c());
        let pinned = link.transfer_time(256 * MIB);
        let pageable = link.transfer_time_pageable(256 * MIB);
        assert!(pageable > pinned * 2.0);
    }

    #[test]
    #[should_panic(expected = "peak bandwidth must be positive")]
    fn zero_peak_rejected() {
        let _ = BandwidthCurve::new(0.0, 1e-6);
    }

    #[test]
    fn saturation_size_monotone_in_fraction() {
        let c = c2c();
        assert!(c.saturation_size(0.5) < c.saturation_size(0.9));
        assert!(c.saturation_size(0.9) < c.saturation_size(0.99));
    }

    #[test]
    fn record_transfer_samples_achieved_bandwidth() {
        let link = Link::new(LinkKind::NvlinkC2c, c2c());
        let mut rec = MetricsRecorder::new();
        let start = SimTime::from_micros(100.0);
        let end = start + SimTime::from_secs(0.001); // 1 ms for 100 MB -> 100 GB/s
        let keys = TransferKeys::new("c2c-d2h");
        link.record_transfer(&mut rec, &keys, start, end, 100_000_000);
        assert_eq!(rec.counter("transfers:c2c-d2h"), 1);
        assert_eq!(rec.counter("bytes:c2c-d2h"), 100_000_000);
        let track = rec.track("bw:c2c-d2h").unwrap();
        assert_eq!(track.unit, "GB/s");
        assert_eq!(track.samples.len(), 2);
        assert!((track.samples[0].1 - 100.0).abs() < 1e-9);
        assert_eq!(track.samples[1].1, 0.0);
        assert!(track.samples[0].0 < track.samples[1].0);
    }

    #[test]
    fn zero_duration_transfer_records_counters_only() {
        let link = Link::new(LinkKind::NvlinkC2c, c2c());
        let mut rec = MetricsRecorder::new();
        let t = SimTime::from_micros(5.0);
        link.record_transfer(&mut rec, &TransferKeys::new("x"), t, t, 64);
        assert_eq!(rec.counter("bytes:x"), 64);
        assert!(rec.track("bw:x").is_none());
    }

    #[test]
    fn link_kind_display() {
        assert_eq!(LinkKind::NvlinkC2c.to_string(), "nvlink-c2c");
        assert_eq!(LinkKind::Fabric.to_string(), "fabric");
    }
}
