//! Wall-clock kernel spans for the numeric plane — the real-plane
//! counterpart of the simulator's execution traces.
//!
//! Where [`crate::counters`] answers *how much work* ran (exact calls /
//! elements / FLOPs / bytes per [`OpKind`]), this module answers *when and
//! where it ran*: per-kernel wall-clock spans with a dense thread-id track
//! per recording thread, plus per-worker busy intervals inside every
//! parallel pool region so load imbalance is visible. Joining the two —
//! exact work over measured time — is what `repro -- roofline` does to
//! report achieved GFLOP/s, GB/s, and arithmetic intensity per kernel
//! family.
//!
//! # Discipline (same as `counters.rs`)
//!
//! - **Off by default.** Every hook starts with one `Relaxed` load of a
//!   process-wide `AtomicBool` and returns `None` immediately when
//!   disabled — a single predictable branch per kernel call, nothing else.
//! - **Wall-clock never enters byte-stable artifacts.** Spans are a
//!   diagnostic sidecar, exactly like `StepTiming`: the deterministic
//!   journal / metrics snapshots must be byte-identical whether span
//!   recording is on or off (enforced by `bench/tests/roofline.rs`).
//! - **Enable/reset at quiescent points** (no kernel in flight), like the
//!   counters: spans recorded across a reset would tear.
//!
//! # Data model
//!
//! Three span kinds accumulate in a process-wide log:
//!
//! - [`KernelSpan`] — one per kernel invocation (e.g. one `matmul` call),
//!   on the *calling* thread's track. Kernel entry points never nest (the
//!   one exception, cross-entropy's internal softmax, starts its span
//!   after the softmax returns), so per-kind busy time adds up without
//!   double counting.
//! - [`RegionSpan`] — one per parallel pool region (a `Pool::run_parts`
//!   fork/join), on the launching thread's track.
//! - [`WorkerSpan`] — one per worker per parallel region, keyed by task
//!   *index* (not OS thread), because whichever thread claims a task runs
//!   it; the index is the stable identity.
//!
//! Alongside the log, cumulative per-kind busy nanoseconds accumulate in
//! relaxed atomics so cheap aggregates ([`kind_busy_nanos`],
//! [`total_busy_nanos`]) are available without draining or locking the
//! log — the trainer reads a delta of one atomic per step to fill
//! `StepTiming::kernel_secs`.
//!
//! The log is bounded ([`MAX_SPANS`] per span kind); once full, further
//! spans are counted in [`SpanLog::dropped`] instead of stored, and the
//! cumulative atomics stay exact regardless.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::counters::{OpKind, N_OP_KINDS};

/// Maximum stored spans per span kind (kernel / region / worker). Chosen so
/// a worst-case full log stays a few tens of MiB; overflow increments
/// [`SpanLog::dropped`] and the cumulative busy-nanos atomics stay exact.
pub const MAX_SPANS: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static KIND_NANOS: [AtomicU64; N_OP_KINDS] = [const { AtomicU64::new(0) }; N_OP_KINDS];
static TOTAL_NANOS: AtomicU64 = AtomicU64::new(0);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static NEXT_REGION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Dense per-thread track id, assigned on first span from this thread.
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn track_id() -> u32 {
    TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// One kernel invocation's wall-clock interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpan {
    /// Which kernel family ran.
    pub kind: OpKind,
    /// Dense id of the recording (calling) thread.
    pub track: u32,
    /// Nanoseconds since the span epoch.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

/// One parallel pool region (the scoped-thread fork/join in
/// `Pool::run_parts`), recorded on the launching thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    /// Process-unique region id (joins with [`WorkerSpan::region`]).
    pub region: u64,
    /// Workers the region spawned.
    pub workers: u32,
    /// Dense id of the launching thread.
    pub track: u32,
    /// Nanoseconds since the span epoch.
    pub start_nanos: u64,
    /// Fork-to-join duration in nanoseconds.
    pub dur_nanos: u64,
}

/// One worker's busy interval inside a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpan {
    /// The enclosing region ([`RegionSpan::region`]).
    pub region: u64,
    /// Worker index within the region (the stable identity — scoped worker
    /// threads are fresh OS threads every region).
    pub worker: u32,
    /// Nanoseconds since the span epoch.
    pub start_nanos: u64,
    /// Busy duration in nanoseconds.
    pub dur_nanos: u64,
}

/// Busy/idle accounting for one worker index, aggregated over every
/// parallel region it participated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerUtilization {
    /// Worker index.
    pub worker: u32,
    /// Total busy nanoseconds across regions.
    pub busy_nanos: u64,
    /// Total wall nanoseconds of regions that spawned this worker index
    /// (`busy / present` is the utilization; `present − busy` the idle
    /// imbalance).
    pub present_nanos: u64,
}

impl WorkerUtilization {
    /// Busy fraction of the regions this worker existed in (0 when the
    /// worker was never present).
    pub fn utilization(&self) -> f64 {
        if self.present_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.present_nanos as f64
        }
    }
}

/// The drained span log: everything recorded since the last [`reset`] /
/// [`take_log`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    /// Kernel spans, in completion order.
    pub kernels: Vec<KernelSpan>,
    /// Parallel region spans, in completion order.
    pub regions: Vec<RegionSpan>,
    /// Worker busy spans, in completion order.
    pub workers: Vec<WorkerSpan>,
    /// Spans discarded because a log section hit [`MAX_SPANS`].
    pub dropped: u64,
}

impl SpanLog {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty() && self.regions.is_empty() && self.workers.is_empty()
    }

    /// Distinct kernel/region thread tracks, sorted.
    pub fn tracks(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self
            .kernels
            .iter()
            .map(|s| s.track)
            .chain(self.regions.iter().map(|s| s.track))
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Per-kind busy nanoseconds summed from the *stored* kernel spans.
    /// Prefer [`kind_busy_nanos`] (the cumulative atomics) for totals —
    /// it stays exact even when spans were dropped.
    pub fn stored_kind_nanos(&self) -> [u64; N_OP_KINDS] {
        let mut out = [0u64; N_OP_KINDS];
        for s in &self.kernels {
            out[s.kind.index()] += s.dur_nanos;
        }
        out
    }

    /// Busy/idle accounting per worker index: worker `i` is "present" for
    /// the full wall time of every region that spawned at least `i + 1`
    /// workers, and "busy" for its recorded spans — the gap is parallel
    /// imbalance (waiting at the join barrier).
    pub fn worker_utilization(&self) -> Vec<WorkerUtilization> {
        let max_workers = self.regions.iter().map(|r| r.workers).max().unwrap_or(0);
        let mut out: Vec<WorkerUtilization> = (0..max_workers)
            .map(|worker| WorkerUtilization {
                worker,
                ..WorkerUtilization::default()
            })
            .collect();
        for r in &self.regions {
            for u in out.iter_mut().take(r.workers as usize) {
                u.present_nanos += r.dur_nanos;
            }
        }
        for w in &self.workers {
            if let Some(u) = out.get_mut(w.worker as usize) {
                u.busy_nanos += w.dur_nanos;
            }
        }
        out
    }
}

static LOG: Mutex<SpanLog> = Mutex::new(SpanLog {
    kernels: Vec::new(),
    regions: Vec::new(),
    workers: Vec::new(),
    dropped: 0,
});

fn lock_log() -> std::sync::MutexGuard<'static, SpanLog> {
    LOG.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turns span recording on. Call at a quiescent point (no kernel in
/// flight), same protocol as [`crate::counters::enable`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off. Hooks revert to a single relaxed load.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the span log and the cumulative busy-nanos counters. Call at a
/// quiescent point.
pub fn reset() {
    for n in &KIND_NANOS {
        n.store(0, Ordering::Relaxed);
    }
    TOTAL_NANOS.store(0, Ordering::Relaxed);
    *lock_log() = SpanLog::default();
}

/// Drains the span log, leaving it empty (the cumulative busy-nanos
/// counters are *not* cleared; use [`reset`] for that).
pub fn take_log() -> SpanLog {
    std::mem::take(&mut *lock_log())
}

/// Cumulative busy nanoseconds per [`OpKind`] since the last [`reset`].
/// Exact even when the log overflowed.
pub fn kind_busy_nanos() -> [u64; N_OP_KINDS] {
    let mut out = [0u64; N_OP_KINDS];
    for (o, n) in out.iter_mut().zip(&KIND_NANOS) {
        *o = n.load(Ordering::Relaxed);
    }
    out
}

/// Cumulative busy nanoseconds across all kernel kinds since the last
/// [`reset`] — one relaxed load, cheap enough for per-step deltas.
pub fn total_busy_nanos() -> u64 {
    TOTAL_NANOS.load(Ordering::Relaxed)
}

/// Runs `f` with spans reset and enabled, restoring the previous enabled
/// state afterwards and returning `f`'s result alongside the drained log.
pub fn with_spans<R>(f: impl FnOnce() -> R) -> (R, SpanLog) {
    let was = is_enabled();
    reset();
    enable();
    let r = f();
    if !was {
        disable();
    }
    (r, take_log())
}

/// Drop guard for one kernel span. Created by [`kernel`]; records the span
/// on drop.
#[derive(Debug)]
pub struct KernelGuard {
    kind: OpKind,
    start_nanos: u64,
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        let dur = now_nanos().saturating_sub(self.start_nanos);
        KIND_NANOS[self.kind.index()].fetch_add(dur, Ordering::Relaxed);
        TOTAL_NANOS.fetch_add(dur, Ordering::Relaxed);
        let track = track_id();
        let mut log = lock_log();
        if log.kernels.len() < MAX_SPANS {
            log.kernels.push(KernelSpan {
                kind: self.kind,
                track,
                start_nanos: self.start_nanos,
                dur_nanos: dur,
            });
        } else {
            log.dropped += 1;
        }
    }
}

/// Opens a wall-clock span for one kernel invocation. Returns `None` —
/// after exactly one relaxed atomic load — when recording is disabled;
/// hold the guard for the kernel's duration:
///
/// ```
/// # use tensorlite::{spans, OpKind};
/// let _span = spans::kernel(OpKind::MatMul);
/// // ... kernel body; the span closes when `_span` drops ...
/// ```
#[inline]
pub fn kernel(kind: OpKind) -> Option<KernelGuard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(KernelGuard {
        kind,
        start_nanos: now_nanos(),
    })
}

/// Drop guard for one parallel pool region. Created by [`region`] on the
/// launching thread; hand out one [`RegionGuard::worker`] guard per spawned
/// worker, and drop this guard after the join to record the region span.
#[derive(Debug)]
pub struct RegionGuard {
    region: u64,
    workers: u32,
    start_nanos: u64,
}

impl RegionGuard {
    /// Opens the busy span for worker `index`; call on the worker thread,
    /// drop when the worker's part is done.
    pub fn worker(&self, index: usize) -> WorkerGuard {
        WorkerGuard {
            region: self.region,
            worker: index as u32,
            start_nanos: now_nanos(),
        }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let dur = now_nanos().saturating_sub(self.start_nanos);
        let track = track_id();
        let mut log = lock_log();
        if log.regions.len() < MAX_SPANS {
            log.regions.push(RegionSpan {
                region: self.region,
                workers: self.workers,
                track,
                start_nanos: self.start_nanos,
                dur_nanos: dur,
            });
        } else {
            log.dropped += 1;
        }
    }
}

/// Opens a span for a parallel pool region about to spawn `workers`
/// scoped threads. Returns `None` — after one relaxed atomic load — when
/// recording is disabled.
#[inline]
pub fn region(workers: usize) -> Option<RegionGuard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(RegionGuard {
        region: NEXT_REGION.fetch_add(1, Ordering::Relaxed),
        workers: workers as u32,
        start_nanos: now_nanos(),
    })
}

/// Drop guard for one worker's busy interval (see [`RegionGuard::worker`]).
#[derive(Debug)]
pub struct WorkerGuard {
    region: u64,
    worker: u32,
    start_nanos: u64,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let dur = now_nanos().saturating_sub(self.start_nanos);
        let mut log = lock_log();
        if log.workers.len() < MAX_SPANS {
            log.workers.push(WorkerSpan {
                region: self.region,
                worker: self.worker,
                start_nanos: self.start_nanos,
                dur_nanos: dur,
            });
        } else {
            log.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use std::sync::{Mutex as TestMutex, OnceLock as TestOnceLock};

    /// Spans are process-wide; tests that enable them must not overlap.
    fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: TestOnceLock<TestMutex<()>> = TestOnceLock::new();
        LOCK.get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_records_nothing_and_returns_none() {
        let _g = serial_guard();
        disable();
        reset();
        assert!(kernel(OpKind::MatMul).is_none());
        assert!(region(4).is_none());
        let a = Tensor::zeros(&[16, 16]);
        let _ = a.matmul(&a).unwrap();
        assert!(take_log().is_empty());
        assert_eq!(total_busy_nanos(), 0);
    }

    #[test]
    fn kernel_spans_and_cumulative_nanos_agree() {
        let _g = serial_guard();
        let ((), log) = with_spans(|| {
            let a = Tensor::zeros(&[16, 16]);
            let _ = a.matmul(&a).unwrap();
            let _ = crate::ops::gelu(&a);
        });
        // with_spans drained the log but left the atomics.
        assert!(log.kernels.iter().any(|s| s.kind == OpKind::MatMul));
        assert!(log.kernels.iter().any(|s| s.kind == OpKind::Gelu));
        let stored = log.stored_kind_nanos();
        let cumulative = kind_busy_nanos();
        assert_eq!(stored, cumulative, "no drops: stored == cumulative");
        assert_eq!(
            cumulative.iter().sum::<u64>(),
            total_busy_nanos(),
            "total tracks the per-kind sum"
        );
        reset();
        assert_eq!(total_busy_nanos(), 0);
    }

    #[test]
    fn worker_spans_cover_parallel_regions() {
        let _g = serial_guard();
        let ((), log) = with_spans(|| {
            let pool = crate::pool::Pool::new(3);
            pool.run_parts(vec![0usize, 1, 2], |_, _| {
                std::hint::black_box(0u64);
            });
        });
        assert_eq!(log.regions.len(), 1);
        assert_eq!(log.regions[0].workers, 3);
        assert_eq!(log.workers.len(), 3);
        let workers: Vec<u32> = log.workers.iter().map(|w| w.worker).collect();
        for i in 0..3u32 {
            assert!(workers.contains(&i), "worker {i} missing: {workers:?}");
        }
        let util = log.worker_utilization();
        assert_eq!(util.len(), 3);
        for u in &util {
            assert!(u.present_nanos >= 1, "region wall covers the worker");
            assert!(u.utilization() >= 0.0 && u.utilization() <= 1.5);
        }
    }

    #[test]
    fn serial_regions_record_no_worker_spans() {
        let _g = serial_guard();
        let ((), log) = with_spans(|| {
            let pool = crate::pool::Pool::new(1);
            pool.run_parts(vec![0usize, 1], |_, _| {});
        });
        assert!(log.regions.is_empty());
        assert!(log.workers.is_empty());
    }

    #[test]
    fn tracks_are_dense_and_stable_per_thread() {
        let _g = serial_guard();
        let ((), log) = with_spans(|| {
            let a = Tensor::zeros(&[8, 8]);
            let _ = a.matmul(&a).unwrap();
            let _ = a.matmul(&a).unwrap();
        });
        let this_thread: Vec<u32> = log.kernels.iter().map(|s| s.track).collect();
        assert!(!this_thread.is_empty());
        assert!(
            this_thread.windows(2).all(|w| w[0] == w[1]),
            "one thread, one track: {this_thread:?}"
        );
    }
}
