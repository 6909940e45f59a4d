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
//! - **Per run.** Spans land only in the recorders scoped around the work
//!   ([`crate::recorder`]) that were made with [`Recorder::traced`]; a
//!   kernel is timed only when one of them is in scope, and every recorder
//!   in scope then adds its busy time.
//! - **Wall-clock never enters byte-stable artifacts.** Spans are a
//!   diagnostic sidecar, exactly like `StepTiming`: the deterministic
//!   journal / metrics snapshots must be byte-identical whether span
//!   recording is on or off (enforced by `bench/tests/roofline.rs`).
//! - **Take logs at quiescent points** (no kernel in flight) — spans
//!   recorded across a reset would tear.
//!
//! # Data model
//!
//! Three span kinds accumulate in each recorder's log:
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
//! relaxed atomics, so aggregates are available without draining or
//! locking the log — the trainer reads a delta of one atomic per step to
//! fill `StepTiming::kernel_secs`. The log is bounded ([`MAX_SPANS`] per
//! span kind); once full, further spans are counted in
//! [`SpanLog::dropped`] instead of stored, and the atomics stay exact.
//! Track ids, region ids and the span clock's epoch are process-wide, so
//! spans from different recorders share one timeline.
//!
//! [`enable`], [`disable`], [`reset`], [`take_log`] and [`kind_busy_nanos`]
//! act on the calling thread's ambient recorder ([`crate::recorder`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::counters::{OpKind, N_OP_KINDS};
use crate::recorder::{self, Half, Recorder};

/// Maximum stored spans per span kind (kernel / region / worker). Chosen so
/// a worst-case full log stays a few tens of MiB; overflow increments
/// [`SpanLog::dropped`] and the cumulative busy-nanos atomics stay exact.
pub const MAX_SPANS: usize = 1 << 18;

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

/// A drained span log: everything a recorder stored since its log was
/// last taken or reset.
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
    /// Prefer the recorder's cumulative busy nanos for totals
    /// ([`crate::Recorder::kind_busy_nanos`]) — they stay exact even when
    /// spans were dropped.
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

/// A recorder's span state: the bounded log and cumulative busy nanos.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    kind_nanos: [AtomicU64; N_OP_KINDS],
    total_nanos: AtomicU64,
    log: Mutex<SpanLog>,
}

impl Trace {
    fn lock(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one closed span: a kernel's busy time always, and the span
    /// itself when `store` (its recorder traces).
    fn record(&self, open: Open, track: u32, start_nanos: u64, dur_nanos: u64, store: bool) {
        if let Open::Kernel(kind) = open {
            self.kind_nanos[kind.index()].fetch_add(dur_nanos, Ordering::Relaxed);
            self.total_nanos.fetch_add(dur_nanos, Ordering::Relaxed);
        }
        if !store {
            return;
        }
        let mut log = self.lock();
        let log = &mut *log;
        let stored = match open {
            Open::Kernel(kind) => push(
                &mut log.kernels,
                KernelSpan {
                    kind,
                    track,
                    start_nanos,
                    dur_nanos,
                },
            ),
            Open::Region { region, workers } => push(
                &mut log.regions,
                RegionSpan {
                    region,
                    workers,
                    track,
                    start_nanos,
                    dur_nanos,
                },
            ),
            Open::Worker { region, worker } => push(
                &mut log.workers,
                WorkerSpan {
                    region,
                    worker,
                    start_nanos,
                    dur_nanos,
                },
            ),
        };
        if !stored {
            log.dropped += 1;
        }
    }

    pub(crate) fn take_log(&self) -> SpanLog {
        std::mem::take(&mut *self.lock())
    }

    pub(crate) fn kind_busy_nanos(&self) -> [u64; N_OP_KINDS] {
        self.kind_nanos
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }

    pub(crate) fn total_busy_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        for n in self.kind_nanos.iter().chain([&self.total_nanos]) {
            n.store(0, Ordering::Relaxed);
        }
        *self.lock() = SpanLog::default();
    }
}

/// Pushes `span` unless the log section already holds [`MAX_SPANS`].
fn push<T>(section: &mut Vec<T>, span: T) -> bool {
    let room = section.len() < MAX_SPANS;
    if room {
        section.push(span);
    }
    room
}

/// Turns span recording on for the calling thread's ambient recorder
/// ([`crate::recorder`]).
///
/// # Panics
/// Panics inside a [`Recorder::scope`].
pub fn enable() {
    recorder::switch_ambient(Half::Spans, true);
}

/// Turns span recording off for the calling thread's ambient recorder; its
/// log and busy nanos stay readable.
pub fn disable() {
    recorder::switch_ambient(Half::Spans, false);
}

/// Clears the ambient span log and busy nanos. Call at a quiescent point.
pub fn reset() {
    recorder::ambient(|r| r.trace().reset());
}

/// Drains the ambient span log, leaving it empty (the cumulative busy
/// nanos are *not* cleared; use [`reset`] for that).
pub fn take_log() -> SpanLog {
    recorder::ambient(Recorder::take_log)
}

/// Cumulative ambient busy nanoseconds per [`OpKind`] since the last
/// [`reset`]. Exact even when the log overflowed.
pub fn kind_busy_nanos() -> [u64; N_OP_KINDS] {
    recorder::ambient(Recorder::kind_busy_nanos)
}

/// What an open span records when its guard drops.
#[derive(Debug, Clone, Copy)]
enum Open {
    Kernel(OpKind),
    Region { region: u64, workers: u32 },
    Worker { region: u64, worker: u32 },
}

/// Drop guard for one open span: a kernel's, a parallel pool region's, or
/// one worker's busy interval inside a region. On drop it records the span
/// into every recorder in scope that traces, and a kernel's busy time
/// into every recorder in scope.
#[derive(Debug)]
pub struct SpanGuard {
    open: Open,
    start_nanos: u64,
}

impl SpanGuard {
    fn start(open: Open) -> SpanGuard {
        SpanGuard {
            open,
            start_nanos: now_nanos(),
        }
    }

    pub(crate) fn kernel(kind: OpKind) -> SpanGuard {
        SpanGuard::start(Open::Kernel(kind))
    }

    /// Opens the busy span of task `index` of this region guard; call on
    /// the task's thread, inside the region's carried recorders.
    pub(crate) fn worker(&self, index: usize) -> SpanGuard {
        let Open::Region { region, .. } = self.open else {
            unreachable!("worker spans open inside a region span");
        };
        SpanGuard::start(Open::Worker {
            region,
            worker: index as u32,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = now_nanos().saturating_sub(self.start_nanos);
        let track = match self.open {
            Open::Worker { .. } => 0,
            _ => track_id(),
        };
        recorder::each(|r| {
            r.trace
                .record(self.open, track, self.start_nanos, dur, r.tracing())
        });
    }
}

/// Opens a wall-clock span for a stretch of work that records no op —
/// kernels open theirs through [`crate::recorder::kernel`], which also
/// records the op. Returns `None` — after one thread-local load — when no
/// recorder is in scope, and when none in scope traces; hold the guard
/// for the span's duration:
///
/// ```
/// # use tensorlite::{spans, OpKind};
/// let _span = spans::kernel(OpKind::MatMul);
/// // ... work; the span closes when `_span` drops ...
/// ```
#[inline]
pub fn kernel(kind: OpKind) -> Option<SpanGuard> {
    if !recorder::active() {
        return None;
    }
    recorder::open(kind, None)
}

/// Opens the span of a parallel pool region about to run `workers` tasks,
/// when a recorder in scope traces.
#[inline]
pub(crate) fn region(workers: usize) -> Option<SpanGuard> {
    recorder::tracing().then(|| {
        SpanGuard::start(Open::Region {
            region: NEXT_REGION.fetch_add(1, Ordering::Relaxed),
            workers: workers as u32,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StoragePrecision;
    use crate::tensor::Tensor;

    /// Runs `f` under a fresh traced recorder and returns it.
    fn traced(f: impl FnOnce()) -> Recorder {
        let rec = Recorder::traced(StoragePrecision::F32);
        rec.scope(f);
        rec
    }

    #[test]
    fn disabled_records_nothing_and_returns_none() {
        disable();
        crate::counters::disable();
        reset();
        assert!(kernel(OpKind::MatMul).is_none());
        assert!(region(4).is_none());
        let a = Tensor::zeros(&[16, 16]);
        let _ = a.matmul(&a).unwrap();
        assert!(take_log().is_empty());
        assert_eq!(kind_busy_nanos(), [0; N_OP_KINDS]);
        // A ledger-only recorder in scope times nothing either.
        let ledger = Recorder::new(StoragePrecision::F32);
        ledger.scope(|| assert!(kernel(OpKind::MatMul).is_none()));
    }

    #[test]
    fn ambient_spans_and_cumulative_nanos_agree() {
        reset();
        enable();
        let a = Tensor::zeros(&[16, 16]);
        let _ = a.matmul(&a).unwrap();
        let _ = crate::ops::gelu(&a);
        disable();
        let log = take_log();
        assert!(log.kernels.iter().any(|s| s.kind == OpKind::MatMul));
        assert!(log.kernels.iter().any(|s| s.kind == OpKind::Gelu));
        // take_log drained the log but left the atomics.
        assert_eq!(log.stored_kind_nanos(), kind_busy_nanos(), "no drops");
        reset();
        assert_eq!(kind_busy_nanos(), [0; N_OP_KINDS]);
    }

    #[test]
    fn kernel_spans_and_cumulative_nanos_agree() {
        let rec = traced(|| {
            let a = Tensor::zeros(&[16, 16]);
            let _ = a.matmul(&a).unwrap();
            let _ = crate::ops::gelu(&a);
        });
        let log = rec.take_log();
        let cumulative = rec.kind_busy_nanos();
        assert_eq!(log.stored_kind_nanos(), cumulative, "no drops");
        assert_eq!(
            cumulative.iter().sum::<u64>(),
            rec.total_busy_nanos(),
            "total tracks the per-kind sum"
        );
    }

    #[test]
    fn worker_spans_cover_parallel_regions() {
        let log = traced(|| {
            let pool = crate::pool::Pool::new(3);
            pool.run_parts(vec![0usize, 1, 2], |_, _| {
                std::hint::black_box(0u64);
            });
        })
        .take_log();
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
        let log = traced(|| {
            let pool = crate::pool::Pool::new(1);
            pool.run_parts(vec![0usize, 1], |_, _| {});
        })
        .take_log();
        assert!(log.regions.is_empty());
        assert!(log.workers.is_empty());
    }

    #[test]
    fn tracks_are_dense_and_stable_per_thread() {
        let log = traced(|| {
            let a = Tensor::zeros(&[8, 8]);
            let _ = a.matmul(&a).unwrap();
            let _ = a.matmul(&a).unwrap();
        })
        .take_log();
        let this_thread: Vec<u32> = log.kernels.iter().map(|s| s.track).collect();
        assert!(!this_thread.is_empty());
        assert!(
            this_thread.windows(2).all(|w| w[0] == w[1]),
            "one thread, one track: {this_thread:?}"
        );
    }
}
