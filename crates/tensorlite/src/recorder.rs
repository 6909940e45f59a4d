//! One scoped recorder per run: a [`Recorder`] holds a run's op ledger
//! ([`crate::counters`]), counted at the run's storage element size, and
//! its kernel spans with per-kind busy time ([`crate::spans`]).
//!
//! # Which run a count belongs to
//!
//! [`Recorder::scope`] installs a recorder on the calling thread for the
//! duration of a closure. Every kernel, tensor allocation and free, and
//! pool region that runs in that window lands in it: on the calling
//! thread, and in every task of a pool region that thread launches
//! (`Pool::run_parts` carries the launching thread's recorders into each
//! task, alongside its one-thread override). Nothing else lands in it: two
//! runs on two threads, or a kernel the caller runs between two scoped
//! steps, never share a count.
//!
//! Scopes nest: a recorder scoped inside another feeds both, so an
//! enclosing recorder sees its inner ones' work. Each recorder counts
//! bytes at its own element size.
//!
//! # Element size
//!
//! Kernels report element accesses and tensors report elements; a ledger
//! multiplies both by the element size of the [`StoragePrecision`] its
//! recorder was made with (4 B for f32, 2 B for bf16).
//!
//! # Overhead when nothing records
//!
//! Every hook first loads one `const`-initialised thread-local pointer and
//! returns when it is null: no atomic read-modify-write and no global
//! read, so the numeric plane pays nothing measurable when no recorder is
//! in scope.
//!
//! # The ambient recorder
//!
//! Each thread also owns an ambient recorder (f32 element size) that the
//! free functions `counters::{enable, disable, reset, snapshot}` and
//! `spans::{enable, disable, reset, take_log, kind_busy_nanos}` act on.
//! Switching either half on installs it as the root of the thread's scope
//! chain until both halves are off again — the same mechanism as
//! [`Recorder::scope`], without a closure. Switch it outside any scope,
//! at a quiescent point.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::counters::{CounterSnapshot, Ledger, OpKind, N_OP_KINDS};
use crate::spans::{SpanGuard, SpanLog, Trace};
use crate::storage::StoragePrecision;

/// A run's recording state: its op ledger and its span log with busy
/// time. Clones share the state.
#[derive(Debug, Clone)]
pub struct Recorder(Arc<State>);

#[derive(Debug)]
pub(crate) struct State {
    pub(crate) ledger: Ledger,
    pub(crate) trace: Trace,
    counting: AtomicBool,
    tracing: AtomicBool,
}

impl State {
    pub(crate) fn counting(&self) -> bool {
        self.counting.load(Ordering::Relaxed)
    }

    pub(crate) fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }
}

impl Recorder {
    /// A recorder that keeps an op ledger at `storage`'s element size.
    pub fn new(storage: StoragePrecision) -> Recorder {
        Recorder::with(storage, true, false)
    }

    /// A recorder that keeps an op ledger at `storage`'s element size and
    /// stores the kernel, region and worker spans of its scope.
    pub fn traced(storage: StoragePrecision) -> Recorder {
        Recorder::with(storage, true, true)
    }

    fn with(storage: StoragePrecision, counting: bool, tracing: bool) -> Recorder {
        Recorder(Arc::new(State {
            ledger: Ledger::new(storage),
            trace: Trace::default(),
            counting: AtomicBool::new(counting),
            tracing: AtomicBool::new(tracing),
        }))
    }

    /// Runs `f` with this recorder installed on the calling thread (see
    /// the module docs), inside any recorders already installed there.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let frame = Frame {
            state: Arc::as_ptr(&self.0),
            parent: CURRENT.with(Cell::get),
        };
        enter(&frame, f)
    }

    /// The ledger so far. Exact at a quiescent point (no kernel of this
    /// recorder's scope in flight).
    pub fn snapshot(&self) -> CounterSnapshot {
        self.0.ledger.snapshot()
    }

    /// Drains the span log, leaving it empty; busy nanos are kept.
    pub fn take_log(&self) -> SpanLog {
        self.0.trace.take_log()
    }

    /// Cumulative busy nanoseconds per [`OpKind`] of the kernels timed in
    /// this recorder's scope. Exact even when the span log overflowed.
    pub fn kind_busy_nanos(&self) -> [u64; N_OP_KINDS] {
        self.0.trace.kind_busy_nanos()
    }

    /// Cumulative busy nanoseconds across all kinds — one relaxed load,
    /// cheap enough for per-step deltas.
    pub fn total_busy_nanos(&self) -> u64 {
        self.0.trace.total_busy_nanos()
    }

    pub(crate) fn ledger(&self) -> &Ledger {
        &self.0.ledger
    }

    pub(crate) fn trace(&self) -> &Trace {
        &self.0.trace
    }
}

/// One installed recorder in a thread's scope chain. A frame is never
/// written after it is made, and stays installed only while its owner —
/// a [`Recorder::scope`] call, the thread's ambient slot, or a pool region
/// that carries it — keeps it, and the recorder it points to, alive.
struct Frame {
    state: *const State,
    parent: *const Frame,
}

thread_local! {
    /// The calling thread's innermost installed frame, or null.
    static CURRENT: Cell<*const Frame> = const { Cell::new(ptr::null()) };
}

fn enter<R>(frame: *const Frame, f: impl FnOnce() -> R) -> R {
    struct Restore(*const Frame);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(frame)));
    f()
}

/// Whether any recorder is installed on the calling thread: the one
/// thread-local load every hook starts with.
#[inline]
pub(crate) fn active() -> bool {
    !CURRENT.with(Cell::get).is_null()
}

/// Calls `f` on every recorder installed on the calling thread, innermost
/// first.
#[inline]
pub(crate) fn each(mut f: impl FnMut(&State)) {
    let mut p = CURRENT.with(Cell::get);
    while !p.is_null() {
        // SAFETY: an installed frame and its recorder outlive the
        // installation (see `Frame`).
        let frame = unsafe { &*p };
        f(unsafe { &*frame.state });
        p = frame.parent;
    }
}

/// Whether a recorder installed on the calling thread stores spans.
#[inline]
pub(crate) fn tracing() -> bool {
    let mut traced = false;
    each(|r| traced |= r.tracing());
    traced
}

/// The one hook of every kernel: records the op — `elems` output elements,
/// `flops` FLOPs, `accesses` operand element reads + writes (see the
/// [`OpKind`] conventions) — in every ledger in scope, and opens its span
/// when a recorder in scope traces. Hold the guard for the kernel's
/// duration. Public so sibling numeric-plane crates (`grace-optim` records
/// [`OpKind::AdamStep`]) report ops executed outside `tensorlite` itself.
#[inline]
#[must_use]
pub fn kernel(kind: OpKind, elems: usize, flops: u64, accesses: u64) -> Option<SpanGuard> {
    if !active() {
        return None;
    }
    open(kind, Some((elems, flops, accesses)))
}

/// Records `work` (when given) in every ledger in scope and opens a
/// kernel span when a recorder in scope traces.
pub(crate) fn open(kind: OpKind, work: Option<(usize, u64, u64)>) -> Option<SpanGuard> {
    let mut traced = false;
    each(|r| {
        if let Some((elems, flops, accesses)) = work.filter(|_| r.counting()) {
            r.ledger.op(kind, elems, flops, accesses);
        }
        traced |= r.tracing();
    });
    traced.then(|| SpanGuard::kernel(kind))
}

/// Runs `f` on the ledger of every counting recorder in scope.
#[inline]
fn each_ledger(f: impl Fn(&Ledger)) {
    if active() {
        each(|r| {
            if r.counting() {
                f(&r.ledger);
            }
        });
    }
}

/// Records `elems` elements becoming tensor storage.
#[inline]
pub(crate) fn alloc(elems: usize) {
    each_ledger(|l| l.alloc(elems));
}

/// Records `elems` elements of tensor storage being released.
#[inline]
pub(crate) fn free(elems: usize) {
    each_ledger(|l| l.free(elems));
}

/// Records the pool entering one kernel region.
#[inline]
pub(crate) fn pool_region(parallel: bool) {
    each_ledger(|l| l.region(parallel));
}

/// The calling thread's recorders, carried into the tasks of a pool region
/// it launches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Carried(*const Frame);

// SAFETY: the one field points to read-only frames whose recorders are
// `Sync`; `Carried::enter`'s contract keeps them alive while any thread
// uses them.
unsafe impl Send for Carried {}
unsafe impl Sync for Carried {}

/// The calling thread's recorders, to carry into a pool region's tasks.
pub(crate) fn carry() -> Carried {
    Carried(CURRENT.with(Cell::get))
}

impl Carried {
    /// Runs `f` with the carried recorders installed on the calling thread.
    ///
    /// # Safety
    /// The thread that called [`carry`] must stay inside the recorder
    /// scopes it was in then until `f` returns.
    pub(crate) unsafe fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        enter(self.0, f)
    }
}

/// Which half of the ambient recorder a switch turns on or off.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Half {
    Ledger,
    Spans,
}

struct Ambient {
    rec: Recorder,
    frame: Frame,
}

impl Drop for Ambient {
    fn drop(&mut self) {
        let me: *const Frame = &self.frame;
        let _ = CURRENT.try_with(|c| {
            if c.get() == me {
                c.set(ptr::null());
            }
        });
    }
}

thread_local! {
    static AMBIENT: Ambient = {
        let rec = Recorder::with(StoragePrecision::F32, false, false);
        let frame = Frame {
            state: Arc::as_ptr(&rec.0),
            parent: ptr::null(),
        };
        Ambient { rec, frame }
    };
}

/// Runs `f` on the calling thread's ambient recorder.
pub(crate) fn ambient<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    AMBIENT.with(|a| f(&a.rec))
}

/// Switches one half of the calling thread's ambient recorder on or off,
/// installing it while either half is on.
///
/// # Panics
/// Panics inside another recorder's scope: the ambient recorder sits at
/// the root of the thread's chain, so it could not see that scope's work.
pub(crate) fn switch_ambient(half: Half, on: bool) {
    AMBIENT.with(|a| {
        let me: *const Frame = &a.frame;
        let top = CURRENT.with(Cell::get);
        assert!(
            top.is_null() || top == me,
            "switch the ambient recorder outside any recorder scope"
        );
        let state = &a.rec.0;
        match half {
            Half::Ledger => &state.counting,
            Half::Spans => &state.tracing,
        }
        .store(on, Ordering::Relaxed);
        let installed = state.counting() || state.tracing();
        CURRENT.with(|c| c.set(if installed { me } else { ptr::null() }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn matmul(n: usize) {
        let a = Tensor::zeros(&[n, n]);
        let _ = a.matmul(&a).unwrap();
    }

    #[test]
    fn nested_scopes_feed_every_enclosing_recorder() {
        let outer = Recorder::new(StoragePrecision::F32);
        let inner = Recorder::new(StoragePrecision::Bf16);
        outer.scope(|| {
            matmul(4);
            inner.scope(|| matmul(8));
        });
        let (o, i) = (outer.snapshot(), inner.snapshot());
        assert_eq!(o.calls(OpKind::MatMul), 2);
        assert_eq!(i.calls(OpKind::MatMul), 1, "inner sees only its scope");
        assert_eq!(i.flops(OpKind::MatMul), 2 * 8 * 8 * 8);
        // Each ledger counts at its own element size.
        assert_eq!(i.bytes(OpKind::MatMul), 2 * 3 * 8 * 8);
        assert_eq!(o.bytes(OpKind::MatMul), 4 * 3 * (4 * 4 + 8 * 8));
        assert_eq!(i.allocated_bytes, 2 * 2 * 8 * 8, "input + output");
        assert_eq!(i.live_bytes, 0);
    }

    #[test]
    fn pool_tasks_carry_the_launching_recorder() {
        let rec = Recorder::traced(StoragePrecision::F32);
        rec.scope(|| {
            crate::pool::Pool::new(3).run_parts(vec![4usize, 8, 16], |_, n| matmul(n));
        });
        let s = rec.snapshot();
        assert_eq!(s.calls(OpKind::MatMul), 3, "every task's kernel lands");
        assert_eq!(s.pool_parallel_regions, 1);
        assert_eq!(s.live_bytes, 0);
        let log = rec.take_log();
        assert_eq!(log.kernels.len(), 3);
        assert_eq!(log.workers.len(), 3);
    }

    #[test]
    fn recorders_on_two_threads_stay_apart() {
        let barrier = std::sync::Barrier::new(2);
        let run = |n: usize| {
            let rec = Recorder::new(StoragePrecision::F32);
            barrier.wait();
            rec.scope(|| (0..50).for_each(|_| matmul(n)));
            rec.snapshot()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(4));
            let b = s.spawn(|| run(6));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.calls(OpKind::MatMul), 50);
        assert_eq!(a.flops(OpKind::MatMul), 50 * 2 * 4 * 4 * 4);
        assert_eq!(b.flops(OpKind::MatMul), 50 * 2 * 6 * 6 * 6);
    }

    #[test]
    #[should_panic(expected = "outside any recorder scope")]
    fn ambient_cannot_switch_on_inside_a_scope() {
        Recorder::new(StoragePrecision::F32).scope(crate::counters::enable);
    }
}
