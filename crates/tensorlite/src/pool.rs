//! Persistent worker pool shared by every parallel kernel in the numeric
//! plane.
//!
//! Earlier revisions spawned scoped OS threads per parallel region
//! (`std::thread::scope`), which costs tens of microseconds per region —
//! more than many kernels' entire work. The pool now keeps long-lived
//! worker threads parked on a condition variable; a parallel region
//! publishes a type-erased job to a shared injector queue, the workers
//! and the calling thread claim disjoint task indices from it, and the
//! caller returns once every task has finished. Entering a region costs a
//! queue push and a wakeup — microseconds, not thread spawns.
//!
//! Parallelism is only ever applied across *disjoint* partitions of the
//! output (rows / heads / shards), which keeps per-element accumulation
//! order unchanged — results are bit-identical to the serial kernels at
//! every thread count, regardless of which thread ends up running which
//! task.
//!
//! Thread-count resolution, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by tests
//!    and by pool workers themselves, which run nested kernels serially),
//! 2. the process-wide count set by [`set_threads`] /
//!    [`ParallelConfig::install`],
//! 3. the `SUPEROFFLOAD_THREADS` environment variable (read once; `0` or
//!    garbage is rejected with a one-time warning, not silently treated as
//!    auto-detect),
//! 4. [`std::thread::available_parallelism`].
//!
//! Whether a kernel parallelizes at all is decided by per-kernel-family
//! work thresholds ([`KernelFamily`], [`family_threshold`]): below the
//! threshold the region overhead dwarfs the work. The thresholds depend
//! only on operand shapes (never on data or timing), so the
//! serial/parallel decision is deterministic — and because parallel
//! results are bit-identical to serial ones anyway, re-calibrating a
//! threshold (`repro -- calibrate`) can never change a result, only the
//! speed.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::recorder;
use crate::spans;

/// Sentinel meaning "not configured" in the global thread-count cell.
const UNSET: usize = usize::MAX;

/// Kernel families with independently calibrated parallelism thresholds.
///
/// The cost of going parallel is (mostly) fixed per region, but the work
/// per element-op differs by an order of magnitude between a GEMM inner
/// loop and a pure element-wise pass — so the break-even point differs
/// too. `repro -- calibrate` measures the actual crossover per family on a
/// host and prints the comparison against these defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelFamily {
    /// Dense matmul and its fused-transpose variants (`m·n·k` element-ops).
    Gemm = 0,
    /// Attention head loops (GEMM-dominated; head-level partitioning).
    Attention = 1,
    /// Row-wise softmax forward/backward.
    Softmax = 2,
    /// Layer-norm forward/backward.
    LayerNorm = 3,
    /// Element-wise maps (GELU, scale, axpy).
    Elementwise = 4,
    /// Optimizer parameter updates (Adam).
    Optimizer = 5,
}

/// Number of distinct [`KernelFamily`] values.
pub const N_KERNEL_FAMILIES: usize = 6;

impl KernelFamily {
    /// All families, in discriminant order.
    pub const ALL: [KernelFamily; N_KERNEL_FAMILIES] = [
        KernelFamily::Gemm,
        KernelFamily::Attention,
        KernelFamily::Softmax,
        KernelFamily::LayerNorm,
        KernelFamily::Elementwise,
        KernelFamily::Optimizer,
    ];

    /// Stable kebab-case name (calibration reports and docs).
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Gemm => "gemm",
            KernelFamily::Attention => "attention",
            KernelFamily::Softmax => "softmax",
            KernelFamily::LayerNorm => "layer-norm",
            KernelFamily::Elementwise => "elementwise",
            KernelFamily::Optimizer => "optimizer",
        }
    }

    /// Default work threshold (element-ops) below which the family runs
    /// serially. GEMM-like kernels do ~2 FLOPs per element-op and reuse
    /// operands from cache, so they amortize the region cost sooner than
    /// streaming element-wise passes.
    pub const fn default_threshold(self) -> usize {
        match self {
            KernelFamily::Gemm => 16_384,
            KernelFamily::Attention => 16_384,
            KernelFamily::Softmax => 24_576,
            KernelFamily::LayerNorm => 24_576,
            KernelFamily::Elementwise => 65_536,
            KernelFamily::Optimizer => 32_768,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// `0` = "use the compiled-in default" in the threshold table.
static FAMILY_THRESHOLDS: [AtomicUsize; N_KERNEL_FAMILIES] =
    [const { AtomicUsize::new(0) }; N_KERNEL_FAMILIES];

/// The effective parallelism threshold (element-ops) for one kernel
/// family.
pub fn family_threshold(family: KernelFamily) -> usize {
    match FAMILY_THRESHOLDS[family.index()].load(Ordering::Relaxed) {
        0 => family.default_threshold(),
        t => t,
    }
}

/// Overrides one family's parallelism threshold process-wide (`0` restores
/// the compiled-in default). Safe to call at any time: thresholds only
/// pick between two bit-identical execution strategies, so they can never
/// change a result.
pub fn set_family_threshold(family: KernelFamily, work: usize) {
    FAMILY_THRESHOLDS[family.index()].store(work, Ordering::Relaxed);
}

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("SUPEROFFLOAD_THREADS") {
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!(
                "warning: SUPEROFFLOAD_THREADS is not valid unicode; \
                 falling back to auto-detect"
            );
            0
        }
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            // `0` used to silently mean "hardware parallelism", which made
            // a mistyped pin (`SUPEROFFLOAD_THREADS=0` intending serial)
            // fan out to every core. Reject it loudly instead.
            _ => {
                eprintln!(
                    "warning: SUPEROFFLOAD_THREADS={s:?} is not a thread \
                     count >= 1; falling back to auto-detect"
                );
                0
            }
        },
    })
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn resolve(requested: usize) -> usize {
    if requested == 0 {
        hardware_threads()
    } else {
        requested
    }
}

/// Sets the process-wide worker thread count (`0` = auto-detect).
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The effective worker thread count for the calling thread.
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return resolve(n);
    }
    let g = GLOBAL_THREADS.load(Ordering::Relaxed);
    resolve(if g == UNSET { env_threads() } else { g })
}

/// Runs `f` with the calling thread's worker count overridden to `n`
/// (`0` = auto-detect). The override is thread-local and restored on exit,
/// so concurrent tests can pin different counts without racing.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// Parallel-execution configuration threaded through `Trainer` and the
/// benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for the numeric plane (`0` = auto-detect).
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

impl ParallelConfig {
    /// Auto-detected parallelism (`available_parallelism`).
    pub fn auto() -> Self {
        ParallelConfig { threads: 0 }
    }

    /// Fully serial execution.
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// Explicit thread count (`0` = auto-detect).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// Reads `SUPEROFFLOAD_THREADS` (unset = auto-detect; `0` or garbage
    /// is rejected with a one-time warning and treated as unset).
    pub fn from_env() -> Self {
        ParallelConfig {
            threads: env_threads(),
        }
    }

    /// Installs this configuration process-wide (see [`set_threads`]).
    pub fn install(&self) {
        set_threads(self.threads);
    }

    /// The thread count this configuration resolves to on this host.
    pub fn effective_threads(&self) -> usize {
        resolve(self.threads)
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A type-erased parallel region, shared with the persistent workers.
///
/// The struct lives on the region caller's stack. Safety rests on one
/// invariant: the caller does not return until `remaining` reaches zero,
/// so every borrow reachable through `ctx` outlives every task execution.
/// Workers only obtain the pointer while the job is in the injector queue
/// (under the queue lock), and the caller removes it from the queue before
/// waiting out the last in-flight task.
struct RegionJob {
    /// Monomorphized trampoline: casts `ctx` back and runs task `i`.
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    /// Next unclaimed task index (claims may overshoot `total`; claimants
    /// that read an index `>= total` simply retire the job).
    next: AtomicUsize,
    total: usize,
    /// Unfinished-task latch; the caller blocks on it after claiming.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed in a task; resumed by the caller so a
    /// panicking kernel behaves as it did under scoped threads (and the
    /// worker thread survives to serve later regions).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A `RegionJob` pointer that may cross threads (validity is protocol-
/// guaranteed, see [`RegionJob`]).
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobPtr(*const RegionJob);
// SAFETY: the pointee is only dereferenced while the region-completion
// protocol keeps it alive (claimed under the queue lock; the caller waits
// for `remaining == 0` before returning).
unsafe impl Send for JobPtr {}

struct Injector {
    queue: Mutex<VecDeque<JobPtr>>,
    ready: Condvar,
}

impl Injector {
    /// Claims one task, parking on the condition variable while the queue
    /// is empty. Only called by persistent workers.
    fn claim_blocking(&self) -> (JobPtr, usize) {
        let mut q = lock(&self.queue);
        loop {
            while let Some(&jp) = q.front() {
                // SAFETY: the job is in the queue (we hold the lock), so
                // its caller is still waiting on it.
                let job = unsafe { &*jp.0 };
                let i = job.next.fetch_add(1, Ordering::Relaxed);
                if i < job.total {
                    return (jp, i);
                }
                // Every index is claimed; retire the job from the queue.
                q.pop_front();
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs one claimed task, routing panics into the job instead of
/// unwinding the worker, and releases the task's slot in the completion
/// latch.
///
/// # Safety
/// `idx < job.total` must have been claimed exactly once from `job.next`,
/// and the job must still be live (see [`RegionJob`]).
unsafe fn run_task(jp: JobPtr, idx: usize) {
    let job = unsafe { &*jp.0 };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
        (job.run)(job.ctx, idx)
    }));
    if let Err(payload) = result {
        let mut slot = lock(&job.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let mut rem = lock(&job.remaining);
    *rem -= 1;
    if *rem == 0 {
        job.done.notify_all();
    }
}

fn worker_loop() {
    let inj = injector();
    loop {
        let (jp, idx) = inj.claim_blocking();
        // SAFETY: claimed under the queue lock from a live job.
        unsafe { run_task(jp, idx) };
    }
}

/// The process-wide injector, spawning `hardware_threads() - 1` persistent
/// helper threads on first use (the region caller is the remaining
/// worker). Helpers park between regions and are never joined; they exit
/// with the process.
fn injector() -> &'static Injector {
    static INJECTOR: OnceLock<Injector> = OnceLock::new();
    INJECTOR.get_or_init(|| {
        for w in 0..hardware_threads().saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("superoffload-pool-{w}"))
                .spawn(worker_loop)
                .expect("spawn persistent pool worker");
        }
        Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    })
}

/// Publishes `task(0..total)` to the persistent pool, participates in the
/// claiming itself, and returns once every task has finished. Task panics
/// are resumed here, after the region has fully quiesced.
fn execute_region<F: Fn(usize) + Sync>(task: &F, total: usize) {
    unsafe fn trampoline<F: Fn(usize)>(ctx: *const (), i: usize) {
        unsafe { (*ctx.cast::<F>())(i) }
    }
    let job = RegionJob {
        run: trampoline::<F>,
        ctx: (task as *const F).cast(),
        next: AtomicUsize::new(0),
        total,
        remaining: Mutex::new(total),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };
    let inj = injector();
    let jp = JobPtr(&job as *const RegionJob);
    lock(&inj.queue).push_back(jp);
    inj.ready.notify_all();
    // Claim alongside the helpers: on a single-core host (no helpers) the
    // caller simply runs every task; on a busy pool it keeps making
    // progress instead of blocking.
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        // SAFETY: index claimed from the dispenser of our own live job.
        unsafe { run_task(jp, i) };
    }
    // Retire the job from the queue if no helper got there first — after
    // this point no new claimant can observe the pointer.
    {
        let mut q = lock(&inj.queue);
        if let Some(pos) = q.iter().position(|&p| p == jp) {
            q.remove(pos);
        }
    }
    // Wait out in-flight helper tasks. The mutex hand-off also makes every
    // worker's writes to the partitioned output visible here.
    let mut rem = lock(&job.remaining);
    while *rem > 0 {
        rem = job.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
    }
    drop(rem);
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Part storage for a region: each task index takes its own slot exactly
/// once, so the interior mutability is race-free by construction.
struct PartSlots<S>(Vec<UnsafeCell<Option<S>>>);

// SAFETY: distinct task indices access distinct slots, and each index is
// claimed exactly once (atomic dispenser), so no slot is touched by two
// threads. `S: Send` lets the contained part move to the claiming thread.
unsafe impl<S: Send> Sync for PartSlots<S> {}

impl<S> PartSlots<S> {
    fn new(parts: Vec<S>) -> Self {
        PartSlots(
            parts
                .into_iter()
                .map(|p| UnsafeCell::new(Some(p)))
                .collect(),
        )
    }

    /// # Safety
    /// `i` must be claimed exactly once across all threads.
    unsafe fn take(&self, i: usize) -> S {
        unsafe { (*self.0[i].get()).take().expect("part slot claimed once") }
    }
}

/// A handle on the persistent worker pool with a resolved thread count.
///
/// `Pool` is a lightweight value: obtaining one costs an atomic load. The
/// backing worker threads are process-global and long-lived; the handle
/// only decides how many tasks a region is split into.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// The pool as configured for the calling thread.
    pub fn current() -> Pool {
        Pool { threads: threads() }
    }

    /// A pool with an explicit thread count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Pool {
        assert!(threads > 0, "pool thread count must be non-zero");
        Pool { threads }
    }

    /// The thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A copy of this pool limited to one thread when `work` (an estimate
    /// of element-operations) is below the family's calibrated threshold
    /// ([`family_threshold`]). The decision depends only on `work`, keeping
    /// execution deterministic — and parallel results are bit-identical to
    /// serial ones regardless.
    pub fn limit_for_family(&self, family: KernelFamily, work: usize) -> Pool {
        if work < family_threshold(family) {
            Pool { threads: 1 }
        } else {
            *self
        }
    }

    /// Runs `f(index, part)` for every element of `parts` across the
    /// persistent workers (serially on the calling thread when the pool
    /// has one thread or there is one part). Workers run nested kernels
    /// serially — parallelism is one level deep by construction.
    ///
    /// Callers size `parts` to roughly the thread count; every part is a
    /// disjoint unit of work, so execution order cannot affect results.
    pub fn run_parts<S: Send>(&self, parts: Vec<S>, f: impl Fn(usize, S) + Sync) {
        if self.threads <= 1 || parts.len() <= 1 {
            recorder::pool_region(false);
            for (i, p) in parts.into_iter().enumerate() {
                f(i, p);
            }
            return;
        }
        recorder::pool_region(true);
        // Each task runs inside the launching thread's recorders. When one
        // of them traces, the fork/join gets a region span and each task's
        // body a busy span keyed by task index, so the profiler can
        // attribute join-barrier idle time per worker slot.
        let region = spans::region(parts.len());
        let total = parts.len();
        let slots = PartSlots::new(parts);
        let (region, carried) = (region.as_ref(), recorder::carry());
        let task = |i: usize| {
            // SAFETY: the region dispenser hands out each index once.
            let part = unsafe { slots.take(i) };
            // SAFETY: the launching thread waits in `execute_region`, inside
            // its recorder scopes, until every task has returned.
            unsafe {
                carried.enter(|| {
                    let _busy = region.map(|r| r.worker(i));
                    with_threads(1, || f(i, part));
                })
            };
        };
        execute_region(&task, total);
    }

    /// Runs `f(i)` for `i in 0..n`, returning the results in index order.
    /// Indices are partitioned into contiguous blocks, one per worker.
    pub fn run<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let t = self.threads.min(n).max(1);
        if t <= 1 {
            // One region per kernel invocation, matching the delegation to
            // `run_parts` on the parallel path: the total region count is
            // thread-count-invariant.
            recorder::pool_region(false);
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(i));
            }
        } else {
            let per = n.div_ceil(t);
            let mut parts: Vec<(usize, &mut [Option<R>])> = Vec::with_capacity(t);
            let mut rest = out.as_mut_slice();
            let mut start = 0;
            while !rest.is_empty() {
                let take = per.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                parts.push((start, head));
                start += take;
                rest = tail;
            }
            self.run_parts(parts, |_, (first, slots)| {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(first + j));
                }
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("worker filled its slot"))
            .collect()
    }

    /// Partitions `data` (a row-major `[rows, row_len]` buffer) into
    /// contiguous blocks of whole rows, one per worker, and calls
    /// `f(first_row, block)` for each. Blocks are disjoint, so per-element
    /// results are independent of the partition.
    ///
    /// # Panics
    /// Panics in debug builds if `data.len()` is not a multiple of
    /// `row_len`.
    pub fn par_row_chunks(
        &self,
        data: &mut [f32],
        row_len: usize,
        f: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        if data.is_empty() || row_len == 0 {
            return;
        }
        debug_assert_eq!(data.len() % row_len, 0, "buffer is not whole rows");
        let rows = data.len() / row_len;
        let t = self.threads.min(rows).max(1);
        if t <= 1 {
            recorder::pool_region(false);
            f(0, data);
            return;
        }
        let rows_per = rows.div_ceil(t);
        let mut parts: Vec<(usize, &mut [f32])> = Vec::with_capacity(t);
        let mut rest = data;
        let mut start = 0;
        while !rest.is_empty() {
            let take = rows_per.min(rows - start);
            let (head, tail) = rest.split_at_mut(take * row_len);
            parts.push((start, head));
            start += take;
            rest = tail;
        }
        self.run_parts(parts, |_, (first, block)| f(first, block));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_order() {
        let pool = Pool::new(4);
        let out = pool.run(13, |i| i * i);
        assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        let serial = Pool::new(1).run(13, |i| i * i);
        assert_eq!(out, serial);
    }

    #[test]
    fn run_handles_empty_and_single() {
        let pool = Pool::new(3);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_row_chunks_covers_every_row_once() {
        for threads in [1usize, 2, 3, 7] {
            let pool = Pool::new(threads);
            let mut data = vec![0.0f32; 5 * 3];
            pool.par_row_chunks(&mut data, 3, |first, block| {
                for (j, row) in block.chunks_mut(3).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first + j) as f32 + 1.0;
                    }
                }
            });
            let expect: Vec<f32> = (0..5).flat_map(|r| [r as f32 + 1.0; 3]).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn persistent_pool_survives_many_small_regions() {
        // Thousands of back-to-back regions: with spawn-per-region this
        // took whole milliseconds each; the persistent pool must both stay
        // correct and reuse its workers.
        let pool = Pool::new(4);
        for round in 0..2_000usize {
            let mut data = vec![0.0f32; 8];
            pool.par_row_chunks(&mut data, 2, |first, block| {
                for (j, v) in block.iter_mut().enumerate() {
                    *v = (round + first * 2 + j) as f32;
                }
            });
            let expect: Vec<f32> = (0..8).map(|j| (round + j) as f32).collect();
            assert_eq!(data, expect, "round {round}");
        }
    }

    #[test]
    fn concurrent_regions_from_multiple_threads() {
        // Two caller threads drive independent regions against the same
        // persistent pool; each must see exactly its own results.
        let handles: Vec<_> = (0..2)
            .map(|t| {
                std::thread::spawn(move || {
                    let pool = Pool::new(4);
                    for _ in 0..200 {
                        let out = pool.run(11, move |i| i * 10 + t);
                        assert_eq!(out, (0..11).map(|i| i * 10 + t).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    }

    #[test]
    fn task_panic_propagates_and_pool_stays_usable() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.run_parts(vec![0usize, 1, 2, 3], |_, p| {
                if p == 2 {
                    panic!("task boom");
                }
            });
        });
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task boom");
        // The workers caught the panic instead of dying with it.
        assert_eq!(pool.run(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = threads();
        let inner = with_threads(7, threads);
        assert_eq!(inner, 7);
        assert_eq!(threads(), before);
        // Zero means auto-detect.
        assert!(with_threads(0, threads) >= 1);
    }

    #[test]
    fn workers_run_nested_kernels_serially() {
        let pool = Pool::new(4);
        let nested = pool.run(4, |_| threads());
        assert!(nested.iter().all(|&t| t == 1), "nested counts {nested:?}");
    }

    #[test]
    fn family_thresholds_default_override_and_restore() {
        let pool = Pool::new(8);
        let default = KernelFamily::Gemm.default_threshold();
        assert_eq!(family_threshold(KernelFamily::Gemm), default);
        assert_eq!(
            pool.limit_for_family(KernelFamily::Gemm, default - 1)
                .threads(),
            1
        );
        assert_eq!(
            pool.limit_for_family(KernelFamily::Gemm, default).threads(),
            8
        );
        set_family_threshold(KernelFamily::Gemm, 4);
        assert_eq!(family_threshold(KernelFamily::Gemm), 4);
        assert_eq!(pool.limit_for_family(KernelFamily::Gemm, 4).threads(), 8);
        set_family_threshold(KernelFamily::Gemm, 0);
        assert_eq!(family_threshold(KernelFamily::Gemm), default);
    }

    #[test]
    fn family_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = KernelFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_KERNEL_FAMILIES);
        for (i, f) in KernelFamily::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn parallel_config_resolves() {
        assert_eq!(ParallelConfig::serial().effective_threads(), 1);
        assert!(ParallelConfig::auto().effective_threads() >= 1);
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(), 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_thread_pool_rejected() {
        Pool::new(0);
    }
}
