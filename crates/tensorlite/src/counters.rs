//! The op ledger of the numeric plane: per-kind calls, elements, FLOPs
//! and memory traffic, tensor-storage bytes, and pool regions.
//!
//! Every kernel in `tensor.rs` / `ops.rs` reports (op kind, output
//! elements, FLOPs, element accesses) through one
//! [`crate::recorder::kernel`] hook, every tensor-storage allocation and
//! free reports its elements, and the worker pool reports each region it
//! enters — into the ledger of each [`Recorder`] scoped around the work.
//! The step journal (`superoffload::trainer`) turns per-step deltas of its
//! own recorder's ledger into ground-truth measured work.
//!
//! # Cost model
//!
//! FLOP counts follow the same analytic conventions as
//! `llm-model/src/flops.rs`: a matmul of `[m,k] @ [k,n]` costs `2·m·k·n`
//! (one multiply + one add per inner step). Non-GEMM kernels use fixed
//! documented per-element costs (see [`OpKind`]); they are conventions,
//! not micro-architectural truth, chosen so totals reconcile with the
//! model-level formulas.
//!
//! Byte accounting covers *tensor storage only*: each element is counted,
//! at the ledger's element size, when a buffer becomes a
//! [`crate::Tensor`]'s storage and again when that storage is dropped (or
//! handed back via `into_vec`). Kernel scratch (packed GEMM panels,
//! per-worker transpose stripes) is deliberately excluded — it is bounded
//! and transient. Separately, every kernel reports its *memory traffic* as
//! element accesses — the minimum operand reads + writes, ignoring cache
//! reuse, documented per kind on [`OpKind`] — which the ledger multiplies
//! by the same element size: the arithmetic-intensity denominator of the
//! roofline report.
//!
//! # Determinism
//!
//! All counters are plain `Relaxed` atomics: additions commute, so the
//! totals read at a quiescent point (no kernel in flight) are identical
//! regardless of thread count or interleaving. Two fields are the
//! exception and must never enter a deterministic artifact:
//!
//! - `peak_bytes` — the live-bytes high-water mark depends on *when*
//!   concurrent workers allocate, so it varies run to run;
//! - `pool_parallel_regions` — whether a region went parallel depends on
//!   the configured thread count.
//!
//! Everything else (calls, elements, FLOPs, allocated/freed/live bytes,
//! total pool regions) is a pure function of the executed kernels.
//!
//! [`enable`], [`disable`], [`reset`] and [`snapshot`] act on the calling
//! thread's ambient recorder ([`crate::recorder`]).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::recorder::{self, Half, Recorder};
use crate::storage::StoragePrecision;

/// The op kinds the accounting core distinguishes, with their per-element
/// FLOP conventions (GEMM kinds use `2·m·k·n` instead) and memory-traffic
/// conventions in element accesses (minimum operand reads + writes,
/// ignoring cache reuse — the ledger multiplies them by its element size
/// into the arithmetic-intensity denominator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    /// `[m,k] @ [k,n]` GEMM — `2·m·k·n` FLOPs; `m·k + k·n + m·n` accesses.
    MatMul = 0,
    /// Fused `Aᵀ @ B` GEMM — `2·m·k·n` FLOPs; `m·k + k·n + m·n` accesses.
    MatMulAt = 1,
    /// Fused `A @ Bᵀ` GEMM — `2·m·k·n` FLOPs; `m·k + k·n + m·n` accesses.
    MatMulBt = 2,
    /// Blocked transpose — 0 FLOPs (pure data movement); 2 accesses
    /// per element (read + write).
    Transpose = 3,
    /// Row-wise softmax — 5 FLOPs/element (sub, exp, add, mul, scale);
    /// 2 accesses per element (read + write).
    Softmax = 4,
    /// Softmax backward — 4 FLOPs/element; 3 accesses per element
    /// (read y and dy, write dx).
    SoftmaxBackward = 5,
    /// Layer norm forward — 8 FLOPs/element; `2·m·n + 2·n + 2·m` accesses
    /// (read x/γ/β, write y and per-row mean/rstd).
    LayerNorm = 6,
    /// Layer norm backward — 16 FLOPs/element; `3·m·n + 3·n + 2·m` accesses
    /// (read x/dy/γ + per-row stats, write dx/dγ/dβ).
    LayerNormBackward = 7,
    /// GELU (tanh approximation) — 10 FLOPs/element; 2 accesses/element.
    Gelu = 8,
    /// GELU backward — 20 FLOPs/element; 3 accesses per element
    /// (read x and dy, write dx).
    GeluBackward = 9,
    /// Cross-entropy on top of its internal softmax — 3 FLOPs/element;
    /// 2 accesses per element for the epilogue (the internal softmax
    /// reports its own traffic).
    CrossEntropy = 10,
    /// Named element-wise tensor ops (`add`/`sub`/`mul`: 1 FLOP/element,
    /// 3 accesses; `axpy`: 2 FLOPs, 3 accesses; `scale`: 1 FLOP, 2).
    Elementwise = 11,
    /// One Adam parameter update — 12 FLOPs/element; 7 accesses per
    /// element (read p/g/m/v, write p/m/v; see `grace-optim`).
    AdamStep = 12,
}

/// Number of distinct [`OpKind`]s.
pub const N_OP_KINDS: usize = 13;

impl OpKind {
    /// All kinds, in discriminant order.
    pub const ALL: [OpKind; N_OP_KINDS] = [
        OpKind::MatMul,
        OpKind::MatMulAt,
        OpKind::MatMulBt,
        OpKind::Transpose,
        OpKind::Softmax,
        OpKind::SoftmaxBackward,
        OpKind::LayerNorm,
        OpKind::LayerNormBackward,
        OpKind::Gelu,
        OpKind::GeluBackward,
        OpKind::CrossEntropy,
        OpKind::Elementwise,
        OpKind::AdamStep,
    ];

    /// Stable kebab-case name used in journal records and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::MatMulAt => "matmul-at",
            OpKind::MatMulBt => "matmul-bt",
            OpKind::Transpose => "transpose",
            OpKind::Softmax => "softmax",
            OpKind::SoftmaxBackward => "softmax-backward",
            OpKind::LayerNorm => "layer-norm",
            OpKind::LayerNormBackward => "layer-norm-backward",
            OpKind::Gelu => "gelu",
            OpKind::GeluBackward => "gelu-backward",
            OpKind::CrossEntropy => "cross-entropy",
            OpKind::Elementwise => "elementwise",
            OpKind::AdamStep => "adam-step",
        }
    }

    /// The array index of this kind.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A run's op ledger: the atomic form of [`CounterSnapshot`], counting
/// bytes at the run's element size.
#[derive(Debug)]
pub(crate) struct Ledger {
    elem_bytes: u64,
    calls: [AtomicU64; N_OP_KINDS],
    elems: [AtomicU64; N_OP_KINDS],
    flops: [AtomicU64; N_OP_KINDS],
    op_bytes: [AtomicU64; N_OP_KINDS],
    allocated: AtomicU64,
    freed: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
    regions: AtomicU64,
    parallel_regions: AtomicU64,
}

impl Ledger {
    pub(crate) fn new(storage: StoragePrecision) -> Ledger {
        let zeros = || [const { AtomicU64::new(0) }; N_OP_KINDS];
        Ledger {
            elem_bytes: storage.elem_bytes(),
            calls: zeros(),
            elems: zeros(),
            flops: zeros(),
            op_bytes: zeros(),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            regions: AtomicU64::new(0),
            parallel_regions: AtomicU64::new(0),
        }
    }

    pub(crate) fn op(&self, kind: OpKind, elems: usize, flops: u64, accesses: u64) {
        let i = kind.index();
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.elems[i].fetch_add(elems as u64, Ordering::Relaxed);
        self.flops[i].fetch_add(flops, Ordering::Relaxed);
        self.op_bytes[i].fetch_add(accesses * self.elem_bytes, Ordering::Relaxed);
    }

    pub(crate) fn alloc(&self, elems: usize) {
        let bytes = elems as u64 * self.elem_bytes;
        self.allocated.fetch_add(bytes, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub(crate) fn free(&self, elems: usize) {
        let bytes = elems as u64 * self.elem_bytes;
        self.freed.fetch_add(bytes, Ordering::Relaxed);
        self.live.fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// One kernel region on the pool (`parallel` = whether it actually
    /// forked; the total is thread-count-invariant, the split is not).
    pub(crate) fn region(&self, parallel: bool) {
        self.regions.fetch_add(1, Ordering::Relaxed);
        if parallel {
            self.parallel_regions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> CounterSnapshot {
        let load = |a: &[AtomicU64; N_OP_KINDS]| a.each_ref().map(|c| c.load(Ordering::Relaxed));
        CounterSnapshot {
            calls: load(&self.calls),
            elems: load(&self.elems),
            flops: load(&self.flops),
            op_bytes: load(&self.op_bytes),
            allocated_bytes: self.allocated.load(Ordering::Relaxed),
            freed_bytes: self.freed.load(Ordering::Relaxed),
            live_bytes: self.live.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
            pool_regions: self.regions.load(Ordering::Relaxed),
            pool_parallel_regions: self.parallel_regions.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for c in [&self.calls, &self.elems, &self.flops, &self.op_bytes]
            .into_iter()
            .flatten()
            .chain([
                &self.allocated,
                &self.freed,
                &self.regions,
                &self.parallel_regions,
            ])
        {
            c.store(0, Ordering::Relaxed);
        }
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Turns the calling thread's ambient ledger on, for this thread and the
/// pool regions it launches ([`crate::recorder`]).
///
/// # Panics
/// Panics inside a [`Recorder::scope`].
pub fn enable() {
    recorder::switch_ambient(Half::Ledger, true);
}

/// Turns the calling thread's ambient ledger off; its totals stay
/// readable through [`snapshot`].
pub fn disable() {
    recorder::switch_ambient(Half::Ledger, false);
}

/// Zeroes the calling thread's ambient ledger.
pub fn reset() {
    recorder::ambient(|r| r.ledger().reset());
}

/// The calling thread's ambient ledger. Exact at quiescent points.
pub fn snapshot() -> CounterSnapshot {
    recorder::ambient(Recorder::snapshot)
}

/// A point-in-time copy of every counter. Exact when taken at a quiescent
/// point (no kernel in flight); see the module docs for which fields are
/// deterministic across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Kernel invocations per [`OpKind`] (indexed by [`OpKind::index`]).
    pub calls: [u64; N_OP_KINDS],
    /// Output elements produced per [`OpKind`].
    pub elems: [u64; N_OP_KINDS],
    /// FLOPs executed per [`OpKind`] (conventions in [`OpKind`] docs).
    pub flops: [u64; N_OP_KINDS],
    /// Memory traffic in bytes per [`OpKind`] — minimum operand reads +
    /// writes (conventions in [`OpKind`] docs). The arithmetic-intensity
    /// denominator; distinct from storage allocation below.
    pub op_bytes: [u64; N_OP_KINDS],
    /// Total bytes that became tensor storage.
    pub allocated_bytes: u64,
    /// Total bytes of tensor storage released.
    pub freed_bytes: u64,
    /// Currently-live tensor-storage bytes (`allocated − freed`; can go
    /// negative when storage allocated outside the ledger's scope is freed
    /// inside it).
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`. Thread-timing-dependent — never
    /// put this in a deterministic artifact.
    pub peak_bytes: i64,
    /// Kernel regions entered on the worker pool (deterministic).
    pub pool_regions: u64,
    /// Regions that actually spawned workers (thread-count-dependent).
    pub pool_parallel_regions: u64,
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            calls: [0; N_OP_KINDS],
            elems: [0; N_OP_KINDS],
            flops: [0; N_OP_KINDS],
            op_bytes: [0; N_OP_KINDS],
            allocated_bytes: 0,
            freed_bytes: 0,
            live_bytes: 0,
            peak_bytes: 0,
            pool_regions: 0,
            pool_parallel_regions: 0,
        }
    }
}

impl CounterSnapshot {
    /// Invocation count for one kind.
    pub fn calls(&self, kind: OpKind) -> u64 {
        self.calls[kind.index()]
    }

    /// Output-element count for one kind.
    pub fn elems(&self, kind: OpKind) -> u64 {
        self.elems[kind.index()]
    }

    /// FLOP count for one kind.
    pub fn flops(&self, kind: OpKind) -> u64 {
        self.flops[kind.index()]
    }

    /// Memory-traffic byte count for one kind.
    pub fn bytes(&self, kind: OpKind) -> u64 {
        self.op_bytes[kind.index()]
    }

    /// Total FLOPs across all kinds.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Total kernel memory traffic in bytes across all kinds.
    pub fn total_op_bytes(&self) -> u64 {
        self.op_bytes.iter().sum()
    }

    /// The change since `base` (an earlier snapshot): monotone counters
    /// subtract; `live_bytes` is the signed change; `peak_bytes` carries
    /// this (later) snapshot's running maximum unchanged, because a
    /// high-water mark has no meaningful delta.
    pub fn delta_since(&self, base: &CounterSnapshot) -> CounterSnapshot {
        let mut d = *self;
        for i in 0..N_OP_KINDS {
            d.calls[i] = self.calls[i].wrapping_sub(base.calls[i]);
            d.elems[i] = self.elems[i].wrapping_sub(base.elems[i]);
            d.flops[i] = self.flops[i].wrapping_sub(base.flops[i]);
            d.op_bytes[i] = self.op_bytes[i].wrapping_sub(base.op_bytes[i]);
        }
        d.allocated_bytes = self.allocated_bytes.wrapping_sub(base.allocated_bytes);
        d.freed_bytes = self.freed_bytes.wrapping_sub(base.freed_bytes);
        d.live_bytes = self.live_bytes - base.live_bytes;
        d.pool_regions = self.pool_regions.wrapping_sub(base.pool_regions);
        d.pool_parallel_regions = self
            .pool_parallel_regions
            .wrapping_sub(base.pool_parallel_regions);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Runs `f` under a fresh f32 recorder and returns its ledger.
    fn ledger_of(f: impl FnOnce()) -> CounterSnapshot {
        let rec = Recorder::new(StoragePrecision::F32);
        rec.scope(f);
        rec.snapshot()
    }

    #[test]
    fn disabled_records_nothing() {
        disable();
        reset();
        let idle = Recorder::new(StoragePrecision::F32);
        let a = Tensor::zeros(&[8, 8]);
        let _ = a.matmul(&a).unwrap();
        assert_eq!(snapshot(), CounterSnapshot::default());
        assert_eq!(idle.snapshot(), CounterSnapshot::default(), "never scoped");
    }

    #[test]
    fn ambient_ledger_records_between_enable_and_disable() {
        reset();
        enable();
        let a = Tensor::zeros(&[4, 4]);
        let _ = a.matmul(&a).unwrap();
        disable();
        let _ = a.matmul(&a).unwrap();
        let s = snapshot();
        assert_eq!(s.calls(OpKind::MatMul), 1, "only the enabled call counts");
        assert_eq!(s.bytes(OpKind::MatMul), 4 * 3 * 4 * 4, "f32 element size");
    }

    #[test]
    fn conservation_and_peak_invariants() {
        let s = ledger_of(|| {
            let a = Tensor::zeros(&[16, 16]);
            let b = a.clone();
            let c = a.matmul(&b).unwrap();
            drop(b);
            let v = c.into_vec();
            assert_eq!(v.len(), 256);
            drop(a);
        });
        assert_eq!(
            s.allocated_bytes as i64 - s.freed_bytes as i64,
            s.live_bytes
        );
        assert_eq!(s.live_bytes, 0, "everything was dropped");
        assert!(s.peak_bytes >= s.live_bytes);
        // a + clone + matmul result all lived at once: 3 × 16×16×4 B.
        assert!(s.peak_bytes >= 3 * 16 * 16 * 4);
        assert_eq!(s.calls(OpKind::MatMul), 1);
        assert_eq!(s.elems(OpKind::MatMul), 256);
        assert_eq!(s.flops(OpKind::MatMul), 2 * 16 * 16 * 16);
        // Traffic convention: read A, read B, write C at 4 B/f32.
        assert_eq!(s.bytes(OpKind::MatMul), 4 * 3 * 16 * 16);
    }

    #[test]
    fn op_totals_are_thread_count_invariant() {
        let mut rng = crate::rng::XorShiftRng::new(42);
        // Big enough to clear the GEMM family threshold so the pool really
        // forks.
        let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 64], 1.0, &mut rng);
        let mut per_threads = Vec::new();
        for threads in [1usize, 2, 7] {
            let s = ledger_of(|| {
                crate::pool::with_threads(threads, || {
                    let c = a.matmul(&b).unwrap();
                    let d = crate::ops::softmax_rows(&c).unwrap();
                    let _ = crate::ops::gelu(&d);
                })
            });
            per_threads.push((threads, s));
        }
        let (_, base) = per_threads[0];
        for (threads, s) in &per_threads[1..] {
            assert_eq!(s.calls, base.calls, "threads={threads}");
            assert_eq!(s.elems, base.elems, "threads={threads}");
            assert_eq!(s.flops, base.flops, "threads={threads}");
            assert_eq!(s.op_bytes, base.op_bytes, "threads={threads}");
            assert_eq!(s.allocated_bytes, base.allocated_bytes, "t={threads}");
            assert_eq!(s.freed_bytes, base.freed_bytes, "t={threads}");
            assert_eq!(s.live_bytes, base.live_bytes, "t={threads}");
            assert_eq!(s.pool_regions, base.pool_regions, "t={threads}");
        }
    }

    #[test]
    fn delta_since_subtracts_monotone_counters() {
        let mut a = CounterSnapshot::default();
        a.calls[0] = 10;
        a.allocated_bytes = 100;
        a.freed_bytes = 40;
        a.live_bytes = 60;
        a.peak_bytes = 80;
        let mut b = a;
        b.calls[0] = 25;
        b.allocated_bytes = 300;
        b.freed_bytes = 240;
        b.live_bytes = 60;
        b.peak_bytes = 120;
        let d = b.delta_since(&a);
        assert_eq!(d.calls[0], 15);
        assert_eq!(d.allocated_bytes, 200);
        assert_eq!(d.freed_bytes, 200);
        assert_eq!(d.live_bytes, 0);
        assert_eq!(d.peak_bytes, 120, "peak carries the later running max");
    }

    #[test]
    fn bf16_ledger_counts_two_bytes_per_element() {
        let rec = Recorder::new(StoragePrecision::Bf16);
        rec.scope(|| {
            let t = Tensor::zeros(&[10]);
            let _ = t.scale(2.0);
        });
        let s = rec.snapshot();
        assert_eq!(s.allocated_bytes, 40, "two 10-elem tensors at 2 B");
        assert_eq!(s.freed_bytes, 40);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.bytes(OpKind::Elementwise), 2 * 2 * 10, "read + write");
    }

    #[test]
    fn kind_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = OpKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OP_KINDS);
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
