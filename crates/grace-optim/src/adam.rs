//! Three Adam implementations with identical numerics and different
//! performance profiles.

use std::fmt;

use tensorlite::counters;
use tensorlite::storage::Bf16Vec;
use tensorlite::{KernelFamily, OpKind, Pool};

/// FLOPs per parameter for one Adam element update, counted against
/// [`tensorlite::OpKind::AdamStep`]: the canonical `adam_update_one` does
/// two moment EMAs (3 + 4), two bias corrections (2), and the update
/// itself with decoupled weight decay (3).
pub const ADAM_FLOPS_PER_PARAM: u64 = 12;

/// Stored-element accesses per parameter for one Adam element update:
/// read p/g/m/v, write back p/m/v. Byte traffic is this times the
/// installed storage element size ([`counters::elem_bytes`]).
pub const ADAM_ELEM_ACCESSES_PER_PARAM: u64 = 7;

/// Memory traffic per parameter for one Adam element update at the f32
/// default of 4 B/element (7 element accesses × 4 B).
pub const ADAM_BYTES_PER_PARAM: u64 = 28;

/// Reports one optimizer step over `n` parameters to the numeric-plane
/// accounting core and opens its wall-clock span; hold the returned guard
/// for the duration of the step so the span covers the whole update.
#[must_use]
fn record_adam_step(n: usize) -> Option<tensorlite::spans::KernelGuard> {
    counters::record_op(
        OpKind::AdamStep,
        n,
        n as u64 * ADAM_FLOPS_PER_PARAM,
        n as u64 * ADAM_ELEM_ACCESSES_PER_PARAM * counters::elem_bytes(),
    );
    tensorlite::spans::kernel(OpKind::AdamStep)
}

/// Adam hyper-parameters (decoupled weight decay, as in AdamW).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// Validates hyper-parameter ranges.
    ///
    /// # Panics
    /// Panics if betas are outside `[0, 1)` or `lr`/`eps` are non-positive.
    pub fn validate(&self) {
        assert!(self.lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&self.beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&self.beta2), "beta2 must be in [0, 1)");
        assert!(self.eps > 0.0, "eps must be positive");
        assert!(
            self.weight_decay >= 0.0,
            "weight decay must be non-negative"
        );
    }
}

/// Adam moment buffers for a parameter range.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First moments.
    pub m: Vec<f32>,
    /// Second moments.
    pub v: Vec<f32>,
}

impl AdamState {
    /// Zero-initialized state for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Number of parameters covered.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }
}

/// An Adam stepper: updates parameters in place given gradients, moments,
/// and the (1-based) global step for bias correction.
///
/// Implementations must be numerically identical; they differ only in
/// execution strategy. The trait is object-safe so engines can select an
/// implementation at runtime.
pub trait AdamStepper: fmt::Debug + Send + Sync {
    /// Human-readable implementation name.
    fn name(&self) -> &'static str;

    /// Performs one Adam step over `params` using `grads`.
    ///
    /// # Panics
    /// Implementations panic if slice lengths disagree or `step == 0`.
    fn step(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &[f32],
        state: &mut AdamState,
    );
}

fn check_lengths(params: &[f32], grads: &[f32], m: &[f32], v: &[f32], step: u64) {
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    assert_eq!(params.len(), m.len(), "params/moment length mismatch");
    assert_eq!(params.len(), v.len(), "params/variance length mismatch");
    assert!(step >= 1, "Adam step counter is 1-based");
}

#[inline(always)]
fn adam_update_one(
    p: &mut f32,
    g: f32,
    m: &mut f32,
    v: &mut f32,
    cfg: &AdamConfig,
    inv_bc1: f32,
    inv_bc2_sqrt: f32,
) {
    // Single canonical element update used by every implementation, so all
    // three produce bit-identical results. Each accumulation is a fused
    // multiply-add (one rounding per step); NaiveAdam's split passes use
    // the exact same expressions so the numerics stay shared.
    let m_new = cfg.beta1.mul_add(*m, (1.0 - cfg.beta1) * g);
    let v_new = cfg.beta2.mul_add(*v, (1.0 - cfg.beta2) * g * g);
    *m = m_new;
    *v = v_new;
    let m_hat = m_new * inv_bc1;
    let denom = v_new.sqrt().mul_add(inv_bc2_sqrt, cfg.eps);
    let update = cfg.weight_decay.mul_add(*p, m_hat / denom);
    *p = (-cfg.lr).mul_add(update, *p);
}

fn bias_corrections(cfg: &AdamConfig, step: u64) -> (f32, f32) {
    let bc1 = 1.0 - cfg.beta1.powi(step as i32);
    let bc2 = 1.0 - cfg.beta2.powi(step as i32);
    (1.0 / bc1, 1.0 / bc2.sqrt())
}

/// Unfused Adam: one full-array pass per sub-expression, reproducing the
/// memory-bandwidth profile of a framework-native CPU optimizer ("PT-CPU").
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveAdam;

impl AdamStepper for NaiveAdam {
    fn name(&self) -> &'static str {
        "pt-cpu"
    }

    fn step(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &[f32],
        state: &mut AdamState,
    ) {
        check_lengths(params, grads, &state.m, &state.v, step);
        let _span = record_adam_step(params.len());
        let (inv_bc1, inv_bc2_sqrt) = bias_corrections(cfg, step);
        // Pass 1: first moments (same fma expression as `adam_update_one`).
        for (m, &g) in state.m.iter_mut().zip(grads) {
            *m = cfg.beta1.mul_add(*m, (1.0 - cfg.beta1) * g);
        }
        // Pass 2: second moments.
        for (v, &g) in state.v.iter_mut().zip(grads) {
            *v = cfg.beta2.mul_add(*v, (1.0 - cfg.beta2) * g * g);
        }
        // Pass 3: parameter update (reads m and v again from memory).
        for ((p, m), v) in params.iter_mut().zip(&state.m).zip(&state.v) {
            let m_hat = *m * inv_bc1;
            let denom = v.sqrt().mul_add(inv_bc2_sqrt, cfg.eps);
            let update = cfg.weight_decay.mul_add(*p, m_hat / denom);
            *p = (-cfg.lr).mul_add(update, *p);
        }
    }
}

/// Fused single-pass Adam with 4-way unrolling — the DeepSpeed CPU-Adam
/// design, originally built on AVX2/AVX512 fixed-width vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuAdam;

impl AdamStepper for CpuAdam {
    fn name(&self) -> &'static str {
        "cpu-adam"
    }

    fn step(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &[f32],
        state: &mut AdamState,
    ) {
        check_lengths(params, grads, &state.m, &state.v, step);
        let _span = record_adam_step(params.len());
        let (inv_bc1, inv_bc2_sqrt) = bias_corrections(cfg, step);
        fused_chunk(
            cfg,
            params,
            grads,
            &mut state.m,
            &mut state.v,
            inv_bc1,
            inv_bc2_sqrt,
        );
    }
}

/// Fused Adam over one contiguous chunk, 4-way unrolled so the compiler can
/// keep the accumulators in vector registers.
fn fused_chunk(
    cfg: &AdamConfig,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    inv_bc1: f32,
    inv_bc2_sqrt: f32,
) {
    let n = params.len();
    let main = n - n % 4;
    let mut i = 0;
    while i < main {
        // Unrolled by 4; each lane is the canonical element update.
        for lane in 0..4 {
            let j = i + lane;
            adam_update_one(
                &mut params[j],
                grads[j],
                &mut m[j],
                &mut v[j],
                cfg,
                inv_bc1,
                inv_bc2_sqrt,
            );
        }
        i += 4;
    }
    for j in main..n {
        adam_update_one(
            &mut params[j],
            grads[j],
            &mut m[j],
            &mut v[j],
            cfg,
            inv_bc1,
            inv_bc2_sqrt,
        );
    }
}

/// Cache-tiled, multi-threaded fused Adam — the portable equivalent of the
/// paper's GraceAdam (SVE vectorization → auto-vectorized fused loops;
/// `svprfm` prefetch + TILE chunking → cache-sized tiles; OpenMP → scoped
/// threads).
///
/// The default thread count comes from the shared numeric-plane pool
/// ([`tensorlite::pool`]), so `SUPEROFFLOAD_THREADS` and
/// [`tensorlite::ParallelConfig`] govern the optimizer and the tensor
/// kernels together.
#[derive(Debug, Clone, Copy)]
pub struct GraceAdam {
    /// Elements per cache tile (default 16 KiB of f32s = 4096 elements).
    pub tile: usize,
    /// Worker threads (default: the shared pool's thread count).
    pub threads: usize,
}

impl Default for GraceAdam {
    fn default() -> Self {
        GraceAdam {
            tile: 4096,
            threads: tensorlite::pool::threads(),
        }
    }
}

impl GraceAdam {
    /// Creates a GraceAdam with explicit tile size and thread count.
    ///
    /// # Panics
    /// Panics if `tile` or `threads` is zero.
    pub fn new(tile: usize, threads: usize) -> Self {
        assert!(tile > 0, "tile must be non-zero");
        assert!(threads > 0, "threads must be non-zero");
        GraceAdam { tile, threads }
    }

    /// Thread count for an `n`-parameter step: the configured count gated
    /// by the calibrated `Optimizer` family threshold (small steps run
    /// serially — spawning shards costs more than the update), then capped
    /// so every shard holds at least one tile.
    fn plan_threads(&self, n: usize) -> usize {
        Pool::new(self.threads)
            .limit_for_family(KernelFamily::Optimizer, n * ADAM_FLOPS_PER_PARAM as usize)
            .threads()
            .min(n.div_ceil(self.tile))
            .max(1)
    }

    /// One Adam step reading gradients directly from bf16 storage.
    ///
    /// Each cache tile decodes its gradient slice into a small f32 scratch
    /// buffer (exact — every bf16 value is an f32) and then runs the same
    /// canonical fused update as [`AdamStepper::step`], so the result is
    /// bit-identical to `step()` over the pre-decoded gradients while the
    /// gradient traffic stays 2 B/element.
    ///
    /// # Panics
    /// Panics if lengths disagree or `step == 0`.
    pub fn step_bf16(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &Bf16Vec,
        state: &mut AdamState,
    ) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(params.len(), state.m.len(), "params/moment length mismatch");
        assert_eq!(
            params.len(),
            state.v.len(),
            "params/variance length mismatch"
        );
        assert!(step >= 1, "Adam step counter is 1-based");
        let _span = record_adam_step(params.len());
        let (inv_bc1, inv_bc2_sqrt) = bias_corrections(cfg, step);
        let n = params.len();
        if n == 0 {
            return;
        }
        let threads = self.plan_threads(n);
        let shard = n.div_ceil(threads);
        type Shard<'a> = (usize, &'a mut [f32], &'a mut [f32], &'a mut [f32]);
        let mut parts: Vec<Shard<'_>> = Vec::with_capacity(threads);
        let mut p_rest = params;
        let mut m_rest = state.m.as_mut_slice();
        let mut v_rest = state.v.as_mut_slice();
        let mut start = 0usize;
        for _ in 0..threads {
            let take = shard.min(p_rest.len());
            if take == 0 {
                break;
            }
            let (p_s, p_r) = p_rest.split_at_mut(take);
            let (m_s, m_r) = m_rest.split_at_mut(take);
            let (v_s, v_r) = v_rest.split_at_mut(take);
            p_rest = p_r;
            m_rest = m_r;
            v_rest = v_r;
            parts.push((start, p_s, m_s, v_s));
            start += take;
        }
        let tile = self.tile;
        Pool::new(threads).run_parts(parts, |_, (start, p_s, m_s, v_s)| {
            let mut scratch = vec![0.0f32; tile.min(p_s.len())];
            let mut off = 0;
            while off < p_s.len() {
                let t = tile.min(p_s.len() - off);
                let gs = &mut scratch[..t];
                grads.decode_range_into(start + off, gs);
                fused_chunk(
                    cfg,
                    &mut p_s[off..off + t],
                    gs,
                    &mut m_s[off..off + t],
                    &mut v_s[off..off + t],
                    inv_bc1,
                    inv_bc2_sqrt,
                );
                off += t;
            }
        });
    }

    /// One Adam step over borrowed moment slices: `m` and `v` cover the
    /// same range as `params`. [`AdamStepper::step`] delegates here; a
    /// caller stepping one bucket of a larger [`AdamState`] passes that
    /// bucket's sub-slices, with no copies.
    ///
    /// # Panics
    /// Panics if slice lengths disagree or `step == 0`.
    pub fn step_slices(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        check_lengths(params, grads, m, v, step);
        let _span = record_adam_step(params.len());
        let (inv_bc1, inv_bc2_sqrt) = bias_corrections(cfg, step);
        let n = params.len();
        if n == 0 {
            return;
        }
        let threads = self.plan_threads(n);

        // Partition into `threads` contiguous shards (one covering shard
        // when serial), each processed in cache-sized tiles on the shared
        // numeric-plane pool. Disjoint shards keep the update
        // embarrassingly parallel and bit-identical to the serial order.
        // Always going through the pool — even serially — keeps the
        // op-accounting region count at exactly one per step call, so it is
        // thread-count-invariant (the step journal serializes it).
        let shard = n.div_ceil(threads);
        type Shard<'a> = (&'a mut [f32], &'a [f32], &'a mut [f32], &'a mut [f32]);
        let mut parts: Vec<Shard<'_>> = Vec::with_capacity(threads);
        let mut p_rest = params;
        let mut g_rest = grads;
        let mut m_rest = m;
        let mut v_rest = v;
        for _ in 0..threads {
            let take = shard.min(p_rest.len());
            if take == 0 {
                break;
            }
            let (p_s, p_r) = p_rest.split_at_mut(take);
            let (g_s, g_r) = g_rest.split_at(take);
            let (m_s, m_r) = m_rest.split_at_mut(take);
            let (v_s, v_r) = v_rest.split_at_mut(take);
            p_rest = p_r;
            g_rest = g_r;
            m_rest = m_r;
            v_rest = v_r;
            parts.push((p_s, g_s, m_s, v_s));
        }
        let tile = self.tile;
        tensorlite::Pool::new(threads).run_parts(parts, |_, (p_s, g_s, m_s, v_s)| {
            for ((ps, gs), (ms, vs)) in p_s
                .chunks_mut(tile)
                .zip(g_s.chunks(tile))
                .zip(m_s.chunks_mut(tile).zip(v_s.chunks_mut(tile)))
            {
                fused_chunk(cfg, ps, gs, ms, vs, inv_bc1, inv_bc2_sqrt);
            }
        });
    }
}

impl AdamStepper for GraceAdam {
    fn name(&self) -> &'static str {
        "grace-adam"
    }

    fn step(
        &self,
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        grads: &[f32],
        state: &mut AdamState,
    ) {
        self.step_slices(cfg, step, params, grads, &mut state.m, &mut state.v);
    }
}

/// Reference scalar Adam step used by tests as ground truth.
pub fn reference_step(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    grads: &[f32],
    state: &mut AdamState,
) {
    check_lengths(params, grads, &state.m, &state.v, step);
    let (inv_bc1, inv_bc2_sqrt) = bias_corrections(cfg, step);
    for i in 0..params.len() {
        adam_update_one(
            &mut params[i],
            grads[i],
            &mut state.m[i],
            &mut state.v[i],
            cfg,
            inv_bc1,
            inv_bc2_sqrt,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlite::XorShiftRng;

    fn random_problem(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = XorShiftRng::new(seed);
        let params = (0..n).map(|_| rng.normal()).collect();
        let grads = (0..n).map(|_| rng.normal_scaled(0.0, 0.1)).collect();
        (params, grads)
    }

    fn run_stepper(stepper: &dyn AdamStepper, n: usize, steps: u64) -> Vec<f32> {
        let cfg = AdamConfig {
            weight_decay: 0.01,
            ..AdamConfig::default()
        };
        let (mut params, grads) = random_problem(n, 42);
        let mut state = AdamState::new(n);
        for t in 1..=steps {
            stepper.step(&cfg, t, &mut params, &grads, &mut state);
        }
        params
    }

    #[test]
    fn all_implementations_bit_identical() {
        for n in [1usize, 3, 4, 5, 127, 1024, 10_001] {
            let a = run_stepper(&NaiveAdam, n, 5);
            let b = run_stepper(&CpuAdam, n, 5);
            let c = run_stepper(&GraceAdam::new(64, 4), n, 5);
            let d = run_stepper(&GraceAdam::new(1000, 1), n, 5);
            assert_eq!(a, b, "naive vs cpu-adam differ at n={n}");
            assert_eq!(b, c, "cpu-adam vs grace-adam differ at n={n}");
            assert_eq!(c, d, "grace-adam thread counts differ at n={n}");
        }
    }

    #[test]
    fn matches_reference_step() {
        let cfg = AdamConfig::default();
        let (mut p1, g) = random_problem(513, 7);
        let mut p2 = p1.clone();
        let mut s1 = AdamState::new(513);
        let mut s2 = AdamState::new(513);
        for t in 1..=3 {
            reference_step(&cfg, t, &mut p1, &g, &mut s1);
            GraceAdam::default().step(&cfg, t, &mut p2, &g, &mut s2);
        }
        assert_eq!(p1, p2);
        assert_eq!(s1.m, s2.m);
        assert_eq!(s1.v, s2.v);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(x) = 0.5 * ||x||^2; grad = x.
        let cfg = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        let mut x = vec![5.0f32, -3.0, 2.0];
        let mut state = AdamState::new(3);
        for t in 1..=500 {
            let g = x.clone();
            CpuAdam.step(&cfg, t, &mut x, &g, &mut state);
        }
        assert!(x.iter().all(|v| v.abs() < 0.1), "did not converge: {x:?}");
    }

    #[test]
    fn bias_correction_first_step_matches_closed_form() {
        // After step 1 from zero state with g: m = (1-b1) g, v = (1-b2) g².
        // m_hat = g, v_hat = g², so update = lr * g/(|g| + eps') ≈ lr*sign(g).
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.0,
            ..AdamConfig::default()
        };
        let mut p = vec![1.0f32];
        let g = vec![0.5f32];
        let mut s = AdamState::new(1);
        CpuAdam.step(&cfg, 1, &mut p, &g, &mut s);
        assert!((p[0] - (1.0 - 0.1)).abs() < 1e-4, "p = {}", p[0]);
    }

    #[test]
    fn weight_decay_is_decoupled() {
        // With zero gradient, AdamW still decays the weight by lr*wd*p.
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..AdamConfig::default()
        };
        let mut p = vec![2.0f32];
        let g = vec![0.0f32];
        let mut s = AdamState::new(1);
        CpuAdam.step(&cfg, 1, &mut p, &g, &mut s);
        assert!((p[0] - (2.0 - 0.1 * 0.5 * 2.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let cfg = AdamConfig::default();
        let mut p = vec![0.0f32; 4];
        let g = vec![0.0f32; 3];
        let mut s = AdamState::new(4);
        CpuAdam.step(&cfg, 1, &mut p, &g, &mut s);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn step_zero_panics() {
        let cfg = AdamConfig::default();
        let mut p = vec![0.0f32; 1];
        let g = vec![0.0f32; 1];
        let mut s = AdamState::new(1);
        CpuAdam.step(&cfg, 0, &mut p, &g, &mut s);
    }

    #[test]
    fn empty_problem_is_noop() {
        let cfg = AdamConfig::default();
        let mut p: Vec<f32> = vec![];
        let mut s = AdamState::new(0);
        GraceAdam::default().step(&cfg, 1, &mut p, &[], &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn config_validation() {
        AdamConfig::default().validate();
        let bad = AdamConfig {
            beta1: 1.5,
            ..AdamConfig::default()
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }

    #[test]
    fn step_bf16_matches_step_on_decoded_gradients() {
        use tensorlite::storage::Bf16Vec;
        let cfg = AdamConfig {
            weight_decay: 0.01,
            ..AdamConfig::default()
        };
        for n in [1usize, 5, 127, 4097, 10_001] {
            let (p0, grads_f32) = random_problem(n, 99);
            let grads = Bf16Vec::from_f32(&grads_f32);
            let decoded = grads.to_f32_vec();
            let opt = GraceAdam::new(64, 4);
            let (mut p_a, mut s_a) = (p0.clone(), AdamState::new(n));
            let (mut p_b, mut s_b) = (p0.clone(), AdamState::new(n));
            for t in 1..=3 {
                opt.step(&cfg, t, &mut p_a, &decoded, &mut s_a);
                opt.step_bf16(&cfg, t, &mut p_b, &grads, &mut s_b);
            }
            assert_eq!(p_a, p_b, "bf16 step diverged at n={n}");
            assert_eq!(s_a.m, s_b.m);
            assert_eq!(s_a.v, s_b.v);
        }
    }

    #[test]
    fn step_slices_on_a_sub_range_matches_step_on_a_copy() {
        // Stepping one bucket of a larger state through borrowed slices is
        // bit-identical to stepping a copied-out state, and leaves the
        // rest of the state untouched.
        let cfg = AdamConfig {
            weight_decay: 0.01,
            ..AdamConfig::default()
        };
        let (p0, g) = random_problem(1000, 5);
        let opt = GraceAdam::new(64, 3);
        let mut state = AdamState::new(1000);
        let mut p = p0.clone();
        opt.step(&cfg, 1, &mut p, &g, &mut state);
        let range = 300..700;
        let mut copy = AdamState {
            m: state.m[range.clone()].to_vec(),
            v: state.v[range.clone()].to_vec(),
        };
        let mut p_copy = p[range.clone()].to_vec();
        opt.step(&cfg, 2, &mut p_copy, &g[range.clone()], &mut copy);
        let before = state.clone();
        let (m, v) = (&mut state.m[range.clone()], &mut state.v[range.clone()]);
        opt.step_slices(&cfg, 2, &mut p[range.clone()], &g[range.clone()], m, v);
        assert_eq!(p[range.clone()], p_copy[..]);
        assert_eq!(state.m[range.clone()], copy.m[..]);
        assert_eq!(state.v[range.clone()], copy.v[..]);
        assert_eq!(state.m[..300], before.m[..300]);
        assert_eq!(state.v[700..], before.v[700..]);
    }

    #[test]
    fn step_bf16_empty_is_noop() {
        use tensorlite::storage::Bf16Vec;
        let cfg = AdamConfig::default();
        let mut p: Vec<f32> = vec![];
        let mut s = AdamState::new(0);
        GraceAdam::default().step_bf16(&cfg, 1, &mut p, &Bf16Vec::zeros(0), &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn small_steps_gate_to_serial_via_family_threshold() {
        // Below the Optimizer family threshold the planned thread count
        // collapses to 1 even when the stepper is configured wider.
        let opt = GraceAdam::new(64, 8);
        let small = 100; // 100 * 12 flops << default threshold
        assert_eq!(opt.plan_threads(small), 1);
        let big = 1_000_000;
        assert_eq!(opt.plan_threads(big), 8);
    }

    #[test]
    fn default_thread_count_follows_shared_pool() {
        let g = tensorlite::pool::with_threads(3, GraceAdam::default);
        assert_eq!(g.threads, 3);
        let serial = tensorlite::pool::with_threads(1, GraceAdam::default);
        assert_eq!(serial.threads, 1);
    }

    #[test]
    fn stepper_names() {
        assert_eq!(NaiveAdam.name(), "pt-cpu");
        assert_eq!(CpuAdam.name(), "cpu-adam");
        assert_eq!(GraceAdam::default().name(), "grace-adam");
    }

    #[test]
    fn trait_is_object_safe() {
        let steppers: Vec<Box<dyn AdamStepper>> = vec![
            Box::new(NaiveAdam),
            Box::new(CpuAdam),
            Box::new(GraceAdam::default()),
        ];
        assert_eq!(steppers.len(), 3);
    }
}
