//! The real numeric Speculation-then-Validation training engine (§4.4).
//!
//! Two engines over the miniature GPT of [`llm_model`]:
//!
//! - [`SyncEngine`] — the reference synchronize-then-execute loop: wait for
//!   all gradients, check NaN/Inf, compute the global norm, clip, then step.
//! - [`StvEngine`] — the paper's scheme: partition gradients into buckets;
//!   speculatively Adam-step each bucket as a task on the shared worker
//!   pool *while* a validator task concurrently scans for NaN/Inf and
//!   accumulates the global norm; on a violation, roll the update back in
//!   place and either skip (overflow) or re-execute with clipped gradients.
//!
//! Both engines compute a batch's gradients with
//! [`GptModel::batch_forward_backward`], which runs the batch's sequences
//! side by side on the pool with a bit-exact ordered reduction.
//!
//! STV is an **exact** optimization: the test suite drives both engines on
//! identical streams — including forced overflow and clipping events — and
//! asserts bit-identical parameters after every step.

use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, GraceAdam};
use grace_optim::clip::{apply_clip, clip_factor};
use grace_optim::mixed_precision::{LossScaler, ScaleEvent};
use grace_optim::rollback::RollbackGuard;
use llm_model::transformer::GptModel;
use tensorlite::cast::{
    bf16_roundtrip_slice, bf16_to_f32_slice, f16_to_f32_slice, f32_to_bf16_slice, f32_to_f16_slice,
    sum_of_squares,
};
use tensorlite::storage::StoragePrecision;
use tensorlite::{Pool, TensorError};

/// The half-precision format gradients cross the link in.
///
/// FP16 has an 11-bit significand but overflows at ±65504 (loss scaling and
/// the STV overflow check exist because of it); BF16 keeps FP32's range with
/// an 8-bit significand, making overflow skips essentially disappear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// IEEE binary16.
    #[default]
    F16,
    /// bfloat16.
    Bf16,
}

impl Precision {
    /// Round-trips an `f32` slice through this format (the numeric effect
    /// of crossing the C2C link in half precision).
    pub fn roundtrip(self, values: &[f32]) -> Vec<f32> {
        match self {
            Precision::F16 => f16_to_f32_slice(&f32_to_f16_slice(values)),
            Precision::Bf16 => bf16_to_f32_slice(&f32_to_bf16_slice(values)),
        }
    }
}

/// Outcome of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The speculative update was committed unchanged.
    Applied {
        /// Mean loss over the batch.
        loss: f32,
        /// Global gradient norm (unclipped).
        grad_norm: f64,
    },
    /// Gradients exceeded the clipping threshold: rolled back and
    /// re-executed with clipped gradients.
    Clipped {
        /// Mean loss over the batch.
        loss: f32,
        /// Global gradient norm before clipping.
        grad_norm: f64,
    },
    /// NaN/Inf detected: update rolled back, iteration skipped, loss scale
    /// reduced.
    Skipped {
        /// Mean loss over the batch (may itself be non-finite).
        loss: f32,
    },
}

impl StepOutcome {
    /// The loss of this step.
    pub fn loss(&self) -> f32 {
        match *self {
            StepOutcome::Applied { loss, .. }
            | StepOutcome::Clipped { loss, .. }
            | StepOutcome::Skipped { loss } => loss,
        }
    }

    /// Whether a rollback occurred (clip or skip).
    pub fn rolled_back(&self) -> bool {
        !matches!(self, StepOutcome::Applied { .. })
    }
}

/// Counters accumulated over a training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StvStats {
    /// Optimizer steps applied (including clipped re-executions).
    pub steps: u64,
    /// Iterations skipped due to NaN/Inf.
    pub skipped: u64,
    /// Rollbacks triggered by gradient clipping.
    pub clip_rollbacks: u64,
}

impl StvStats {
    /// Total rollback events (skips + clip rollbacks).
    pub fn rollbacks(&self) -> u64 {
        self.skipped + self.clip_rollbacks
    }
}

/// Wall-clock accumulator for one instrumented phase of the training step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Times the phase executed.
    pub count: u64,
    /// Total wall-clock seconds across executions.
    pub total_secs: f64,
}

impl SpanStats {
    /// Records one execution that started at `from`.
    fn record(&mut self, from: std::time::Instant) {
        self.count += 1;
        self.total_secs += from.elapsed().as_secs_f64();
    }

    /// Counts an occurrence with no measurable work (e.g. a logical
    /// rollback the synchronous engine never had to materialize).
    fn bump(&mut self) {
        self.count += 1;
    }

    /// Mean seconds per execution (zero when the phase never ran).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }
}

/// Wall-clock span totals for the phases of a training step, accumulated
/// across a run. These time the *real* numeric engine (host wall-clock, not
/// simulated time), so they are diagnostic output — they never enter the
/// deterministic run-profile snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineSpans {
    /// Speculative per-bucket optimizer execution (the concurrent
    /// speculate+validate window in STV; never runs in the sync engine).
    pub speculate: SpanStats,
    /// Overflow scan and global-norm reduction (verdict collection in STV;
    /// the post-wait check in the sync engine).
    pub validate: SpanStats,
    /// In-place state restoration after a failed validation. The count
    /// always equals [`StvStats::rollbacks`]; in the sync engine the time
    /// is zero because nothing was speculated.
    pub rollback: SpanStats,
    /// The committed optimizer step (the clipped re-execution in STV; the
    /// main Adam step in the sync engine).
    pub optimizer_step: SpanStats,
}

impl EngineSpans {
    /// Folds the span totals into a recorder: `span.<phase>.count` counters
    /// and `span.<phase>.total-secs` gauges.
    pub fn record_into(&self, rec: &mut superchip_sim::telemetry::MetricsRecorder) {
        for (name, span) in [
            ("speculate", &self.speculate),
            ("validate", &self.validate),
            ("rollback", &self.rollback),
            ("optimizer-step", &self.optimizer_step),
        ] {
            rec.add(&format!("span.{name}.count"), span.count);
            rec.set_gauge(&format!("span.{name}.total-secs"), span.total_secs);
        }
    }
}

/// Shared engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Global gradient-norm clipping threshold.
    pub max_grad_norm: f64,
    /// Initial dynamic loss scale.
    pub initial_loss_scale: f32,
    /// Gradient buckets for the STV pipeline.
    pub buckets: usize,
    /// Half-precision wire format for gradients.
    pub precision: Precision,
    /// Storage precision for model state between kernels. Under
    /// [`StoragePrecision::Bf16`], gradients quantize as they enter the
    /// optimizer and parameters re-quantize as each step commits —
    /// identically in both engines, so STV exactness is preserved.
    pub storage: StoragePrecision,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            adam: AdamConfig::default(),
            max_grad_norm: 1.0,
            initial_loss_scale: 64.0,
            buckets: 4,
            precision: Precision::default(),
            storage: StoragePrecision::default(),
        }
    }
}

/// One (input, target) sequence pair.
pub type Sample = (Vec<usize>, Vec<usize>);

/// Computes scaled-FP16-roundtripped gradients for a batch: the numeric
/// equivalent of producing FP16 gradients on the GPU and shipping them to
/// the CPU. Returns `(mean_loss, grads_fp32_after_roundtrip)` where the
/// gradients are still multiplied by the loss scale.
///
/// An empty batch is [`TensorError::Empty`], returned before any state
/// (gradients included) is touched, so the engines never step on it.
fn batch_gradients(
    model: &mut GptModel,
    batch: &[Sample],
    scale: f32,
    cfg: &EngineConfig,
) -> Result<(f32, Vec<f32>), TensorError> {
    if batch.is_empty() {
        return Err(TensorError::Empty { what: "batch" });
    }
    model.zero_grads();
    let losses = model.batch_forward_backward(batch)?;
    let loss_sum = losses.iter().fold(0.0f64, |sum, &l| sum + l as f64);
    let mean_loss = (loss_sum / batch.len() as f64) as f32;
    let inv_b = 1.0 / batch.len() as f32;
    // Scale (emulating scaled loss) and round-trip through the half-precision
    // wire format — exactly what crossing the link does to the values.
    let scaled: Vec<f32> = model.grads().iter().map(|g| g * scale * inv_b).collect();
    let mut grads = cfg.precision.roundtrip(&scaled);
    // Under bf16 storage, gradients quantize at the optimizer boundary (a
    // no-op when the wire format was already bf16 — quantization is
    // idempotent). Both engines share this helper, so STV sees the exact
    // same values the sync engine does.
    if cfg.storage == StoragePrecision::Bf16 {
        bf16_roundtrip_slice(&mut grads);
    }
    Ok((mean_loss, grads))
}

/// Re-quantizes committed parameters under bf16 storage (no-op for f32) —
/// the "parameters re-quantize as each step commits" half of the storage
/// discipline. Both engines call this at every commit point.
fn commit_params(storage: StoragePrecision, params: &mut [f32]) {
    if storage == StoragePrecision::Bf16 {
        bf16_roundtrip_slice(params);
    }
}

/// Splits `n` elements into `buckets` contiguous ranges.
fn bucket_ranges(n: usize, buckets: usize) -> Vec<std::ops::Range<usize>> {
    let buckets = buckets.clamp(1, n.max(1));
    let per = n.div_ceil(buckets);
    (0..buckets)
        .map(|i| (i * per).min(n)..((i + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Deterministic global norm from per-bucket partial sums (both engines use
/// this helper so their floating-point reduction order is identical).
pub(crate) fn norm_from_partials(partials: &[f64]) -> f64 {
    partials.iter().sum::<f64>().sqrt()
}

/// The synchronous reference engine (synchronize-then-execute).
#[derive(Debug)]
pub struct SyncEngine {
    model: GptModel,
    state: AdamState,
    scaler: LossScaler,
    cfg: EngineConfig,
    step: u64,
    stats: StvStats,
    spans: EngineSpans,
    last_scale_event: ScaleEvent,
}

impl SyncEngine {
    /// Wraps a model in a synchronous training loop.
    pub fn new(model: GptModel, cfg: EngineConfig) -> Self {
        let n = model.num_params();
        SyncEngine {
            model,
            state: AdamState::new(n),
            scaler: LossScaler::new(cfg.initial_loss_scale),
            cfg,
            step: 0,
            stats: StvStats::default(),
            spans: EngineSpans::default(),
            last_scale_event: ScaleEvent::default(),
        }
    }

    /// The current dynamic loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// What the most recent step did to the loss scale.
    pub fn last_scale_event(&self) -> ScaleEvent {
        self.last_scale_event
    }

    /// The wrapped model.
    pub fn model(&self) -> &GptModel {
        &self.model
    }

    /// Run statistics so far.
    pub fn stats(&self) -> StvStats {
        self.stats
    }

    /// Wall-clock span totals accumulated so far.
    pub fn spans(&self) -> EngineSpans {
        self.spans
    }

    /// Snapshots the full training state.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            params: self.model.params().to_vec(),
            m: self.state.m.clone(),
            v: self.state.v.clone(),
            step: self.step,
            loss_scale: self.scaler.scale(),
            scaler_good_steps: self.scaler.good_steps(),
            overflow_count: self.scaler.overflow_count(),
        }
    }

    /// Restores training state from a checkpoint; the continued trajectory
    /// is bit-identical to an uninterrupted run.
    ///
    /// # Panics
    /// Panics if the checkpoint's parameter count differs from the model's.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) {
        assert_eq!(
            ckpt.params.len(),
            self.model.num_params(),
            "checkpoint shape mismatch"
        );
        self.model.params_mut().copy_from_slice(&ckpt.params);
        self.state.m.copy_from_slice(&ckpt.m);
        self.state.v.copy_from_slice(&ckpt.v);
        self.step = ckpt.step;
        self.scaler =
            LossScaler::from_state(ckpt.loss_scale, ckpt.scaler_good_steps, ckpt.overflow_count);
    }

    /// Executes one synchronous training step.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch (no state is
    /// touched) and propagates [`TensorError`] from the forward/backward
    /// pass.
    pub fn train_step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let scale = self.scaler.scale();
        let cfg = self.cfg;
        let (loss, mut grads) = batch_gradients(&mut self.model, batch, scale, &cfg)?;

        // Wait-for-everything, then validate (the STE ordering). The
        // round-trip already baked any overflow into the values as ±inf.
        let validate_from = std::time::Instant::now();
        let overflow = grads.iter().any(|g| !g.is_finite());
        if overflow {
            self.spans.validate.record(validate_from);
            // Nothing was speculated, so the "rollback" is purely logical.
            self.spans.rollback.bump();
            self.last_scale_event = self.scaler.update_with(true);
            self.stats.skipped += 1;
            return Ok(StepOutcome::Skipped { loss });
        }
        self.last_scale_event = self.scaler.update_with(false);

        // Unscale, then global norm over the same bucket partials STV uses.
        let inv = 1.0 / scale;
        for g in &mut grads {
            *g *= inv;
        }
        let ranges = bucket_ranges(grads.len(), self.cfg.buckets);
        let partials: Vec<f64> = ranges
            .iter()
            .map(|r| sum_of_squares(&grads[r.clone()]))
            .collect();
        let norm = norm_from_partials(&partials);
        let factor = clip_factor(norm, self.cfg.max_grad_norm);
        apply_clip(&mut grads, factor);
        self.spans.validate.record(validate_from);

        let step_from = std::time::Instant::now();
        self.step += 1;
        GraceAdam::default().step(
            &self.cfg.adam,
            self.step,
            self.model.params_mut(),
            &grads,
            &mut self.state,
        );
        commit_params(self.cfg.storage, self.model.params_mut());
        self.spans.optimizer_step.record(step_from);
        self.stats.steps += 1;
        if factor < 1.0 {
            self.spans.rollback.bump();
            self.stats.clip_rollbacks += 1; // counted as "would clip" events
            Ok(StepOutcome::Clipped {
                loss,
                grad_norm: norm,
            })
        } else {
            Ok(StepOutcome::Applied {
                loss,
                grad_norm: norm,
            })
        }
    }
}

/// The speculation-then-validation engine.
#[derive(Debug)]
pub struct StvEngine {
    model: GptModel,
    state: AdamState,
    scaler: LossScaler,
    cfg: EngineConfig,
    step: u64,
    stats: StvStats,
    spans: EngineSpans,
    last_scale_event: ScaleEvent,
}

/// Per-bucket validation result produced by the validator task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketVerdict {
    pub(crate) overflow: bool,
    pub(crate) sum_sq_unscaled: f64,
}

/// One task of a speculation region.
enum SpecTask<'a> {
    /// Scans every bucket, in order, into the verdict list.
    Validate(&'a mut Vec<BucketVerdict>),
    /// One bucket's speculative Adam step over borrowed slices of the
    /// parameters and moments.
    Step {
        params: &'a mut [f32],
        grads: &'a [f32],
        m: &'a mut [f32],
        v: &'a mut [f32],
    },
}

/// Steps Adam over each of `ranges` (contiguous, in order, from 0) of
/// `params` and `state`'s moments: one task per range of one pool region,
/// over borrowed slices. With `verdicts`, a validator task of the same
/// region scans each range of `grads` for overflow (the wire round-trip
/// baked any overflow into the values as ±inf/NaN) and its unscaled sum
/// of squares. The single-process and data-parallel STV engines both step
/// through here.
pub(crate) fn step_ranges(
    adam: &AdamConfig,
    step: u64,
    params: &mut [f32],
    state: &mut AdamState,
    grads: &[f32],
    ranges: &[std::ops::Range<usize>],
    verdicts: Option<&mut Vec<BucketVerdict>>,
) {
    let mut tasks = Vec::with_capacity(ranges.len() + 1);
    tasks.extend(verdicts.map(SpecTask::Validate));
    let mut p_rest = params;
    let mut m_rest = state.m.as_mut_slice();
    let mut v_rest = state.v.as_mut_slice();
    for r in ranges {
        let (params, p_tail) = p_rest.split_at_mut(r.len());
        let (m, m_tail) = m_rest.split_at_mut(r.len());
        let (v, v_tail) = v_rest.split_at_mut(r.len());
        (p_rest, m_rest, v_rest) = (p_tail, m_tail, v_tail);
        tasks.push(SpecTask::Step {
            params,
            grads: &grads[r.clone()],
            m,
            v,
        });
    }
    Pool::current().run_parts(tasks, |_, task| match task {
        SpecTask::Validate(out) => out.extend(ranges.iter().map(|r| {
            let bucket = &grads[r.clone()];
            BucketVerdict {
                overflow: bucket.iter().any(|g| !g.is_finite()),
                sum_sq_unscaled: sum_of_squares(bucket),
            }
        })),
        SpecTask::Step {
            params,
            grads,
            m,
            v,
        } => GraceAdam::new(4096, 1).step_slices(adam, step, params, grads, m, v),
    });
}

impl StvEngine {
    /// Wraps a model in an STV training loop.
    pub fn new(model: GptModel, cfg: EngineConfig) -> Self {
        let n = model.num_params();
        StvEngine {
            model,
            state: AdamState::new(n),
            scaler: LossScaler::new(cfg.initial_loss_scale),
            cfg,
            step: 0,
            stats: StvStats::default(),
            spans: EngineSpans::default(),
            last_scale_event: ScaleEvent::default(),
        }
    }

    /// The current dynamic loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// What the most recent step did to the loss scale.
    pub fn last_scale_event(&self) -> ScaleEvent {
        self.last_scale_event
    }

    /// The wrapped model.
    pub fn model(&self) -> &GptModel {
        &self.model
    }

    /// Run statistics so far.
    pub fn stats(&self) -> StvStats {
        self.stats
    }

    /// Wall-clock span totals accumulated so far.
    pub fn spans(&self) -> EngineSpans {
        self.spans
    }

    /// Snapshots the full training state.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            params: self.model.params().to_vec(),
            m: self.state.m.clone(),
            v: self.state.v.clone(),
            step: self.step,
            loss_scale: self.scaler.scale(),
            scaler_good_steps: self.scaler.good_steps(),
            overflow_count: self.scaler.overflow_count(),
        }
    }

    /// Restores training state from a checkpoint; the continued trajectory
    /// is bit-identical to an uninterrupted run.
    ///
    /// # Panics
    /// Panics if the checkpoint's parameter count differs from the model's.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) {
        assert_eq!(
            ckpt.params.len(),
            self.model.num_params(),
            "checkpoint shape mismatch"
        );
        self.model.params_mut().copy_from_slice(&ckpt.params);
        self.state.m.copy_from_slice(&ckpt.m);
        self.state.v.copy_from_slice(&ckpt.v);
        self.step = ckpt.step;
        self.scaler =
            LossScaler::from_state(ckpt.loss_scale, ckpt.scaler_good_steps, ckpt.overflow_count);
    }

    /// Executes one STV training step: speculative per-bucket optimizer
    /// updates race ahead of a concurrent validator; a failed validation
    /// rolls back in place.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch (no state is
    /// touched) and propagates [`TensorError`] from the forward/backward
    /// pass.
    pub fn train_step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let scale = self.scaler.scale();
        let cfg = self.cfg;
        let (loss, mut grads) = batch_gradients(&mut self.model, batch, scale, &cfg)?;
        let n = grads.len();
        let ranges = bucket_ranges(n, self.cfg.buckets);
        let speculative_step = self.step + 1;

        // Capture rollback guards before speculating.
        let guards: Vec<RollbackGuard> = ranges
            .iter()
            .map(|r| RollbackGuard::capture(self.model.params(), &self.state, r.start, r.len()))
            .collect();

        // Unscale in place (same elementwise op the sync engine performs).
        let inv = 1.0 / scale;
        for g in &mut grads {
            *g *= inv;
        }

        // --- Speculate and validate concurrently -------------------------
        let speculate_from = std::time::Instant::now();
        let mut verdicts = Vec::with_capacity(ranges.len());
        step_ranges(
            &cfg.adam,
            speculative_step,
            self.model.params_mut(),
            &mut self.state,
            &grads,
            &ranges,
            Some(&mut verdicts),
        );
        self.spans.speculate.record(speculate_from);

        // --- Collect verdicts ---------------------------------------------
        let validate_from = std::time::Instant::now();
        let overflow = verdicts.iter().any(|v| v.overflow);
        let partials: Vec<f64> = verdicts.iter().map(|v| v.sum_sq_unscaled).collect();
        let norm = norm_from_partials(&partials);
        self.spans.validate.record(validate_from);

        if overflow {
            // Rollback: restore every bucket, skip the iteration.
            let rollback_from = std::time::Instant::now();
            for g in &guards {
                g.restore(self.model.params_mut(), &mut self.state);
            }
            self.spans.rollback.record(rollback_from);
            self.last_scale_event = self.scaler.update_with(true);
            self.stats.skipped += 1;
            return Ok(StepOutcome::Skipped { loss });
        }
        self.last_scale_event = self.scaler.update_with(false);

        let factor = clip_factor(norm, self.cfg.max_grad_norm);
        if factor < 1.0 {
            // Rollback and re-execute with clipped gradients.
            let rollback_from = std::time::Instant::now();
            for g in &guards {
                g.restore(self.model.params_mut(), &mut self.state);
            }
            self.spans.rollback.record(rollback_from);
            let step_from = std::time::Instant::now();
            apply_clip(&mut grads, factor);
            GraceAdam::default().step(
                &self.cfg.adam,
                speculative_step,
                self.model.params_mut(),
                &grads,
                &mut self.state,
            );
            commit_params(self.cfg.storage, self.model.params_mut());
            self.spans.optimizer_step.record(step_from);
            self.step = speculative_step;
            self.stats.steps += 1;
            self.stats.clip_rollbacks += 1;
            return Ok(StepOutcome::Clipped {
                loss,
                grad_norm: norm,
            });
        }

        // Commit the speculation.
        commit_params(self.cfg.storage, self.model.params_mut());
        self.step = speculative_step;
        self.stats.steps += 1;
        Ok(StepOutcome::Applied {
            loss,
            grad_norm: norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::transformer::GptConfig;
    use llm_model::SyntheticPile;

    fn tiny() -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 37,
                hidden: 16,
                layers: 2,
                heads: 2,
                max_seq: 16,
            },
            321,
        )
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            max_grad_norm: 0.8,
            buckets: 3,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn stv_is_bit_identical_to_sync() {
        let mut sync = SyncEngine::new(tiny(), cfg());
        let mut stv = StvEngine::new(tiny(), cfg());
        let mut pile = SyntheticPile::new(37, 5);
        for it in 0..30 {
            let batch = pile.next_batch(2, 12);
            let a = sync.train_step(&batch).unwrap();
            let b = stv.train_step(&batch).unwrap();
            assert_eq!(
                a.rolled_back(),
                b.rolled_back(),
                "iteration {it} outcome divergence: {a:?} vs {b:?}"
            );
            assert_eq!(
                sync.model().params(),
                stv.model().params(),
                "iteration {it}: parameters diverged"
            );
        }
        assert!(sync.stats().steps > 0);
    }

    #[test]
    fn clipping_path_is_exercised_and_exact() {
        // A tight clip threshold forces frequent rollbacks; equivalence must
        // hold through them.
        let tight = EngineConfig {
            max_grad_norm: 0.05,
            buckets: 4,
            ..EngineConfig::default()
        };
        let mut sync = SyncEngine::new(tiny(), tight);
        let mut stv = StvEngine::new(tiny(), tight);
        let mut pile = SyntheticPile::new(37, 9);
        let mut clipped = 0;
        for _ in 0..15 {
            let batch = pile.next_batch(2, 12);
            let a = sync.train_step(&batch).unwrap();
            let b = stv.train_step(&batch).unwrap();
            if matches!(b, StepOutcome::Clipped { .. }) {
                clipped += 1;
            }
            assert_eq!(a.rolled_back(), b.rolled_back());
            assert_eq!(sync.model().params(), stv.model().params());
        }
        assert!(clipped > 0, "clip threshold never triggered");
        assert_eq!(stv.stats().clip_rollbacks as usize, clipped);
    }

    #[test]
    fn overflow_skips_and_matches() {
        // A huge loss scale overflows FP16 gradients, forcing skip+backoff.
        let overflow_cfg = EngineConfig {
            initial_loss_scale: 1e9,
            ..cfg()
        };
        let mut sync = SyncEngine::new(tiny(), overflow_cfg);
        let mut stv = StvEngine::new(tiny(), overflow_cfg);
        let mut pile = SyntheticPile::new(37, 11);
        let batch = pile.next_batch(2, 12);
        let a = sync.train_step(&batch).unwrap();
        let b = stv.train_step(&batch).unwrap();
        assert!(matches!(a, StepOutcome::Skipped { .. }), "{a:?}");
        assert!(matches!(b, StepOutcome::Skipped { .. }), "{b:?}");
        assert_eq!(sync.model().params(), stv.model().params());
        assert_eq!(stv.stats().skipped, 1);
        // After enough backoffs, training resumes and stays identical.
        for _ in 0..45 {
            let batch = pile.next_batch(2, 12);
            sync.train_step(&batch).unwrap();
            stv.train_step(&batch).unwrap();
            assert_eq!(sync.model().params(), stv.model().params());
        }
        assert!(stv.stats().steps > 0, "training never resumed");
    }

    #[test]
    fn loss_decreases_under_stv() {
        let lr_cfg = EngineConfig {
            adam: grace_optim::adam::AdamConfig {
                lr: 0.01,
                ..grace_optim::adam::AdamConfig::default()
            },
            max_grad_norm: 5.0,
            ..EngineConfig::default()
        };
        let mut stv = StvEngine::new(tiny(), lr_cfg);
        let mut pile = SyntheticPile::new(37, 7);
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for it in 0..100 {
            let batch = pile.next_batch(4, 12);
            let out = stv.train_step(&batch).unwrap();
            if it == 0 {
                first = out.loss();
            }
            last = out.loss();
        }
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn bf16_never_overflows_where_f16_does() {
        // A scale that overflows FP16 instantly is harmless under BF16
        // (FP32 range), so BF16 training proceeds without a single skip.
        let scale_cfg = |precision| EngineConfig {
            initial_loss_scale: 1e7,
            precision,
            ..cfg()
        };
        let mut f16 = StvEngine::new(tiny(), scale_cfg(Precision::F16));
        let mut bf16 = StvEngine::new(tiny(), scale_cfg(Precision::Bf16));
        let mut pile = SyntheticPile::new(37, 77);
        for _ in 0..8 {
            let batch = pile.next_batch(2, 12);
            f16.train_step(&batch).unwrap();
            bf16.train_step(&batch).unwrap();
        }
        assert!(f16.stats().skipped > 0, "f16 should overflow at scale 1e7");
        assert_eq!(bf16.stats().skipped, 0, "bf16 must not overflow");
        assert!(bf16.stats().steps > 0);
    }

    #[test]
    fn stv_exactness_holds_under_bf16() {
        let bf_cfg = EngineConfig {
            precision: Precision::Bf16,
            ..cfg()
        };
        let mut sync = SyncEngine::new(tiny(), bf_cfg);
        let mut stv = StvEngine::new(tiny(), bf_cfg);
        let mut pile = SyntheticPile::new(37, 91);
        for _ in 0..15 {
            let batch = pile.next_batch(2, 12);
            sync.train_step(&batch).unwrap();
            stv.train_step(&batch).unwrap();
            assert_eq!(sync.model().params(), stv.model().params());
        }
    }

    #[test]
    fn stv_exactness_holds_under_bf16_storage() {
        // With bf16 *storage* (not just the wire format), both engines
        // quantize gradients entering the optimizer and parameters at each
        // commit — and must still agree bit for bit, rollbacks included.
        let storage_cfg = EngineConfig {
            storage: StoragePrecision::Bf16,
            max_grad_norm: 0.5,
            ..cfg()
        };
        let mut sync = SyncEngine::new(tiny(), storage_cfg);
        let mut stv = StvEngine::new(tiny(), storage_cfg);
        let mut pile = SyntheticPile::new(37, 63);
        for it in 0..20 {
            let batch = pile.next_batch(2, 12);
            let a = sync.train_step(&batch).unwrap();
            let b = stv.train_step(&batch).unwrap();
            assert_eq!(a.rolled_back(), b.rolled_back(), "iteration {it}");
            assert_eq!(
                sync.model().params(),
                stv.model().params(),
                "iteration {it}: parameters diverged under bf16 storage"
            );
        }
        assert!(sync.stats().steps > 0);
    }

    #[test]
    fn bf16_storage_commits_representable_params() {
        use tensorlite::Bf16;
        let storage_cfg = EngineConfig {
            storage: StoragePrecision::Bf16,
            ..cfg()
        };
        let mut stv = StvEngine::new(tiny(), storage_cfg);
        let mut pile = SyntheticPile::new(37, 29);
        let mut stepped = 0;
        for _ in 0..10 {
            let batch = pile.next_batch(2, 12);
            // Applied and Clipped both commit (clipped steps re-execute);
            // only Skipped leaves the parameters untouched.
            if !matches!(stv.train_step(&batch).unwrap(), StepOutcome::Skipped { .. }) {
                stepped += 1;
            }
        }
        assert!(stepped > 0, "no step committed");
        // Every committed parameter must be exactly bf16-representable.
        for &p in stv.model().params() {
            let q = Bf16::from_f32(p).to_f32();
            assert_eq!(q.to_bits(), p.to_bits(), "{p} is not bf16-representable");
        }
    }

    #[test]
    fn precision_roundtrip_properties() {
        let vals = [0.1f32, -3.5, 70000.0, 1e-8];
        let f16 = Precision::F16.roundtrip(&vals);
        let bf16 = Precision::Bf16.roundtrip(&vals);
        assert!(f16[2].is_infinite(), "70000 overflows f16");
        assert!(bf16[2].is_finite(), "70000 fits bf16");
        // Both approximate small values; f16 has finer mantissa near 0.1.
        assert!((f16[0] - 0.1).abs() <= (bf16[0] - 0.1).abs());
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // Train 8 steps, checkpoint, train 8 more; separately restore a
        // fresh engine from the checkpoint and train the same 8 — identical.
        let mut full = StvEngine::new(tiny(), cfg());
        let mut pile = SyntheticPile::new(37, 55);
        let mut batches = Vec::new();
        for _ in 0..16 {
            batches.push(pile.next_batch(2, 12));
        }
        for b in &batches[..8] {
            full.train_step(b).unwrap();
        }
        let bytes = full.checkpoint().to_bytes();
        for b in &batches[8..] {
            full.train_step(b).unwrap();
        }

        let ckpt = crate::checkpoint::Checkpoint::from_bytes(&bytes).unwrap();
        let mut resumed = StvEngine::new(tiny(), cfg());
        resumed.restore(&ckpt);
        for b in &batches[8..] {
            resumed.train_step(b).unwrap();
        }
        assert_eq!(full.model().params(), resumed.model().params());
    }

    #[test]
    fn outcome_accessors() {
        let a = StepOutcome::Applied {
            loss: 1.0,
            grad_norm: 0.5,
        };
        assert_eq!(a.loss(), 1.0);
        assert!(!a.rolled_back());
        let s = StepOutcome::Skipped { loss: 2.0 };
        assert!(s.rolled_back());
        let c = StepOutcome::Clipped {
            loss: 3.0,
            grad_norm: 9.0,
        };
        assert!(c.rolled_back());
        assert_eq!(c.loss(), 3.0);
    }

    #[test]
    fn stats_accumulate() {
        let s = StvStats {
            steps: 5,
            skipped: 2,
            clip_rollbacks: 3,
        };
        assert_eq!(s.rollbacks(), 5);
    }

    #[test]
    fn span_counters_agree_with_stats() {
        // Tight clipping plus an overflowing loss scale exercises every
        // phase; the rollback span count must equal the stats' rollback
        // total in both engines.
        let stress = EngineConfig {
            max_grad_norm: 0.05,
            initial_loss_scale: 1e9,
            buckets: 3,
            ..EngineConfig::default()
        };
        let mut sync = SyncEngine::new(tiny(), stress);
        let mut stv = StvEngine::new(tiny(), stress);
        let mut pile = SyntheticPile::new(37, 13);
        for _ in 0..25 {
            let batch = pile.next_batch(2, 12);
            sync.train_step(&batch).unwrap();
            stv.train_step(&batch).unwrap();
        }
        for (spans, stats) in [(sync.spans(), sync.stats()), (stv.spans(), stv.stats())] {
            assert_eq!(spans.rollback.count, stats.rollbacks());
            assert_eq!(spans.validate.count, stats.steps + stats.skipped);
            assert!(stats.skipped > 0 && stats.clip_rollbacks > 0);
        }
        // Speculation happens on every STV step, never in the sync engine.
        assert_eq!(
            stv.spans().speculate.count,
            stv.stats().steps + stv.stats().skipped
        );
        assert_eq!(sync.spans().speculate.count, 0);
        assert!(stv.spans().speculate.total_secs >= 0.0);
        assert!(stv.spans().speculate.mean_secs() >= 0.0);
        assert_eq!(sync.spans().speculate.mean_secs(), 0.0);
    }

    #[test]
    fn spans_fold_into_recorder() {
        let mut stv = StvEngine::new(tiny(), cfg());
        let mut pile = SyntheticPile::new(37, 5);
        for _ in 0..5 {
            let batch = pile.next_batch(2, 12);
            stv.train_step(&batch).unwrap();
        }
        let mut rec = superchip_sim::telemetry::MetricsRecorder::new();
        stv.spans().record_into(&mut rec);
        assert_eq!(
            rec.counter("span.speculate.count"),
            stv.spans().speculate.count
        );
        assert!(rec.gauge("span.optimizer-step.total-secs").is_some());
        assert!(rec.gauge("span.rollback.total-secs").is_some());
    }
}
