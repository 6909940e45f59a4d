//! The real numeric training engine: speculation-then-validation (§4.4)
//! and its synchronous reference, at any data-parallel rank count (§4.7).
//!
//! One type, [`Engine`], runs a [`Discipline`] over `ranks >= 1` replicas
//! of the miniature GPT of [`llm_model`]:
//!
//! - [`Discipline::Sync`] — the reference synchronize-then-execute loop:
//!   wait for all gradients, check NaN/Inf, compute the global norm, clip,
//!   then step.
//! - [`Discipline::Stv`] — the paper's scheme: partition gradients into
//!   buckets; speculatively Adam-step each bucket as a task on the shared
//!   worker pool *while* a validator task concurrently scans for NaN/Inf
//!   and accumulates the global norm; on a violation, roll the update back
//!   in place and either skip (overflow) or re-execute with clipped
//!   gradients.
//!
//! Each rank computes its slice of the batch's gradients with
//! [`GptModel::batch_forward_backward`], which runs the slice's sequences
//! side by side on the pool with a bit-exact ordered reduction. With more
//! than one rank, each rank's pass is one task of a pool region ("its
//! GPU"), its gradients cross the link in half precision, and the ranks'
//! gradients sum in fixed rank order (the all-reduce). From there every
//! numeric decision is made once, for every rank count and discipline: the
//! gradient scale (`g · scale · 1/batch`, then the wire round-trip), the
//! norm reduction tree (one partial sum per `cfg.buckets` range, summed in
//! order), the optimizer's grouping (the same bucket ranges), and the
//! storage commit (bf16 re-quantization of the committed parameters). The
//! optimizer steps replica 0; each commit broadcasts it to the other
//! replicas (the all-gather). One rank is the single-process engine, with
//! no gradient copy and no broadcast.
//!
//! STV is an **exact** optimization: the test suite drives both
//! disciplines on identical streams, at 1, 2 and 4 ranks and including
//! forced overflow and clipping events, and asserts bit-identical
//! parameters after every step.

use std::time::Instant;

use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, GraceAdam};
use grace_optim::clip::{apply_clip, clip_factor};
use grace_optim::mixed_precision::{LossScaler, ScaleEvent};
use grace_optim::rollback::RollbackGuard;
use llm_model::transformer::GptModel;
use tensorlite::cast::{bf16_roundtrip_slice, sum_of_squares};
use tensorlite::f16::f16_roundtrip;
use tensorlite::storage::StoragePrecision;
use tensorlite::{Bf16, Pool, TensorError};

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
    /// Round-trips one value through this format.
    #[inline]
    fn quantize(self, v: f32) -> f32 {
        match self {
            Precision::F16 => f16_roundtrip(v),
            Precision::Bf16 => Bf16::from_f32(v).to_f32(),
        }
    }

    /// Round-trips an `f32` slice through this format in place (the
    /// numeric effect of crossing the C2C link in half precision).
    pub fn roundtrip(self, values: &mut [f32]) {
        for v in values {
            *v = self.quantize(*v);
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
    /// rollback the synchronous discipline never had to materialize).
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
    /// speculate+validate window in STV; never runs under Sync).
    pub speculate: SpanStats,
    /// Overflow scan and global-norm reduction (verdict collection in STV;
    /// the post-wait check under Sync).
    pub validate: SpanStats,
    /// In-place state restoration after a failed validation. The count
    /// always equals [`StvStats::rollbacks`]; under Sync the time is zero
    /// because nothing was speculated.
    pub rollback: SpanStats,
    /// The committed optimizer step (the clipped re-execution in STV; the
    /// main Adam step under Sync).
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
    /// identically in both disciplines and at every rank count, so STV
    /// exactness is preserved.
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

/// Which execution discipline drives the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Speculation-then-validation (SuperOffload, §4.4).
    #[default]
    Stv,
    /// Synchronize-then-execute (the conventional reference).
    Sync,
}

/// One rank's share of a batch: the losses of `slice` on `model` and its
/// gradients scaled by `scale · inv_b` (emulating a scaled loss over the
/// whole batch) and round-tripped through the half-precision wire format —
/// exactly what crossing the link does to the values.
fn rank_gradients(
    model: &mut GptModel,
    slice: &[Sample],
    scale: f32,
    inv_b: f32,
    precision: Precision,
) -> Result<(Vec<f32>, Vec<f32>), TensorError> {
    model.zero_grads();
    let losses = model.batch_forward_backward(slice)?;
    // Scale and wire round trip in one pass, into the one buffer the rank
    // hands back.
    let wire = model
        .grads()
        .iter()
        .map(|&g| precision.quantize(g * scale * inv_b))
        .collect();
    Ok((losses, wire))
}

/// Per-rank result slot of a data-parallel gradient pass.
type RankResult = Option<Result<(Vec<f32>, Vec<f32>), TensorError>>;

/// Re-quantizes committed parameters under bf16 storage (no-op for f32) —
/// the "parameters re-quantize as each step commits" half of the storage
/// discipline.
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

/// Deterministic global norm from per-bucket partial sums: the one
/// reduction tree of every discipline and rank count.
fn norm_from_partials(partials: &[f64]) -> f64 {
    partials.iter().sum::<f64>().sqrt()
}

/// Sync's validation in one serial pass per bucket, in ascending order:
/// checks every gradient is finite, undoes the loss scale in place, and
/// sums the unscaled squares in f64 in the order [`sum_of_squares`] adds
/// them, so each partial is bit-identical to unscaling first and summing
/// after. `None` when a gradient is non-finite (the loss-scale round-trip
/// baked an overflow in); the caller then drops the gradients.
fn unscale_and_square(grads: &mut [f32], scale: f32, buckets: usize) -> Option<Vec<f64>> {
    let inv = 1.0 / scale;
    let ranges = bucket_ranges(grads.len(), buckets);
    let mut partials = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (mut finite, mut sum) = (true, 0.0f64);
        for g in &mut grads[r] {
            finite &= g.is_finite();
            *g *= inv;
            sum += f64::from(*g) * f64::from(*g);
        }
        if !finite {
            return None;
        }
        partials.push(sum);
    }
    Some(partials)
}

/// Undoes the loss scale in place.
fn unscale(grads: &mut [f32], scale: f32) {
    let inv = 1.0 / scale;
    for g in grads {
        *g *= inv;
    }
}

/// Per-bucket validation result produced by the validator task.
#[derive(Debug, Clone, Copy)]
struct BucketVerdict {
    overflow: bool,
    sum_sq_unscaled: f64,
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

/// Speculatively steps Adam over each of `ranges` (contiguous, in order,
/// from 0) of `params` and `state`'s moments — one task per range of one
/// pool region, over borrowed slices — while a validator task of the same
/// region scans each range of `grads` for overflow (the wire round-trip
/// baked any overflow into the values as ±inf/NaN) and its unscaled sum of
/// squares. Returns the verdicts, one per range.
fn speculate(
    adam: &AdamConfig,
    step: u64,
    params: &mut [f32],
    state: &mut AdamState,
    grads: &[f32],
    ranges: &[std::ops::Range<usize>],
) -> Vec<BucketVerdict> {
    let mut verdicts = Vec::with_capacity(ranges.len());
    let mut tasks = Vec::with_capacity(ranges.len() + 1);
    tasks.push(SpecTask::Validate(&mut verdicts));
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
    verdicts
}

/// The training engine: one [`Discipline`] over `ranks >= 1` data-parallel
/// model replicas.
#[derive(Debug)]
pub struct Engine {
    discipline: Discipline,
    /// One model per rank. The optimizer steps replica 0, the canonical
    /// copy; every commit broadcasts it to the others.
    replicas: Vec<GptModel>,
    state: AdamState,
    scaler: LossScaler,
    cfg: EngineConfig,
    step: u64,
    stats: StvStats,
    spans: EngineSpans,
    last_scale_event: ScaleEvent,
}

impl Engine {
    /// Wraps `model` in a `discipline` training loop over `ranks`
    /// data-parallel replicas of it (`1` is the single-process engine).
    ///
    /// # Panics
    /// Panics if `ranks` is zero.
    pub fn new(discipline: Discipline, model: GptModel, ranks: usize, cfg: EngineConfig) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        let n = model.num_params();
        Engine {
            discipline,
            replicas: vec![model; ranks],
            state: AdamState::new(n),
            scaler: LossScaler::new(cfg.initial_loss_scale),
            cfg,
            step: 0,
            stats: StvStats::default(),
            spans: EngineSpans::default(),
            last_scale_event: ScaleEvent::default(),
        }
    }

    /// The execution discipline.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The current dynamic loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// What the most recent step did to the loss scale.
    pub fn last_scale_event(&self) -> ScaleEvent {
        self.last_scale_event
    }

    /// The canonical (rank-0) model.
    pub fn model(&self) -> &GptModel {
        &self.replicas[0]
    }

    /// Every rank's replica, canonical first (identical after every step).
    pub fn replicas(&self) -> &[GptModel] {
        &self.replicas
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
            params: self.model().params().to_vec(),
            m: self.state.m.clone(),
            v: self.state.v.clone(),
            step: self.step,
            loss_scale: self.scaler.scale(),
            scaler_good_steps: self.scaler.good_steps(),
            overflow_count: self.scaler.overflow_count(),
        }
    }

    /// Restores training state, every replica's parameters included, from a
    /// checkpoint; the continued trajectory is bit-identical to an
    /// uninterrupted run.
    ///
    /// # Panics
    /// Panics if the checkpoint's parameter count differs from the model's.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) {
        assert_eq!(
            ckpt.params.len(),
            self.model().num_params(),
            "checkpoint shape mismatch"
        );
        for replica in &mut self.replicas {
            replica.params_mut().copy_from_slice(&ckpt.params);
        }
        self.state.m.copy_from_slice(&ckpt.m);
        self.state.v.copy_from_slice(&ckpt.v);
        self.step = ckpt.step;
        self.scaler =
            LossScaler::from_state(ckpt.loss_scale, ckpt.scaler_good_steps, ckpt.overflow_count);
    }

    /// Executes one training step over `batch`, whose sequences split
    /// evenly across the ranks in order.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch and
    /// [`TensorError::Indivisible`] for one that does not split evenly
    /// across the ranks (no state is touched), and propagates
    /// [`TensorError`] from the forward/backward pass.
    pub fn train_step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let scale = self.scaler.scale();
        let (loss, grads) = self.gradients(batch, scale)?;
        Ok(match self.discipline {
            Discipline::Sync => self.sync_step(loss, grads, scale),
            Discipline::Stv => self.stv_step(loss, grads, scale),
        })
    }

    /// The batch's mean loss and its gradients as they enter the optimizer,
    /// still multiplied by the loss scale: each rank's
    /// [`rank_gradients`] over its slice (one pool task per rank when
    /// there are several), summed in fixed rank order (the deterministic
    /// all-reduce tree), then quantized under bf16 storage.
    fn gradients(&mut self, batch: &[Sample], scale: f32) -> Result<(f32, Vec<f32>), TensorError> {
        let ranks = self.replicas.len();
        if batch.is_empty() {
            return Err(TensorError::Empty { what: "batch" });
        }
        if !batch.len().is_multiple_of(ranks) {
            return Err(TensorError::Indivisible {
                what: "batch",
                len: batch.len(),
                parts: ranks,
            });
        }
        let inv_b = 1.0 / batch.len() as f32;
        let precision = self.cfg.precision;
        let (losses, mut grads) = if let [model] = self.replicas.as_mut_slice() {
            rank_gradients(model, batch, scale, inv_b, precision)?
        } else {
            let mut results: Vec<RankResult> = (0..ranks).map(|_| None).collect();
            let tasks: Vec<_> = self
                .replicas
                .iter_mut()
                .zip(batch.chunks(batch.len() / ranks))
                .zip(results.iter_mut())
                .collect();
            Pool::current().run_parts(tasks, |_, ((model, slice), slot)| {
                *slot = Some(rank_gradients(model, slice, scale, inv_b, precision));
            });
            let mut losses = Vec::with_capacity(batch.len());
            let mut sum: Option<Vec<f32>> = None;
            for slot in results {
                let (l, g) = slot.expect("every rank ran")?;
                losses.extend(l);
                sum = Some(match sum {
                    None => g,
                    Some(mut acc) => {
                        for (a, b) in acc.iter_mut().zip(&g) {
                            *a += b;
                        }
                        acc
                    }
                });
            }
            (losses, sum.expect("at least one rank"))
        };
        // Under bf16 storage, gradients quantize at the optimizer boundary
        // (a no-op when the wire format was already bf16 — quantization is
        // idempotent).
        if self.cfg.storage == StoragePrecision::Bf16 {
            bf16_roundtrip_slice(&mut grads);
        }
        let loss_sum = losses.iter().fold(0.0f64, |sum, &l| sum + l as f64);
        Ok(((loss_sum / batch.len() as f64) as f32, grads))
    }

    /// The synchronize-then-execute step: wait for every gradient, check
    /// for overflow, compute the global norm, clip, then step.
    fn sync_step(&mut self, loss: f32, mut grads: Vec<f32>, scale: f32) -> StepOutcome {
        // The round-trip already baked any overflow into the values as ±inf.
        let validate_from = Instant::now();
        let Some(partials) = unscale_and_square(&mut grads, scale, self.cfg.buckets) else {
            self.spans.validate.record(validate_from);
            // Nothing was speculated, so the "rollback" is purely logical.
            self.spans.rollback.bump();
            return self.skip(loss);
        };
        self.last_scale_event = self.scaler.update_with(false);
        let norm = norm_from_partials(&partials);
        let factor = clip_factor(norm, self.cfg.max_grad_norm);
        self.spans.validate.record(validate_from);

        self.commit_step(grads, factor);
        if factor < 1.0 {
            self.spans.rollback.bump();
            self.clipped(loss, norm) // counted as a "would clip" event
        } else {
            StepOutcome::Applied {
                loss,
                grad_norm: norm,
            }
        }
    }

    /// The speculation-then-validation step: speculative per-bucket
    /// optimizer updates race ahead of a concurrent validator; a failed
    /// validation rolls back in place.
    fn stv_step(&mut self, loss: f32, mut grads: Vec<f32>, scale: f32) -> StepOutcome {
        let ranges = bucket_ranges(grads.len(), self.cfg.buckets);
        let step = self.step + 1;
        let guards: Vec<RollbackGuard> = ranges
            .iter()
            .map(|r| RollbackGuard::capture(self.model().params(), &self.state, r.start, r.len()))
            .collect();
        unscale(&mut grads, scale);

        let speculate_from = Instant::now();
        let verdicts = speculate(
            &self.cfg.adam,
            step,
            self.replicas[0].params_mut(),
            &mut self.state,
            &grads,
            &ranges,
        );
        self.spans.speculate.record(speculate_from);

        let validate_from = Instant::now();
        let overflow = verdicts.iter().any(|v| v.overflow);
        let partials: Vec<f64> = verdicts.iter().map(|v| v.sum_sq_unscaled).collect();
        let norm = norm_from_partials(&partials);
        self.spans.validate.record(validate_from);

        if overflow {
            // Roll every bucket back and skip the iteration.
            self.roll_back(&guards);
            return self.skip(loss);
        }
        self.last_scale_event = self.scaler.update_with(false);
        let factor = clip_factor(norm, self.cfg.max_grad_norm);
        if factor < 1.0 {
            // Roll back and re-execute with clipped gradients.
            self.roll_back(&guards);
            self.commit_step(grads, factor);
            return self.clipped(loss, norm);
        }
        self.commit(step);
        StepOutcome::Applied {
            loss,
            grad_norm: norm,
        }
    }

    /// The committed optimizer step: Adam over the canonical parameters
    /// with `grads` clipped by `factor`, then [`Engine::commit`].
    fn commit_step(&mut self, mut grads: Vec<f32>, factor: f32) {
        let step_from = Instant::now();
        let step = self.step + 1;
        apply_clip(&mut grads, factor);
        GraceAdam::default().step(
            &self.cfg.adam,
            step,
            self.replicas[0].params_mut(),
            &grads,
            &mut self.state,
        );
        self.commit(step);
        self.spans.optimizer_step.record(step_from);
    }

    /// Commits optimizer step `step`: re-quantizes the canonical parameters
    /// under bf16 storage and broadcasts them to every other replica (the
    /// post-step all-gather).
    fn commit(&mut self, step: u64) {
        let (canon, rest) = self.replicas.split_first_mut().expect("ranks >= 1");
        commit_params(self.cfg.storage, canon.params_mut());
        for replica in rest {
            replica.params_mut().copy_from_slice(canon.params());
        }
        self.step = step;
        self.stats.steps += 1;
    }

    /// Restores every speculated bucket from its guard.
    fn roll_back(&mut self, guards: &[RollbackGuard]) {
        let rollback_from = Instant::now();
        for g in guards {
            g.restore(self.replicas[0].params_mut(), &mut self.state);
        }
        self.spans.rollback.record(rollback_from);
    }

    /// Skips an overflowed iteration and backs the loss scale off.
    fn skip(&mut self, loss: f32) -> StepOutcome {
        self.last_scale_event = self.scaler.update_with(true);
        self.stats.skipped += 1;
        StepOutcome::Skipped { loss }
    }

    /// Counts a clip rollback.
    fn clipped(&mut self, loss: f32, grad_norm: f64) -> StepOutcome {
        self.stats.clip_rollbacks += 1;
        StepOutcome::Clipped { loss, grad_norm }
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
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, cfg());
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, cfg());
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
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, tight);
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, tight);
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
    fn one_pass_validation_matches_the_three_passes() {
        let mut rng = tensorlite::XorShiftRng::new(5);
        let mut grads: Vec<f32> = (0..1_003).map(|_| rng.normal() * 1e3).collect();
        grads[10] = 0.0;
        grads[11] = -0.0;
        // A power-of-two scale unscales exactly; 3000 rounds.
        for (scale, buckets) in [(1024.0, 1), (1024.0, 4), (3000.0, 1), (3000.0, 7)] {
            let mut folded = grads.clone();
            let partials = unscale_and_square(&mut folded, scale, buckets).unwrap();
            let mut apart = grads.clone();
            unscale(&mut apart, scale);
            let expected: Vec<u64> = bucket_ranges(apart.len(), buckets)
                .into_iter()
                .map(|r| sum_of_squares(&apart[r]).to_bits())
                .collect();
            let bits: Vec<u64> = partials.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits, expected, "scale {scale}, {buckets} buckets");
            let same = folded
                .iter()
                .zip(&apart)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "unscaled gradients differ at scale {scale}");
        }
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut g = grads.clone();
            g[900] = bad;
            assert!(unscale_and_square(&mut g, 1024.0, 4).is_none(), "{bad}");
        }
    }

    #[test]
    fn overflow_skips_and_matches() {
        // A huge loss scale overflows FP16 gradients, forcing skip+backoff.
        let overflow_cfg = EngineConfig {
            initial_loss_scale: 1e9,
            ..cfg()
        };
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, overflow_cfg);
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, overflow_cfg);
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
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, lr_cfg);
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
        let mut f16 = Engine::new(Discipline::Stv, tiny(), 1, scale_cfg(Precision::F16));
        let mut bf16 = Engine::new(Discipline::Stv, tiny(), 1, scale_cfg(Precision::Bf16));
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
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, bf_cfg);
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, bf_cfg);
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
        // With bf16 *storage* (not just the wire format), both disciplines
        // quantize gradients entering the optimizer and parameters at each
        // commit — and must still agree bit for bit, rollbacks included.
        let storage_cfg = EngineConfig {
            storage: StoragePrecision::Bf16,
            max_grad_norm: 0.5,
            ..cfg()
        };
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, storage_cfg);
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, storage_cfg);
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
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, storage_cfg);
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
        use tensorlite::cast::{
            bf16_to_f32_slice, f16_to_f32_slice, f32_to_bf16_slice, f32_to_f16_slice,
        };
        let vals = [0.1f32, -3.5, 70000.0, 1e-8];
        let (mut f16, mut bf16) = (vals, vals);
        Precision::F16.roundtrip(&mut f16);
        Precision::Bf16.roundtrip(&mut bf16);
        // In place, value for value what the slice casts give.
        assert_eq!(f16.to_vec(), f16_to_f32_slice(&f32_to_f16_slice(&vals)));
        assert_eq!(bf16.to_vec(), bf16_to_f32_slice(&f32_to_bf16_slice(&vals)));
        assert!(f16[2].is_infinite(), "70000 overflows f16");
        assert!(bf16[2].is_finite(), "70000 fits bf16");
        // Both approximate small values; f16 has finer mantissa near 0.1.
        assert!((f16[0] - 0.1).abs() <= (bf16[0] - 0.1).abs());
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        // Train 8 steps, checkpoint, train 8 more; separately restore a
        // fresh engine from the checkpoint and train the same 8 — identical.
        let mut full = Engine::new(Discipline::Stv, tiny(), 1, cfg());
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
        let mut resumed = Engine::new(Discipline::Stv, tiny(), 1, cfg());
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
        // total in both disciplines.
        let stress = EngineConfig {
            max_grad_norm: 0.05,
            initial_loss_scale: 1e9,
            buckets: 3,
            ..EngineConfig::default()
        };
        let mut sync = Engine::new(Discipline::Sync, tiny(), 1, stress);
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, stress);
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
        // Speculation happens on every STV step, never under Sync.
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
        let mut stv = Engine::new(Discipline::Stv, tiny(), 1, cfg());
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
