//! Data-parallel speculation-then-validation — the numeric-plane
//! counterpart of the ZeRO-DP integration (§4.7).
//!
//! `ranks` model replicas each compute gradients over their slice of the
//! global batch as one task of a pool region ("their GPU"); gradients
//! FP16-round-trip ("cross the C2C link") and reduce across ranks in a
//! fixed tree order; the flat parameter space is sharded so each rank
//! speculatively steps only its own 1/N slice ("its local Grace CPU") while
//! a validator task scans concurrently in the same region; failed
//! validation rolls every shard back in place; the committed parameters
//! broadcast to all replicas ("all-gather").
//!
//! [`DpStvEngine`] is asserted bit-identical to [`DpSyncEngine`] (same
//! reduction tree, synchronize-then-execute ordering) across overflow,
//! clipping, and recovery — the §4.4 exactness claim at data-parallel scale.

use grace_optim::adam::AdamState;
use grace_optim::clip::{apply_clip, clip_factor};
use grace_optim::mixed_precision::LossScaler;
use grace_optim::rollback::RollbackGuard;
use llm_model::transformer::GptModel;
use tensorlite::cast::sum_of_squares;
use tensorlite::{Pool, TensorError};

use crate::engine::{
    norm_from_partials, step_ranges, BucketVerdict, EngineConfig, Precision, Sample, StepOutcome,
    StvStats,
};

/// Splits `n` elements into `parts` contiguous shard ranges.
fn shard_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let per = n.div_ceil(parts);
    (0..parts)
        .map(|i| (i * per).min(n)..((i + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Per-rank gradients: forward/backward over the rank's batch slice on the
/// rank's replica, scaled by `scale / global_batch` and FP16-round-tripped.
fn rank_gradients(
    replica: &mut GptModel,
    rank_batch: &[Sample],
    scale: f32,
    global_batch: usize,
    precision: Precision,
) -> Result<(f64, Vec<f32>), TensorError> {
    replica.zero_grads();
    let mut loss_sum = 0.0f64;
    for (x, y) in rank_batch {
        loss_sum += replica.forward_backward(x, y)? as f64;
    }
    let factor = scale / global_batch as f32;
    let scaled: Vec<f32> = replica.grads().iter().map(|g| g * factor).collect();
    Ok((loss_sum, precision.roundtrip(&scaled)))
}

/// Computes per-rank gradients concurrently and reduces them in fixed rank
/// order (the deterministic "all-reduce tree" both engines share).
///
/// An empty batch is [`TensorError::Empty`], returned before any state
/// (gradients included) is touched, so the engines never step on it.
fn reduced_gradients(
    replicas: &mut [GptModel],
    batch: &[Sample],
    scale: f32,
    precision: Precision,
) -> Result<(f32, Vec<f32>), TensorError> {
    if batch.is_empty() {
        return Err(TensorError::Empty { what: "batch" });
    }
    let ranks = replicas.len();
    assert_eq!(batch.len() % ranks, 0, "batch must divide across ranks");
    let per = batch.len() / ranks;
    let global = batch.len();

    let mut results: Vec<RankResult> = (0..ranks).map(|_| None).collect();
    let tasks: Vec<_> = replicas
        .iter_mut()
        .zip(batch.chunks(per))
        .zip(results.iter_mut())
        .collect();
    Pool::current().run_parts(tasks, |_, ((replica, chunk), slot)| {
        *slot = Some(rank_gradients(replica, chunk, scale, global, precision));
    });

    let mut loss = 0.0f64;
    let mut reduced: Option<Vec<f32>> = None;
    for slot in results {
        let (l, g) = slot.expect("rank executed")?;
        loss += l;
        reduced = Some(match reduced {
            None => g,
            Some(mut acc) => {
                for (a, b) in acc.iter_mut().zip(&g) {
                    *a += b;
                }
                acc
            }
        });
    }
    Ok((
        (loss / global as f64) as f32,
        reduced.expect("at least one rank"),
    ))
}

/// Per-rank result slot: `(loss sum, reduced-precision gradients)`.
type RankResult = Option<Result<(f64, Vec<f32>), TensorError>>;

/// Shared state of both data-parallel engines.
#[derive(Debug)]
struct DpCore {
    replicas: Vec<GptModel>,
    state: AdamState,
    scaler: LossScaler,
    cfg: EngineConfig,
    step: u64,
    stats: StvStats,
}

impl DpCore {
    fn new(model: GptModel, ranks: usize, cfg: EngineConfig) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        let n = model.num_params();
        let replicas: Vec<GptModel> = (0..ranks).map(|_| model.clone()).collect();
        DpCore {
            replicas,
            state: AdamState::new(n),
            scaler: LossScaler::new(cfg.initial_loss_scale),
            cfg,
            step: 0,
            stats: StvStats::default(),
        }
    }

    /// Broadcasts replica 0's parameters to every other replica (the
    /// post-step all-gather).
    fn broadcast_params(&mut self) {
        let (canon, rest) = self.replicas.split_first_mut().expect("ranks >= 1");
        for replica in rest {
            replica.params_mut().copy_from_slice(canon.params());
        }
    }

    /// Steps every shard of replica 0's parameters with the shared Adam
    /// config in one pool region (see [`step_ranges`]), with DP-STV's
    /// validator as one more task when `verdicts` is given — used by both
    /// engines so numerics are identical.
    fn step_shards(&mut self, grads: &[f32], step: u64, verdicts: Option<&mut Vec<BucketVerdict>>) {
        let ranges = shard_ranges(grads.len(), self.replicas.len());
        let (params, state) = (self.replicas[0].params_mut(), &mut self.state);
        step_ranges(
            &self.cfg.adam,
            step,
            params,
            state,
            grads,
            &ranges,
            verdicts,
        );
    }
}

/// Synchronize-then-execute data-parallel reference engine.
#[derive(Debug)]
pub struct DpSyncEngine {
    core: DpCore,
}

impl DpSyncEngine {
    /// Creates `ranks` replicas of `model` under the STE discipline.
    pub fn new(model: GptModel, ranks: usize, cfg: EngineConfig) -> Self {
        DpSyncEngine {
            core: DpCore::new(model, ranks, cfg),
        }
    }

    /// Canonical (rank-0) model.
    pub fn model(&self) -> &GptModel {
        &self.core.replicas[0]
    }

    /// Run statistics.
    pub fn stats(&self) -> StvStats {
        self.core.stats
    }

    /// One synchronous data-parallel step over `batch` (length must divide
    /// by the rank count).
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch (no state is
    /// touched) and propagates [`TensorError`] from forward/backward.
    pub fn train_step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let scale = self.core.scaler.scale();
        let (loss, mut grads) = reduced_gradients(
            &mut self.core.replicas,
            batch,
            scale,
            self.core.cfg.precision,
        )?;

        let overflow = grads.iter().any(|g| !g.is_finite());
        if overflow {
            self.core.scaler.update_with(true);
            self.core.stats.skipped += 1;
            // Replicas stayed identical (no step); nothing to broadcast.
            return Ok(StepOutcome::Skipped { loss });
        }
        self.core.scaler.update_with(false);

        let inv = 1.0 / scale;
        for g in &mut grads {
            *g *= inv;
        }
        let ranges = shard_ranges(grads.len(), self.core.replicas.len());
        let partials: Vec<f64> = ranges
            .iter()
            .map(|r| sum_of_squares(&grads[r.clone()]))
            .collect();
        let norm = norm_from_partials(&partials);
        let factor = clip_factor(norm, self.core.cfg.max_grad_norm);
        apply_clip(&mut grads, factor);

        self.core.step += 1;
        let step = self.core.step;
        self.core.step_shards(&grads, step, None);
        self.core.broadcast_params();
        self.core.stats.steps += 1;
        if factor < 1.0 {
            self.core.stats.clip_rollbacks += 1;
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

/// Speculation-then-validation data-parallel engine.
#[derive(Debug)]
pub struct DpStvEngine {
    core: DpCore,
}

impl DpStvEngine {
    /// Creates `ranks` replicas of `model` under the STV discipline.
    pub fn new(model: GptModel, ranks: usize, cfg: EngineConfig) -> Self {
        DpStvEngine {
            core: DpCore::new(model, ranks, cfg),
        }
    }

    /// Canonical (rank-0) model.
    pub fn model(&self) -> &GptModel {
        &self.core.replicas[0]
    }

    /// All replicas (for replica-consistency assertions).
    pub fn replicas(&self) -> &[GptModel] {
        &self.core.replicas
    }

    /// Run statistics.
    pub fn stats(&self) -> StvStats {
        self.core.stats
    }

    /// One speculative data-parallel step: every rank's shard steps before
    /// validation completes; violations roll all shards back.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch (no state is
    /// touched) and propagates [`TensorError`] from forward/backward.
    pub fn train_step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let scale = self.core.scaler.scale();
        let (loss, mut grads) = reduced_gradients(
            &mut self.core.replicas,
            batch,
            scale,
            self.core.cfg.precision,
        )?;
        let n = grads.len();
        let ranges = shard_ranges(n, self.core.replicas.len());
        let speculative_step = self.core.step + 1;

        // Guards for every shard, then unscale (same elementwise op as STE).
        let guards: Vec<RollbackGuard> = ranges
            .iter()
            .map(|r| {
                RollbackGuard::capture(
                    self.core.replicas[0].params(),
                    &self.core.state,
                    r.start,
                    r.len(),
                )
            })
            .collect();
        let inv = 1.0 / scale;
        for g in &mut grads {
            *g *= inv;
        }

        // Validator partials computed concurrently with the speculative
        // shard steps (overflow check + unscaled norms).
        let mut verdicts = Vec::with_capacity(ranges.len());
        self.core
            .step_shards(&grads, speculative_step, Some(&mut verdicts));

        let overflow = verdicts.iter().any(|v| v.overflow);
        let partials: Vec<f64> = verdicts.iter().map(|v| v.sum_sq_unscaled).collect();
        let norm = norm_from_partials(&partials);

        if overflow {
            for g in &guards {
                g.restore(self.core.replicas[0].params_mut(), &mut self.core.state);
            }
            // Replicas were never touched (only rank 0's canonical copy is
            // stepped before broadcast), so no further repair is needed.
            self.core.scaler.update_with(true);
            self.core.stats.skipped += 1;
            return Ok(StepOutcome::Skipped { loss });
        }
        self.core.scaler.update_with(false);

        let factor = clip_factor(norm, self.core.cfg.max_grad_norm);
        if factor < 1.0 {
            for g in &guards {
                g.restore(self.core.replicas[0].params_mut(), &mut self.core.state);
            }
            apply_clip(&mut grads, factor);
            self.core.step_shards(&grads, speculative_step, None);
            self.core.step = speculative_step;
            self.core.broadcast_params();
            self.core.stats.steps += 1;
            self.core.stats.clip_rollbacks += 1;
            return Ok(StepOutcome::Clipped {
                loss,
                grad_norm: norm,
            });
        }

        self.core.step = speculative_step;
        self.core.broadcast_params();
        self.core.stats.steps += 1;
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
    use tensorlite::pool::with_threads;

    const THREADS: [usize; 3] = [1, 2, 7];

    /// Runs `f` under every worker count in [`THREADS`] and asserts that
    /// the parameters it returns are bit-identical across them.
    fn at_every_thread_count(f: impl Fn() -> Vec<f32>) {
        let runs = THREADS.map(|threads| with_threads(threads, &f));
        for (params, threads) in runs.iter().zip(THREADS).skip(1) {
            assert_eq!(params, &runs[0], "threads={threads}");
        }
    }

    fn tiny() -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 41,
                hidden: 16,
                layers: 2,
                heads: 2,
                max_seq: 16,
            },
            77,
        )
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            max_grad_norm: 2.0,
            buckets: 4,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn dp_stv_is_bit_identical_to_dp_sync() {
        for ranks in [1usize, 2, 4] {
            at_every_thread_count(|| {
                let mut stv = DpStvEngine::new(tiny(), ranks, cfg());
                let mut sync = DpSyncEngine::new(tiny(), ranks, cfg());
                let mut pile = SyntheticPile::new(41, 3);
                for it in 0..15 {
                    let batch = pile.next_batch(4, 12);
                    let a = stv.train_step(&batch).unwrap();
                    let b = sync.train_step(&batch).unwrap();
                    assert_eq!(a.rolled_back(), b.rolled_back(), "ranks {ranks} iter {it}");
                    assert_eq!(
                        stv.model().params(),
                        sync.model().params(),
                        "ranks {ranks} iter {it}: divergence"
                    );
                }
                assert!(stv.stats().steps > 0);
                stv.model().params().to_vec()
            });
        }
    }

    #[test]
    fn replicas_stay_consistent_after_every_step() {
        at_every_thread_count(|| {
            let mut stv = DpStvEngine::new(tiny(), 3, cfg());
            let mut pile = SyntheticPile::new(41, 9);
            for _ in 0..10 {
                let batch = pile.next_batch(3, 12);
                stv.train_step(&batch).unwrap();
                let canon = stv.replicas()[0].params();
                for (r, replica) in stv.replicas().iter().enumerate() {
                    assert_eq!(replica.params(), canon, "replica {r} diverged");
                }
            }
            stv.model().params().to_vec()
        });
    }

    #[test]
    fn exact_through_dp_clipping_and_overflow() {
        let hard = EngineConfig {
            max_grad_norm: 0.05,
            initial_loss_scale: 1e9,
            ..EngineConfig::default()
        };
        at_every_thread_count(|| {
            let mut stv = DpStvEngine::new(tiny(), 2, hard);
            let mut sync = DpSyncEngine::new(tiny(), 2, hard);
            let mut pile = SyntheticPile::new(41, 21);
            for _ in 0..30 {
                let batch = pile.next_batch(2, 12);
                stv.train_step(&batch).unwrap();
                sync.train_step(&batch).unwrap();
                assert_eq!(stv.model().params(), sync.model().params());
            }
            assert!(stv.stats().skipped > 0, "overflow path not exercised");
            assert!(stv.stats().clip_rollbacks > 0, "clip path not exercised");
            assert_eq!(stv.stats(), sync.stats());
            stv.model().params().to_vec()
        });
    }

    #[test]
    fn single_rank_matches_the_single_engine() {
        use crate::engine::StvEngine;
        // Clipping disabled: the two engines compute the global norm over
        // different partial trees (ranks vs buckets), so a triggered clip
        // factor could differ in the last ulp; everything else is identical.
        let no_clip = EngineConfig {
            max_grad_norm: 1e9,
            ..cfg()
        };
        at_every_thread_count(|| {
            let mut dp = DpStvEngine::new(tiny(), 1, no_clip);
            let mut single = StvEngine::new(tiny(), no_clip);
            let mut pile = SyntheticPile::new(41, 13);
            for _ in 0..10 {
                let batch = pile.next_batch(2, 12);
                dp.train_step(&batch).unwrap();
                single.train_step(&batch).unwrap();
                assert_eq!(dp.model().params(), single.model().params());
            }
            dp.model().params().to_vec()
        });
    }

    #[test]
    fn dp_training_reduces_loss() {
        at_every_thread_count(|| {
            let mut dp = DpStvEngine::new(tiny(), 2, cfg());
            let mut pile = SyntheticPile::new(41, 5);
            let mut first = f32::NAN;
            let mut last = f32::NAN;
            for it in 0..60 {
                let batch = pile.next_batch(4, 12);
                let out = dp.train_step(&batch).unwrap();
                if it == 0 {
                    first = out.loss();
                }
                last = out.loss();
            }
            assert!(last < first, "loss {first} -> {last}");
            dp.model().params().to_vec()
        });
    }

    #[test]
    #[should_panic(expected = "batch must divide")]
    fn indivisible_batch_rejected() {
        let mut dp = DpStvEngine::new(tiny(), 2, cfg());
        let mut pile = SyntheticPile::new(41, 1);
        let batch = pile.next_batch(3, 8);
        let _ = dp.train_step(&batch);
    }
}
