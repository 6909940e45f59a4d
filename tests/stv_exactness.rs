//! Cross-crate integration tests of the numeric plane: the real STV engine
//! over the real transformer, verified against the synchronous reference —
//! the §4.4 "exact optimization" claim under many regimes, at one rank and
//! under data parallelism (§4.7).
//!
//! Every regime runs at 1, 2 and 7 worker threads: a batch's sequences,
//! the data-parallel ranks, and STV's speculation and validation are pool
//! tasks, so the trajectory must also be identical across thread counts.

use grace_optim::adam::AdamConfig;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{Discipline, Engine, EngineConfig, Precision, Sample};
use tensorlite::pool::with_threads;
use tensorlite::{Bf16, StoragePrecision};

const THREADS: [usize; 3] = [1, 2, 7];

/// Data-parallel rank counts every regime covers.
const RANKS: [usize; 3] = [1, 2, 4];

/// The one-thread result of [`run_pair`].
struct Pair {
    stv: Engine,
    sync: Engine,
    /// STV's loss at every step.
    losses: Vec<f32>,
}

/// Runs STV and Sync side by side over `ranks` replicas at every count in
/// [`THREADS`], asserting bit-identical parameters and losses after every
/// step, consistent replicas, and identical trajectories across thread
/// counts; returns the one-thread pair.
fn run_pair(
    model_cfg: GptConfig,
    engine_cfg: EngineConfig,
    seed: u64,
    iters: usize,
    batch: usize,
    seq: usize,
    ranks: usize,
) -> Pair {
    let runs = THREADS.map(|threads| {
        with_threads(threads, || {
            run_pair_at(
                model_cfg.clone(),
                engine_cfg,
                seed,
                iters,
                batch,
                seq,
                ranks,
            )
        })
    });
    for (run, threads) in runs.iter().zip(THREADS).skip(1) {
        let at = format!("ranks={ranks} threads={threads}");
        assert_eq!(
            run.stv.model().params(),
            runs[0].stv.model().params(),
            "{at}"
        );
        assert_eq!(
            run.sync.model().params(),
            runs[0].sync.model().params(),
            "{at}"
        );
        assert_eq!(run.stv.stats(), runs[0].stv.stats(), "{at}");
        assert_eq!(bits(&run.losses), bits(&runs[0].losses), "{at}");
    }
    let [first, ..] = runs;
    first
}

fn run_pair_at(
    model_cfg: GptConfig,
    engine_cfg: EngineConfig,
    seed: u64,
    iters: usize,
    batch: usize,
    seq: usize,
    ranks: usize,
) -> Pair {
    let engine = |discipline| {
        Engine::new(
            discipline,
            GptModel::new(model_cfg.clone(), seed),
            ranks,
            engine_cfg,
        )
    };
    let (mut stv, mut sync) = (engine(Discipline::Stv), engine(Discipline::Sync));
    let mut pile = SyntheticPile::new(61, seed);
    let mut losses = Vec::with_capacity(iters);
    for it in 0..iters {
        let batch = pile.next_batch(batch, seq);
        let a = stv.train_step(&batch).expect("stv step");
        let b = sync.train_step(&batch).expect("sync step");
        let at = format!("ranks={ranks} iteration {it}");
        assert_eq!(a.rolled_back(), b.rolled_back(), "{at}: {a:?} vs {b:?}");
        assert_eq!(a.loss().to_bits(), b.loss().to_bits(), "{at}: loss");
        assert_eq!(
            stv.model().params(),
            sync.model().params(),
            "divergence at {at}"
        );
        assert_replicas_consistent(&stv, &at);
        assert_replicas_consistent(&sync, &at);
        losses.push(a.loss());
    }
    assert_eq!(stv.stats(), sync.stats(), "ranks={ranks}");
    Pair { stv, sync, losses }
}

/// Asserts every replica holds the canonical parameters.
fn assert_replicas_consistent(engine: &Engine, at: &str) {
    for (r, replica) in engine.replicas().iter().enumerate() {
        assert_eq!(
            replica.params(),
            engine.model().params(),
            "{at}: replica {r} of {:?} diverged",
            engine.discipline()
        );
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sequences per batch at `ranks`: two, or one per rank when there are
/// more ranks than that.
fn batch_for(ranks: usize) -> usize {
    ranks.max(2)
}

fn tiny_cfg() -> GptConfig {
    GptConfig {
        vocab: 61,
        hidden: 16,
        layers: 2,
        heads: 2,
        max_seq: 24,
    }
}

#[test]
fn exact_across_seeds_and_bucket_counts() {
    for (i, seed) in [1u64, 7, 99].into_iter().enumerate() {
        for (j, buckets) in [1usize, 3, 8].into_iter().enumerate() {
            // A Latin square: every rank count meets every seed and every
            // bucket count once.
            let ranks = RANKS[(i + j) % RANKS.len()];
            let cfg = EngineConfig {
                buckets,
                ..EngineConfig::default()
            };
            let pair = run_pair(tiny_cfg(), cfg, seed, 12, batch_for(ranks), 12, ranks);
            assert!(
                pair.stv.stats().steps > 0,
                "seed {seed} buckets {buckets} ranks {ranks}"
            );
        }
    }
}

#[test]
fn exact_under_aggressive_clipping() {
    let cfg = EngineConfig {
        max_grad_norm: 0.02,
        ..EngineConfig::default()
    };
    for ranks in RANKS {
        let pair = run_pair(tiny_cfg(), cfg, 5, 20, batch_for(ranks), 12, ranks);
        assert!(
            pair.stv.stats().clip_rollbacks > 10,
            "ranks {ranks}: tight threshold should clip nearly every step: {:?}",
            pair.stv.stats()
        );
        assert_eq!(
            pair.stv.stats().clip_rollbacks,
            pair.sync.stats().clip_rollbacks
        );
    }
}

#[test]
fn exact_through_overflow_recovery() {
    let cfg = EngineConfig {
        initial_loss_scale: 1e9,
        ..EngineConfig::default()
    };
    for ranks in RANKS {
        let pair = run_pair(tiny_cfg(), cfg, 11, 40, batch_for(ranks), 12, ranks);
        assert!(
            pair.stv.stats().skipped > 3,
            "ranks {ranks}: expected warm-up skips"
        );
        assert_eq!(pair.stv.stats().skipped, pair.sync.stats().skipped);
        assert!(
            pair.stv.stats().steps > 0,
            "ranks {ranks}: training must resume after backoff"
        );
    }
}

#[test]
fn exact_through_overflow_and_clipping_together() {
    // Both rollback paths in one run: skips while the loss scale backs off,
    // then clipped re-executions.
    let cfg = EngineConfig {
        max_grad_norm: 0.05,
        initial_loss_scale: 1e6,
        ..EngineConfig::default()
    };
    for ranks in [2, 4] {
        let pair = run_pair(tiny_cfg(), cfg, 21, 15, ranks, 12, ranks);
        let stats = pair.stv.stats();
        assert!(
            stats.skipped > 0,
            "ranks {ranks}: overflow path not exercised"
        );
        assert!(
            stats.clip_rollbacks > 0,
            "ranks {ranks}: clip path not exercised"
        );
    }
}

#[test]
fn exact_with_larger_model_and_batches() {
    let model = GptConfig {
        vocab: 61,
        hidden: 32,
        layers: 3,
        heads: 4,
        max_seq: 24,
    };
    let cfg = EngineConfig {
        buckets: 6,
        ..EngineConfig::default()
    };
    // The widest run: one rank and the most ranks; two ranks run in
    // every other regime.
    for ranks in [1, 4] {
        let pair = run_pair(model.clone(), cfg, 3, 8, 4, 20, ranks);
        assert!(pair.stv.stats().steps > 0, "ranks {ranks}");
    }
}

#[test]
fn stv_loss_matches_sync_loss_exactly() {
    let cfg = EngineConfig::default();
    let losses = THREADS.map(|threads| {
        with_threads(threads, || {
            let mut stv = Engine::new(Discipline::Stv, GptModel::new(tiny_cfg(), 17), 1, cfg);
            let mut sync = Engine::new(Discipline::Sync, GptModel::new(tiny_cfg(), 17), 1, cfg);
            let mut pile = SyntheticPile::new(61, 17);
            (0..10)
                .map(|_| {
                    let batch = pile.next_batch(2, 12);
                    let a = stv.train_step(&batch).unwrap();
                    let b = sync.train_step(&batch).unwrap();
                    assert_eq!(a.loss().to_bits(), b.loss().to_bits(), "threads={threads}");
                    a.loss().to_bits()
                })
                .collect::<Vec<_>>()
        })
    });
    assert!(
        losses.iter().all(|l| *l == losses[0]),
        "losses differ across thread counts"
    );
}

#[test]
fn adam_config_flows_through_engines() {
    // A different learning rate must change the trajectory (sanity that the
    // config plumbs through) while exactness still holds.
    let fast = EngineConfig {
        adam: AdamConfig {
            lr: 1e-2,
            ..AdamConfig::default()
        },
        ..EngineConfig::default()
    };
    let slow = EngineConfig::default();
    let stv_fast = run_pair(tiny_cfg(), fast, 23, 6, 2, 12, 1).stv;
    let stv_slow = run_pair(tiny_cfg(), slow, 23, 6, 2, 12, 1).stv;
    assert_ne!(stv_fast.model().params(), stv_slow.model().params());
}

#[test]
fn bf16_storage_commits_representable_params_at_every_rank_count() {
    // Under bf16 storage every commit re-quantizes the parameters, at every
    // rank count, and the disciplines still agree through clipping.
    let cfg = EngineConfig {
        storage: StoragePrecision::Bf16,
        max_grad_norm: 0.05,
        ..EngineConfig::default()
    };
    for ranks in [2, 4] {
        let pair = run_pair(tiny_cfg(), cfg, 31, 6, ranks, 12, ranks);
        assert!(
            pair.stv.stats().clip_rollbacks > 0,
            "ranks {ranks}: clip path not exercised"
        );
        for engine in [&pair.stv, &pair.sync] {
            assert!(engine.stats().steps > 0, "ranks {ranks}: nothing committed");
            for replica in engine.replicas() {
                let unrepresentable = replica
                    .params()
                    .iter()
                    .filter(|p| Bf16::from_f32(**p).to_f32().to_bits() != p.to_bits())
                    .count();
                assert_eq!(
                    unrepresentable,
                    0,
                    "ranks {ranks} {:?}: {unrepresentable} of {} parameters are not \
                     bf16-representable",
                    engine.discipline(),
                    replica.params().len()
                );
            }
        }
    }
}

#[test]
fn data_parallel_training_reduces_loss() {
    let cfg = EngineConfig {
        max_grad_norm: 2.0,
        ..EngineConfig::default()
    };
    let pair = run_pair(tiny_cfg(), cfg, 5, 25, 4, 12, 2);
    let (first, last) = (pair.losses[0], *pair.losses.last().unwrap());
    assert!(last < first, "loss {first} -> {last}");
}

#[test]
fn ranks_share_one_norm_tree() {
    // `ranks` copies of each sequence, one per rank, give every rank the
    // gradients of one copy at one-`ranks`th the scale: with a bf16 wire
    // (FP32's exponent range, so halving and doubling are exact) the
    // all-reduce rebuilds exactly the one-rank gradients, and the global
    // norm, the clip factor and the step must then match the one-rank
    // engine bit for bit. Clipping is on, so a norm tree that depended on
    // the rank count would show as a last-ulp drift.
    let cfg = EngineConfig {
        precision: Precision::Bf16,
        max_grad_norm: 0.05,
        ..EngineConfig::default()
    };
    for discipline in [Discipline::Stv, Discipline::Sync] {
        let engine = |ranks| Engine::new(discipline, GptModel::new(tiny_cfg(), 41), ranks, cfg);
        let mut one = engine(1);
        let mut many = [engine(2), engine(4)];
        let mut pile = SyntheticPile::new(61, 41);
        for it in 0..8 {
            let seq = pile.next_sequence(12);
            let a = one.train_step(std::slice::from_ref(&seq)).unwrap();
            for dp in &mut many {
                let ranks = dp.replicas().len();
                let copies: Vec<Sample> = vec![seq.clone(); ranks];
                let b = dp.train_step(&copies).unwrap();
                assert_eq!(a, b, "{discipline:?} ranks {ranks} iteration {it}");
                assert_eq!(
                    dp.model().params(),
                    one.model().params(),
                    "{discipline:?} ranks {ranks} iteration {it}"
                );
            }
        }
        assert!(
            one.stats().clip_rollbacks > 0,
            "{discipline:?}: clip path not exercised"
        );
    }
}

#[test]
fn checkpoint_resume_is_exact_at_two_ranks() {
    // A fresh engine built from a different model, restored from the
    // checkpoint, must continue exactly like the uninterrupted run: the
    // restore writes every replica, not just the canonical one.
    let cfg = EngineConfig {
        max_grad_norm: 0.5,
        ..EngineConfig::default()
    };
    let mut pile = SyntheticPile::new(61, 43);
    let batches: Vec<Vec<Sample>> = (0..12).map(|_| pile.next_batch(2, 12)).collect();
    for discipline in [Discipline::Stv, Discipline::Sync] {
        let mut full = Engine::new(discipline, GptModel::new(tiny_cfg(), 43), 2, cfg);
        for b in &batches[..6] {
            full.train_step(b).unwrap();
        }
        let bytes = full.checkpoint().to_bytes();
        let ckpt = superoffload::Checkpoint::from_bytes(&bytes).unwrap();
        let mut resumed = Engine::new(discipline, GptModel::new(tiny_cfg(), 44), 2, cfg);
        resumed.restore(&ckpt);
        assert_eq!(resumed.checkpoint().to_bytes(), bytes);
        for (it, b) in batches[6..].iter().enumerate() {
            let a = full.train_step(b).unwrap();
            let r = resumed.train_step(b).unwrap();
            assert_eq!(a, r, "{discipline:?} iteration {it}");
            assert_eq!(full.model().params(), resumed.model().params());
            assert_replicas_consistent(&resumed, &format!("resumed iteration {it}"));
        }
    }
}
