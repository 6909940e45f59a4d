//! Cross-crate integration tests of the numeric plane: the real STV engine
//! over the real transformer, verified against the synchronous reference —
//! the §4.4 "exact optimization" claim under many regimes.
//!
//! Every regime runs at 1, 2 and 7 worker threads: a batch's sequences and
//! STV's speculation and validation are pool tasks, so the trajectory must
//! also be identical across thread counts.

use grace_optim::adam::AdamConfig;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{EngineConfig, StvEngine, SyncEngine};
use tensorlite::pool::with_threads;

const THREADS: [usize; 3] = [1, 2, 7];

/// Runs STV and Sync side by side at every count in [`THREADS`], asserting
/// bit-identical parameters after every step and across thread counts;
/// returns the one-thread pair.
fn run_pair(
    model_cfg: GptConfig,
    engine_cfg: EngineConfig,
    seed: u64,
    iters: usize,
    batch: usize,
    seq: usize,
) -> (StvEngine, SyncEngine) {
    let runs = THREADS.map(|threads| {
        with_threads(threads, || {
            run_pair_at(model_cfg.clone(), engine_cfg, seed, iters, batch, seq)
        })
    });
    for ((stv, sync), threads) in runs.iter().zip(THREADS).skip(1) {
        let (stv1, sync1) = &runs[0];
        assert_eq!(
            stv.model().params(),
            stv1.model().params(),
            "threads={threads}"
        );
        assert_eq!(
            sync.model().params(),
            sync1.model().params(),
            "threads={threads}"
        );
        assert_eq!(stv.stats(), stv1.stats(), "threads={threads}");
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
) -> (StvEngine, SyncEngine) {
    let mut stv = StvEngine::new(GptModel::new(model_cfg.clone(), seed), engine_cfg);
    let mut sync = SyncEngine::new(GptModel::new(model_cfg, seed), engine_cfg);
    let mut pile = SyntheticPile::new(61, seed);
    for it in 0..iters {
        let batch = pile.next_batch(batch, seq);
        stv.train_step(&batch).expect("stv step");
        sync.train_step(&batch).expect("sync step");
        assert_eq!(
            stv.model().params(),
            sync.model().params(),
            "divergence at iteration {it}"
        );
    }
    (stv, sync)
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
    for seed in [1u64, 7, 99] {
        for buckets in [1usize, 3, 8] {
            let cfg = EngineConfig {
                buckets,
                ..EngineConfig::default()
            };
            let (stv, _) = run_pair(tiny_cfg(), cfg, seed, 12, 2, 12);
            assert!(stv.stats().steps > 0, "seed {seed} buckets {buckets}");
        }
    }
}

#[test]
fn exact_under_aggressive_clipping() {
    let cfg = EngineConfig {
        max_grad_norm: 0.02,
        ..EngineConfig::default()
    };
    let (stv, sync) = run_pair(tiny_cfg(), cfg, 5, 20, 2, 12);
    assert!(
        stv.stats().clip_rollbacks > 10,
        "tight threshold should clip nearly every step: {:?}",
        stv.stats()
    );
    assert_eq!(stv.stats().clip_rollbacks, sync.stats().clip_rollbacks);
}

#[test]
fn exact_through_overflow_recovery() {
    let cfg = EngineConfig {
        initial_loss_scale: 1e9,
        ..EngineConfig::default()
    };
    let (stv, sync) = run_pair(tiny_cfg(), cfg, 11, 40, 2, 12);
    assert!(stv.stats().skipped > 3, "expected warm-up skips");
    assert_eq!(stv.stats().skipped, sync.stats().skipped);
    assert!(stv.stats().steps > 0, "training must resume after backoff");
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
    let (stv, _) = run_pair(model, cfg, 3, 8, 4, 20);
    assert!(stv.stats().steps > 0);
}

#[test]
fn stv_loss_matches_sync_loss_exactly() {
    let cfg = EngineConfig::default();
    let losses = THREADS.map(|threads| {
        with_threads(threads, || {
            let mut stv = StvEngine::new(GptModel::new(tiny_cfg(), 17), cfg);
            let mut sync = SyncEngine::new(GptModel::new(tiny_cfg(), 17), cfg);
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
    let (stv_fast, _) = run_pair(tiny_cfg(), fast, 23, 6, 2, 12);
    let (stv_slow, _) = run_pair(tiny_cfg(), slow, 23, 6, 2, 12);
    assert_ne!(stv_fast.model().params(), stv_slow.model().params());
}
