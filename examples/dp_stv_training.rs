//! Data-parallel speculation-then-validation: four model replicas computing
//! gradients side by side, a rank-ordered all-reduce, concurrent
//! speculative bucket steps with a validator, and a broadcast of every
//! commit — the numeric-plane counterpart of §4.7's ZeRO-DP integration,
//! verified bit-identical against the synchronous data-parallel reference.
//!
//! Run with: `cargo run --release --example dp_stv_training` (exits
//! non-zero if STV diverges from the reference or the replicas disagree).

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{Discipline, Engine, EngineConfig};

fn main() {
    let ranks = 4;
    let model_cfg = GptConfig {
        vocab: 64,
        hidden: 32,
        layers: 2,
        heads: 2,
        max_seq: 32,
    };
    let engine_cfg = EngineConfig {
        max_grad_norm: 2.0,
        initial_loss_scale: 65536.0,
        ..EngineConfig::default()
    };

    let mut stv = Engine::new(
        Discipline::Stv,
        GptModel::new(model_cfg.clone(), 2024),
        ranks,
        engine_cfg,
    );
    let mut sync = Engine::new(
        Discipline::Sync,
        GptModel::new(model_cfg, 2024),
        ranks,
        engine_cfg,
    );
    let mut pile = SyntheticPile::new(64, 2024);

    println!("training with {ranks} data-parallel ranks (replicas on threads)\n");
    let (mut divergences, mut inconsistent) = (0, 0);
    for it in 0..120 {
        // Global batch of 8 sequences: 2 per rank.
        let batch = pile.next_batch(8, 20);
        let out = stv.train_step(&batch).expect("dp stv step");
        sync.train_step(&batch).expect("dp sync step");
        if stv.model().params() != sync.model().params() {
            divergences += 1;
        }
        // Replica consistency: every rank holds the committed parameters.
        let canon = stv.model().params();
        if stv.replicas().iter().any(|r| r.params() != canon) {
            inconsistent += 1;
        }
        if it % 20 == 0 {
            println!(
                "iter {it:>4}  loss {:>7.4}  rollbacks so far: {}",
                out.loss(),
                stv.stats().rollbacks()
            );
        }
    }

    println!("\nsteps: {}", stv.stats().steps);
    println!("overflow skips: {}", stv.stats().skipped);
    println!("clip rollbacks: {}", stv.stats().clip_rollbacks);
    println!(
        "replicas consistent: {}",
        if inconsistent == 0 { "YES" } else { "NO" }
    );
    println!(
        "bit-identical to synchronous DP reference: {}",
        if divergences == 0 { "YES" } else { "NO" }
    );
    if divergences > 0 || inconsistent > 0 {
        eprintln!("{divergences} divergent steps, {inconsistent} steps with inconsistent replicas");
        std::process::exit(1);
    }
}
