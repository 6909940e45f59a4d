//! Real speculation-then-validation training: a real miniature GPT, real
//! multi-threaded speculative optimizer steps, real rollbacks — verified
//! bit-identical against a synchronous reference every iteration (the
//! paper's §4.4 / Fig. 14 exactness claim).
//!
//! Run with: `cargo run --release --example stv_training` (exits non-zero
//! if STV ever diverges from the reference).

use grace_optim::adam::AdamConfig;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{Discipline, Engine, EngineConfig, StepOutcome};

fn main() {
    let model_cfg = GptConfig {
        vocab: 64,
        hidden: 32,
        layers: 2,
        heads: 2,
        max_seq: 32,
    };
    let engine_cfg = EngineConfig {
        adam: AdamConfig {
            lr: 3e-3,
            ..AdamConfig::default()
        },
        max_grad_norm: 1.0,
        // Deliberately high: early iterations overflow FP16 and roll back,
        // like the paper's warm-up phase.
        initial_loss_scale: 1_048_576.0,
        buckets: 4,
        ..EngineConfig::default()
    };

    let mut stv = Engine::new(
        Discipline::Stv,
        GptModel::new(model_cfg.clone(), 1234),
        1,
        engine_cfg,
    );
    let mut sync = Engine::new(
        Discipline::Sync,
        GptModel::new(model_cfg, 1234),
        1,
        engine_cfg,
    );
    let mut pile = SyntheticPile::new(64, 1234);

    println!("training a real GPT with STV (speculative steps + validator task)\n");
    let iterations = 200;
    let mut divergences = 0;
    for it in 0..iterations {
        let batch = pile.next_batch(2, 24);
        let out = stv.train_step(&batch).expect("stv step");
        sync.train_step(&batch).expect("sync step");
        if stv.model().params() != sync.model().params() {
            divergences += 1;
        }
        if it % 20 == 0 || out.rolled_back() {
            let tag = match out {
                StepOutcome::Applied { .. } => "applied",
                StepOutcome::Clipped { .. } => "ROLLBACK (clip + re-step)",
                StepOutcome::Skipped { .. } => "ROLLBACK (overflow, skipped)",
            };
            println!("iter {it:>4}  loss {:>7.4}  {tag}", out.loss());
        }
    }

    let stats = stv.stats();
    println!("\nsteps applied:   {}", stats.steps);
    println!("overflow skips:  {}", stats.skipped);
    println!("clip rollbacks:  {}", stats.clip_rollbacks);
    if divergences > 0 {
        println!("bit-identical to synchronous reference: NO ({divergences} divergent steps)");
        std::process::exit(1);
    }
    println!(
        "bit-identical to synchronous reference: YES (exact optimization, as the paper claims)"
    );
}
