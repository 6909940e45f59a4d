//! Step-journal determinism and accounting tests.

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::Sample;
use superoffload::trainer::{JournalConfig, Trainer, JOURNAL_SCHEMA};
use tensorlite::OpKind;

fn model() -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 43,
            hidden: 16,
            layers: 2,
            heads: 2,
            max_seq: 16,
        },
        808,
    )
}

/// Runs a short journaled training loop at `threads` workers and returns
/// the deterministic JSONL.
fn journaled_jsonl(threads: usize, steps: u64, seed: u64) -> String {
    tensorlite::pool::with_threads(threads, || {
        let mut b = Trainer::new(model());
        b.journal(JournalConfig::default());
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, seed);
        trainer.run(steps, || pile.next_batch(2, 12)).unwrap();
        trainer.journal().unwrap().to_jsonl()
    })
}

#[test]
fn jsonl_is_byte_identical_across_reruns_and_thread_counts() {
    let base = journaled_jsonl(1, 6, 42);
    assert_eq!(journaled_jsonl(1, 6, 42), base, "rerun must be identical");
    assert_eq!(journaled_jsonl(2, 6, 42), base, "threads=2 must match");
    assert_eq!(journaled_jsonl(7, 6, 42), base, "threads=7 must match");
    assert!(base.starts_with(&format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"")));
}

#[test]
fn per_step_counters_account_the_whole_stack() {
    let mut b = Trainer::new(model());
    b.journal(JournalConfig::default());
    let mut trainer = b.build();
    let mut pile = SyntheticPile::new(43, 7);
    trainer.run(4, || pile.next_batch(2, 12)).unwrap();
    let j = trainer.journal().unwrap();
    for r in j.records() {
        let c = &r.counters;
        // Forward + backward of a 2-layer GPT must hit every kernel family.
        assert!(c.calls(OpKind::MatMul) > 0, "step {}", r.step);
        assert!(c.calls(OpKind::Softmax) > 0, "step {}", r.step);
        assert!(c.calls(OpKind::LayerNorm) > 0, "step {}", r.step);
        assert!(c.calls(OpKind::Gelu) > 0, "step {}", r.step);
        assert!(c.calls(OpKind::CrossEntropy) > 0, "step {}", r.step);
        assert!(c.total_flops() > 0, "step {}", r.step);
        assert!(c.allocated_bytes > 0, "step {}", r.step);
        // Applied/clipped steps run the optimizer over every parameter.
        if r.outcome != "skipped" {
            assert!(c.calls(OpKind::AdamStep) > 0, "step {}", r.step);
            assert!(
                c.elems(OpKind::AdamStep) >= trainer.model().num_params() as u64,
                "step {}",
                r.step
            );
        }
    }
}

#[test]
fn measured_mfu_is_sane() {
    let mut b = Trainer::new(model());
    b.journal(JournalConfig::default());
    let mut trainer = b.build();
    let mut pile = SyntheticPile::new(43, 9);
    trainer.run(3, || pile.next_batch(2, 12)).unwrap();
    let j = trainer.journal().unwrap();
    let mfu = j.mean_mfu();
    assert!(mfu > 0.0, "measured MFU must be positive, got {mfu}");
    assert!(mfu <= 1.0, "measured MFU must not exceed 1, got {mfu}");
    for t in j.timings() {
        assert!(t.wall_secs > 0.0);
        assert!(t.tokens_per_sec > 0.0);
        assert!(
            t.mfu >= 0.0 && t.mfu <= 1.0,
            "step {} mfu {}",
            t.step,
            t.mfu
        );
    }
    assert!(j.mean_tokens_per_sec() > 0.0);
}

#[test]
fn journal_attaches_to_run_profile() {
    use superoffload::report::{RunProfile, TrainReport};
    let mut b = Trainer::new(model());
    b.journal(JournalConfig::default());
    let mut trainer = b.build();
    let mut pile = SyntheticPile::new(43, 13);
    trainer.run(3, || pile.next_batch(2, 12)).unwrap();

    let mut report = TrainReport::oom("trainer");
    trainer.fold_into(&mut report);
    let trace = superchip_sim::Simulator::new().run().unwrap();
    let mut profile = RunProfile::from_trace(report, trace);
    profile.attach_journal(trainer.journal().unwrap());
    let summary = profile.journal.unwrap();
    assert_eq!(summary.steps, 3);
    let snap = profile.snapshot_json();
    superchip_sim::telemetry::validate_json(&snap).unwrap();
    assert!(snap.contains("journal.steps"));
    assert!(snap.contains("journal.flops"));
    assert!(snap.contains("journal.loss"));
}

#[test]
fn journaling_does_not_change_the_trajectory() {
    let batches: Vec<Vec<Sample>> = {
        let mut pile = SyntheticPile::new(43, 21);
        (0..5).map(|_| pile.next_batch(2, 12)).collect()
    };
    let mut plain = Trainer::new(model()).build();
    for b in &batches {
        plain.step(b).unwrap();
    }
    let mut jb = Trainer::new(model());
    jb.journal(JournalConfig::default());
    let mut journaled = jb.build();
    for b in &batches {
        journaled.step(b).unwrap();
    }
    assert_eq!(plain.model().params(), journaled.model().params());
    assert_eq!(plain.losses(), journaled.losses());
}
