//! A ledger belongs to the run that produced it: two journaled trainers
//! running at the same time in one process, one with f32 and one with
//! bf16 storage, each write the journal they write alone, and kernels the
//! calling thread runs outside `Trainer::step` land in neither.

use std::sync::Barrier;

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::trainer::{JournalConfig, Trainer};
use tensorlite::{StoragePrecision, Tensor};

const STEPS: u64 = 6;

/// Trains a journaled trainer for [`STEPS`] steps on two pool threads,
/// calling `between` after each step, and returns its JSONL journal.
fn journal(storage: StoragePrecision, mut between: impl FnMut()) -> String {
    tensorlite::pool::with_threads(2, || {
        let model = GptModel::new(
            GptConfig {
                vocab: 43,
                hidden: 16,
                layers: 2,
                heads: 2,
                max_seq: 16,
            },
            808,
        );
        let mut b = Trainer::new(model);
        b.storage(storage).journal(JournalConfig::default());
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, 7);
        for _ in 0..STEPS {
            trainer.step(&pile.next_batch(2, 12)).unwrap();
            between();
        }
        trainer.journal().unwrap().to_jsonl()
    })
}

/// Kernels and tensor traffic on the calling thread, outside any step.
fn stray_kernels() {
    let a = Tensor::ones(&[24, 24]);
    let b = tensorlite::ops::gelu(&a.matmul(&a).unwrap());
    drop(b.scale(0.5));
}

#[test]
fn concurrent_journaled_trainers_keep_their_own_ledgers() {
    let alone = [StoragePrecision::F32, StoragePrecision::Bf16].map(|s| journal(s, || {}));
    assert_ne!(
        alone[0], alone[1],
        "bf16 storage counts 2 bytes per element"
    );
    let start = Barrier::new(2);
    let [f32_run, bf16_run] = std::thread::scope(|s| {
        let runs = [StoragePrecision::F32, StoragePrecision::Bf16].map(|storage| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                journal(storage, || {})
            })
        });
        // The calling thread keeps running kernels while both trainers step.
        while !runs.iter().all(|r| r.is_finished()) {
            stray_kernels();
        }
        runs.map(|r| r.join().unwrap())
    });
    assert_eq!(f32_run, alone[0], "f32 journal changed by a concurrent run");
    assert_eq!(
        bf16_run, alone[1],
        "bf16 journal changed by a concurrent run"
    );
}

#[test]
fn kernels_outside_a_step_land_in_no_journal() {
    let clean = journal(StoragePrecision::F32, || {});
    assert_eq!(journal(StoragePrecision::F32, stray_kernels), clean);
}
