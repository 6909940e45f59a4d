//! A ledger and a thread count belong to the run that set them: two
//! journaled trainers running at the same time in one process, one with
//! f32 and one with bf16 storage, each write the journal they write alone,
//! and kernels the calling thread runs outside `Trainer::step` land in
//! neither. Two trainers built with their own thread counts each step at
//! their own count, interleaved on one thread or side by side on two; and
//! the process default (`SUPEROFFLOAD_THREADS`, else the hardware count)
//! only applies where no scope sets another.

use std::sync::Barrier;

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::trainer::{JournalConfig, Trainer};
use tensorlite::pool::{hardware_threads, with_threads};
use tensorlite::{Pool, StoragePrecision, Tensor};

const STEPS: u64 = 6;

/// A journaled trainer of a small GPT; `threads` goes to
/// `TrainerBuilder::threads` when set.
fn trainer(storage: StoragePrecision, threads: Option<usize>) -> Trainer {
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
    if let Some(n) = threads {
        b.threads(n);
    }
    b.build()
}

/// The data stream every run here trains on.
fn pile() -> SyntheticPile {
    SyntheticPile::new(43, 7)
}

fn step(trainer: &mut Trainer, pile: &mut SyntheticPile) {
    trainer.step(&pile.next_batch(2, 12)).unwrap();
}

/// What a run leaves behind: its JSONL journal and each step's count of
/// parallel pool regions (which the JSONL omits, since it depends on the
/// thread count).
type Ledger = (String, Vec<u64>);

fn ledger(trainer: &Trainer) -> Ledger {
    let journal = trainer.journal().unwrap();
    let regions = journal.records().iter();
    (
        journal.to_jsonl(),
        regions.map(|r| r.counters.pool_parallel_regions).collect(),
    )
}

/// Checks that each run left the ledger its solo run left.
fn assert_same(runs: &[Ledger], alone: &[Ledger], how: &str) {
    for (run, solo) in runs.iter().zip(alone) {
        assert_eq!(run.1, solo.1, "{how}: parallel regions per step");
        assert!(run.0 == solo.0, "{how}: journal changed");
    }
}

/// Trains `trainer` for [`STEPS`] steps, calling `between` after each
/// step, and returns its ledger.
fn train(mut trainer: Trainer, mut between: impl FnMut()) -> Ledger {
    let mut pile = pile();
    for _ in 0..STEPS {
        step(&mut trainer, &mut pile);
        between();
    }
    ledger(&trainer)
}

/// Trains a journaled trainer for [`STEPS`] steps on two pool threads,
/// calling `between` after each step, and returns its JSONL journal.
fn journal(storage: StoragePrecision, between: impl FnMut()) -> String {
    with_threads(2, || train(trainer(storage, None), between).0)
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

#[test]
fn trainers_step_at_their_own_thread_counts() {
    let counts = [1, 2];
    let alone = counts.map(|n| train(trainer(StoragePrecision::F32, Some(n)), || {}));
    assert!(alone[0].1.iter().all(|&r| r == 0), "{:?}", alone[0].1);
    assert!(alone[1].1.iter().all(|&r| r > 0), "{:?}", alone[1].1);

    // Built one after the other, then stepped in turn on one thread.
    let mut trainers = counts.map(|n| trainer(StoragePrecision::F32, Some(n)));
    let mut piles = counts.map(|_| pile());
    for _ in 0..STEPS {
        for (t, p) in trainers.iter_mut().zip(&mut piles) {
            step(t, p);
        }
    }
    assert_same(&trainers.each_ref().map(ledger), &alone, "interleaved");

    // Both built before either steps, then stepped side by side.
    let built = Barrier::new(2);
    let concurrent = std::thread::scope(|s| {
        counts
            .map(|n| {
                let built = &built;
                s.spawn(move || {
                    let t = trainer(StoragePrecision::F32, Some(n));
                    built.wait();
                    train(t, || {})
                })
            })
            .map(|r| r.join().unwrap())
    });
    assert_same(&concurrent, &alone, "concurrent");
}

/// CI runs this file a second time with `SUPEROFFLOAD_THREADS=3`, so both
/// branches of the default are checked.
#[test]
fn the_environment_sets_the_default_and_scopes_override_it() {
    let default = std::env::var("SUPEROFFLOAD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hardware_threads);
    assert_eq!(Pool::current().threads(), default);
    assert_eq!(with_threads(1, || Pool::current().threads()), 1);

    let at_default = train(trainer(StoragePrecision::F32, None), || {}).1;
    assert_eq!(
        at_default.iter().all(|&r| r > 0),
        default > 1,
        "{at_default:?} at {default} threads"
    );
    let serial = train(trainer(StoragePrecision::F32, Some(1)), || {}).1;
    assert!(serial.iter().all(|&r| r == 0), "{serial:?}");
    // The trainer's count held for its steps only.
    assert_eq!(Pool::current().threads(), default);
}
