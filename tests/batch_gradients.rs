//! Exactness of the batched pass: `GptModel::batch_forward_backward` runs a
//! batch's sequences side by side on the worker pool and must give
//! bit-identical losses and gradients to the serial per-sequence loop, at
//! any thread count, on both sides of the sequence-parallelism gate, and
//! through a failing sequence. Empty inputs, and batches that do not split
//! across the data-parallel ranks, are typed errors that touch no state.

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{Discipline, Engine, EngineConfig, Sample};
use superoffload::trainer::Trainer;
use tensorlite::pool::{family_threshold, with_threads};
use tensorlite::{KernelFamily, TensorError};

const THREADS: [usize; 4] = [1, 2, 3, 7];

fn small_cfg() -> GptConfig {
    GptConfig {
        vocab: 29,
        hidden: 16,
        layers: 2,
        heads: 2,
        max_seq: 16,
    }
}

/// A model whose sequences of `threshold / (4 · hidden)` tokens have a GELU
/// input of exactly the element-wise threshold.
fn wide_cfg() -> GptConfig {
    GptConfig {
        vocab: 23,
        hidden: 64,
        layers: 1,
        heads: 2,
        max_seq: family_threshold(KernelFamily::Elementwise) / 256 + 8,
    }
}

/// Tokens at which one sequence's GELU input reaches the element-wise
/// threshold.
fn threshold_tokens(cfg: &GptConfig) -> usize {
    family_threshold(KernelFamily::Elementwise) / (4 * cfg.hidden)
}

/// A batch with the given sequence lengths, drawn from the synthetic pile.
fn batch_of(cfg: &GptConfig, seed: u64, lens: &[usize]) -> Vec<Sample> {
    let mut pile = SyntheticPile::new(cfg.vocab, seed);
    lens.iter().map(|&len| pile.next_sequence(len)).collect()
}

/// The serial reference: forward then backward, one sequence at a time,
/// stopping at the first error — the loop the batched pass replaces.
fn serial(model: &mut GptModel, batch: &[Sample]) -> (Result<Vec<f32>, TensorError>, Vec<f32>) {
    model.zero_grads();
    let mut losses = Vec::new();
    for (x, y) in batch {
        match model.forward(x, y) {
            Ok(cache) => {
                model.backward(&cache).expect("backward of a valid cache");
                losses.push(cache.loss);
            }
            Err(e) => return (Err(e), model.grads().to_vec()),
        }
    }
    (Ok(losses), model.grads().to_vec())
}

fn batched(
    model: &mut GptModel,
    batch: &[Sample],
    threads: usize,
) -> (Result<Vec<f32>, TensorError>, Vec<f32>) {
    model.zero_grads();
    let out = with_threads(threads, || model.batch_forward_backward(batch));
    (out, model.grads().to_vec())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the batched pass matches the serial loop bit for bit at every thread
/// count in [`THREADS`].
fn assert_matches_serial(cfg: &GptConfig, seed: u64, batch: &[Sample]) {
    let mut model = GptModel::new(cfg.clone(), seed);
    let (want, want_grads) = serial(&mut model, batch);
    let want = want.expect("reference batch is valid");
    for threads in THREADS {
        let (got, got_grads) = batched(&mut model, batch, threads);
        let got = got.expect("batched pass succeeds where the serial loop does");
        let lens: Vec<usize> = batch.iter().map(|(x, _)| x.len()).collect();
        assert_eq!(
            bits(&got),
            bits(&want),
            "losses, threads={threads} lens={lens:?}"
        );
        assert!(
            bits(&got_grads) == bits(&want_grads),
            "gradients differ, threads={threads} lens={lens:?}"
        );
    }
}

#[test]
fn batched_pass_matches_serial_loop_at_every_size_and_thread_count() {
    let cfg = small_cfg();
    let lens = [5usize, 12, 3, 16, 9];
    for b in 1..=lens.len() {
        let batch = batch_of(&cfg, 40 + b as u64, &lens[..b]);
        assert_matches_serial(&cfg, 7, &batch);
    }
}

#[test]
fn forward_backward_loop_matches_batched_pass() {
    // `forward_backward` is the batch-of-one case; looping it over a batch
    // is the serial loop the engines used to run.
    let cfg = small_cfg();
    let batch = batch_of(&cfg, 3, &[7, 11, 4, 16]);
    let mut model = GptModel::new(cfg, 19);
    model.zero_grads();
    let losses: Vec<f32> = batch
        .iter()
        .map(|(x, y)| model.forward_backward(x, y).unwrap())
        .collect();
    let grads = model.grads().to_vec();
    for threads in THREADS {
        let (got, got_grads) = batched(&mut model, &batch, threads);
        assert_eq!(bits(&got.unwrap()), bits(&losses), "threads={threads}");
        assert!(bits(&got_grads) == bits(&grads), "threads={threads}");
    }
}

#[test]
fn batched_pass_is_exact_on_both_sides_of_the_gate() {
    let cfg = wide_cfg();
    let at = threshold_tokens(&cfg);
    let widest = |lens: &[usize]| lens.iter().max().unwrap() * 4 * cfg.hidden;
    let threshold = family_threshold(KernelFamily::Elementwise);
    // Below the gate (sequences spread), exactly at it and above it
    // (sequences run in turn, kernels fan out), with unequal lengths.
    let below = [at / 2, 3];
    let exactly = [5, at];
    let above = [at + 8, 4];
    assert!(widest(&below) < threshold);
    assert_eq!(widest(&exactly), threshold);
    assert!(widest(&above) > threshold);
    for (i, lens) in [&below[..], &exactly[..], &above[..]]
        .into_iter()
        .enumerate()
    {
        let batch = batch_of(&cfg, 90 + i as u64, lens);
        assert_matches_serial(&cfg, 11, &batch);
    }
}

#[test]
fn failing_sequence_keeps_earlier_gradients_and_its_error() {
    let cfg = small_cfg();
    let lens = [6usize, 10, 4, 13, 8];
    for k in 0..lens.len() {
        let mut batch = batch_of(&cfg, 77, &lens);
        batch[k].0[lens[k] / 2] = cfg.vocab + 3; // out of vocabulary
        let mut model = GptModel::new(cfg.clone(), 5);
        let (want, want_grads) = serial(&mut model, &batch);
        let want = want.expect_err("sequence k is invalid");
        assert_eq!(
            want,
            TensorError::IndexOutOfBounds {
                index: cfg.vocab + 3,
                len: cfg.vocab
            }
        );
        // The reference gradients are exactly those of sequences < k.
        let (_, prefix_grads) = serial(&mut model, &batch[..k]);
        assert!(bits(&want_grads) == bits(&prefix_grads), "k={k}");
        for threads in THREADS {
            let (got, got_grads) = batched(&mut model, &batch, threads);
            assert_eq!(
                got.expect_err("the batched pass must fail too"),
                want,
                "k={k} threads={threads}"
            );
            assert!(
                bits(&got_grads) == bits(&want_grads),
                "k={k} threads={threads}"
            );
        }
    }
}

#[test]
fn empty_sequence_and_empty_batch_are_typed_errors() {
    let mut model = GptModel::new(small_cfg(), 2);
    assert_eq!(
        model.forward(&[], &[]).unwrap_err(),
        TensorError::Empty { what: "sequence" }
    );
    // An empty batch fails before touching the gradients.
    let mut pile = SyntheticPile::new(29, 4);
    let (x, y) = pile.next_sequence(9);
    model.forward_backward(&x, &y).unwrap();
    let grads = model.grads().to_vec();
    let empty: &[Sample] = &[];
    assert_eq!(
        model.batch_forward_backward(empty).unwrap_err(),
        TensorError::Empty { what: "batch" }
    );
    assert_eq!(model.grads(), &grads[..]);
    // An empty sequence inside a batch is that sequence's error.
    let batch = vec![(x.clone(), y.clone()), (Vec::new(), Vec::new())];
    assert_eq!(
        model.batch_forward_backward(&batch).unwrap_err(),
        TensorError::Empty { what: "sequence" }
    );
}

/// Asserts that both disciplines at `ranks` reject `bad` with `want` after
/// a warm-up step and leave every replica's parameters, the moments, the
/// step count and the loss scaler as they were (checkpoint bytes).
fn assert_rejected_without_stepping(ranks: usize, bad: &[Sample], want: &TensorError) {
    let cfg = small_cfg();
    let warm = SyntheticPile::new(cfg.vocab, 8).next_batch(4, 10);
    for discipline in [Discipline::Stv, Discipline::Sync] {
        let at = format!("{discipline:?} ranks={ranks}");
        let model = GptModel::new(cfg.clone(), 3);
        let mut engine = Engine::new(discipline, model, ranks, EngineConfig::default());
        engine.train_step(&warm).unwrap();
        let (before, stats) = (engine.checkpoint().to_bytes(), engine.stats());
        assert_eq!(&engine.train_step(bad).unwrap_err(), want, "{at}");
        assert!(
            engine.checkpoint().to_bytes() == before,
            "{at}: state moved"
        );
        assert_eq!(engine.stats(), stats, "{at}");
        for replica in engine.replicas() {
            assert_eq!(replica.params(), engine.model().params(), "{at}");
        }
    }
}

#[test]
fn engines_reject_an_empty_batch_without_stepping() {
    let empty = TensorError::Empty { what: "batch" };
    for ranks in [1, 2] {
        assert_rejected_without_stepping(ranks, &[], &empty);
    }

    let cfg = small_cfg();
    for discipline in [Discipline::Stv, Discipline::Sync] {
        let mut trainer = Trainer::new(GptModel::new(cfg.clone(), 3))
            .discipline(discipline)
            .build();
        assert_eq!(trainer.step(&[]).unwrap_err(), empty);
        assert!(trainer.losses().is_empty(), "{discipline:?} logged a loss");
        assert_eq!(
            trainer.model().params(),
            GptModel::new(cfg.clone(), 3).params()
        );
    }
}

#[test]
fn engines_reject_an_indivisible_batch_without_stepping() {
    let mut pile = SyntheticPile::new(small_cfg().vocab, 12);
    for (ranks, len) in [(2, 3), (4, 2), (4, 6)] {
        let bad = pile.next_batch(len, 8);
        let want = TensorError::Indivisible {
            what: "batch",
            len,
            parts: ranks,
        };
        assert_rejected_without_stepping(ranks, &bad, &want);
    }
}
