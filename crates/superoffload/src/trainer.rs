//! The Fig. 1 user-facing API: wrap a model, get a training loop.
//!
//! The paper's pitch is that SuperOffload needs "a few lines of change":
//!
//! ```text
//! model = BuildModel(config)          let model = GptModel::new(cfg, seed);
//! optimizer = Optimizer(model)        let mut t = Trainer::new(model)
//! model = SuperOffload.init(...)          .max_grad_norm(1.0)
//! for batch in batches:                   .build();
//!     loss = model(batch)             for _ in 0..steps {
//!     model.backward()                    t.step(&data.next_batch(b, s))?;
//!     model.step()                    }
//! ```
//!
//! [`Trainer`] drives the real engine underneath (STV, or the synchronous
//! discipline on request), records the loss history and rollback
//! events, and supports periodic bit-exact checkpointing.

use std::time::Instant;

use grace_optim::ScaleEvent;
use llm_model::transformer::GptModel;
use superchip_sim::telemetry::{JsonObject, JsonWriter, Layout, MetricsRecorder};
use tensorlite::pool::with_threads;
use tensorlite::{CounterSnapshot, OpKind, Recorder, StoragePrecision, TensorError};

use crate::checkpoint::Checkpoint;
pub use crate::engine::Discipline;
use crate::engine::{Engine, EngineConfig, EngineSpans, Precision, Sample, StepOutcome, StvStats};
use crate::report::TrainReport;

/// Schema identifier for step-journal JSONL records and snapshots.
pub const JOURNAL_SCHEMA: &str = "superoffload.journal/v1";

/// Configuration for the step journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalConfig {
    /// Assumed accelerator peak FLOP/s for *measured* MFU
    /// (`counted FLOPs / (wall-secs · peak_flops)`). The default, 1 TFLOP/s,
    /// is deliberately modest — the numeric plane is a miniature CPU stack,
    /// and MFU must land in `(0, 1]` for the sanity gate.
    pub peak_flops: f64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { peak_flops: 1e12 }
    }
}

/// One step's deterministic journal record. Every field is a pure function
/// of the model, seed, and batch sequence — byte-identical across reruns
/// and worker-thread counts (the serializer omits the two
/// thread-count-dependent counter fields; see `tensorlite::counters`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// 1-based step index.
    pub step: u64,
    /// `"applied"`, `"clipped"`, or `"skipped"` (matching [`StepOutcome`]).
    pub outcome: &'static str,
    /// Mean loss over the batch (may be non-finite on skipped steps).
    pub loss: f32,
    /// Global gradient norm before clipping; `None` on skipped steps.
    pub grad_norm: Option<f64>,
    /// Loss scale *after* this step's update.
    pub loss_scale: f32,
    /// What the dynamic loss scaler did this step.
    pub scale_event: ScaleEvent,
    /// Input tokens consumed by this step.
    pub tokens: u64,
    /// Op-counter delta across this step (calls/elems/FLOPs per kind,
    /// bytes allocated/freed, live-byte change, pool regions).
    pub counters: CounterSnapshot,
}

/// One step's wall-clock sidecar. Diagnostic only: these values never enter
/// the deterministic JSONL or versioned snapshots (repo invariant since the
/// telemetry layer: wall-clock stays out of byte-stable artifacts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTiming {
    /// 1-based step index (joins with [`StepRecord::step`]).
    pub step: u64,
    /// End-to-end wall time of the step.
    pub wall_secs: f64,
    /// Wall time inside the speculate phase.
    pub speculate_secs: f64,
    /// Wall time inside the validate phase.
    pub validate_secs: f64,
    /// Wall time inside rollback re-execution.
    pub rollback_secs: f64,
    /// Wall time inside a standalone optimizer step. Under the STV
    /// discipline this is nonzero only on clip re-execution: an applied
    /// speculative step hides the optimizer inside `speculate_secs`,
    /// which is exactly the overlap the paper's STV design buys.
    pub optimizer_secs: f64,
    /// Measured throughput: `tokens / wall_secs`.
    pub tokens_per_sec: f64,
    /// Measured MFU: counted FLOPs over `wall_secs ·`
    /// [`JournalConfig::peak_flops`].
    pub mfu: f64,
    /// Kernel busy time of this step: the busy-nanos delta of the
    /// trainer's recorder, summed over every pool thread that ran a kernel.
    /// Zero unless an enclosing `tensorlite::Recorder` traces spans. When
    /// kernels run on several threads at once, it counts each thread's time,
    /// so it can exceed `wall_secs`.
    pub kernel_secs: f64,
}

/// Deterministic aggregate of a journal, folded into
/// [`crate::report::RunProfile`] snapshots to join the numeric plane with
/// the simulator plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalSummary {
    /// Steps recorded.
    pub steps: u64,
    /// Steps whose update was committed unchanged.
    pub applied: u64,
    /// Steps rolled back and re-executed with clipped gradients.
    pub clipped: u64,
    /// Steps skipped on overflow.
    pub skipped: u64,
    /// Loss-scale backoff events.
    pub scale_backoffs: u64,
    /// Loss-scale growth events.
    pub scale_growths: u64,
    /// Total input tokens consumed.
    pub tokens: u64,
    /// Total counted FLOPs.
    pub flops: u64,
    /// Total bytes that became tensor storage.
    pub allocated_bytes: u64,
    /// Total bytes of tensor storage released.
    pub freed_bytes: u64,
    /// Total pool kernel regions entered.
    pub pool_regions: u64,
}

impl StepRecord {
    /// Writes this record's fields as one JSONL line. Deterministic: only
    /// thread-count-invariant counter fields appear (`peak_bytes` and
    /// `pool_parallel_regions` are deliberately omitted), non-finite floats
    /// become `null`, and op kinds with zero calls are skipped.
    fn write_json(&self, o: &mut JsonObject<'_>) {
        o.num("step", self.step)
            .str("outcome", self.outcome)
            .num("loss", self.loss)
            .num("grad-norm", self.grad_norm)
            .num("loss-scale", self.loss_scale)
            .str("scale-event", self.scale_event.name())
            .num("tokens", self.tokens)
            .num("flops", self.counters.total_flops())
            .num("alloc-bytes", self.counters.allocated_bytes)
            .num("freed-bytes", self.counters.freed_bytes)
            .num("live-bytes", self.counters.live_bytes)
            .num("pool-regions", self.counters.pool_regions)
            .object("ops", Layout::Dense, |ops| {
                for kind in OpKind::ALL {
                    if self.counters.calls(kind) == 0 {
                        continue;
                    }
                    ops.array(kind.name(), Layout::Dense, |a| {
                        a.num(self.counters.calls(kind))
                            .num(self.counters.elems(kind))
                            .num(self.counters.flops(kind));
                    });
                }
            });
    }
}

/// Per-step training journal: one deterministic [`StepRecord`] plus one
/// wall-clock [`StepTiming`] per optimizer step. Enabled via
/// [`TrainerBuilder::journal`]; rendered by `repro -- journal`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepJournal {
    cfg: JournalConfig,
    records: Vec<StepRecord>,
    timings: Vec<StepTiming>,
}

impl StepJournal {
    /// Creates an empty journal.
    pub fn new(cfg: JournalConfig) -> Self {
        StepJournal {
            cfg,
            records: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// The configuration this journal measures MFU against.
    pub fn config(&self) -> JournalConfig {
        self.cfg
    }

    /// Deterministic per-step records.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Wall-clock per-step sidecar, index-aligned with
    /// [`StepJournal::records`].
    pub fn timings(&self) -> &[StepTiming] {
        &self.timings
    }

    /// Serializes the journal as JSONL: a schema header line followed by
    /// one [`StepRecord`] line per step. Byte-identical across reruns and
    /// worker-thread counts.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::with_capacity(256 * (self.records.len() + 1));
        w.record(Layout::Dense, |head| {
            head.str("schema", JOURNAL_SCHEMA)
                .num("steps", self.records.len())
                .num("peak-flops", self.cfg.peak_flops);
        });
        for r in &self.records {
            w.record(Layout::Dense, |o| r.write_json(o));
        }
        w.finish()
    }

    /// Serializes the wall-clock sidecar as a single JSON object. Explicitly
    /// *not* deterministic — it exists for dashboards and diagnosis, and is
    /// never compared byte-for-byte.
    pub fn timing_json(&self) -> String {
        JsonWriter::with_capacity(4096).document(Layout::Dense, |doc| {
            doc.str("schema", JOURNAL_SCHEMA)
                .str("section", "timing")
                .str("note", "wall-clock diagnostic; not byte-stable")
                .array("steps", Layout::Dense, |a| {
                    for t in &self.timings {
                        a.object(Layout::Dense, |o| {
                            o.num("step", t.step)
                                .num("wall-secs", t.wall_secs)
                                .num("speculate-secs", t.speculate_secs)
                                .num("validate-secs", t.validate_secs)
                                .num("rollback-secs", t.rollback_secs)
                                .num("optimizer-secs", t.optimizer_secs)
                                .num("tokens-per-sec", t.tokens_per_sec)
                                .num("mfu", t.mfu)
                                .num("kernel-secs", t.kernel_secs);
                        });
                    }
                });
        })
    }

    /// Deterministic aggregate over all records.
    pub fn summary(&self) -> JournalSummary {
        let mut s = JournalSummary::default();
        for r in &self.records {
            s.steps += 1;
            match r.outcome {
                "applied" => s.applied += 1,
                "clipped" => s.clipped += 1,
                _ => s.skipped += 1,
            }
            match r.scale_event {
                ScaleEvent::BackedOff => s.scale_backoffs += 1,
                ScaleEvent::Grew => s.scale_growths += 1,
                ScaleEvent::Stable => {}
            }
            s.tokens += r.tokens;
            s.flops += r.counters.total_flops();
            s.allocated_bytes += r.counters.allocated_bytes;
            s.freed_bytes += r.counters.freed_bytes;
            s.pool_regions += r.counters.pool_regions;
        }
        s
    }

    /// Mean measured MFU across steps (total FLOPs over total wall time).
    pub fn mean_mfu(&self) -> f64 {
        let wall: f64 = self.timings.iter().map(|t| t.wall_secs).sum();
        if wall > 0.0 {
            self.summary().flops as f64 / (wall * self.cfg.peak_flops)
        } else {
            0.0
        }
    }

    /// Mean measured throughput in tokens/sec.
    pub fn mean_tokens_per_sec(&self) -> f64 {
        let wall: f64 = self.timings.iter().map(|t| t.wall_secs).sum();
        if wall > 0.0 {
            self.summary().tokens as f64 / wall
        } else {
            0.0
        }
    }

    /// Folds the journal's deterministic aggregates into a telemetry
    /// recorder: `journal.*` counters, final-state gauges, and per-step
    /// loss / grad-norm tracks keyed by step index.
    pub fn record_into(&self, rec: &mut MetricsRecorder) {
        let s = self.summary();
        rec.add("journal.steps", s.steps);
        rec.add("journal.applied", s.applied);
        rec.add("journal.clipped", s.clipped);
        rec.add("journal.skipped", s.skipped);
        rec.add("journal.scale-backoffs", s.scale_backoffs);
        rec.add("journal.scale-growths", s.scale_growths);
        rec.add("journal.tokens", s.tokens);
        rec.add("journal.flops", s.flops);
        rec.add("journal.alloc-bytes", s.allocated_bytes);
        rec.add("journal.freed-bytes", s.freed_bytes);
        rec.add("journal.pool-regions", s.pool_regions);
        for kind in OpKind::ALL {
            let calls: u64 = self.records.iter().map(|r| r.counters.calls(kind)).sum();
            if calls == 0 {
                continue;
            }
            let flops: u64 = self.records.iter().map(|r| r.counters.flops(kind)).sum();
            let bytes: u64 = self.records.iter().map(|r| r.counters.bytes(kind)).sum();
            rec.add(&format!("journal.op.{}.calls", kind.name()), calls);
            rec.add(&format!("journal.op.{}.flops", kind.name()), flops);
            rec.add(&format!("journal.op.{}.bytes", kind.name()), bytes);
        }
        for r in &self.records {
            rec.sample_us("journal.loss", "nats", r.step, f64::from(r.loss));
            if let Some(g) = r.grad_norm {
                rec.sample_us("journal.grad-norm", "l2", r.step, g);
            }
        }
        if let Some(last) = self.records.last() {
            rec.set_gauge("journal.final-loss", f64::from(last.loss));
            rec.set_gauge("journal.final-loss-scale", f64::from(last.loss_scale));
        }
    }

    /// Serializes the journal as a versioned
    /// [`superoffload.journal/v1`](JOURNAL_SCHEMA) snapshot via the
    /// telemetry JSON writer. `meta` entries are appended after the `kind`
    /// key. Deterministic.
    pub fn snapshot_json(&self, meta: &[(&str, String)]) -> String {
        let mut rec = MetricsRecorder::new();
        self.record_into(&mut rec);
        let mut m: Vec<(&str, String)> = vec![("kind", JOURNAL_SCHEMA.to_string())];
        m.extend(meta.iter().map(|(k, v)| (*k, v.clone())));
        rec.snapshot_json(&m)
    }
}

/// Builder for a [`Trainer`] (non-consuming terminal, per Rust API
/// conventions).
#[derive(Debug, Clone)]
pub struct TrainerBuilder {
    model: GptModel,
    cfg: EngineConfig,
    discipline: Discipline,
    checkpoint_every: Option<u64>,
    threads: Option<usize>,
    journal: Option<JournalConfig>,
}

impl TrainerBuilder {
    /// Sets the learning rate.
    pub fn learning_rate(&mut self, lr: f32) -> &mut Self {
        self.cfg.adam.lr = lr;
        self
    }

    /// Sets the global gradient-norm clip threshold.
    pub fn max_grad_norm(&mut self, max_norm: f64) -> &mut Self {
        self.cfg.max_grad_norm = max_norm;
        self
    }

    /// Sets the initial dynamic loss scale.
    pub fn initial_loss_scale(&mut self, scale: f32) -> &mut Self {
        self.cfg.initial_loss_scale = scale;
        self
    }

    /// Sets the gradient bucket count for the STV pipeline.
    pub fn buckets(&mut self, buckets: usize) -> &mut Self {
        self.cfg.buckets = buckets;
        self
    }

    /// Selects the half-precision wire format.
    pub fn precision(&mut self, precision: Precision) -> &mut Self {
        self.cfg.precision = precision;
        self
    }

    /// Selects the storage precision for model state between kernels.
    /// Under [`StoragePrecision::Bf16`], gradients quantize as they enter
    /// the optimizer and parameters re-quantize as each step commits (2
    /// B/element of state traffic); arithmetic stays f32. A journaled
    /// trainer's recorder counts bytes at the matching element size.
    pub fn storage(&mut self, storage: StoragePrecision) -> &mut Self {
        self.cfg.storage = storage;
        self
    }

    /// Selects the execution discipline (STV by default).
    pub fn discipline(&mut self, discipline: Discipline) -> &mut Self {
        self.discipline = discipline;
        self
    }

    /// Takes a checkpoint snapshot every `steps` optimizer steps, retrievable
    /// via [`Trainer::checkpoints`].
    pub fn checkpoint_every(&mut self, steps: u64) -> &mut Self {
        assert!(steps > 0, "checkpoint interval must be non-zero");
        self.checkpoint_every = Some(steps);
        self
    }

    /// Sets the numeric-plane worker thread count (`0` = auto-detect):
    /// tensor kernels, attention heads and the GraceAdam optimizer all draw
    /// from the same pool. The trainer scopes the count around its own
    /// step work only ([`tensorlite::pool::with_threads`]), so it never
    /// changes another caller's parallelism; without it, steps run at the
    /// caller's [`tensorlite::Pool::current`]. Results are bit-identical at
    /// every thread count.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = Some(threads);
        self
    }

    /// Enables the step journal: the trainer owns a `tensorlite::Recorder`
    /// at its storage precision and scopes it around each step's engine
    /// work only, so its ledger holds this run's steps and nothing else,
    /// even with other runs in the process. Every [`Trainer::step`]
    /// appends one [`StepRecord`] + [`StepTiming`] pair, retrievable via
    /// [`Trainer::journal`].
    pub fn journal(&mut self, cfg: JournalConfig) -> &mut Self {
        self.journal = Some(cfg);
        self
    }

    /// Builds the trainer.
    pub fn build(&self) -> Trainer {
        let journal = self
            .journal
            .map(|cfg| (StepJournal::new(cfg), Recorder::new(self.cfg.storage)));
        Trainer {
            engine: Engine::new(self.discipline, self.model.clone(), 1, self.cfg),
            checkpoint_every: self.checkpoint_every,
            steps_taken: 0,
            losses: Vec::new(),
            rollback_steps: Vec::new(),
            checkpoints: Vec::new(),
            threads: self.threads,
            journal,
        }
    }
}

/// A training loop over the numeric plane with history, rollback tracking,
/// and periodic checkpoints.
#[derive(Debug)]
pub struct Trainer {
    engine: Engine,
    checkpoint_every: Option<u64>,
    steps_taken: u64,
    losses: Vec<(u64, f32)>,
    rollback_steps: Vec<u64>,
    checkpoints: Vec<(u64, Checkpoint)>,
    /// The worker count scoped around each step, if the builder set one.
    threads: Option<usize>,
    journal: Option<(StepJournal, Recorder)>,
}

impl Trainer {
    /// Starts configuring a trainer for `model` (STV, defaults matching
    /// [`EngineConfig::default`]). Returns the builder — mirroring the
    /// paper's `SuperOffload.init(model, ...)` entry point.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(model: GptModel) -> TrainerBuilder {
        TrainerBuilder {
            model,
            cfg: EngineConfig::default(),
            discipline: Discipline::default(),
            checkpoint_every: None,
            threads: None,
            journal: None,
        }
    }

    /// Runs one training step over `batch`.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from the forward/backward pass.
    pub fn step(&mut self, batch: &[Sample]) -> Result<StepOutcome, TensorError> {
        let pre = self.journal.as_ref().map(|(_, rec)| {
            (
                rec.snapshot(),
                self.spans(),
                rec.total_busy_nanos(),
                Instant::now(),
            )
        });
        let mut train = || match &self.journal {
            Some((_, rec)) => rec.scope(|| self.engine.train_step(batch)),
            None => self.engine.train_step(batch),
        };
        let out = match self.threads {
            Some(n) => with_threads(n, train),
            None => train(),
        }?;
        self.steps_taken += 1;
        if let Some((ctr0, spans0, kernel0, t0)) = pre {
            self.journal_step(
                &out,
                batch,
                ctr0,
                spans0,
                kernel0,
                t0.elapsed().as_secs_f64(),
            );
        }
        self.losses.push((self.steps_taken, out.loss()));
        if out.rolled_back() {
            self.rollback_steps.push(self.steps_taken);
        }
        if let Some(every) = self.checkpoint_every {
            if self.steps_taken.is_multiple_of(every) {
                self.checkpoints.push((self.steps_taken, self.snapshot()));
            }
        }
        Ok(out)
    }

    /// Runs `steps` training steps pulling batches from `next_batch`.
    ///
    /// # Errors
    /// Stops at and returns the first [`TensorError`].
    pub fn run(
        &mut self,
        steps: u64,
        mut next_batch: impl FnMut() -> Vec<Sample>,
    ) -> Result<(), TensorError> {
        for _ in 0..steps {
            let batch = next_batch();
            self.step(&batch)?;
        }
        Ok(())
    }

    fn journal_step(
        &mut self,
        out: &StepOutcome,
        batch: &[Sample],
        ctr0: CounterSnapshot,
        spans0: EngineSpans,
        kernel0: u64,
        wall_secs: f64,
    ) {
        let spans1 = self.spans();
        let (journal, rec) = self.journal.as_mut().expect("journaling enabled");
        let delta = rec.snapshot().delta_since(&ctr0);
        // One relaxed atomic read; zero when no recorder in scope traces.
        let kernel_secs = rec.total_busy_nanos().saturating_sub(kernel0) as f64 / 1e9;
        let tokens: u64 = batch.iter().map(|(x, _)| x.len() as u64).sum();
        let (outcome, grad_norm) = match *out {
            StepOutcome::Applied { grad_norm, .. } => ("applied", Some(grad_norm)),
            StepOutcome::Clipped { grad_norm, .. } => ("clipped", Some(grad_norm)),
            StepOutcome::Skipped { .. } => ("skipped", None),
        };
        let step = self.steps_taken;
        journal.records.push(StepRecord {
            step,
            outcome,
            loss: out.loss(),
            grad_norm,
            loss_scale: self.engine.loss_scale(),
            scale_event: self.engine.last_scale_event(),
            tokens,
            counters: delta,
        });
        let phase = |a: f64, b: f64| (a - b).max(0.0);
        journal.timings.push(StepTiming {
            step,
            wall_secs,
            speculate_secs: phase(spans1.speculate.total_secs, spans0.speculate.total_secs),
            validate_secs: phase(spans1.validate.total_secs, spans0.validate.total_secs),
            rollback_secs: phase(spans1.rollback.total_secs, spans0.rollback.total_secs),
            optimizer_secs: phase(
                spans1.optimizer_step.total_secs,
                spans0.optimizer_step.total_secs,
            ),
            tokens_per_sec: if wall_secs > 0.0 {
                tokens as f64 / wall_secs
            } else {
                0.0
            },
            mfu: if wall_secs > 0.0 {
                delta.total_flops() as f64 / (wall_secs * journal.cfg.peak_flops)
            } else {
                0.0
            },
            kernel_secs,
        });
    }

    /// The step journal, if enabled via [`TrainerBuilder::journal`].
    pub fn journal(&self) -> Option<&StepJournal> {
        self.journal.as_ref().map(|(journal, _)| journal)
    }

    /// Current dynamic loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.engine.loss_scale()
    }

    /// What the loss scaler did on the most recent step.
    pub fn last_scale_event(&self) -> ScaleEvent {
        self.engine.last_scale_event()
    }

    /// The wrapped model.
    pub fn model(&self) -> &GptModel {
        self.engine.model()
    }

    /// Engine statistics (steps, skips, clip rollbacks).
    pub fn stats(&self) -> StvStats {
        self.engine.stats()
    }

    /// Wall-clock span totals of the engine's step phases (speculate,
    /// validate, rollback, optimizer step).
    pub fn spans(&self) -> EngineSpans {
        self.engine.spans()
    }

    /// Folds this run's numeric-plane counters into a performance-plane
    /// report, bridging the two planes in one record ([`TrainReport::stv`]).
    pub fn fold_into(&self, report: &mut TrainReport) {
        report.stv = Some(self.stats());
    }

    /// `(step, loss)` history, one entry per call to [`Trainer::step`].
    pub fn losses(&self) -> &[(u64, f32)] {
        &self.losses
    }

    /// Steps at which a rollback (skip or clip) occurred.
    pub fn rollback_steps(&self) -> &[u64] {
        &self.rollback_steps
    }

    /// Periodic checkpoints collected so far (step, snapshot).
    pub fn checkpoints(&self) -> &[(u64, Checkpoint)] {
        &self.checkpoints
    }

    /// Takes an on-demand snapshot of the full training state.
    pub fn snapshot(&self) -> Checkpoint {
        self.engine.checkpoint()
    }

    /// Restores training state from a snapshot; the continued trajectory is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch.
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        self.engine.restore(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::transformer::GptConfig;
    use llm_model::SyntheticPile;

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

    #[test]
    fn builder_one_liner_trains() {
        let mut trainer = Trainer::new(model()).build();
        let mut pile = SyntheticPile::new(43, 1);
        trainer.run(20, || pile.next_batch(2, 12)).unwrap();
        assert_eq!(trainer.losses().len(), 20);
        assert!(trainer.stats().steps > 0);
        let first = trainer.losses()[0].1;
        let last = trainer.losses().last().unwrap().1;
        assert!(last <= first, "loss {first} -> {last}");
    }

    #[test]
    fn builder_complex_configuration() {
        let mut b = Trainer::new(model());
        b.learning_rate(5e-3)
            .max_grad_norm(2.5)
            .initial_loss_scale(128.0)
            .buckets(6)
            .precision(Precision::Bf16)
            .discipline(Discipline::Sync)
            .checkpoint_every(5);
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, 2);
        trainer.run(11, || pile.next_batch(2, 12)).unwrap();
        assert_eq!(trainer.checkpoints().len(), 2); // at steps 5 and 10
        assert_eq!(trainer.checkpoints()[0].0, 5);
    }

    #[test]
    fn stv_and_sync_disciplines_agree() {
        let mut a = Trainer::new(model()).build();
        let mut b_builder = Trainer::new(model());
        b_builder.discipline(Discipline::Sync);
        let mut b = b_builder.build();
        let mut pile_a = SyntheticPile::new(43, 3);
        let mut pile_b = SyntheticPile::new(43, 3);
        a.run(10, || pile_a.next_batch(2, 12)).unwrap();
        b.run(10, || pile_b.next_batch(2, 12)).unwrap();
        assert_eq!(a.model().params(), b.model().params());
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        let mut full = Trainer::new(model()).build();
        let mut pile = SyntheticPile::new(43, 4);
        let batches: Vec<Vec<Sample>> = (0..12).map(|_| pile.next_batch(2, 12)).collect();
        for b in &batches[..6] {
            full.step(b).unwrap();
        }
        let snap = full.snapshot();
        for b in &batches[6..] {
            full.step(b).unwrap();
        }

        let mut resumed = Trainer::new(model()).build();
        resumed.restore(&snap);
        for b in &batches[6..] {
            resumed.step(b).unwrap();
        }
        assert_eq!(full.model().params(), resumed.model().params());
    }

    #[test]
    fn rollbacks_are_recorded() {
        let mut b = Trainer::new(model());
        b.initial_loss_scale(1e9);
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, 5);
        trainer.run(8, || pile.next_batch(2, 12)).unwrap();
        assert!(!trainer.rollback_steps().is_empty());
        assert_eq!(
            trainer.rollback_steps().len() as u64,
            trainer.stats().rollbacks()
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_checkpoint_interval_rejected() {
        Trainer::new(model()).checkpoint_every(0);
    }

    #[test]
    fn parallel_and_serial_training_bit_identical() {
        // The whole stack — kernels, attention heads, GraceAdam — must
        // produce the same trajectory at every worker count.
        let run = |threads: usize| {
            tensorlite::pool::with_threads(threads, || {
                let mut trainer = Trainer::new(model()).build();
                let mut pile = SyntheticPile::new(43, 9);
                trainer.run(8, || pile.next_batch(2, 12)).unwrap();
                trainer.model().params().to_vec()
            })
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(7), serial);
    }

    #[test]
    fn storage_knob_trains_and_disciplines_agree() {
        let run = |discipline| {
            let mut b = Trainer::new(model());
            b.storage(StoragePrecision::Bf16).discipline(discipline);
            let mut trainer = b.build();
            let mut pile = SyntheticPile::new(43, 17);
            trainer.run(8, || pile.next_batch(2, 12)).unwrap();
            trainer.model().params().to_vec()
        };
        assert_eq!(run(Discipline::Stv), run(Discipline::Sync));
    }

    #[test]
    fn journal_disabled_by_default() {
        let trainer = Trainer::new(model()).build();
        assert!(trainer.journal().is_none());
    }

    #[test]
    fn journal_records_structure_and_serializes() {
        let mut b = Trainer::new(model());
        b.journal(JournalConfig::default());
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, 11);
        trainer.run(5, || pile.next_batch(2, 12)).unwrap();

        let j = trainer.journal().unwrap();
        assert_eq!(j.records().len(), 5);
        assert_eq!(j.timings().len(), 5);
        for (i, r) in j.records().iter().enumerate() {
            assert_eq!(r.step, i as u64 + 1);
            assert_eq!(r.tokens, 2 * 12);
            assert!(matches!(r.outcome, "applied" | "clipped" | "skipped"));
            assert_eq!(r.grad_norm.is_none(), r.outcome == "skipped");
        }
        let s = j.summary();
        assert_eq!(s.steps, 5);
        assert_eq!(s.applied + s.clipped + s.skipped, 5);
        assert_eq!(s.tokens, 5 * 24);

        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 6, "header + one line per step");
        for line in jsonl.lines() {
            superchip_sim::telemetry::validate_json(line).unwrap();
        }
        assert!(jsonl.starts_with(&format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"")));
        superchip_sim::telemetry::validate_json(&j.timing_json()).unwrap();
        let snap = j.snapshot_json(&[("system", "trainer-test".to_string())]);
        superchip_sim::telemetry::validate_json(&snap).unwrap();
        assert!(snap.contains(JOURNAL_SCHEMA));
        assert!(snap.contains("journal.steps"));
    }

    #[test]
    fn journal_captures_overflow_scale_events() {
        let mut b = Trainer::new(model());
        b.initial_loss_scale(1e9).journal(JournalConfig::default());
        let mut trainer = b.build();
        let mut pile = SyntheticPile::new(43, 5);
        trainer.run(8, || pile.next_batch(2, 12)).unwrap();
        let j = trainer.journal().unwrap();
        assert!(
            j.records()
                .iter()
                .any(|r| r.scale_event == ScaleEvent::BackedOff && r.outcome == "skipped"),
            "1e9 initial scale must overflow at least once"
        );
        assert!(j.summary().scale_backoffs > 0);
        assert!(trainer.loss_scale() < 1e9);
    }

    #[test]
    fn spans_and_fold_into_bridge_the_planes() {
        let mut trainer = Trainer::new(model()).build();
        let mut pile = SyntheticPile::new(43, 6);
        trainer.run(10, || pile.next_batch(2, 12)).unwrap();
        let spans = trainer.spans();
        assert_eq!(spans.speculate.count, 10);
        assert_eq!(spans.rollback.count, trainer.stats().rollbacks());

        let mut report = TrainReport::oom("superoffload");
        trainer.fold_into(&mut report);
        assert_eq!(report.stv, Some(trainer.stats()));
        assert!(report.stv.unwrap().steps > 0);
    }
}
