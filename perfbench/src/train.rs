//! Numeric-plane workloads: `train-stv` and `train-wide`.
//!
//! Each operation is one `Trainer::step` on a batch drawn from
//! `SyntheticPile`. The traced run wraps a span around every step and
//! imports the kernel and pool-region spans that `tensorlite::spans`
//! records inside it, aligned to the benchmark's clock, so a step's self
//! time is the time no kernel covers.

use std::collections::BTreeMap;
use std::time::Instant;

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{EngineSpans, Sample, StvStats};
use superoffload::trainer::{Discipline, Trainer};
use tensorlite::{counters, spans as kspans, OpKind, StoragePrecision};

use crate::spans::{Span, Tracer, HARNESS_TRACK};
use crate::{Checks, Outcome, RunConfig, Workload};

/// Setups timed per run; `setup_s` is their median, each scaled to the
/// baseline host's speed.
const SETUP_REPS: usize = 5;

/// Fewest timed steps of an untraced run: with 100 samples, ten lie
/// beyond the 90th percentile.
const MIN_STEPS: usize = 100;

/// Windows a phase's steps are split into for its reported figures.
const WINDOWS: usize = 10;

/// Steps between two measurements of the host's speed.
const SPEED_EVERY: usize = 5;

/// Fewest timed steps of each phase of a traced run.
const MIN_TRACED_STEPS: usize = 20;

/// Most steps of a traced phase: keeps every kernel span of the phase
/// within `tensorlite::spans::MAX_SPANS` (train-stv records ~400 kernel
/// spans a step).
const MAX_TRACED_STEPS: usize = 400;

/// Span names of the kernel families, indexed like [`OpKind::ALL`].
const KERNEL_SPAN_NAMES: [&str; 13] = [
    "kernel.matmul",
    "kernel.matmul-at",
    "kernel.matmul-bt",
    "kernel.transpose",
    "kernel.softmax",
    "kernel.softmax-backward",
    "kernel.layer-norm",
    "kernel.layer-norm-backward",
    "kernel.gelu",
    "kernel.gelu-backward",
    "kernel.cross-entropy",
    "kernel.elementwise",
    "kernel.adam-step",
];

/// A training workload's fixed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Model shape.
    pub model: GptConfig,
    /// Sequences per batch.
    pub batch: usize,
    /// Tokens per sequence.
    pub seq: usize,
    /// STV or synchronous optimizer discipline.
    pub discipline: Discipline,
    /// Storage precision of model state.
    pub storage: StoragePrecision,
    /// Steps run during set-up, before timing.
    pub warmup_steps: u64,
    /// Step whose loss history and parameters the golden digests pin.
    pub golden_step: u64,
}

impl Spec {
    /// The shape of a train workload.
    ///
    /// # Panics
    /// Panics for a sim workload.
    pub fn of(workload: Workload) -> Spec {
        match workload {
            // The repository's realbench GPT: every tensor is small, so
            // pool dispatch and STV's per-step thread spawns dominate.
            Workload::TrainStv => Spec {
                model: GptConfig {
                    vocab: 128,
                    hidden: 64,
                    layers: 2,
                    heads: 4,
                    max_seq: 64,
                },
                batch: 4,
                seq: 48,
                discipline: Discipline::Stv,
                storage: StoragePrecision::F32,
                warmup_steps: 10,
                golden_step: 32,
            },
            // Four times the hidden width and sequence: GEMM-bound, no STV
            // machinery, and the only workload with bf16 storage.
            Workload::TrainWide => Spec {
                model: GptConfig {
                    vocab: 256,
                    hidden: 128,
                    layers: 2,
                    heads: 4,
                    max_seq: 128,
                },
                batch: 2,
                seq: 128,
                discipline: Discipline::Sync,
                storage: StoragePrecision::Bf16,
                warmup_steps: 4,
                golden_step: 12,
            },
            Workload::SimSearch | Workload::SimObserve => {
                panic!("{} is not a train workload", workload.name())
            }
        }
    }
}

/// Gradient-norm clip threshold. Loose, as in the Fig. 14 run: at the
/// default of 1.0 nearly every early step of these models clips and rolls
/// back, which would measure rollbacks rather than training.
const MAX_GRAD_NORM: f64 = 6.0;

/// A trainer and its data stream, ready to step.
struct Session {
    trainer: Trainer,
    pile: SyntheticPile,
}

impl Session {
    fn next_batch(&mut self, spec: &Spec) -> Vec<Sample> {
        self.pile.next_batch(spec.batch, spec.seq)
    }
}

/// Builds the model, trainer and data stream for `seed` and runs the
/// warm-up steps (caches, page faults, the worker pool's first regions);
/// returns the session and what went wrong in the warm-up.
fn setup(spec: &Spec, seed: u64) -> (Session, Vec<String>) {
    let model = GptModel::new(spec.model.clone(), seed);
    let trainer = Trainer::new(model)
        .max_grad_norm(MAX_GRAD_NORM)
        .storage(spec.storage)
        .discipline(spec.discipline)
        .threads(crate::nproc())
        .build();
    let mut s = Session {
        trainer,
        pile: SyntheticPile::new(spec.model.vocab, seed ^ 0xDA7A),
    };
    let mut problems = Vec::new();
    for _ in 0..spec.warmup_steps {
        let batch = s.next_batch(spec);
        problems.extend(step_problems(&mut s.trainer, &batch));
    }
    (s, problems)
}

/// Runs one step; returns what was wrong with it.
fn step_problems(trainer: &mut Trainer, batch: &[Sample]) -> Vec<String> {
    match trainer.step(batch) {
        Ok(out) if out.loss().is_finite() => Vec::new(),
        Ok(out) => vec![format!(
            "step {}: loss {}",
            trainer.losses().len(),
            out.loss()
        )],
        Err(e) => vec![format!("step {}: {e}", trainer.losses().len() + 1)],
    }
}

/// The golden keys and digests of a run at [`Spec::golden_step`]: every
/// loss so far and the parameters, bit for bit.
fn golden_digests(spec: &Spec, trainer: &Trainer) -> [(String, String); 2] {
    let losses: Vec<u8> = trainer
        .losses()
        .iter()
        .flat_map(|(_, l)| l.to_bits().to_le_bytes())
        .collect();
    let params: Vec<u8> = trainer
        .model()
        .params()
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    let n = spec.golden_step;
    [
        (format!("losses@{n}"), crate::digest(&losses)),
        (format!("params@{n}"), crate::digest(&params)),
    ]
}

/// Timed steps of one phase.
#[derive(Debug, Default)]
struct Phase {
    /// Wall seconds of each step.
    step_secs: Vec<f64>,
    /// Host speed ([`crate::host_speed`]) measured before every
    /// [`SPEED_EVERY`]-th step, with that step's index.
    speeds: Vec<(usize, f64)>,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.step_secs.iter().sum()
    }

    /// Steps per second, and the step-time median and 90th percentile in
    /// ms: each the median over [`WINDOWS`] consecutive windows of steps,
    /// with each window's times scaled by the median host speed measured
    /// in it, so that neither a few seconds of interference from another
    /// process nor a slower host moves the figure.
    fn windowed(&self) -> [f64; 3] {
        let per = (self.step_secs.len() / WINDOWS).max(1);
        let mut rate = Vec::new();
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        for (k, w) in self.step_secs.chunks_exact(per).enumerate() {
            let window = k * per..(k + 1) * per;
            let speeds: Vec<f64> = self
                .speeds
                .iter()
                .filter(|(i, _)| window.contains(i))
                .map(|&(_, v)| v)
                .collect();
            let speed = if speeds.is_empty() {
                1.0
            } else {
                crate::median(&speeds)
            };
            let ms: Vec<f64> = w.iter().map(|s| s * speed * 1e3).collect();
            rate.push(w.len() as f64 / (w.iter().sum::<f64>() * speed));
            p50.push(crate::percentile(&ms, 0.5));
            p90.push(crate::percentile(&ms, 0.9));
        }
        [
            crate::median(&rate),
            crate::median(&p50),
            crate::median(&p90),
        ]
    }
}

/// Steps until `seconds` of step time and `min_steps` steps have been
/// measured. Batches are drawn and outputs checked outside the timed
/// window.
#[allow(clippy::too_many_arguments)]
fn phase(
    cfg: &RunConfig,
    spec: &Spec,
    s: &mut Session,
    seconds: f64,
    min_steps: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
    digests: &mut Vec<(String, String)>,
) -> Phase {
    let mut p = Phase::default();
    while p.step_secs.len() < min_steps
        || (p.wall_s() < seconds && !(tracer.enabled() && p.step_secs.len() >= MAX_TRACED_STEPS))
    {
        if p.step_secs.len() % SPEED_EVERY == 0 {
            // The trainer computes on `nproc` threads.
            p.speeds
                .push((p.step_secs.len(), crate::host_speed(crate::nproc())));
        }
        let batch = s.next_batch(spec);
        let op = s.trainer.losses().len() as u64 + 1;
        let t0 = Instant::now();
        let span = tracer.begin("trainer.step", op);
        let mut problems = step_problems(&mut s.trainer, &batch);
        tracer.end(span);
        p.step_secs.push(t0.elapsed().as_secs_f64());
        if op == spec.golden_step {
            for (key, digest) in golden_digests(spec, &s.trainer) {
                problems.extend(cfg.golden.check(cfg, &key, &digest));
                digests.push((key, digest));
            }
        }
        checks.record(problems);
    }
    p
}

/// Aligns `tensorlite`'s span clock with the tracer's: returns the offset
/// to add to a `tensorlite` timestamp and the track id of this thread.
fn align_clocks(tracer: &Tracer) -> (i128, u32) {
    kspans::reset();
    kspans::enable();
    let before = tracer.now_ns();
    drop(kspans::kernel(OpKind::Elementwise));
    let after = tracer.now_ns();
    let log = kspans::take_log();
    kspans::reset();
    let probe = log
        .kernels
        .last()
        .expect("an enabled recorder records the probe");
    let mid = i128::from(before) + (i128::from(after) - i128::from(before)) / 2;
    (mid - i128::from(probe.start_nanos), probe.track)
}

/// Imports kernel and pool-region spans into `tracer`, parented to the
/// innermost span that contains them on the same thread, or else to the
/// step that contains them in time.
fn import_spans(tracer: &mut Tracer, log: &kspans::SpanLog, offset: i128, main_track: u32) {
    let steps: Vec<(usize, u64, u64, u64)> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "trainer.step")
        .map(|(i, s)| (i, s.start_ns, s.end_ns, s.op))
        .collect();
    let to_local = |nanos: u64| u64::try_from(i128::from(nanos) + offset).unwrap_or(0);
    let track_of = |t: u32| {
        if t == main_track {
            HARNESS_TRACK
        } else {
            t + 1
        }
    };
    let mut imported: Vec<(u32, u64, u64, &'static str)> = log
        .kernels
        .iter()
        .map(|k| {
            let start = to_local(k.start_nanos);
            (
                track_of(k.track),
                start,
                start + k.dur_nanos,
                KERNEL_SPAN_NAMES[k.kind.index()],
            )
        })
        .chain(log.regions.iter().map(|r| {
            let start = to_local(r.start_nanos);
            (track_of(r.track), start, start + r.dur_nanos, "pool.region")
        }))
        .collect();
    // Outer spans first: by track, start, then longest.
    imported.sort_by_key(|&(track, start, end, _)| (track, start, std::cmp::Reverse(end)));
    let mut open: Vec<(usize, u64, u32)> = Vec::new();
    for (track, start, end, name) in imported {
        while open.last().is_some_and(|&(_, e, t)| t != track || e < end) {
            open.pop();
        }
        let step = steps
            .partition_point(|&(_, s, _, _)| s <= start)
            .checked_sub(1)
            .map(|i| steps[i])
            .filter(|&(_, _, e, _)| e >= end);
        let parent = open.last().map(|&(i, _, _)| i).or(step.map(|s| s.0));
        let op = step.map_or(0, |s| s.3);
        if let Some(i) = tracer.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            track,
        }) {
            open.push((i, end, track));
        }
    }
}

/// Runs a train workload.
pub fn run(cfg: &RunConfig, spec: &Spec) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let speed = crate::host_speed(crate::nproc());
        let t0 = Instant::now();
        let (s, problems) = setup(spec, cfg.seed);
        setup_secs.push(t0.elapsed().as_secs_f64() * speed);
        if !problems.is_empty() {
            checks.record(problems);
        }
        session = Some(s);
    }
    let mut s = session.expect("at least one setup");
    let mut digests = Vec::new();
    let (seconds, min_steps) = if cfg.trace {
        (cfg.seconds / 2.0, MIN_TRACED_STEPS)
    } else {
        (cfg.seconds, MIN_STEPS)
    };
    let steal0 = crate::host_steal_s();
    let main = phase(
        cfg,
        spec,
        &mut s,
        seconds,
        min_steps,
        &mut Tracer::new(false),
        &mut checks,
        &mut digests,
    );
    let steal_s = crate::host_steal_s() - steal0;

    let mut tracer = Tracer::new(cfg.trace);
    let mut layers = BTreeMap::new();
    // Kernel spans past `tensorlite::spans::MAX_SPANS` are dropped, which
    // would overstate `trainer.unattributed_s`.
    let mut dropped_spans = 0;
    if cfg.trace {
        let (offset, main_track) = align_clocks(&tracer);
        counters::reset();
        counters::enable();
        kspans::enable();
        let c0 = counters::snapshot();
        let (e0, st0) = (s.trainer.spans(), s.trainer.stats());
        let traced = phase(
            cfg,
            spec,
            &mut s,
            seconds,
            min_steps,
            &mut tracer,
            &mut checks,
            &mut digests,
        );
        kspans::disable();
        counters::disable();
        let ctr = counters::snapshot().delta_since(&c0);
        let busy = kspans::kind_busy_nanos();
        let log = kspans::take_log();
        dropped_spans = log.dropped;
        import_spans(&mut tracer, &log, offset, main_track);
        layers = layer_metrics(
            &tracer, &main, &traced, &ctr, &busy, &log, &s.trainer, e0, st0,
        );
    }

    let [steps_per_s, p50, p90] = main.windowed();
    let e2e = [
        crate::median(&setup_secs),
        steps_per_s,
        steps_per_s * (spec.batch * spec.seq) as f64,
        p50,
        p90,
        crate::peak_rss_mb(),
    ];
    let details = vec![
        ("train_tokens_per_s".to_string(), e2e[2]),
        ("step_ms_p50".to_string(), e2e[3]),
        ("step_ms_p90".to_string(), e2e[4]),
        ("step_samples".to_string(), main.step_secs.len() as f64),
        (
            "wall_steps_per_s".to_string(),
            main.step_secs.len() as f64 / main.wall_s(),
        ),
        (
            "host_speed".to_string(),
            crate::median(&main.speeds.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        ),
        ("dropped_kernel_spans".to_string(), dropped_spans as f64),
        ("host_steal_s".to_string(), steal_s),
        (
            "steps_per_window".to_string(),
            (main.step_secs.len() / WINDOWS) as f64,
        ),
        (
            "rollback_steps".to_string(),
            s.trainer.rollback_steps().len() as f64,
        ),
        (
            "error_rate".to_string(),
            checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ];
    Outcome {
        metrics: crate::report_metrics(cfg.trace, e2e, &layers),
        checks,
        details,
        digests,
        tracer: cfg.trace.then_some(tracer),
    }
}

/// Per-layer metrics of the traced phase.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    tracer: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    ctr: &counters::CounterSnapshot,
    busy_ns: &[u64; 13],
    log: &kspans::SpanLog,
    trainer: &Trainer,
    e0: EngineSpans,
    st0: StvStats,
) -> BTreeMap<String, f64> {
    let times = tracer.layer_times();
    let step = times.get("trainer.step").copied().unwrap_or_default();
    let (e1, st1) = (trainer.spans(), trainer.stats());
    let rollbacks = st1.rollbacks() - st0.rollbacks();
    let mut m = BTreeMap::new();
    let mut put = |name: String, v: f64| {
        m.insert(name, v);
    };
    put("trainer.steps".into(), step.count as f64);
    put("trainer.busy_s".into(), step.total_ns as f64 / 1e9);
    put(
        "trainer.rollback_ratio".into(),
        rollbacks as f64 / step.count.max(1) as f64,
    );
    put("trainer.unattributed_s".into(), step.self_ns as f64 / 1e9);
    for (name, a, b) in [
        ("speculate_s", e1.speculate, e0.speculate),
        ("validate_s", e1.validate, e0.validate),
        ("rollback_s", e1.rollback, e0.rollback),
        ("optimizer_s", e1.optimizer_step, e0.optimizer_step),
    ] {
        put(
            format!("superoffload.engine.{name}"),
            (a.total_secs - b.total_secs).max(0.0),
        );
    }
    for kind in OpKind::ALL {
        let busy_s = busy_ns[kind.index()] as f64 / 1e9;
        let name = kind.name();
        put(format!("kernel.{name}.calls"), ctr.calls(kind) as f64);
        put(format!("kernel.{name}.busy_s"), busy_s);
        put(
            format!("kernel.{name}.gflops"),
            if busy_s > 0.0 {
                ctr.flops(kind) as f64 / busy_s / 1e9
            } else {
                0.0
            },
        );
    }
    put("pool.regions".into(), ctr.pool_parallel_regions as f64);
    let (busy, present) = log
        .worker_utilization()
        .iter()
        .fold((0u64, 0u64), |(b, p), u| {
            (b + u.busy_nanos, p + u.present_nanos)
        });
    put(
        "pool.worker_util".into(),
        if present > 0 {
            busy as f64 / present as f64
        } else {
            0.0
        },
    );
    put(
        "trace.overhead_pct".into(),
        (untraced.windowed()[0] / traced.windowed()[0] - 1.0) * 100.0,
    );
    put("trace.spans".into(), tracer.spans().len() as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_span_names_follow_op_kinds() {
        for kind in OpKind::ALL {
            assert_eq!(
                KERNEL_SPAN_NAMES[kind.index()],
                format!("kernel.{}", kind.name())
            );
        }
    }

    #[test]
    fn windows_report_medians() {
        // Ten windows of ten steps; one window is five times slower.
        let mut step_secs = vec![0.01; 100];
        step_secs[..10].fill(0.05);
        let [rate, p50, p90] = Phase {
            step_secs,
            ..Phase::default()
        }
        .windowed();
        assert!((rate - 100.0).abs() < 1e-9);
        assert!((p50 - 10.0).abs() < 1e-9);
        assert!((p90 - 10.0).abs() < 1e-9);
    }
}
