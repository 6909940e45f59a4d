//! Real-execution measurements: Table 3 (optimizer latency) and Fig. 14
//! (training loss + rollback occurrences under STV).
//!
//! Unlike [`crate::experiments`], nothing here is simulated: Table 3 times
//! the three real Adam implementations of `grace-optim` on the host CPU,
//! and Fig. 14 trains a real miniature GPT with the real multi-threaded
//! speculation-then-validation engine, counting actual rollbacks.

use std::time::Instant;

use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, CpuAdam, GraceAdam, NaiveAdam};
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superchip_sim::telemetry::{JsonWriter, Layout};
use superoffload::engine::{Discipline, Engine, EngineConfig, StepOutcome};
use tensorlite::pool::{hardware_threads, with_threads};
use tensorlite::{Tensor, XorShiftRng};

/// One Table 3 row: seconds per optimizer step for each implementation at a
/// given parameter count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamLatencyRow {
    /// Parameters stepped.
    pub params: usize,
    /// Framework-native style (multi-pass) Adam.
    pub pt_cpu_secs: f64,
    /// Fused single-thread CPU-Adam.
    pub cpu_adam_secs: f64,
    /// Tiled multi-threaded GraceAdam.
    pub grace_adam_secs: f64,
}

impl AdamLatencyRow {
    /// PT-CPU / GraceAdam speedup.
    pub fn pt_speedup(&self) -> f64 {
        self.pt_cpu_secs / self.grace_adam_secs
    }

    /// CPU-Adam / GraceAdam speedup.
    pub fn cpu_adam_speedup(&self) -> f64 {
        self.cpu_adam_secs / self.grace_adam_secs
    }
}

fn time_stepper(stepper: &dyn AdamStepper, params: usize, reps: u32) -> f64 {
    let cfg = AdamConfig::default();
    let mut p: Vec<f32> = (0..params).map(|i| (i as f32 * 0.001).sin()).collect();
    let g: Vec<f32> = (0..params)
        .map(|i| (i as f32 * 0.002).cos() * 0.01)
        .collect();
    let mut state = AdamState::new(params);
    // Warm up caches and page in the buffers.
    stepper.step(&cfg, 1, &mut p, &g, &mut state);
    let start = Instant::now();
    for t in 0..reps {
        stepper.step(&cfg, t as u64 + 2, &mut p, &g, &mut state);
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Measures real optimizer latency at `params` parameters (Table 3,
/// scaled to sizes that fit host memory: 4 f32 buffers per parameter).
pub fn adam_latency(params: usize, reps: u32) -> AdamLatencyRow {
    AdamLatencyRow {
        params,
        pt_cpu_secs: time_stepper(&NaiveAdam, params, reps),
        cpu_adam_secs: time_stepper(&CpuAdam, params, reps),
        grace_adam_secs: time_stepper(&GraceAdam::default(), params, reps),
    }
}

/// Runs the Table 3 measurement ladder (parameter counts scaled to host
/// memory; the paper's 1B–8B ladder maps to 32M–256M here).
pub fn table3(sizes: &[usize], reps: u32) -> Vec<AdamLatencyRow> {
    sizes.iter().map(|&n| adam_latency(n, reps)).collect()
}

/// Prints Table 3 with both measured (real) and modeled (simulator)
/// latencies.
pub fn print_table3() {
    println!("# Table 3: Adam latency — REAL measured on this host (scaled sizes)");
    println!(
        "{:>12} {:>10} {:>10} {:>11} {:>8} {:>8}",
        "#params", "pt-cpu s", "cpu-adam s", "grace-adam s", "pt/ga", "ca/ga"
    );
    for row in table3(&[32_000_000, 64_000_000, 128_000_000, 256_000_000], 3) {
        println!(
            "{:>12} {:>10.4} {:>10.4} {:>11.4} {:>7.2}x {:>7.2}x",
            row.params,
            row.pt_cpu_secs,
            row.cpu_adam_secs,
            row.grace_adam_secs,
            row.pt_speedup(),
            row.cpu_adam_speedup()
        );
    }
    println!("(paper on Grace: pt-cpu ~3x and cpu-adam ~1.24x the GraceAdam latency)");

    println!("\n# Table 3 (modeled on simulated Grace CPU, paper's 1B-8B ladder)");
    let cpu = superchip_sim::presets::grace_cpu(480 * superchip_sim::GB);
    println!(
        "{:>10} {:>10} {:>10} {:>11}",
        "#params", "pt-cpu s", "cpu-adam s", "grace-adam s"
    );
    for billions in [1u64, 2, 4, 8] {
        let n = billions * 1_000_000_000;
        use superoffload::costs::OptimizerImpl;
        println!(
            "{:>9}B {:>10.3} {:>10.3} {:>11.3}",
            billions,
            OptimizerImpl::PtCpu.step_time(&cpu, n).as_secs(),
            OptimizerImpl::CpuAdam.step_time(&cpu, n).as_secs(),
            OptimizerImpl::GraceAdam.step_time(&cpu, n).as_secs(),
        );
    }
    println!("(paper: 1B = 0.289 / 0.098 / 0.082 s; 8B = 1.834 / 0.769 / 0.608 s)");
}

/// Result of the Fig. 14 training run.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    /// `(iteration, loss)` samples.
    pub losses: Vec<(u64, f32)>,
    /// Iterations at which a rollback occurred (skip or clip).
    pub rollback_iters: Vec<u64>,
    /// Total iterations executed.
    pub iterations: u64,
    /// Whether the STV engine stayed bit-identical to the synchronous
    /// reference throughout.
    pub exact_vs_sync: bool,
}

impl TrainingRun {
    /// Rollback rate over the stable phase (after `warmup` iterations).
    pub fn stable_rollback_rate(&self, warmup: u64) -> f64 {
        let stable_rollbacks = self.rollback_iters.iter().filter(|&&i| i >= warmup).count() as f64;
        stable_rollbacks / (self.iterations.saturating_sub(warmup).max(1)) as f64
    }
}

/// Fig. 14: trains a real GPT with the real STV engine for `iterations`
/// steps, tracking loss and rollbacks, and verifying exactness against the
/// synchronous engine every step.
///
/// The loss scale starts deliberately high so the warm-up phase exhibits
/// the paper's frequent early rollbacks before stabilizing.
pub fn fig14_run(iterations: u64, seed: u64) -> TrainingRun {
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
        // Loose enough that clipping fires only on genuine spikes once
        // training stabilizes (the paper observes 0.12% after warm-up).
        max_grad_norm: 6.0,
        // High initial scale: early iterations overflow FP16 and roll back,
        // like the paper's first ~1000 iterations.
        initial_loss_scale: 4_194_304.0,
        buckets: 4,
        precision: superoffload::engine::Precision::F16,
        storage: tensorlite::StoragePrecision::F32,
    };
    let mut stv = Engine::new(
        Discipline::Stv,
        GptModel::new(model_cfg.clone(), seed),
        1,
        engine_cfg,
    );
    let mut sync = Engine::new(
        Discipline::Sync,
        GptModel::new(model_cfg, seed),
        1,
        engine_cfg,
    );
    let mut pile = SyntheticPile::new(64, seed);

    let mut losses = Vec::new();
    let mut rollback_iters = Vec::new();
    let mut exact = true;
    for it in 0..iterations {
        let batch = pile.next_batch(2, 24);
        let out = stv.train_step(&batch).expect("training step");
        sync.train_step(&batch).expect("reference step");
        if stv.model().params() != sync.model().params() {
            exact = false;
        }
        if out.rolled_back() {
            rollback_iters.push(it);
        }
        if it % 5 == 0 || matches!(out, StepOutcome::Applied { .. }) {
            losses.push((it, out.loss()));
        }
    }
    TrainingRun {
        losses,
        rollback_iters,
        iterations,
        exact_vs_sync: exact,
    }
}

/// Prints Fig. 14 (ASCII loss curve with rollback markers).
pub fn print_fig14() {
    let iters = 400;
    let run = fig14_run(iters, 42);
    println!("# Fig. 14: REAL STV training run ({iters} iterations, real GPT + real rollbacks)");
    println!(
        "rollbacks: {} total; warm-up (first 10%): {}; stable-phase rate {:.2}%",
        run.rollback_iters.len(),
        run.rollback_iters
            .iter()
            .filter(|&&i| i < iters / 10)
            .count(),
        run.stable_rollback_rate(iters / 10) * 100.0
    );
    println!(
        "STV bit-identical to synchronous reference: {}",
        run.exact_vs_sync
    );
    // Coarse ASCII curve: bucket losses into 20 columns.
    let cols = 20usize;
    let per = (iters as usize).div_ceil(cols);
    println!(
        "\n{:>10} {:>8}  loss (o = rollback in window)",
        "iters", "loss"
    );
    for c in 0..cols {
        let lo = (c * per) as u64;
        let hi = ((c + 1) * per) as u64;
        let window: Vec<f32> = run
            .losses
            .iter()
            .filter(|(i, _)| *i >= lo && *i < hi)
            .map(|&(_, l)| l)
            .collect();
        if window.is_empty() {
            continue;
        }
        let avg = window.iter().sum::<f32>() / window.len() as f32;
        let rollbacks = run
            .rollback_iters
            .iter()
            .filter(|&&i| i >= lo && i < hi)
            .count();
        let bar_len = (avg / 4.5 * 40.0).clamp(0.0, 60.0) as usize;
        println!(
            "{:>4}-{:<5} {:>8.3}  {}{}",
            lo,
            hi,
            avg,
            "#".repeat(bar_len),
            if rollbacks > 0 {
                format!(" o x{rollbacks}")
            } else {
                String::new()
            }
        );
    }
    println!("(paper: rollbacks frequent before iteration ~1000, then 0.12% of iterations)");
}

/// Serial-vs-parallel measurement of the real numeric plane: the packed
/// GEMM and a full transformer train step (forward + backward + GraceAdam),
/// with a step-time breakdown. Emitted as `BENCH_realplane.json` so the
/// bench trajectory has machine-readable data.
#[derive(Debug, Clone)]
pub struct RealPlaneBench {
    /// Hardware threads on this host (`available_parallelism`).
    pub host_threads: usize,
    /// Worker count used for the parallel measurements.
    pub parallel_threads: usize,
    /// Square GEMM edge (`n × n × n`).
    pub matmul_n: usize,
    /// Seconds per GEMM, one worker.
    pub matmul_serial_secs: f64,
    /// Seconds per GEMM, `parallel_threads` workers.
    pub matmul_parallel_secs: f64,
    /// Tokens consumed per train step (batch × sequence length).
    pub tokens_per_step: usize,
    /// Seconds per train step, one worker.
    pub step_serial_secs: f64,
    /// Seconds per train step, `parallel_threads` workers.
    pub step_parallel_secs: f64,
    /// Whether the serial and parallel runs produced bit-identical
    /// parameters (they must).
    pub bit_identical: bool,
    /// Forward-pass seconds within one parallel step.
    pub forward_secs: f64,
    /// Backward-pass seconds within one parallel step.
    pub backward_secs: f64,
    /// Optimizer (GraceAdam) seconds within one parallel step.
    pub optimizer_secs: f64,
}

/// Single-thread host detection, shared by the realbench and roofline
/// snapshots: with one hardware thread, "parallel" numbers are the serial
/// path plus worker-pool overhead, so speedup / utilization /
/// percent-of-peak figures are host artifacts, not findings.
pub(crate) fn degraded_host(host_threads: usize) -> bool {
    host_threads <= 1
}

impl RealPlaneBench {
    /// Whether this host cannot support the parallel-speedup claim: with a
    /// single hardware thread the "parallel" run is the serial run plus
    /// worker-pool overhead, so speedup < 1.0 is an artifact of the host,
    /// not a regression. Snapshots from such hosts are marked
    /// `"degraded_host": true` and the compare gate ignores their
    /// speedup/throughput metrics.
    pub fn degraded_host(&self) -> bool {
        degraded_host(self.host_threads)
    }

    /// Serial / parallel GEMM speedup.
    pub fn matmul_speedup(&self) -> f64 {
        self.matmul_serial_secs / self.matmul_parallel_secs
    }

    /// Serial / parallel train-step speedup.
    pub fn step_speedup(&self) -> f64 {
        self.step_serial_secs / self.step_parallel_secs
    }

    /// Tokens per second at `threads` = 1.
    pub fn tokens_per_sec_serial(&self) -> f64 {
        self.tokens_per_step as f64 / self.step_serial_secs
    }

    /// Tokens per second at the parallel worker count.
    pub fn tokens_per_sec_parallel(&self) -> f64 {
        self.tokens_per_step as f64 / self.step_parallel_secs
    }

    /// The `superoffload.realbench/v1` snapshot.
    pub fn to_json(&self) -> String {
        JsonWriter::with_capacity(1024).document(Layout::Block, |doc| {
            doc.str("schema", "superoffload.realbench/v1")
                .num("host_threads", self.host_threads)
                .bool("degraded_host", self.degraded_host())
                .num("parallel_threads", self.parallel_threads)
                .object("matmul", Layout::Block, |m| {
                    m.num("n", self.matmul_n)
                        .fixed("serial_secs", self.matmul_serial_secs, 6)
                        .fixed("parallel_secs", self.matmul_parallel_secs, 6)
                        .fixed("speedup", self.matmul_speedup(), 3);
                })
                .object("train_step", Layout::Block, |t| {
                    t.num("tokens_per_step", self.tokens_per_step)
                        .fixed("serial_secs", self.step_serial_secs, 6)
                        .fixed("parallel_secs", self.step_parallel_secs, 6)
                        .fixed("speedup", self.step_speedup(), 3)
                        .fixed("tokens_per_sec_serial", self.tokens_per_sec_serial(), 1)
                        .fixed("tokens_per_sec_parallel", self.tokens_per_sec_parallel(), 1)
                        .bool("bit_identical", self.bit_identical)
                        .object("breakdown_secs", Layout::Block, |b| {
                            b.fixed("forward", self.forward_secs, 6)
                                .fixed("backward", self.backward_secs, 6)
                                .fixed("optimizer", self.optimizer_secs, 6);
                        });
                });
        })
    }
}

/// The model used for the real train-step measurement: large enough that
/// every kernel crosses the parallel work threshold. Shared with the
/// roofline profiler (`crate::roofline`) so both measure the same workload.
pub(crate) fn realplane_model(seed: u64) -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 128,
            hidden: 64,
            layers: 2,
            heads: 4,
            max_seq: 64,
        },
        seed,
    )
}

/// One full training step on a flat-parameter model: forward + backward
/// over the batch, then a GraceAdam update. Returns (forward, backward,
/// optimizer) seconds.
fn timed_step(
    model: &mut GptModel,
    state: &mut AdamState,
    step: u64,
    batch: &[(Vec<usize>, Vec<usize>)],
) -> (f64, f64, f64) {
    let cfg = AdamConfig::default();
    model.zero_grads();
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for (x, y) in batch {
        let t0 = Instant::now();
        let cache = model.forward(x, y).expect("forward");
        fwd += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        model.backward(cache).expect("backward");
        bwd += t1.elapsed().as_secs_f64();
    }
    let t2 = Instant::now();
    let grads = model.grads().to_vec();
    GraceAdam::default().step(&cfg, step, model.params_mut(), &grads, state);
    let opt = t2.elapsed().as_secs_f64();
    (fwd, bwd, opt)
}

/// Runs the shared real-plane training workload — `steps` full train steps
/// of the realbench GPT at `batch`×`seq` tokens — under `threads` workers
/// (0 = all). Returns `(final params, per-step secs, forward secs,
/// backward secs, optimizer secs)`.
///
/// Public so tests can replay the exact workload `repro -- roofline`
/// measures under an independent counter ledger and assert bit-exact
/// reconciliation.
pub fn run_training(
    threads: usize,
    steps: u64,
    batch: usize,
    seq: usize,
    seed: u64,
) -> (Vec<f32>, f64, f64, f64, f64) {
    with_threads(threads, || {
        let mut model = realplane_model(seed);
        let mut state = AdamState::new(model.num_params());
        let mut pile = SyntheticPile::new(model.config().vocab, seed);
        let batches: Vec<_> = (0..steps).map(|_| pile.next_batch(batch, seq)).collect();
        let (mut fwd, mut bwd, mut opt) = (0.0, 0.0, 0.0);
        let start = Instant::now();
        for (i, b) in batches.iter().enumerate() {
            let (f, bk, o) = timed_step(&mut model, &mut state, i as u64 + 1, b);
            fwd += f;
            bwd += bk;
            opt += o;
        }
        let per_step = start.elapsed().as_secs_f64() / steps as f64;
        let s = steps as f64;
        (model.params().to_vec(), per_step, fwd / s, bwd / s, opt / s)
    })
}

/// Default train-step count for the real-plane measurement.
pub const REALPLANE_STEPS: u64 = 8;
/// Default model/data seed for the real-plane measurement.
pub const REALPLANE_SEED: u64 = 4242;
/// Sequences per batch in the real-plane training workload.
pub const REALPLANE_BATCH: usize = 4;
/// Tokens per sequence in the real-plane training workload.
pub const REALPLANE_SEQ: usize = 48;

/// Measures the real numeric plane, serial vs parallel: a `n × n × n`
/// packed GEMM and a full transformer train step with breakdown.
pub fn realplane(matmul_n: usize, steps: u64, seed: u64) -> RealPlaneBench {
    let host_threads = hardware_threads();

    // GEMM: median-free simple best-of-reps timing (the Criterion benches
    // carry the statistics; this is the machine-readable summary).
    let mut rng = XorShiftRng::new(7);
    let a = Tensor::randn(&[matmul_n, matmul_n], 1.0, &mut rng);
    let b = Tensor::randn(&[matmul_n, matmul_n], 1.0, &mut rng);
    let time_matmul = |threads: usize| {
        with_threads(threads, || {
            let _warm = a.matmul(&b).expect("warmup");
            let reps = 3;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let _c = a.matmul(&b).expect("matmul");
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        })
    };
    let matmul_serial_secs = time_matmul(1);
    let matmul_parallel_secs = time_matmul(0);

    let (batch, seq) = (REALPLANE_BATCH, REALPLANE_SEQ);
    let (serial_params, step_serial_secs, _, _, _) = run_training(1, steps, batch, seq, seed);
    let (parallel_params, step_parallel_secs, forward_secs, backward_secs, optimizer_secs) =
        run_training(0, steps, batch, seq, seed);

    RealPlaneBench {
        host_threads,
        parallel_threads: host_threads,
        matmul_n,
        matmul_serial_secs,
        matmul_parallel_secs,
        tokens_per_step: batch * seq,
        step_serial_secs,
        step_parallel_secs,
        bit_identical: serial_params == parallel_params,
        forward_secs,
        backward_secs,
        optimizer_secs,
    }
}

/// CLI entry: `repro -- realbench [--steps <N>] [--seed <N>]` (the
/// defaults inside an experiment list). Measures the real plane, prints a
/// summary, and writes `BENCH_realplane.json` in the working directory.
///
/// # Errors
/// A CLI-ready message on a bad flag value or a failed write.
pub fn run(args: &[String]) -> Result<(), String> {
    let parse = |name| crate::cli::parse_flag(args, name, |v| v.parse::<u64>().ok());
    let steps = parse("steps")?.unwrap_or(REALPLANE_STEPS);
    if steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    let seed = parse("seed")?.unwrap_or(REALPLANE_SEED);
    let bench = realplane(512, steps, seed);
    println!("# Real numeric plane: serial vs parallel (this host, {steps} steps, seed {seed})");
    println!(
        "host threads: {} (parallel runs use {})",
        bench.host_threads, bench.parallel_threads
    );
    if bench.degraded_host() {
        // A single-core host cannot demonstrate parallel speedup — the
        // "parallel" numbers are the serial path plus pool overhead, so
        // printing a < 1.0x speedup would be a silent artifact.
        println!(
            "single hardware thread: skipping the parallel-speedup claim \
             (snapshot marked degraded_host)"
        );
        println!(
            "matmul {0}x{0}x{0}: serial {1:.4}s",
            bench.matmul_n, bench.matmul_serial_secs
        );
        println!(
            "train step ({} tokens): serial {:.4}s ({:.0} tokens/sec)",
            bench.tokens_per_step,
            bench.step_serial_secs,
            bench.tokens_per_sec_serial()
        );
    } else {
        println!(
            "matmul {0}x{0}x{0}: serial {1:.4}s, parallel {2:.4}s ({3:.2}x)",
            bench.matmul_n,
            bench.matmul_serial_secs,
            bench.matmul_parallel_secs,
            bench.matmul_speedup()
        );
        println!(
            "train step ({} tokens): serial {:.4}s, parallel {:.4}s ({:.2}x)",
            bench.tokens_per_step,
            bench.step_serial_secs,
            bench.step_parallel_secs,
            bench.step_speedup()
        );
        println!(
            "tokens/sec: serial {:.0}, parallel {:.0}",
            bench.tokens_per_sec_serial(),
            bench.tokens_per_sec_parallel()
        );
    }
    println!(
        "step breakdown (parallel): forward {:.4}s, backward {:.4}s, optimizer {:.4}s",
        bench.forward_secs, bench.backward_secs, bench.optimizer_secs
    );
    println!(
        "parallel output bit-identical to serial: {}",
        bench.bit_identical
    );
    crate::cli::write_artifacts(&[("BENCH_realplane.json", bench.to_json())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_latency_ordering_holds_on_this_host() {
        let _cpu = crate::cpu_heavy_test_guard();
        // The paper's Table 3 ordering: GraceAdam < CPU-Adam < PT-CPU.
        // Use a size big enough to be memory-bound but quick.
        let row = adam_latency(8_000_000, 2);
        assert!(
            row.grace_adam_secs < row.pt_cpu_secs,
            "GraceAdam ({}) should beat PT-CPU ({})",
            row.grace_adam_secs,
            row.pt_cpu_secs
        );
        assert!(row.pt_speedup() > 1.0);
    }

    #[test]
    fn fig14_training_converges_with_rollbacks() {
        let _cpu = crate::cpu_heavy_test_guard();
        let run = fig14_run(120, 7);
        assert!(run.exact_vs_sync, "STV diverged from the reference");
        assert!(
            !run.rollback_iters.is_empty(),
            "high initial scale should force early rollbacks"
        );
        // Warm-up rollbacks dominate: more in the first half than second.
        let mid = run.iterations / 2;
        let early = run.rollback_iters.iter().filter(|&&i| i < mid).count();
        let late = run.rollback_iters.len() - early;
        assert!(early >= late, "early {early} vs late {late}");
        // Loss decreases.
        let first = run.losses.first().unwrap().1;
        let last_avg: f32 = run
            .losses
            .iter()
            .rev()
            .take(5)
            .map(|&(_, l)| l)
            .sum::<f32>()
            / 5.0;
        assert!(last_avg < first, "loss {first} -> {last_avg}");
    }
}
