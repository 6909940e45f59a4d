//! `repro -- calibrate`: measures where parallel dispatch starts paying
//! for itself, per kernel family, on *this* host.
//!
//! The per-family work thresholds in `tensorlite::pool` (see
//! [`KernelFamily::default_threshold`]) decide when a kernel is worth
//! fanning out to the worker pool. The defaults are compiled-in guesses;
//! this module measures the actual serial-vs-parallel crossover for a
//! representative kernel of each family and prints the comparison, so a
//! host with unusually cheap (or expensive) thread handoff can justify an
//! override via [`tensorlite::pool::set_family_threshold`].
//!
//! Method: for each family, every *other* family's threshold is pinned to
//! `usize::MAX` (forcing those kernels serial) and the probed family's to
//! `1` (always eligible), isolating the one dispatch decision under test.
//! The probe kernel then runs over a geometric work ladder twice — under
//! `with_threads(1)` and `with_threads(0)` — and the crossover is the
//! smallest work size where the parallel run is ≥5% faster. Thresholds
//! are restored to the compiled-in defaults afterwards; since thresholds
//! only pick between bit-identical execution strategies, the probes can
//! never change a numeric result.
//!
//! On a single-hardware-thread host the "parallel" run is the serial path
//! plus pool overhead, so no crossover exists; the snapshot is marked
//! `"degraded_host": true` (same convention as `repro -- realbench`) and
//! the table says so instead of reporting an artifact.
//!
//! The sweep also measures one compute ceiling: the per-thread GFLOP/s of
//! independent `f32::mul_add` chains at the GEMM tile's vector width
//! ([`fma_peak_gflops`]), the figure a GEMM's measured GFLOP/s is a
//! share of.

use std::time::Instant;

use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, GraceAdam, ADAM_FLOPS_PER_PARAM};
use llm_model::transformer::{GptConfig, GptModel};
use superchip_sim::telemetry::{JsonWriter, Layout};
use tensorlite::ops;
use tensorlite::pool::{family_threshold, set_family_threshold, with_threads};
use tensorlite::tensor::GEMM_NR;
use tensorlite::{KernelFamily, Pool, Tensor, XorShiftRng};

/// One timed point on a family's work ladder.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationPoint {
    /// Element-op work estimate, in the same units the kernel passes to
    /// `limit_for_family`.
    pub work: usize,
    /// Best-of-reps seconds under one worker.
    pub serial_secs: f64,
    /// Best-of-reps seconds under all workers.
    pub parallel_secs: f64,
}

impl CalibrationPoint {
    /// Serial / parallel speedup at this point.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs
    }
}

/// Measured crossover for one kernel family.
#[derive(Debug, Clone)]
pub struct FamilyCalibration {
    /// The family probed.
    pub family: KernelFamily,
    /// Compiled-in default threshold (element-ops).
    pub default_threshold: usize,
    /// Threshold in effect before the probe (default unless overridden).
    pub effective_threshold: usize,
    /// Smallest ladder work where parallel beat serial by ≥5%, if any.
    pub crossover_work: Option<usize>,
    /// The timed ladder, ascending by work.
    pub points: Vec<CalibrationPoint>,
}

/// A full calibration sweep: every family, plus host context.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Hardware threads on this host.
    pub host_threads: usize,
    /// Measured single-thread `mul_add` throughput (see
    /// [`fma_peak_gflops`]).
    pub fma_peak_gflops: f64,
    /// Per-family results, in [`KernelFamily::ALL`] order.
    pub families: Vec<FamilyCalibration>,
}

/// Default top of the work ladder (element-ops).
pub const DEFAULT_MAX_WORK: usize = 2_097_152;
/// Default timing repetitions per ladder point (best-of).
pub const DEFAULT_REPS: u32 = 3;
/// Parallel must beat serial by this factor to count as a crossover —
/// within-noise wins at tiny sizes are not a calibration signal.
const CROSSOVER_MARGIN: f64 = 1.05;

impl Calibration {
    /// Whether this host cannot support crossover claims (see module docs).
    pub fn degraded_host(&self) -> bool {
        crate::realbench::degraded_host(self.host_threads)
    }

    /// The `superoffload.calibration/v1` snapshot. Wall-clock fields use
    /// the `_secs` suffix so the compare gate treats them as host speed,
    /// not code quality.
    pub fn to_json(&self) -> String {
        JsonWriter::with_capacity(4096).document(Layout::Block, |doc| {
            doc.str("schema", "superoffload.calibration/v1")
                .num("host_threads", self.host_threads)
                .bool("degraded_host", self.degraded_host())
                .fixed("fma_peak_gflops", self.fma_peak_gflops, 3)
                .array("families", Layout::Block, |families| {
                    for f in &self.families {
                        families.object(Layout::Block, |o| {
                            o.str("name", f.family.name())
                                .num("default_threshold", f.default_threshold)
                                .num("effective_threshold", f.effective_threshold)
                                .num("crossover_work", f.crossover_work)
                                .array("points", Layout::Block, |points| {
                                    for p in &f.points {
                                        points.object(Layout::Inline, |o| {
                                            o.num("work", p.work)
                                                .fixed("serial_secs", p.serial_secs, 9)
                                                .fixed("parallel_secs", p.parallel_secs, 9);
                                        });
                                    }
                                });
                        });
                    }
                });
        })
    }
}

/// Restores every family threshold to the compiled-in default on drop, so
/// a panicking probe cannot leave the process with pinned thresholds.
struct ThresholdGuard;

impl Drop for ThresholdGuard {
    fn drop(&mut self) {
        for f in KernelFamily::ALL {
            set_family_threshold(f, 0);
        }
    }
}

/// Best-of-`reps` seconds for `op`, after one warm-up call.
fn best_of(reps: u32, mut op: impl FnMut()) -> f64 {
    op();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        op();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Vector rows of the FMA probe: `FMA_PROBE_ROWS × GEMM_NR` independent
/// chains (12 256-bit registers) — more than the eight that two FMA ports
/// at four cycles' latency keep busy, and few enough to stay in
/// registers without AVX-512's extra sixteen.
const FMA_PROBE_ROWS: usize = 6;
/// `mul_add` steps per chain per timed run (~38 MFLOP per run).
const FMA_PROBE_STEPS: usize = 200_000;

/// Per-thread compute ceiling: GFLOP/s (2 per `mul_add`) of
/// `FMA_PROBE_ROWS × GEMM_NR` independent `f32::mul_add` chains on the
/// calling thread, best of `reps`. The chains are laid out like the GEMM's
/// accumulator tile, so the figure is what its microkernel could issue
/// with no loads in the way.
pub fn fma_peak_gflops(reps: u32) -> f64 {
    let (scale, shift) = (std::hint::black_box(0.5f32), std::hint::black_box(0.25f32));
    let secs = best_of(reps, || {
        let mut acc = [[1.0f32; GEMM_NR]; FMA_PROBE_ROWS];
        for _ in 0..FMA_PROBE_STEPS {
            for row in acc.iter_mut() {
                for v in row.iter_mut() {
                    *v = v.mul_add(scale, shift);
                }
            }
        }
        std::hint::black_box(acc);
    });
    let flops = 2.0 * (FMA_PROBE_ROWS * GEMM_NR * FMA_PROBE_STEPS) as f64;
    flops / secs / 1e9
}

/// The representative kernel for one family at roughly `target` element-ops
/// of work. Returns `(actual work, op)` — the op is re-runnable so it can
/// be timed under both thread settings.
fn probe_op(family: KernelFamily, target: usize) -> (usize, Box<dyn FnMut()>) {
    match family {
        KernelFamily::Gemm => {
            // Square matmul: work = n·n·n.
            let n = (target as f64).cbrt().round().max(4.0) as usize;
            let mut rng = XorShiftRng::new(11);
            let a = Tensor::randn(&[n, n], 1.0, &mut rng);
            let b = Tensor::randn(&[n, n], 1.0, &mut rng);
            (
                n * n * n,
                Box::new(move || drop(a.matmul(&b).expect("gemm"))),
            )
        }
        KernelFamily::Attention => {
            // One-layer GPT forward sweeping sequence length; the head
            // loop estimates its work as heads·t·t·2·d. The projections
            // around it are pinned serial by the probe harness, so the
            // only dispatch decision measured is the head loop's.
            let cfg = GptConfig {
                vocab: 64,
                hidden: 64,
                layers: 1,
                heads: 4,
                max_seq: 256,
            };
            let (heads, d) = (cfg.heads, cfg.hidden / cfg.heads);
            let t = ((target / (heads * 2 * d)) as f64)
                .sqrt()
                .round()
                .clamp(4.0, cfg.max_seq as f64) as usize;
            let model = GptModel::new(cfg, 11);
            let x: Vec<usize> = (0..t).map(|i| (i * 7) % 64).collect();
            let y: Vec<usize> = (0..t).map(|i| (i * 7 + 1) % 64).collect();
            (
                heads * t * t * 2 * d,
                Box::new(move || drop(model.forward(&x, &y).expect("forward"))),
            )
        }
        KernelFamily::Softmax => {
            // Row softmax on m×64: work = m·n·8.
            let n = 64;
            let m = (target / (n * 8)).max(1);
            let mut rng = XorShiftRng::new(11);
            let x = Tensor::randn(&[m, n], 1.0, &mut rng);
            (
                m * n * 8,
                Box::new(move || drop(ops::softmax_rows(&x).expect("softmax"))),
            )
        }
        KernelFamily::LayerNorm => {
            // Layer norm on m×64: work = m·n·6.
            let n = 64;
            let m = (target / (n * 6)).max(1);
            let mut rng = XorShiftRng::new(11);
            let x = Tensor::randn(&[m, n], 1.0, &mut rng);
            let gamma = vec![1.0f32; n];
            let beta = vec![0.0f32; n];
            (
                m * n * 6,
                Box::new(move || drop(ops::layer_norm(&x, &gamma, &beta, 1e-5).expect("ln"))),
            )
        }
        KernelFamily::Elementwise => {
            // Streaming fused multiply-add over n floats: work = n. No
            // tensor op consults this threshold yet (element-wise tensor
            // passes are serial), so the probe drives the pool primitive
            // directly with element-wise arithmetic intensity.
            let n = target.max(64);
            let mut data = vec![1.0f32; n];
            (
                n,
                Box::new(move || {
                    let pool = Pool::current().limit_for_family(KernelFamily::Elementwise, n);
                    pool.par_row_chunks(&mut data, 64, |_first, block| {
                        for v in block {
                            *v = v.mul_add(1.000_1, 0.000_1);
                        }
                    });
                }),
            )
        }
        KernelFamily::Optimizer => {
            // GraceAdam step: work = n·ADAM_FLOPS_PER_PARAM.
            let n = (target / ADAM_FLOPS_PER_PARAM as usize).max(64);
            let cfg = AdamConfig::default();
            let mut p: Vec<f32> = (0..n).map(|i| (i as f32 * 0.001).sin()).collect();
            let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.002).cos() * 0.01).collect();
            let mut state = AdamState::new(n);
            let mut step = 0u64;
            (
                n * ADAM_FLOPS_PER_PARAM as usize,
                Box::new(move || {
                    step += 1;
                    GraceAdam::default().step(&cfg, step, &mut p, &g, &mut state);
                }),
            )
        }
    }
}

/// Probes one family over a geometric ladder up to `max_work`, with the
/// harness's threshold pinning in place (see module docs).
fn probe_family(family: KernelFamily, max_work: usize, reps: u32) -> FamilyCalibration {
    let default_threshold = family.default_threshold();
    let effective_threshold = family_threshold(family);

    let _restore = ThresholdGuard;
    for other in KernelFamily::ALL {
        set_family_threshold(other, usize::MAX);
    }
    set_family_threshold(family, 1);

    let mut points = Vec::new();
    let mut target = 2_048usize;
    while target <= max_work {
        let (work, mut op) = probe_op(family, target);
        let serial_secs = with_threads(1, || best_of(reps, &mut op));
        let parallel_secs = with_threads(0, || best_of(reps, &mut op));
        points.push(CalibrationPoint {
            work,
            serial_secs,
            parallel_secs,
        });
        target *= 4;
    }
    let crossover_work = points
        .iter()
        .find(|p| p.speedup() >= CROSSOVER_MARGIN)
        .map(|p| p.work);

    FamilyCalibration {
        family,
        default_threshold,
        effective_threshold,
        crossover_work,
        points,
    }
}

/// Runs the full sweep: every family, ladder up to `max_work`, timings
/// best-of-`reps`.
pub fn calibrate(max_work: usize, reps: u32) -> Calibration {
    Calibration {
        host_threads: crate::realbench::host_threads(),
        fma_peak_gflops: fma_peak_gflops(reps),
        families: KernelFamily::ALL
            .iter()
            .map(|&f| probe_family(f, max_work, reps))
            .collect(),
    }
}

/// CLI entry: `repro -- calibrate [--max-work <N>] [--reps <N>]`: prints
/// the calibration table and writes `calibration.json`.
///
/// # Errors
/// A CLI-ready message on a bad flag value or a failed write.
pub fn run(args: &[String]) -> Result<(), String> {
    let parse = |name| crate::cli::parse_flag(args, name, |v| str::parse::<u64>(v).ok());
    let max_work = parse("max-work")?.map_or(DEFAULT_MAX_WORK, |v| v as usize);
    let reps = parse("reps")?.map_or(DEFAULT_REPS, |v| v as u32);
    if max_work < 2_048 {
        return Err("--max-work must be at least 2048 element-ops".to_string());
    }
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    let cal = calibrate(max_work, reps);
    println!(
        "# Parallel-dispatch calibration (this host, {} hardware threads)",
        cal.host_threads
    );
    if cal.degraded_host() {
        println!(
            "single hardware thread: no crossover exists — the \"parallel\" \
             run is the serial path plus pool overhead (snapshot marked \
             degraded_host). Thresholds are left at the defaults."
        );
    }
    println!(
        "fma peak: {:.1} GFLOP/s per thread ({}-lane mul_add chains)",
        cal.fma_peak_gflops, GEMM_NR
    );
    println!(
        "{:<12} {:>11} {:>11}  verdict",
        "family", "default", "crossover"
    );
    for f in &cal.families {
        let (crossover, verdict) = match (cal.degraded_host(), f.crossover_work) {
            (true, _) => ("n/a".to_string(), "1-core host: keep default".to_string()),
            (false, None) => (
                "none".to_string(),
                "parallel never won on this ladder: consider raising".to_string(),
            ),
            (false, Some(w)) => {
                let v = if w <= f.default_threshold {
                    "default is conservative enough".to_string()
                } else {
                    format!("crossover above default: consider raising to ~{w}")
                };
                (w.to_string(), v)
            }
        };
        println!(
            "{:<12} {:>11} {:>11}  {}",
            f.family.name(),
            f.default_threshold,
            crossover,
            verdict
        );
    }
    println!(
        "(ladder up to {} element-ops, best of {} reps; SUPEROFFLOAD_THREADS \
         and set_family_threshold override at runtime)",
        max_work, reps
    );
    crate::cli::write_artifacts(&[("calibration.json", cal.to_json())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_sweep_covers_every_family_and_restores_thresholds() {
        let _cpu = crate::cpu_heavy_test_guard();
        let cal = calibrate(8_192, 1);
        assert_eq!(cal.families.len(), tensorlite::pool::N_KERNEL_FAMILIES);
        for f in &cal.families {
            assert!(!f.points.is_empty(), "{} has no points", f.family.name());
            assert!(
                f.points.windows(2).all(|w| w[0].work <= w[1].work),
                "{} ladder not ascending",
                f.family.name()
            );
            assert!(f.points.iter().all(|p| p.serial_secs > 0.0));
            // The probe pins thresholds but must restore the defaults.
            assert_eq!(family_threshold(f.family), f.family.default_threshold());
        }
    }

    #[test]
    fn calibration_json_has_schema_and_gate_safe_fields() {
        let _cpu = crate::cpu_heavy_test_guard();
        let cal = calibrate(2_048, 1);
        let json = cal.to_json();
        assert!(json.contains("\"schema\": \"superoffload.calibration/v1\""));
        assert!(json.contains("\"degraded_host\""));
        assert!(json.contains("\"crossover_work\""));
        assert!(json.contains("\"fma_peak_gflops\""));
        // Wall-clock fields must use the `_secs` suffix the compare gate
        // skips on degraded hosts.
        assert!(json.contains("serial_secs"));
        assert!(!json.contains("serial_time\""));
        for f in KernelFamily::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", f.name())));
        }
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(run(&["--max-work".into(), "10".into()]).is_err());
        assert!(run(&["--reps".into(), "0".into()]).is_err());
    }
}
