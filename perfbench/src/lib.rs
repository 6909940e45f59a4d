//! End-to-end and per-layer benchmark of the SuperOffload reproduction.
//!
//! One command runs a named workload from a seed, checks that every output
//! is correct, and reports every end-to-end metric by name with its unit
//! (`--trace 0`), or every per-layer metric measured by spans around the
//! calls into each layer (`--trace 1`). Four workloads cover both planes:
//!
//! * `sim-search` and `sim-observe` drive the simulator plane (schedule
//!   builders, the event engine, the analyzer, artifact writers and the
//!   JSON parser) — see [`sim`];
//! * `train-stv` and `train-wide` drive the numeric plane (trainer, STV or
//!   synchronous engine, tensor kernels, worker pool) — see [`train`].
//!
//! `perfbench/README.md` explains why each workload exists and which
//! end-to-end metric each layer metric should move.

pub mod sim;
pub mod spans;
pub mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tensorlite::OpKind;

/// The seed whose outputs are pinned by the golden digests.
pub const DEFAULT_SEED: u64 = 1;

/// Golden digests of the default seed, one `workload key digest` per line.
pub const GOLDEN: &str = include_str!("../golden/default_seed.txt");

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.3 retention search at one rank over the Appendix-A ladder.
    SimSearch,
    /// Every registry system at four ranks through the full observe path.
    SimObserve,
    /// Small-tensor training under speculation-then-validation.
    TrainStv,
    /// GEMM-bound synchronous training with bf16 storage.
    TrainWide,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimSearch,
        Workload::SimObserve,
        Workload::TrainStv,
        Workload::TrainWide,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSearch => "sim-search",
            Workload::SimObserve => "sim-observe",
            Workload::TrainStv => "train-stv",
            Workload::TrainWide => "train-wide",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. An "operation" is one simulated configuration on the sim
/// workloads and one `Trainer::step` on the train workloads; an "item" is
/// one task of a returned simulation trace or one trained token.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` reported by traced runs of every
/// workload; a layer the workload does not call reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 34] = [
        ("schedule.calls", "count"),
        ("schedule.busy_s", "s"),
        ("schedule.infeasible", "count"),
        ("schedule.search_amplification", "ratio"),
        ("schedule.pinned_busy_s", "s"),
        ("baselines.calls", "count"),
        ("baselines.busy_s", "s"),
        ("baselines.infeasible", "count"),
        ("superchip_sim.engine.submit_s", "s"),
        ("superchip_sim.engine.run_s", "s"),
        ("superchip_sim.engine.tasks", "count"),
        ("superchip_sim.engine.tasks_per_s", "1/s"),
        ("analysis.analyze_s", "s"),
        ("analysis.diff_s", "s"),
        ("analysis.tasks_per_s", "1/s"),
        ("chrome_trace.emit_s", "s"),
        ("chrome_trace.bytes", "B"),
        ("events.emit_s", "s"),
        ("events.bytes", "B"),
        ("report.snapshot_s", "s"),
        ("report.bytes", "B"),
        ("telemetry.parse_s", "s"),
        ("telemetry.parse_mb_per_s", "MB/s"),
        ("telemetry.validate_s", "s"),
        ("trainer.steps", "count"),
        ("trainer.busy_s", "s"),
        ("trainer.rollback_ratio", "ratio"),
        ("trainer.unattributed_s", "s"),
        ("superoffload.engine.speculate_s", "s"),
        ("superoffload.engine.validate_s", "s"),
        ("superoffload.engine.rollback_s", "s"),
        ("superoffload.engine.optimizer_s", "s"),
        ("pool.regions", "count"),
        ("pool.worker_util", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in OpKind::ALL {
        out.push((format!("kernel.{}.calls", kind.name()), "count"));
        out.push((format!("kernel.{}.busy_s", kind.name()), "s"));
        out.push((format!("kernel.{}.gflops", kind.name()), "GFLOP/s"));
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out.push(("trace.spans".to_string(), "count"));
    out
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed the inputs are drawn from.
    pub seed: u64,
    /// Measured seconds (split evenly between an untraced and a traced
    /// phase when `trace` is on).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Golden digests, checked when `seed` is [`DEFAULT_SEED`].
    pub golden: Golden,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, with the first failure messages.
    pub checks: Checks,
    /// Reported metrics `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Supplementary figures (sample counts, plane-specific names).
    pub details: Vec<(String, f64)>,
    /// The output digest of every distinct operation, `(key, digest)`.
    pub digests: Vec<(String, String)>,
    /// The recorded spans of a traced run.
    pub tracer: Option<spans::Tracer>,
}

/// Runs a workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::SimSearch | Workload::SimObserve => {
            sim::run(cfg, &sim::cases(cfg.workload, cfg.seed))
        }
        Workload::TrainStv | Workload::TrainWide => train::run(cfg, &train::Spec::of(cfg.workload)),
    }
}

/// Correctness ledger: every operation counts as attempted, and as failed
/// when any of its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one operation; `problems` lists what it got wrong.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.messages.len() < 20 {
                    self.messages.push(p);
                }
            }
        }
    }
}

/// 64-bit FNV-1a digest, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Golden output digests keyed by `(workload, key)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden(BTreeMap<(String, String), String>);

impl Golden {
    /// Parses `workload key digest` lines; blank lines and `#` comments
    /// are skipped.
    ///
    /// # Errors
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, digest] = fields[..] else {
                return Err(format!("golden line {}: expected 3 fields: {line}", i + 1));
            };
            map.insert((workload.to_string(), key.to_string()), digest.to_string());
        }
        Ok(Golden(map))
    }

    /// The committed digests of the default seed.
    pub fn committed() -> Golden {
        Golden::parse(GOLDEN).expect("committed golden digests parse")
    }

    /// The pinned digest of `key`, if any.
    pub fn get(&self, workload: Workload, key: &str) -> Option<&str> {
        self.0
            .get(&(workload.name().to_string(), key.to_string()))
            .map(String::as_str)
    }

    /// Replaces the pinned digest of `key` (used to build corrupted tables
    /// in tests).
    pub fn insert(&mut self, workload: Workload, key: &str, digest: &str) {
        self.0.insert(
            (workload.name().to_string(), key.to_string()),
            digest.to_string(),
        );
    }

    /// Checks `digest` of `key` when the run uses the default seed; returns
    /// the problem, if any.
    pub fn check(&self, cfg: &RunConfig, key: &str, digest: &str) -> Option<String> {
        if cfg.seed != DEFAULT_SEED {
            return None;
        }
        match self.get(cfg.workload, key) {
            Some(want) if want == digest => None,
            Some(want) => Some(format!("{key}: digest {digest} != golden {want}")),
            None => Some(format!("{key}: no golden digest for the default seed")),
        }
    }
}

/// Percentile (`q` in `[0, 1]`) of unsorted samples, interpolated
/// linearly between the two nearest ranks, so that a heterogeneous set
/// (one time per configuration) does not jump between neighbours.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Reads a `kB` field of `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Seconds [`reference_work`] takes on the 2-vCPU host the baseline was
/// measured on, in a quiet period. Timings are reported scaled to it.
pub const REFERENCE_NOMINAL_S: f64 = 0.017;

/// One fixed piece of host work: a binary-heap event queue, f64
/// arithmetic, string formatting and allocation, in under 100 KB so that
/// it does not show in `peak_rss_mb`. It is written here rather than taken
/// from the program, so no change to the program moves it.
fn reference_work() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut rng = tensorlite::XorShiftRng::new(0x0005_EED0);
    let mut acc = 0.0f64;
    let mut text = String::with_capacity(1 << 15);
    for _ in 0..16 {
        let mut heap = BinaryHeap::with_capacity(4096);
        for i in 0..4096 {
            heap.push(Reverse((rng.next_u64() >> 12, i)));
        }
        while let Some(Reverse((t, i))) = heap.pop() {
            acc += (t as f64).sqrt();
            if text.len() > 30_000 {
                text.clear();
            }
            let _ = write!(text, "{{\"id\":{i},\"t\":{acc}}},");
        }
    }
    std::hint::black_box((acc, text.len()));
}

/// The host's current speed relative to the baseline host: the nominal
/// reference time over the reference time measured now, with the work run
/// on `threads` threads at once (as many as the workload computes on, so
/// that a stolen or contended CPU slows the reference as it slows the
/// workload).
///
/// The host the benchmark was built on drifts by tens of percent over
/// minutes; an operation's time multiplied by this factor is its time on
/// the baseline host, which is what the end-to-end metrics report.
pub fn host_speed(threads: usize) -> f64 {
    let t0 = std::time::Instant::now();
    if threads <= 1 {
        reference_work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(reference_work);
            }
        });
    }
    REFERENCE_NOMINAL_S / t0.elapsed().as_secs_f64()
}

/// Seconds the hypervisor has held this machine's CPUs away from it since
/// boot (the `steal` column of `/proc/stat`, in 1/100 s ticks), or 0
/// where it is not reported. Its growth over a run shows host noise that
/// no change to the program can cause.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// CPUs this process may run on (what `nproc` prints): the size of
/// `Cpus_allowed_list` in `/proc/self/status`.
pub fn nproc() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return available_parallelism();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return available_parallelism();
    };
    list.trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum::<usize>()
        .max(1)
}

/// `std::thread::available_parallelism`, 1 on error.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Provenance stamped into every result.
pub fn provenance_json(cfg: &RunConfig) -> String {
    let threads = available_parallelism();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"run_seconds\":{},\"trace\":{},\
         \"nproc\":{},\"available_parallelism\":{},\"degraded_host\":{},\
         \"git_commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\"}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        nproc(),
        threads,
        threads < 2,
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. Non-finite values are written as 0 and mark the run incorrect.
pub fn result_json(outcome: &Outcome) -> String {
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0 && finite,
        outcome.checks.attempted,
        outcome.checks.failed,
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// The supplementary figures and first failure messages as one JSON
/// object.
pub fn details_json(outcome: &Outcome) -> String {
    let mut s = String::from("{");
    for (name, value) in &outcome.details {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "\"{name}\":{value},");
    }
    s.push_str("\"failures\":[");
    for (i, m) in outcome.checks.messages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", superchip_sim::telemetry::escape_json(m));
    }
    s.push_str("]}");
    s
}

/// Assembles the reported metrics of a run: the end-to-end set when
/// untraced, otherwise every per-layer metric (0 where `layers` has no
/// value).
pub fn report_metrics(
    trace: bool,
    e2e: [f64; 6],
    layers: &BTreeMap<String, f64>,
) -> Vec<(String, f64, &'static str)> {
    if trace {
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[10.0, 0.0], 0.25), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn golden_checks_only_the_default_seed() {
        let mut g = Golden::default();
        g.insert(Workload::SimSearch, "k", "00");
        let mut cfg = RunConfig {
            workload: Workload::SimSearch,
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
            golden: g.clone(),
        };
        assert!(g.check(&cfg, "k", "00").is_none());
        assert!(g.check(&cfg, "k", "01").is_some());
        assert!(g.check(&cfg, "missing", "01").is_some());
        cfg.seed = DEFAULT_SEED + 1;
        assert!(g.check(&cfg, "k", "01").is_none());
    }

    #[test]
    fn metric_names_fit_the_result_format() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer_metrics().into_iter().map(|(n, _)| n))
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
