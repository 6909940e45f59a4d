//! The `repro -- compare <baseline.json> <current.json>` subcommand: diff
//! two analysis / metrics / bench snapshots and exit non-zero when a metric
//! regresses beyond a tolerance.
//!
//! Works on any of the repo's snapshot formats
//! (`superoffload.analysis/v1`, `superoffload.metrics/v1`,
//! `BENCH_realplane.json`): both files are parsed with
//! [`superchip_sim::telemetry::parse_json`], every numeric leaf is flattened
//! to a dotted path, and paths present in both snapshots are compared.
//!
//! ## Direction rules
//!
//! A metric only gates if its path says which direction is better:
//!
//! * **lower is better** — paths containing `idle`, `makespan`, `stall`,
//!   `-us` / `_us` / `secs` time suffixes, or `iter-time`: a regression is
//!   `current > baseline × (1 + tolerance)`.
//! * **higher is better** — paths containing `tflops`, `gflops`, `gbs`,
//!   `mfu`, `util`,
//!   `speedup`, `tokens_per_sec`, or `bandwidth`: a regression is
//!   `current < baseline × (1 − tolerance)`.
//! * anything else is reported as drift but never gates.
//!
//! A numeric path present in the baseline but missing from the current
//! snapshot is always a regression (silent coverage loss). If either
//! snapshot carries `"degraded_host": true` (written by `repro -- realbench`
//! and `repro -- roofline` on single-core hosts), `speedup` /
//! `tokens_per_sec` / `parallel` / `util` / `pct-of-peak` metrics are
//! skipped — a one-thread host cannot demonstrate parallel speedup or
//! utilization, so the 0.79× it measures is an artifact, not a regression.
//! Wall-clock measurements (`*_secs`) and wall-clock-derived rates
//! (`gflops`, `gbs`) are skipped too under the same marker: they compare
//! host speed, not code quality. Deterministic simulated-time `*_us`
//! metrics and the op/byte ledger always gate.
//!
//! The default tolerance is 2% ([`DEFAULT_TOLERANCE`]) — the snapshots are
//! deterministic simulated time, so byte-identical inputs always report
//! zero regressions, and the tolerance only absorbs intentional small model
//! recalibrations.

use superchip_sim::telemetry::{parse_json, JsonValue, JsonWriter, Layout};

/// Relative tolerance used when the CLI does not pass `--tolerance`:
/// a metric may move 2% in the worse direction before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Schema identifier stamped into the machine-readable verdict written by
/// `repro -- compare --out <path>`.
pub const COMPARE_SCHEMA: &str = "superoffload.compare/v1";

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time-like: a regression is moving up beyond the tolerance.
    LowerIsBetter,
    /// Throughput-like: a regression is moving down beyond the tolerance.
    HigherIsBetter,
    /// Reported as drift, never gates.
    Informational,
}

impl Direction {
    /// Stable kebab-case name used in the verdict artifact.
    pub fn name(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower-is-better",
            Direction::HigherIsBetter => "higher-is-better",
            Direction::Informational => "informational",
        }
    }
}

/// Classifies a flattened metric path into its gating direction (see the
/// module docs for the pattern rules).
pub fn direction_of(path: &str) -> Direction {
    let p = path.to_ascii_lowercase();
    // Critical-path step listings are positional detail (task ids, start
    // offsets): interesting to diff, wrong to gate on.
    if p.contains("top_steps") || p.contains(".task") {
        return Direction::Informational;
    }
    // Higher-is-better patterns first: "util" would otherwise never match
    // after the broad time-suffix checks below.
    for pat in [
        "tflops",
        "gflops",
        "gbs",
        "mfu",
        "util",
        "speedup",
        "tokens_per_sec",
        "bandwidth",
    ] {
        if p.contains(pat) {
            return Direction::HigherIsBetter;
        }
    }
    for pat in [
        "idle",
        "makespan",
        "stall",
        "iter-time",
        "_us",
        "-us",
        "secs",
    ] {
        if p.contains(pat) {
            return Direction::LowerIsBetter;
        }
    }
    Direction::Informational
}

/// Flattens every numeric leaf of a snapshot into `(dotted path, value)`
/// pairs. Array elements are keyed by their `name` / `resource` / `system` /
/// `label` member when present (so reordering a resource list does not
/// invalidate a baseline), falling back to the numeric index.
pub fn flatten_numbers(v: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &JsonValue, path: String, out: &mut Vec<(String, f64)>) {
    let join = |path: &str, seg: &str| {
        if path.is_empty() {
            seg.to_string()
        } else {
            format!("{path}.{seg}")
        }
    };
    match v {
        JsonValue::Num(n) => out.push((path, *n)),
        JsonValue::Obj(members) => {
            for (k, val) in members {
                walk(val, join(&path, k), out);
            }
        }
        JsonValue::Arr(items) => {
            let keys: Vec<String> = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    ["name", "resource", "system", "label"]
                        .iter()
                        .find_map(|k| item.get(k).and_then(JsonValue::as_str))
                        .map_or_else(|| i.to_string(), str::to_string)
                })
                .collect();
            for (i, item) in items.iter().enumerate() {
                // A `name` key is only a stable address if it is unique in
                // this array; duplicate keys fall back to positional form so
                // distinct elements never collide in the flattened map.
                let unique = keys.iter().filter(|k| **k == keys[i]).count() == 1;
                let seg = if unique {
                    keys[i].clone()
                } else {
                    format!("{}#{i}", keys[i])
                };
                walk(item, join(&path, &seg), out);
            }
        }
        _ => {}
    }
}

/// Whether either snapshot declares itself as coming from a host that
/// cannot support parallel-speedup claims.
fn degraded_host(v: &JsonValue) -> bool {
    v.get("degraded_host").and_then(JsonValue::as_bool) == Some(true)
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Dotted path of the metric.
    pub path: String,
    /// Baseline value (`None` when the metric is new).
    pub baseline: Option<f64>,
    /// Current value (`None` when the metric disappeared).
    pub current: Option<f64>,
    /// Whether this delta fails the gate.
    pub regression: bool,
}

/// Outcome of comparing two snapshots.
#[derive(Debug, Clone)]
pub struct CompareResult {
    /// Gating failures, in baseline path order.
    pub regressions: Vec<Delta>,
    /// Non-gating drifts (informational metrics, or in-tolerance moves of
    /// gating metrics that still changed value).
    pub drifts: Vec<Delta>,
    /// Metrics skipped because a snapshot is marked `degraded_host`.
    pub skipped: usize,
    /// Metrics compared (present in both snapshots).
    pub compared: usize,
}

impl CompareResult {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares two snapshot documents (already parsed). See the module docs
/// for the direction rules and the `degraded_host` escape hatch.
pub fn compare_values(baseline: &JsonValue, current: &JsonValue, tolerance: f64) -> CompareResult {
    let skip_parallel = degraded_host(baseline) || degraded_host(current);
    let base = flatten_numbers(baseline);
    let cur = flatten_numbers(current);
    let cur_map: std::collections::BTreeMap<&str, f64> =
        cur.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let mut result = CompareResult {
        regressions: Vec::new(),
        drifts: Vec::new(),
        skipped: 0,
        compared: 0,
    };
    for (path, b) in &base {
        let parallel_metric = {
            let p = path.to_ascii_lowercase();
            p.contains("speedup")
                || p.contains("tokens_per_sec")
                || p.contains("parallel")
                // Roofline claims: worker utilization and percent-of-peak
                // are equally meaningless on a one-thread host.
                || p.contains("util")
                || p.contains("pct-of-peak")
                // Raw wall-clock measurements and wall-clock-derived rates
                // (realbench `*_secs`, roofline `gflops`/`gbs`) are host
                // speed, not code quality: comparing a laptop's seconds to a
                // CI runner's seconds gates on hardware. Simulated-time
                // `*_us` metrics stay — they are deterministic.
                || p.contains("secs")
                || p.contains("gflops")
                || p.contains("gbs")
        };
        if skip_parallel && parallel_metric {
            result.skipped += 1;
            continue;
        }
        let Some(&c) = cur_map.get(path.as_str()) else {
            result.regressions.push(Delta {
                path: path.clone(),
                baseline: Some(*b),
                current: None,
                regression: true,
            });
            continue;
        };
        result.compared += 1;
        if c == *b {
            continue;
        }
        let worse = match direction_of(path) {
            Direction::LowerIsBetter => c > b * (1.0 + tolerance) + f64::EPSILON,
            Direction::HigherIsBetter => c < b * (1.0 - tolerance) - f64::EPSILON,
            Direction::Informational => false,
        };
        let delta = Delta {
            path: path.clone(),
            baseline: Some(*b),
            current: Some(c),
            regression: worse,
        };
        if worse {
            result.regressions.push(delta);
        } else {
            result.drifts.push(delta);
        }
    }
    result
}

/// Compares two snapshot files.
///
/// # Errors
/// A CLI-ready message when a file cannot be read or parsed.
pub fn compare_files(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
) -> Result<CompareResult, String> {
    let read_parse = |path: &str| -> Result<JsonValue, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_json(&body).map_err(|e| format!("{path} is not valid JSON: {e}"))
    };
    let baseline = read_parse(baseline_path)?;
    let current = read_parse(current_path)?;
    Ok(compare_values(&baseline, &current, tolerance))
}

/// Renders the machine-readable [`COMPARE_SCHEMA`] verdict for one compare
/// run: the gate inputs, the outcome, and every regression/drift with its
/// gating direction. Deterministic given deterministic inputs.
pub fn verdict_json(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
    result: &CompareResult,
) -> String {
    JsonWriter::with_capacity(4096).document(Layout::Block, |doc| {
        doc.str("schema", COMPARE_SCHEMA)
            .str("baseline", baseline_path)
            .str("current", current_path)
            .num("tolerance", tolerance)
            .bool("passed", result.passed())
            .num("compared", result.compared)
            .num("skipped", result.skipped);
        for (key, deltas) in [
            ("regressions", &result.regressions),
            ("drifts", &result.drifts),
        ] {
            doc.array(key, Layout::Block, |a| {
                for d in deltas {
                    a.object(Layout::Inline, |o| {
                        o.str("name", &d.path)
                            .str("direction", direction_of(&d.path).name())
                            .num("baseline", d.baseline)
                            .num("current", d.current)
                            .bool("regression", d.regression);
                    });
                }
            });
        }
    })
}

/// Entry point for `repro -- compare <baseline> <current> [--tolerance t]
/// [--out <path>]`. Prints a summary, writes the [`COMPARE_SCHEMA`] verdict
/// to `--out` (pass or fail — CI uploads it either way), and returns `Err`
/// (non-zero exit for the CLI) when any metric regresses beyond the
/// tolerance.
///
/// # Errors
/// A CLI-ready message on missing paths, a bad flag value, I/O / parse
/// failure, or when the gate fails.
pub fn run(args: &[String]) -> Result<(), String> {
    let (Some(baseline_path), Some(current_path)) = (args.first(), args.get(1)) else {
        return Err("usage: repro compare <baseline.json> <current.json> \
                    [--tolerance <frac>] [--out <path>]"
            .into());
    };
    let tolerance = match crate::cli::parse_flag(args, "tolerance", |v| v.parse::<f64>().ok())? {
        None => DEFAULT_TOLERANCE,
        Some(t) if t >= 0.0 => t,
        Some(_) => return Err("--tolerance needs a non-negative fraction, e.g. 0.02".into()),
    };
    let out = crate::cli::parse_flag(args, "out", |v| Some(v.to_string()))?;
    let result = compare_files(baseline_path, current_path, tolerance)?;
    println!(
        "# Compare: {current_path} vs baseline {baseline_path} (tolerance {:.1}%)",
        tolerance * 100.0
    );
    println!(
        "compared {} metrics, {} skipped (degraded host), {} drifted in-tolerance",
        result.compared,
        result.skipped,
        result.drifts.len()
    );
    for d in result.drifts.iter().take(10) {
        println!(
            "  drift {:<52} {} -> {}",
            d.path,
            d.baseline.unwrap_or(f64::NAN),
            d.current.unwrap_or(f64::NAN)
        );
    }
    if let Some(path) = out {
        // Written pass or fail: CI uploads the verdict from failed gates too.
        let json = verdict_json(baseline_path, current_path, tolerance, &result);
        crate::cli::write_artifacts(&[(path, json)])?;
    }
    if result.passed() {
        println!("OK: no regressions beyond tolerance");
        Ok(())
    } else {
        for d in &result.regressions {
            match d.current {
                Some(c) => println!(
                    "  REGRESSION {:<45} {} -> {c}",
                    d.path,
                    d.baseline.unwrap_or(f64::NAN)
                ),
                None => println!(
                    "  REGRESSION {:<45} {} -> (missing)",
                    d.path,
                    d.baseline.unwrap_or(f64::NAN)
                ),
            }
        }
        // When both snapshots are analysis snapshots, drill down: show where
        // the makespan delta lives (per stall class) before failing the gate.
        if let Some(breakdown) = crate::diff::file_delta_breakdown(baseline_path, current_path) {
            println!("\n{breakdown}");
            println!(
                "(full causal attribution: repro -- diff <system> <system> \
                 writes a superoffload.diff/v1 artifact)"
            );
        }
        Err(format!(
            "{} metric(s) regressed beyond {:.1}% tolerance",
            result.regressions.len(),
            tolerance * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::telemetry::validate_json;

    fn v(s: &str) -> JsonValue {
        parse_json(s).unwrap()
    }

    #[test]
    fn identical_snapshots_report_zero_regressions() {
        let snap = v(r#"{"makespan_us": 100, "stalls": {"total_idle_us": 40}, "x": 1.5}"#);
        let r = compare_values(&snap, &snap, DEFAULT_TOLERANCE);
        assert!(r.passed());
        assert!(r.drifts.is_empty());
        assert_eq!(r.compared, 3);
    }

    #[test]
    fn lower_is_better_regresses_upward_only() {
        let base = v(r#"{"makespan_us": 100}"#);
        let worse = v(r#"{"makespan_us": 103}"#);
        let better = v(r#"{"makespan_us": 90}"#);
        let within = v(r#"{"makespan_us": 101}"#);
        assert!(!compare_values(&base, &worse, 0.02).passed());
        assert!(compare_values(&base, &better, 0.02).passed());
        assert!(compare_values(&base, &within, 0.02).passed());
    }

    #[test]
    fn higher_is_better_regresses_downward_only() {
        let base = v(r#"{"report.tflops": 100}"#);
        let worse = v(r#"{"report.tflops": 95}"#);
        let better = v(r#"{"report.tflops": 120}"#);
        assert!(!compare_values(&base, &worse, 0.02).passed());
        assert!(compare_values(&base, &better, 0.02).passed());
    }

    #[test]
    fn informational_metrics_never_gate() {
        let base = v(r#"{"critical_path": {"tasks": 40}}"#);
        let moved = v(r#"{"critical_path": {"tasks": 80}}"#);
        let r = compare_values(&base, &moved, 0.02);
        assert!(r.passed());
        assert_eq!(r.drifts.len(), 1);
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let base = v(r#"{"makespan_us": 100, "extra_us": 5}"#);
        let cur = v(r#"{"makespan_us": 100}"#);
        let r = compare_values(&base, &cur, 0.02);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].path, "extra_us");
        assert_eq!(r.regressions[0].current, None);
    }

    #[test]
    fn degraded_host_skips_parallel_claims() {
        let base =
            v(r#"{"degraded_host": false, "train_step": {"speedup": 1.9, "serial_secs": 1.0}}"#);
        let degraded =
            v(r#"{"degraded_host": true, "train_step": {"speedup": 0.79, "serial_secs": 9.0}}"#);
        // Without the marker this would be a 58% speedup regression and a
        // 9x wall-clock regression; both are host artifacts.
        let r = compare_values(&base, &degraded, 0.02);
        assert!(r.passed(), "{:?}", r.regressions);
        assert!(r.skipped >= 2);
        // Deterministic simulated time still gates even on a degraded host.
        let base_us = v(r#"{"degraded_host": false, "makespan_us": 100.0}"#);
        let slower = v(r#"{"degraded_host": true, "makespan_us": 150.0}"#);
        assert!(!compare_values(&base_us, &slower, 0.02).passed());
    }

    #[test]
    fn degraded_host_skips_wall_clock_rates() {
        // gflops/gbs are wall-clock-derived: skipped under the marker,
        // gating without it.
        let base = v(r#"{"degraded_host": false, "kernels": [
                {"name": "matmul", "gflops": 50.0, "gbs": 12.0}]}"#);
        let slow = v(r#"{"degraded_host": true, "kernels": [
                {"name": "matmul", "gflops": 3.0, "gbs": 1.0}]}"#);
        let r = compare_values(&base, &slow, 0.02);
        assert!(r.passed(), "{:?}", r.regressions);
        assert!(r.skipped >= 2);
        let slow_healthy = v(r#"{"degraded_host": false, "kernels": [
                {"name": "matmul", "gflops": 3.0, "gbs": 1.0}]}"#);
        assert!(!compare_values(&base, &slow_healthy, 0.02).passed());
    }

    #[test]
    fn degraded_host_skips_roofline_claims() {
        // Roofline snapshots from one-thread hosts: utilization and
        // percent-of-peak collapse, but the exact ledger still gates.
        let base = v(r#"{"degraded_host": false, "total-flops": 100,
                "kernels": [{"name": "matmul", "pct-of-peak-flops": 40.0}],
                "workers": [{"name": "w0", "utilization": 0.9}]}"#);
        let degraded = v(r#"{"degraded_host": true, "total-flops": 100,
                "kernels": [{"name": "matmul", "pct-of-peak-flops": 2.0}],
                "workers": [{"name": "w0", "utilization": 0.05}]}"#);
        let r = compare_values(&base, &degraded, 0.02);
        assert!(r.passed(), "{:?}", r.regressions);
        assert!(r.skipped >= 2, "both roofline claims skipped: {r:?}");
    }

    #[test]
    fn array_elements_key_by_name() {
        let base =
            v(r#"{"resources": [{"name": "gpu", "idle_us": 10}, {"name": "cpu", "idle_us": 50}]}"#);
        // Same values, reordered: no regression.
        let reordered =
            v(r#"{"resources": [{"name": "cpu", "idle_us": 50}, {"name": "gpu", "idle_us": 10}]}"#);
        assert!(compare_values(&base, &reordered, 0.0).passed());
        let flat = flatten_numbers(&base);
        assert!(flat.iter().any(|(k, _)| k == "resources.gpu.idle_us"));
    }

    #[test]
    fn duplicate_array_keys_do_not_collide() {
        // All steps share resource "gpu" (as real top_steps listings do):
        // identical docs must flatten identically and report nothing.
        let snap = v(r#"{"top_steps": [{"resource": "gpu", "start_us": 0},
                               {"resource": "gpu", "start_us": 500}]}"#);
        let r = compare_values(&snap, &snap, 0.0);
        assert!(r.passed(), "{:?}", r.regressions);
        assert!(r.drifts.is_empty());
        assert_eq!(r.compared, 2);
        let flat = flatten_numbers(&snap);
        assert!(flat.iter().any(|(k, _)| k == "top_steps.gpu#0.start_us"));
    }

    #[test]
    fn top_steps_detail_never_gates() {
        let base = v(r#"{"critical_path": {"top_steps": [{"resource": "gpu", "start_us": 10}]}}"#);
        let moved = v(r#"{"critical_path": {"top_steps": [{"resource": "gpu", "start_us": 99}]}}"#);
        let r = compare_values(&base, &moved, 0.0);
        assert!(r.passed());
        assert_eq!(r.drifts.len(), 1);
    }

    #[test]
    fn verdict_json_carries_directions_and_outcome() {
        let base = v(r#"{"makespan_us": 100, "report.tflops": 50, "gone_us": 5}"#);
        let cur = v(r#"{"makespan_us": 150, "report.tflops": 55}"#);
        let result = compare_values(&base, &cur, 0.02);
        assert!(!result.passed());
        let json = verdict_json("base.json", "cur.json", 0.02, &result);
        validate_json(&json).unwrap();
        assert!(json.contains(COMPARE_SCHEMA), "{json}");
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"tolerance\": 0.02"));
        // The slower makespan gates with its direction; the missing metric
        // reports a null current side.
        assert!(json.contains(
            "\"name\": \"makespan_us\", \"direction\": \"lower-is-better\", \"baseline\": 100, \
             \"current\": 150, \"regression\": true"
        ));
        assert!(json.contains(
            "\"name\": \"gone_us\", \"direction\": \"lower-is-better\", \"baseline\": 5, \
             \"current\": null, \"regression\": true"
        ));
        // The tflops improvement lands in drifts with its direction.
        assert!(json.contains(
            "\"name\": \"report.tflops\", \"direction\": \"higher-is-better\", \"baseline\": 50, \
             \"current\": 55, \"regression\": false"
        ));
        // Verdicts are deterministic.
        assert_eq!(json, verdict_json("base.json", "cur.json", 0.02, &result));
        // A clean pass still writes a verdict (empty arrays stay valid).
        let clean = compare_values(&base, &base, 0.02);
        let ok = verdict_json("base.json", "base.json", 0.02, &clean);
        validate_json(&ok).unwrap();
        assert!(ok.contains("\"passed\": true"));
        assert!(ok.contains("\"regressions\": []"));
    }
}
