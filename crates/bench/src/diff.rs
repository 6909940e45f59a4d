//! The `repro -- diff <run-a> <run-b>` subcommand: causal comparison of
//! two runs with regression attribution.
//!
//! Any pair of runs diffs: two systems on the smoke workload
//! (`repro -- diff superoffload zero-offload`), the same system under two
//! fleet skew seeds (`--seed-a 1 --seed-b 2`), or different fleet sizes via
//! `--nodes`. Tasks are aligned across the two runs by **stable identity**
//! — `(resource name, tag, label, occurrence index in start order)` — never
//! by task id, so reorderings and system-level schedule changes still line
//! up repeated steps correctly (see `superchip_sim::analysis::TaskKey`).
//!
//! The attribution is conservation-exact: for every resource, the aligned
//! task deltas reproduce the busy delta bit-exactly, the stall-class deltas
//! partition the idle delta bit-exactly, and busy + idle deltas reproduce
//! the makespan delta — so every microsecond of "run B is slower" is
//! charged to a named task or a named stall class, with nothing left over
//! (property-tested in `tests/proptest_analysis.rs`).
//!
//! Three byte-deterministic artifacts per invocation:
//!
//! - `diff_<a>_vs_<b>.json` — the versioned [`DIFF_SCHEMA`] snapshot:
//!   per-resource delta partitions, critical-path churn, top regression
//!   contributors, §9 what-if bounds, and bucket-by-bucket telemetry
//!   histogram deltas;
//! - `diff_<a>_vs_<b>.trace.json` — a Perfetto-loadable trace with both
//!   runs interleaved on aligned per-node tracks (run A on even pids, run
//!   B on odd), so the divergence point is visible by eye;
//! - `diff_<a>_vs_<b>.html` — a self-contained side-by-side report: delta
//!   waterfall, per-resource table, stall-class partition, and the
//!   critical-path churn table. No external resources.

use std::fmt::Write as _;
use std::path::Path;

use superchip_sim::analysis::{
    diff_analyses, AnalysisDiff, EdgeChange, ANALYSIS_SCHEMA, STALL_CLASSES,
};
use superchip_sim::chrome_trace::side_by_side_chrome_trace;
use superchip_sim::telemetry::{
    diff_metrics, parse_json, JsonObject, JsonValue, JsonWriter, Layout, MetricsDiff,
    MetricsRecorder,
};
use superchip_sim::Trace;

use crate::cli::{parse_flag, parse_out_dir};
use crate::fleetview;
use crate::journal::{fmt_short, stat_tile, DASHBOARD_CSS};

/// Schema identifier stamped into the diff snapshot artifact.
pub const DIFF_SCHEMA: &str = "superoffload.diff/v1";

/// How many top regression contributors the snapshot and report carry.
pub const TOP_CONTRIBUTORS: usize = 20;

/// Cap on churned critical-path edges listed in the snapshot and report.
pub const MAX_CHURN_ROWS: usize = 64;

/// Parsed flags for the diff subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffArgs {
    /// Run A's system name, pre-normalization spelling.
    pub system_a: String,
    /// Run B's system name, pre-normalization spelling.
    pub system_b: String,
    /// Fleet size for both runs (`None` = single-chip smoke profile mode).
    pub nodes: Option<u32>,
    /// Run A's fleet skew seed.
    pub seed_a: Option<u64>,
    /// Run B's fleet skew seed.
    pub seed_b: Option<u64>,
    /// Directory the three artifacts are written into.
    pub out_dir: String,
}

impl DiffArgs {
    /// Parses `<system-a> <system-b> [--nodes N] [--seed-a S] [--seed-b S]
    /// [--out-dir D]`.
    ///
    /// # Errors
    /// A CLI-ready message on missing positionals or malformed flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        const USAGE: &str = "usage: repro diff <system-a> <system-b> \
             [--nodes N] [--seed-a S] [--seed-b S] [--out-dir <dir>]";
        let positional = |i: usize| {
            args.get(i)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| USAGE.to_string())
        };
        let parse_u64 = |name| parse_flag(args, name, |v| v.parse::<u64>().ok());
        Ok(DiffArgs {
            system_a: positional(0)?,
            system_b: positional(1)?,
            nodes: parse_flag(args, "nodes", |v| v.parse::<u32>().ok())?,
            seed_a: parse_u64("seed-a")?,
            seed_b: parse_u64("seed-b")?,
            out_dir: parse_out_dir(args)?,
        })
    }

    /// Per-side `(nodes, seed)` fleet parameters, or `None` when no fleet
    /// flag was given (plain single-chip profile mode). Any one of
    /// `--nodes` / `--seed-a` / `--seed-b` switches both sides to fleet
    /// replay so the two runs stay comparable.
    pub fn fleet_params(&self) -> Option<((u32, u64), (u32, u64))> {
        if self.nodes.is_none() && self.seed_a.is_none() && self.seed_b.is_none() {
            return None;
        }
        let nodes = self.nodes.unwrap_or(fleetview::DEFAULT_FLEET_NODES);
        let seed = |s: Option<u64>| s.unwrap_or(fleetview::DEFAULT_SEED);
        Some(((nodes, seed(self.seed_a)), (nodes, seed(self.seed_b))))
    }
}

/// One side of a diff: the executed trace and telemetry of a run, with the
/// provenance needed to label artifacts.
#[derive(Debug, Clone)]
pub struct RunSide {
    /// Human/file label (`superoffload`, or `superoffload-n4-s2` in fleet
    /// mode).
    pub label: String,
    /// Canonical registry name of the system.
    pub system: String,
    /// Fleet size, when this side is a fleet replay.
    pub nodes: Option<u32>,
    /// Skew seed, when this side is a fleet replay.
    pub seed: Option<u64>,
    /// The executed trace.
    pub trace: Trace,
    /// The run's telemetry.
    pub metrics: MetricsRecorder,
}

/// Executes one side: a fleet replay when `fleet` is given, else the
/// single-chip smoke profile used by `repro -- profile`.
///
/// # Errors
/// A CLI-ready message for unknown systems or infeasible workloads.
pub fn build_side(system: &str, fleet: Option<(u32, u64)>) -> Result<RunSide, String> {
    match fleet {
        Some((nodes, seed)) => {
            let view = fleetview::fleet_replay(system, nodes, seed)?;
            Ok(RunSide {
                label: format!("{}-n{nodes}-s{seed}", view.system),
                system: view.system.clone(),
                nodes: Some(nodes),
                seed: Some(seed),
                trace: view.trace,
                metrics: view.metrics,
            })
        }
        None => {
            let (name, profile) = crate::profile::resolve_and_profile(system)?;
            Ok(RunSide {
                label: name.clone(),
                system: name,
                nodes: None,
                seed: None,
                trace: profile.trace,
                metrics: profile.metrics,
            })
        }
    }
}

/// Artifact file names for one diff:
/// `(snapshot JSON, side-by-side trace, HTML report)`.
pub fn diff_paths(label_a: &str, label_b: &str) -> (String, String, String) {
    let stem = format!("diff_{label_a}_vs_{label_b}");
    (
        format!("{stem}.json"),
        format!("{stem}.trace.json"),
        format!("{stem}.html"),
    )
}

/// Writes a per-stall-class map of signed deltas.
fn class_deltas(o: &mut JsonObject<'_>, key: &str, values: &[i64; 5]) {
    o.object(key, Layout::Inline, |m| {
        for (class, v) in STALL_CLASSES.iter().zip(values) {
            m.num(class.name(), *v);
        }
    });
}

/// Renders the versioned [`DIFF_SCHEMA`] snapshot of one diff. Purely
/// simulated-time inputs, so the output is byte-identical across reruns.
pub fn snapshot_json(a: &RunSide, b: &RunSide, diff: &AnalysisDiff, mdiff: &MetricsDiff) -> String {
    JsonWriter::with_capacity(32 * 1024).document(Layout::Block, |doc| {
        doc.str("schema", DIFF_SCHEMA);
        for (key, side) in [("run_a", a), ("run_b", b)] {
            doc.object(key, Layout::Inline, |o| {
                o.str("label", &side.label)
                    .str("system", &side.system)
                    .num("nodes", side.nodes)
                    .num("seed", side.seed);
            });
        }
        doc.bool("zero", diff.is_zero() && mdiff.is_zero())
            .num("makespan_a_us", diff.makespan_a_us)
            .num("makespan_b_us", diff.makespan_b_us)
            .num("makespan_delta_us", diff.makespan_delta_us)
            .num("cp_len_a_us", diff.cp_len_a_us)
            .num("cp_len_b_us", diff.cp_len_b_us);

        // Task alignment census.
        let tasks = &diff.tasks;
        doc.object("tasks", Layout::Inline, |o| {
            o.num("total", tasks.len())
                .num("changed", tasks.iter().filter(|t| t.delta_us != 0).count())
                .num(
                    "entered",
                    tasks.iter().filter(|t| t.dur_a_us.is_none()).count(),
                )
                .num(
                    "left",
                    tasks.iter().filter(|t| t.dur_b_us.is_none()).count(),
                );
        });

        // Per-resource delta partitions — the conservation surface CI checks.
        doc.array("resources", Layout::Block, |rows| {
            for r in &diff.resources {
                rows.object(Layout::Inline, |o| {
                    o.str("name", &r.name)
                        .num("busy_a_us", r.busy_a_us)
                        .num("busy_b_us", r.busy_b_us)
                        .num("idle_a_us", r.idle_a_us)
                        .num("idle_b_us", r.idle_b_us)
                        .num("busy_delta_us", r.busy_delta_us)
                        .num("idle_delta_us", r.idle_delta_us)
                        .num("task_delta_us", r.task_delta_us)
                        .num("total_delta_us", r.total_delta_us());
                    class_deltas(o, "by_class_delta_us", &r.by_class_delta_us);
                });
            }
        });
        let mut by_class = [0i64; 5];
        for r in &diff.resources {
            for (t, v) in by_class.iter_mut().zip(&r.by_class_delta_us) {
                *t += v;
            }
        }
        class_deltas(doc, "stall_class_delta_us", &by_class);

        // Top contributors to the makespan delta.
        doc.array("top_contributors", Layout::Block, |rows| {
            for t in diff.top_contributors(TOP_CONTRIBUTORS) {
                rows.object(Layout::Inline, |o| {
                    o.str("task", &t.key.to_string())
                        .str("kind", t.kind)
                        .num("dur_a_us", t.dur_a_us)
                        .num("dur_b_us", t.dur_b_us)
                        .num("delta_us", t.delta_us);
                });
            }
        });

        // Critical-path churn.
        let churned: Vec<_> = diff
            .critical_path
            .iter()
            .filter(|e| e.change != EdgeChange::Unchanged)
            .collect();
        doc.object("critical_path", Layout::Block, |cp| {
            cp.num("edges", diff.critical_path.len())
                .num("changed", churned.len())
                .array("churn", Layout::Block, |rows| {
                    for e in churned.iter().take(MAX_CHURN_ROWS) {
                        rows.object(Layout::Inline, |o| {
                            o.str("task", &e.key.to_string())
                                .str("kind", e.kind)
                                .str("change", e.change.name())
                                .num("dur_a_us", e.dur_a_us)
                                .num("dur_b_us", e.dur_b_us)
                                .num("delta_us", e.delta_us);
                        });
                    }
                });
        });

        // §9 what-if bounds on run B: which resource to speed up next.
        doc.array("what_if", Layout::Block, |rows| {
            for bn in diff.bottlenecks_b.iter().take(3) {
                rows.object(Layout::Inline, |o| {
                    o.str("resource", &bn.resource)
                        .num("speedup_bound", bn.speedup_bound);
                });
            }
        });

        // Telemetry deltas: changed counters/gauges/tracks, every histogram
        // bucket-by-bucket.
        doc.object("metrics", Layout::Block, |m| {
            m.num("counters_total", mdiff.counters.len())
                .array("counters_changed", Layout::Block, |rows| {
                    for c in mdiff.counters.iter().filter(|c| c.delta != 0) {
                        rows.object(Layout::Inline, |o| {
                            o.str("name", &c.name)
                                .num("a", c.a)
                                .num("b", c.b)
                                .num("delta", c.delta);
                        });
                    }
                })
                .num("gauges_total", mdiff.gauges.len())
                .array("gauges_changed", Layout::Block, |rows| {
                    for g in mdiff.gauges.iter().filter(|g| g.a != g.b) {
                        rows.object(Layout::Inline, |o| {
                            o.str("name", &g.name)
                                .num("a", g.a)
                                .num("b", g.b)
                                .num("delta", g.delta);
                        });
                    }
                })
                .array("histograms", Layout::Block, |rows| {
                    for h in &mdiff.histograms {
                        rows.object(Layout::Inline, |o| {
                            o.str("name", &h.name)
                                .str("unit", &h.unit)
                                .num("count_a", h.count_a)
                                .num("count_b", h.count_b)
                                .num("count_delta", h.count_delta)
                                .num("sum_delta", h.sum_delta)
                                .num("p50_a", h.p50_a)
                                .num("p50_b", h.p50_b)
                                .num("p99_a", h.p99_a)
                                .num("p99_b", h.p99_b)
                                .array("buckets", Layout::Inline, |bk| {
                                    for &(k, ca, cb) in &h.buckets {
                                        bk.array(Layout::Inline, |t| {
                                            t.num(k).num(ca).num(cb);
                                        });
                                    }
                                });
                        });
                    }
                })
                .num("tracks_total", mdiff.tracks.len())
                .array("tracks_changed", Layout::Block, |rows| {
                    for t in mdiff.tracks.iter().filter(|t| !t.identical) {
                        rows.object(Layout::Inline, |o| {
                            o.str("name", &t.name)
                                .str("unit", &t.unit)
                                .num("samples_a", t.samples_a)
                                .num("samples_b", t.samples_b)
                                .num("max_a", t.max_a)
                                .num("max_b", t.max_b);
                        });
                    }
                });
        });
    })
}

/// Escapes text for an HTML element body.
pub(crate) fn esc_html(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn delta_ms(us: i64) -> String {
    format!("{:+.3} ms", us as f64 / 1e3)
}

/// One waterfall bar: label, signed value, width scaled to the largest
/// absolute delta in the group.
fn bar_row(label: &str, delta_us: i64, max_abs: i64) -> String {
    let pct = if max_abs == 0 {
        0.0
    } else {
        delta_us.unsigned_abs() as f64 / max_abs as f64 * 100.0
    };
    let dir = if delta_us > 0 {
        "slower in B"
    } else {
        "faster in B"
    };
    let dir = if delta_us == 0 { "unchanged" } else { dir };
    format!(
        "<div class=\"util-row\"><span>{}</span><div class=\"util-track\">\
         <div class=\"util-fill\" style=\"width:{pct:.1}%\"></div></div>\
         <span class=\"util-pct\">{} ({dir})</span></div>\n",
        esc_html(label),
        delta_ms(delta_us),
    )
}

/// Renders the self-contained side-by-side HTML report. No scripts, no
/// external fetches — byte-identical across reruns.
pub fn render_html(a: &RunSide, b: &RunSide, diff: &AnalysisDiff, mdiff: &MetricsDiff) -> String {
    let (label_a, label_b) = (esc_html(&a.label), esc_html(&b.label));
    let ms = |us: u64| format!("{:.3} ms", us as f64 / 1e3);
    let churned: Vec<_> = diff
        .critical_path
        .iter()
        .filter(|e| e.change != EdgeChange::Unchanged)
        .collect();
    let mut body = String::new();
    let _ = writeln!(
        body,
        "<header><h1>Run diff: {label_a} &rarr; {label_b}</h1>\
         <p class=\"note\">causal trace diff; every delta below partitions the makespan \
         delta bit-exactly (schema {DIFF_SCHEMA})</p></header>"
    );

    // KPI tiles.
    body.push_str("<section class=\"kpis\">\n");
    body.push_str(&stat_tile("makespan A", &ms(diff.makespan_a_us), &label_a));
    body.push_str(&stat_tile("makespan B", &ms(diff.makespan_b_us), &label_b));
    body.push_str(&stat_tile(
        "&Delta; makespan",
        &delta_ms(diff.makespan_delta_us),
        "B &minus; A",
    ));
    body.push_str(&stat_tile(
        "critical path",
        &format!("{} &rarr; {}", ms(diff.cp_len_a_us), ms(diff.cp_len_b_us)),
        "longest dependency chain",
    ));
    body.push_str(&stat_tile(
        "cp churn",
        &format!("{} / {}", churned.len(), diff.critical_path.len()),
        "edges changed",
    ));
    body.push_str("</section>\n");

    // Delta waterfall: where the makespan delta lives, by stall class and
    // by resource busy time.
    let mut by_class = [0i64; 5];
    for r in &diff.resources {
        for (t, v) in by_class.iter_mut().zip(&r.by_class_delta_us) {
            *t += v;
        }
    }
    let max_abs = diff
        .resources
        .iter()
        .map(|r| r.busy_delta_us.unsigned_abs())
        .chain(by_class.iter().map(|v| v.unsigned_abs()))
        .max()
        .unwrap_or(0) as i64;
    body.push_str("<section class=\"card\"><h2>Delta waterfall</h2>\n");
    body.push_str("<h3>busy time, per resource</h3>\n");
    for r in &diff.resources {
        body.push_str(&bar_row(&r.name, r.busy_delta_us, max_abs));
    }
    body.push_str("<h3>idle time, per stall class (all resources)</h3>\n");
    for (class, v) in STALL_CLASSES.iter().zip(by_class) {
        body.push_str(&bar_row(class.name(), v, max_abs));
    }
    body.push_str("</section>\n");

    // Per-resource conservation table.
    body.push_str(
        "<section class=\"card\"><h2>Per-resource deltas</h2><div class=\"table-wrap\">\
         <table><thead><tr><th>resource</th><th>busy &Delta;</th><th>idle &Delta;</th>\
         <th>task &Delta;</th><th>total &Delta;</th></tr></thead><tbody>\n",
    );
    for r in &diff.resources {
        let _ = writeln!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc_html(&r.name),
            delta_ms(r.busy_delta_us),
            delta_ms(r.idle_delta_us),
            delta_ms(r.task_delta_us),
            delta_ms(r.total_delta_us()),
        );
    }
    body.push_str("</tbody></table></div>\n");
    body.push_str(
        "<p class=\"note\">invariants: task &Delta; = busy &Delta;; total &Delta; = \
         makespan &Delta; on every row.</p></section>\n",
    );

    // Critical-path churn.
    body.push_str(
        "<section class=\"card\"><h2>Critical-path churn</h2><div class=\"table-wrap\">\
         <table><thead><tr><th>change</th><th>task</th><th>kind</th><th>A</th><th>B</th>\
         <th>&Delta;</th></tr></thead><tbody>\n",
    );
    let opt_ms = |v: Option<u64>| v.map_or_else(|| "&mdash;".to_string(), ms);
    for e in churned.iter().take(MAX_CHURN_ROWS) {
        let _ = writeln!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            e.change.name(),
            esc_html(&e.key.to_string()),
            esc_html(e.kind),
            opt_ms(e.dur_a_us),
            opt_ms(e.dur_b_us),
            delta_ms(e.delta_us),
        );
    }
    if churned.is_empty() {
        body.push_str(
            "<tr><td colspan=\"6\">no churn: both runs share the same critical path</td></tr>\n",
        );
    }
    body.push_str("</tbody></table></div></section>\n");

    // Top contributors.
    body.push_str(
        "<section class=\"card\"><h2>Top contributors to the makespan delta</h2>\
         <div class=\"table-wrap\"><table><thead><tr><th>task</th><th>kind</th>\
         <th>A &micro;s</th><th>B &micro;s</th><th>&Delta;</th></tr></thead><tbody>\n",
    );
    let contributors = diff.top_contributors(TOP_CONTRIBUTORS);
    let opt_us = |v: Option<u64>| v.map_or_else(|| "absent".to_string(), |x| fmt_short(x as f64));
    for t in &contributors {
        let _ = writeln!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc_html(&t.key.to_string()),
            esc_html(t.kind),
            opt_us(t.dur_a_us),
            opt_us(t.dur_b_us),
            delta_ms(t.delta_us),
        );
    }
    if contributors.is_empty() {
        body.push_str(
            "<tr><td colspan=\"5\">zero delta: runs are bit-identical under alignment</td></tr>\n",
        );
    }
    body.push_str("</tbody></table></div></section>\n");

    // Histogram deltas.
    let changed_hists: Vec<_> = mdiff.histograms.iter().filter(|h| !h.is_zero()).collect();
    if !changed_hists.is_empty() {
        body.push_str(
            "<section class=\"card\"><h2>Telemetry histogram deltas</h2>\
             <div class=\"table-wrap\"><table><thead><tr><th>histogram</th><th>count</th>\
             <th>p50</th><th>p99</th></tr></thead><tbody>\n",
        );
        for h in changed_hists {
            let _ = writeln!(
                body,
                "<tr><td>{} ({})</td><td>{} &rarr; {}</td><td>{} &rarr; {}</td>\
                 <td>{} &rarr; {}</td></tr>",
                esc_html(&h.name),
                esc_html(&h.unit),
                h.count_a,
                h.count_b,
                h.p50_a,
                h.p50_b,
                h.p99_a,
                h.p99_b,
            );
        }
        body.push_str("</tbody></table></div></section>\n");
    }

    format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\
         <title>diff {label_a} vs {label_b}</title>\
         <style>{DASHBOARD_CSS}</style></head>\n<body class=\"viz-root\">\n{body}\
         <footer class=\"note\">generated by repro -- diff; deterministic \
         (simulated time only)</footer>\n</body></html>\n"
    )
}

/// Reads two snapshot files and, when both are `superoffload.analysis/v1`
/// documents, returns a short stall-class breakdown of the makespan delta —
/// the drill-down `repro -- compare` prints under a failing gate. `None`
/// when either file is unreadable, unparsable, or not an analysis snapshot.
pub fn file_delta_breakdown(path_a: &str, path_b: &str) -> Option<String> {
    let read = |p: &str| {
        let body = std::fs::read_to_string(p).ok()?;
        parse_json(&body).ok()
    };
    snapshot_delta_breakdown(&read(path_a)?, &read(path_b)?)
}

/// The analysis-snapshot drill-down behind [`file_delta_breakdown`],
/// operating on parsed documents.
pub fn snapshot_delta_breakdown(a: &JsonValue, b: &JsonValue) -> Option<String> {
    for doc in [a, b] {
        if doc.get("schema")?.as_str()? != ANALYSIS_SCHEMA {
            return None;
        }
    }
    let makespan = |doc: &JsonValue| doc.get("makespan_us").and_then(JsonValue::as_f64);
    let (ma, mb) = (makespan(a)?, makespan(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "makespan delta breakdown ({:+.3} ms):",
        (mb - ma) / 1e3
    );
    for class in STALL_CLASSES {
        let class_us = |doc: &JsonValue| {
            doc.get("stalls")?
                .get("by_class_us")?
                .get(class.name())
                .and_then(JsonValue::as_f64)
        };
        if let (Some(ca), Some(cb)) = (class_us(a), class_us(b)) {
            if ca != cb {
                let _ = writeln!(
                    out,
                    "  idle {:<22} {:+.3} ms",
                    class.name(),
                    (cb - ca) / 1e3
                );
            }
        }
    }
    // Per-resource busy deltas, matched by name.
    let busy = |doc: &JsonValue| -> Option<Vec<(String, f64)>> {
        let JsonValue::Arr(items) = doc.get("stalls")?.get("resources")? else {
            return None;
        };
        items
            .iter()
            .map(|r| {
                Some((
                    r.get("name")?.as_str()?.to_string(),
                    r.get("busy_us").and_then(JsonValue::as_f64)?,
                ))
            })
            .collect()
    };
    if let (Some(ba), Some(bb)) = (busy(a), busy(b)) {
        let map_a: std::collections::BTreeMap<&str, f64> =
            ba.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (name, vb) in &bb {
            if let Some(&va) = map_a.get(name.as_str()) {
                if va != *vb {
                    let _ = writeln!(out, "  busy {:<22} {:+.3} ms", name, (vb - va) / 1e3);
                }
            }
        }
    }
    Some(out)
}

/// Entry point for `repro -- diff <system-a> <system-b> [--nodes N]
/// [--seed-a S] [--seed-b S] [--out-dir <dir>]`: runs both sides, prints
/// the human diff table, and writes the three artifacts.
///
/// # Errors
/// A CLI-ready message on bad flags, unknown systems, infeasible
/// workloads, or I/O failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = DiffArgs::parse(args)?;
    let (fleet_a, fleet_b) = match parsed.fleet_params() {
        Some((fa, fb)) => (Some(fa), Some(fb)),
        None => (None, None),
    };
    let mut a = build_side(&parsed.system_a, fleet_a)?;
    let mut b = build_side(&parsed.system_b, fleet_b)?;
    if a.label == b.label {
        a.label.push_str("-a");
        b.label.push_str("-b");
    }
    let diff = diff_analyses(&a.trace, &b.trace);
    let mdiff = diff_metrics(&a.metrics, &b.metrics);

    println!("# Diff: {} -> {}", a.label, b.label);
    println!();
    print!("{}", diff.render_table(&a.label, &b.label));
    if diff.is_zero() && mdiff.is_zero() {
        println!("\nruns are bit-identical under alignment: zero delta everywhere");
    }

    let dir = Path::new(&parsed.out_dir);
    let (snap_name, trace_name, html_name) = diff_paths(&a.label, &b.label);
    let trace = side_by_side_chrome_trace(
        &a.label, &a.trace, &a.metrics, &b.label, &b.trace, &b.metrics,
    );
    crate::cli::write_artifacts(&[
        (dir.join(snap_name), snapshot_json(&a, &b, &diff, &mdiff)),
        (dir.join(trace_name), trace),
        (dir.join(html_name), render_html(&a, &b, &diff, &mdiff)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_two_systems_and_reads_flags() {
        let err = DiffArgs::parse(&args(&["superoffload"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let err = DiffArgs::parse(&args(&["a", "--nodes", "2"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let d = DiffArgs::parse(&args(&[
            "superoffload",
            "zero-offload",
            "--nodes",
            "2",
            "--seed-b",
            "7",
        ]))
        .unwrap();
        assert_eq!(d.system_a, "superoffload");
        assert_eq!(d.system_b, "zero-offload");
        assert_eq!(d.fleet_params(), Some(((2, 42), (2, 7))));
        // No fleet flags at all: plain profile mode.
        let plain = DiffArgs::parse(&args(&["superoffload", "superoffload"])).unwrap();
        assert_eq!(plain.fleet_params(), None);
        assert_eq!(plain.out_dir, ".");
    }

    #[test]
    fn self_diff_is_zero_and_snapshot_says_so() {
        let a = build_side("superoffload", None).unwrap();
        let b = build_side("superoffload", None).unwrap();
        let diff = diff_analyses(&a.trace, &b.trace);
        let mdiff = diff_metrics(&a.metrics, &b.metrics);
        assert!(diff.is_zero(), "same system + workload must diff to zero");
        assert!(mdiff.is_zero());
        let snap = snapshot_json(&a, &b, &diff, &mdiff);
        assert!(snap.contains("\"zero\": true"), "{snap}");
        assert!(snap.contains(DIFF_SCHEMA));
        assert!(snap.contains("\"makespan_delta_us\": 0"));
    }

    #[test]
    fn cross_system_diff_conserves_and_attributes() {
        let a = build_side("zero-offload", None).unwrap();
        let b = build_side("superoffload", None).unwrap();
        let diff = diff_analyses(&a.trace, &b.trace);
        assert!(!diff.is_zero());
        for r in &diff.resources {
            assert_eq!(r.task_delta_us, r.busy_delta_us, "{}", r.name);
            assert_eq!(
                r.by_class_delta_us.iter().sum::<i64>(),
                r.idle_delta_us,
                "{}",
                r.name
            );
            assert_eq!(r.total_delta_us(), diff.makespan_delta_us, "{}", r.name);
        }
        // The paper's headline: superoffload beats zero-offload.
        assert!(diff.makespan_delta_us < 0, "{}", diff.makespan_delta_us);
        assert!(!diff.top_contributors(5).is_empty());
    }

    #[test]
    fn html_report_is_self_contained() {
        let a = build_side("superoffload", None).unwrap();
        let b = build_side("zero-offload", None).unwrap();
        let diff = diff_analyses(&a.trace, &b.trace);
        let mdiff = diff_metrics(&a.metrics, &b.metrics);
        let html = render_html(&a, &b, &diff, &mdiff);
        assert!(html.starts_with("<!doctype html>"));
        for banned in ["http://", "https://", "src=", "@import", "url("] {
            assert!(!html.contains(banned), "external reference: {banned}");
        }
        assert!(html.contains("Delta waterfall"));
        assert!(html.contains("Critical-path churn"));
        assert!(html.contains("Per-resource deltas"));
    }

    #[test]
    fn breakdown_reads_analysis_snapshots_only() {
        let a = crate::profile::profile_system("zero-offload").unwrap();
        let b = crate::profile::profile_system("superoffload").unwrap();
        let (ja, jb) = (
            parse_json(&a.analysis_json()).unwrap(),
            parse_json(&b.analysis_json()).unwrap(),
        );
        let breakdown = snapshot_delta_breakdown(&ja, &jb).expect("analysis snapshots");
        assert!(
            breakdown.contains("makespan delta breakdown"),
            "{breakdown}"
        );
        assert!(breakdown.contains("ms"), "{breakdown}");
        // A non-analysis document declines.
        let other = parse_json("{\"schema\": \"superoffload.metrics/v1\"}").unwrap();
        assert!(snapshot_delta_breakdown(&other, &jb).is_none());
        // Self-breakdown exists but reports no moved classes.
        let same = snapshot_delta_breakdown(&ja, &ja).unwrap();
        assert!(!same.contains("idle "), "{same}");
    }
}
