//! The `repro -- journal` subcommand: run a short **real** training loop
//! with the step journal enabled and emit the full observability bundle:
//!
//! - `journal.jsonl` — the versioned `superoffload.journal/v1` record
//!   stream (deterministic: byte-identical across reruns and thread
//!   counts; see `superoffload/tests/journal.rs`),
//! - `journal_timing.json` — the wall-clock sidecar (per-step phase
//!   timings, tokens/sec, measured MFU). Deliberately a separate file so
//!   host-dependent numbers never leak into the deterministic artifact,
//! - `journal_snapshot.json` — a `superchip.metrics/v1` snapshot of the
//!   journal, joinable with the simulator plane's profiles,
//! - `journal_dashboard.html` — a self-contained dashboard (inline SVG,
//!   no external assets) with loss / grad-norm / MFU charts, a per-step
//!   outcome strip, and the full record table.

use std::fmt::Write as _;

use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superchip_sim::telemetry::{JsonWriter, Layout};
use superoffload::trainer::{JournalConfig, StepJournal, Trainer, JOURNAL_SCHEMA};
use tensorlite::counters::N_OP_KINDS;
use tensorlite::{CounterSnapshot, Recorder, SpanLog, StoragePrecision};

use crate::cli::{parse_flag, parse_out_dir, write_artifacts};
use crate::roofline::{self, RooflineArgs, RooflineReport};

/// Default step count for `repro -- journal`.
pub const DEFAULT_STEPS: u64 = 24;
/// Default data/model seed for `repro -- journal` (and `realbench`).
pub const DEFAULT_SEED: u64 = 42;

/// Parsed flags for the journal subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalArgs {
    /// Training steps to run.
    pub steps: u64,
    /// Model-init and data seed.
    pub seed: u64,
    /// Peak-FLOPS denominator for measured MFU.
    pub peak_flops: f64,
}

impl Default for JournalArgs {
    fn default() -> Self {
        JournalArgs {
            steps: DEFAULT_STEPS,
            seed: DEFAULT_SEED,
            peak_flops: JournalConfig::default().peak_flops,
        }
    }
}

impl JournalArgs {
    /// Parses `[--steps N] [--seed N] [--peak-flops F]` (any order).
    ///
    /// # Errors
    /// A CLI-ready message on a malformed or out-of-range value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = JournalArgs::default();
        if let Some(steps) = parse_flag(args, "steps", |v| v.parse::<u64>().ok())? {
            if steps == 0 {
                return Err("--steps must be at least 1".into());
            }
            out.steps = steps;
        }
        if let Some(seed) = parse_flag(args, "seed", |v| v.parse::<u64>().ok())? {
            out.seed = seed;
        }
        if let Some(pf) = parse_flag(args, "peak-flops", |v| v.parse::<f64>().ok())? {
            if !(pf.is_finite() && pf > 0.0) {
                return Err("--peak-flops must be a positive finite number".into());
            }
            out.peak_flops = pf;
        }
        Ok(out)
    }
}

/// The model the journal run trains: the Fig. 14 miniature GPT, whose
/// deliberately high initial loss scale makes the warm-up rollbacks show
/// up in the outcome strip.
fn journal_model(seed: u64) -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 64,
            hidden: 32,
            layers: 2,
            heads: 2,
            max_seq: 32,
        },
        seed,
    )
}

/// Runs the journaled training loop and returns the trainer (journal
/// attached) for rendering.
///
/// # Errors
/// A CLI-ready message if a training step fails.
pub fn journaled_run(args: JournalArgs) -> Result<Trainer, String> {
    let mut b = Trainer::new(journal_model(args.seed));
    b.learning_rate(3e-3)
        .max_grad_norm(6.0)
        .initial_loss_scale(4_194_304.0)
        .journal(JournalConfig {
            peak_flops: args.peak_flops,
        });
    let mut trainer = b.build();
    let mut pile = SyntheticPile::new(64, args.seed);
    trainer
        .run(args.steps, || pile.next_batch(2, 24))
        .map_err(|e| format!("training step failed: {e}"))?;
    Ok(trainer)
}

/// Builds the dashboard's roofline summary by joining the journal's exact
/// per-step ledger with the kernel spans `timer` recorded over the same
/// run.
fn journal_roofline(
    journal: &StepJournal,
    timer: &Recorder,
    log: &SpanLog,
    args: JournalArgs,
) -> RooflineReport {
    let mut ctr = CounterSnapshot::default();
    for r in journal.records() {
        for i in 0..N_OP_KINDS {
            ctr.calls[i] += r.counters.calls[i];
            ctr.elems[i] += r.counters.elems[i];
            ctr.flops[i] += r.counters.flops[i];
            ctr.op_bytes[i] += r.counters.op_bytes[i];
        }
    }
    let wall_secs: f64 = journal.timings().iter().map(|t| t.wall_secs).sum();
    roofline::report_from_parts(
        &ctr,
        timer,
        wall_secs,
        log,
        RooflineArgs {
            steps: args.steps,
            seed: args.seed,
            peak_flops: args.peak_flops,
            ..RooflineArgs::default()
        },
    )
}

/// File names written by `repro -- journal`, in emit order:
/// JSONL records, timing sidecar, metrics snapshot, HTML dashboard.
pub const JOURNAL_PATHS: [&str; 4] = [
    "journal.jsonl",
    "journal_timing.json",
    "journal_snapshot.json",
    "journal_dashboard.html",
];

/// Entry point for `repro -- journal`: trains, prints the terminal summary
/// table, and writes the four artifacts.
///
/// # Errors
/// A CLI-ready message on bad flags, a failed step, invalid generated
/// JSON, or an I/O failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = JournalArgs::parse(args)?;
    let out_dir = parse_out_dir(args)?;
    // Kernel spans are recorded over the run so the dashboard can show the
    // measured roofline; the deterministic artifacts are byte-identical
    // whether recording is on or off (enforced by `bench/tests/roofline.rs`).
    let timer = Recorder::traced(StoragePrecision::F32);
    let trainer = timer.scope(|| journaled_run(parsed))?;
    let span_log = timer.take_log();
    let journal = trainer.journal().expect("journal was enabled");
    let roofline = journal_roofline(journal, &timer, &span_log, parsed);

    let jsonl = journal.to_jsonl();
    let timing = journal.timing_json();
    let snapshot = journal.snapshot_json(&[
        ("seed", parsed.seed.to_string()),
        ("steps", parsed.steps.to_string()),
    ]);
    let html = dashboard_html(journal, parsed.seed, Some(&roofline));

    print_summary(journal, parsed);
    let dir = std::path::Path::new(&out_dir);
    write_artifacts(
        &JOURNAL_PATHS
            .iter()
            .map(|name| dir.join(name))
            .zip([&jsonl, &timing, &snapshot, &html])
            .collect::<Vec<_>>(),
    )
}

/// Prints the per-step table and the run summary to the terminal.
pub fn print_summary(journal: &StepJournal, args: JournalArgs) {
    println!(
        "# Step journal ({JOURNAL_SCHEMA}) — {} steps, seed {}",
        args.steps, args.seed
    );
    println!(
        "{:>5} {:>8} {:>8} {:>9} {:>12} {:>7} {:>10} {:>9} {:>7}",
        "step", "outcome", "loss", "grad-norm", "loss-scale", "tokens", "GFLOP", "tok/s", "MFU"
    );
    for (r, t) in journal.records().iter().zip(journal.timings()) {
        println!(
            "{:>5} {:>8} {:>8.4} {:>9} {:>12} {:>7} {:>10.3} {:>9.0} {:>6.2}%",
            r.step,
            r.outcome,
            r.loss,
            r.grad_norm
                .map_or_else(|| "-".into(), |g| format!("{g:.3}")),
            r.loss_scale,
            r.tokens,
            r.counters.total_flops() as f64 / 1e9,
            t.tokens_per_sec,
            t.mfu * 100.0
        );
    }
    let s = journal.summary();
    println!(
        "applied {} / clipped {} / skipped {}; scale backoffs {}, growths {}",
        s.applied, s.clipped, s.skipped, s.scale_backoffs, s.scale_growths
    );
    println!(
        "totals: {} tokens, {:.3} GFLOP, {:.1} MiB allocated, {} pool regions",
        s.tokens,
        s.flops as f64 / 1e9,
        s.allocated_bytes as f64 / (1 << 20) as f64,
        s.pool_regions
    );
    println!(
        "wall-clock (this host, not in the journal): {:.0} tokens/sec, measured MFU {:.2}% \
         of {:.2e} peak FLOPS",
        journal.mean_tokens_per_sec(),
        journal.mean_mfu() * 100.0,
        journal.config().peak_flops
    );
}

// ---------------------------------------------------------------------------
// Dashboard rendering (self-contained HTML, inline SVG, no external assets)
// ---------------------------------------------------------------------------

/// Compact value formatting for axis ticks and tooltips.
pub(crate) fn fmt_short(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// One tile of the KPI row.
pub(crate) fn stat_tile(label: &str, value: &str, detail: &str) -> String {
    format!(
        "<div class=\"tile\"><div class=\"tile-label\">{label}</div>\
         <div class=\"tile-value\">{value}</div>\
         <div class=\"tile-detail\">{detail}</div></div>\n"
    )
}

/// Plot geometry shared by the line charts.
const CHART_W: f64 = 640.0;
const CHART_H: f64 = 180.0;
const MARGIN_L: f64 = 52.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 10.0;
const MARGIN_B: f64 = 26.0;

/// A single-series line chart over `(step, value)` points. `None` values
/// (a skipped step's grad-norm) break the line, leaving an honest gap.
/// Returns the chart card (`<section>`), with hover metadata for the
/// crosshair layer in `data-points`.
fn line_chart(
    id: &str,
    title: &str,
    note: &str,
    unit: &str,
    points: &[(u64, Option<f64>)],
) -> String {
    let xs: Vec<u64> = points.iter().map(|&(s, _)| s).collect();
    let ys: Vec<f64> = points.iter().filter_map(|&(_, v)| v).collect();
    if xs.is_empty() || ys.is_empty() {
        return String::new();
    }
    let (x_min, x_max) = (*xs.first().unwrap() as f64, *xs.last().unwrap() as f64);
    let mut y_min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut y_max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (y_max - y_min).abs() < 1e-12 {
        // Flat series: open a symmetric band so the line sits mid-plot.
        let pad = if y_max.abs() < 1e-12 {
            1.0
        } else {
            y_max.abs() * 0.1
        };
        y_min -= pad;
        y_max += pad;
    } else {
        let pad = (y_max - y_min) * 0.08;
        y_min -= pad;
        y_max += pad;
    }
    let x_span = (x_max - x_min).max(1.0);
    let px = |s: f64| MARGIN_L + (s - x_min) / x_span * (CHART_W - MARGIN_L - MARGIN_R);
    let py = |v: f64| MARGIN_T + (y_max - v) / (y_max - y_min) * (CHART_H - MARGIN_T - MARGIN_B);

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" role=\"img\" aria-label=\"{title}\" \
         preserveAspectRatio=\"xMidYMid meet\">"
    );
    // Hairline gridlines + tick labels (4 bands).
    for i in 0..=3 {
        let v = y_min + (y_max - y_min) * i as f64 / 3.0;
        let y = py(v);
        let _ = write!(
            svg,
            "<line x1=\"{MARGIN_L}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" class=\"grid\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{}</text>",
            CHART_W - MARGIN_R,
            MARGIN_L - 6.0,
            y + 3.5,
            fmt_short(v)
        );
    }
    // X-axis baseline + first/last step labels.
    let base_y = CHART_H - MARGIN_B;
    let _ = write!(
        svg,
        "<line x1=\"{MARGIN_L}\" y1=\"{base_y}\" x2=\"{:.1}\" y2=\"{base_y}\" class=\"axis\"/>\
         <text x=\"{MARGIN_L}\" y=\"{:.1}\" class=\"tick\">step {}</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">step {}</text>",
        CHART_W - MARGIN_R,
        CHART_H - 8.0,
        xs.first().unwrap(),
        CHART_W - MARGIN_R,
        CHART_H - 8.0,
        xs.last().unwrap()
    );
    // The series: one path, broken at gaps; 2px round-cap line.
    let mut d = String::new();
    let mut pen_down = false;
    for &(s, v) in points {
        match v {
            Some(v) => {
                let cmd = if pen_down { 'L' } else { 'M' };
                let _ = write!(d, "{cmd}{:.1} {:.1} ", px(s as f64), py(v));
                pen_down = true;
            }
            None => pen_down = false,
        }
    }
    let _ = write!(svg, "<path d=\"{}\" class=\"series\"/>", d.trim_end());
    // End dot: >=8px marker with a 2px surface ring.
    if let Some(&(s, Some(v))) = points.iter().rev().find(|(_, v)| v.is_some()) {
        let _ = write!(
            svg,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" class=\"end-dot\"/>",
            px(s as f64),
            py(v)
        );
    }
    // Crosshair + hover dot, driven by the script below.
    let _ = write!(
        svg,
        "<line class=\"crosshair\" y1=\"{MARGIN_T}\" y2=\"{base_y}\" hidden/>\
         <circle class=\"hover-dot\" r=\"4\" hidden/></svg>"
    );

    // Hover metadata: pixel position + display strings per point.
    let data = JsonWriter::with_capacity(32 * points.len()).array(Layout::Dense, |rows| {
        for &(s, v) in points {
            rows.array(Layout::Dense, |p| {
                p.fixed(px(s as f64), 1);
                match v {
                    Some(v) => p.fixed(py(v), 1).num(s).str(&fmt_short(v)),
                    None => p.null().num(s).str("\u{2014}"),
                };
            });
        }
    });

    let note_html = if note.is_empty() {
        String::new()
    } else {
        format!("<p class=\"note\">{note}</p>")
    };
    format!(
        "<section class=\"card chart\" id=\"{id}\" data-points='{data}' data-unit=\"{unit}\">\
         <h2>{title}</h2>{note_html}{svg}<div class=\"tooltip\" hidden></div></section>\n"
    )
}

/// The per-step outcome strip: one glyph cell per step, status-colored,
/// never color-alone (letter glyph + text legend + the record table).
fn outcome_strip(journal: &StepJournal) -> String {
    let mut cells = String::new();
    for r in journal.records() {
        let (class, glyph) = match r.outcome {
            "applied" => ("ok", "A"),
            "clipped" => ("warn", "C"),
            _ => ("crit", "S"),
        };
        let _ = write!(
            cells,
            "<span class=\"cell {class}\" tabindex=\"0\" \
             title=\"step {}: {} (loss {:.4}, scale event {})\">{glyph}</span>",
            r.step,
            r.outcome,
            r.loss,
            r.scale_event.name()
        );
    }
    format!(
        "<section class=\"card\"><h2>Step outcomes</h2>\
         <div class=\"strip\">{cells}</div>\
         <div class=\"legend\">\
         <span><span class=\"key ok\">A</span> applied</span>\
         <span><span class=\"key warn\">C</span> clipped (grad-norm)</span>\
         <span><span class=\"key crit\">S</span> skipped (overflow rollback)</span>\
         </div></section>\n"
    )
}

/// The full record table (the non-hover home of every plotted value).
fn record_table(journal: &StepJournal) -> String {
    let mut rows = String::new();
    for (r, t) in journal.records().iter().zip(journal.timings()) {
        let _ = write!(
            rows,
            "<tr><td>{}</td><td>{}</td><td>{:.4}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.0}</td><td>{:.2}%</td></tr>",
            r.step,
            r.outcome,
            r.loss,
            r.grad_norm
                .map_or_else(|| "\u{2014}".into(), |g| format!("{g:.3}")),
            r.loss_scale,
            r.scale_event.name(),
            r.tokens,
            fmt_short(r.counters.total_flops() as f64),
            t.tokens_per_sec,
            t.mfu * 100.0
        );
    }
    format!(
        "<section class=\"card\"><h2>Per-step records</h2>\
         <div class=\"table-wrap\"><table><thead><tr>\
         <th>step</th><th>outcome</th><th>loss</th><th>grad-norm</th><th>loss scale</th>\
         <th>scale event</th><th>tokens</th><th>FLOP</th><th>tok/s</th><th>MFU</th>\
         </tr></thead><tbody>{rows}</tbody></table></div></section>\n"
    )
}

/// The roofline card: per-kernel achieved rates from the spans × ledger
/// join, plus the per-worker utilization strip. Wall-clock appears only
/// here and in the sidecars — never in the JSONL artifact.
fn roofline_section(r: &RooflineReport) -> String {
    // Row cells are `<tr class="rf">` so the plain `<tr><td>` and
    // `class="cell "` invariants of the record table / outcome strip stay
    // countable.
    let mut rows = String::new();
    for row in &r.rows {
        let _ = write!(
            rows,
            "<tr class=\"rf\"><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{:.2}</td><td>{:.2}</td><td>{:.2}</td><td>{:.2}</td><td>{}</td></tr>",
            row.kind.name(),
            row.calls,
            fmt_short(row.flops as f64),
            fmt_short(row.bytes as f64),
            row.busy_secs * 1e3,
            row.gflops(),
            row.gbytes_per_sec(),
            row.intensity(),
            row.bound(r.peak_flops, r.peak_bw),
        );
    }
    let mut bars = String::new();
    for u in &r.utilization {
        let pct = (u.utilization() * 100.0).clamp(0.0, 100.0);
        let _ = write!(
            bars,
            "<div class=\"util-row\"><span class=\"util-label\">worker {}</span>\
             <div class=\"util-track\"><div class=\"util-fill\" style=\"width:{pct:.1}%\">\
             </div></div><span class=\"util-pct\">{pct:.1}%</span></div>",
            u.worker
        );
    }
    let util = if r.utilization.is_empty() {
        "<p class=\"note\">No parallel pool regions ran (single worker).</p>".to_string()
    } else if r.degraded_host {
        format!(
            "<p class=\"note\">Single hardware thread: utilization is a host artifact \
             (snapshot marked degraded_host).</p><div class=\"util\">{bars}</div>"
        )
    } else {
        format!("<div class=\"util\">{bars}</div>")
    };
    format!(
        "<section class=\"card\"><h2>Kernel roofline (measured)</h2>\
         <p class=\"note\">Exact FLOP/byte ledger over measured kernel spans \u{2014} \
         {busy}s busy of {wall}s wall; peaks {pf:.0e} FLOP/s, {pb:.0e} B/s. \
         Host-dependent, never part of the deterministic journal.</p>\
         <div class=\"table-wrap\"><table><thead><tr class=\"rf\">\
         <th>kernel</th><th>calls</th><th>FLOP</th><th>bytes</th><th>busy ms</th>\
         <th>GFLOP/s</th><th>GB/s</th><th>FLOP/B</th><th>bound</th>\
         </tr></thead><tbody>{rows}</tbody></table></div>\
         <h2>Worker utilization</h2>{util}</section>\n",
        busy = fmt_short(r.total_busy_secs),
        wall = fmt_short(r.wall_secs),
        pf = r.peak_flops,
        pb = r.peak_bw,
    )
}

/// Renders the self-contained dashboard. Everything inline: styles, SVG,
/// and the small hover script — no external assets, works from `file://`.
/// When a [`RooflineReport`] is supplied (the `repro -- journal` path),
/// the measured roofline and worker-utilization strip render below the
/// record table.
pub fn dashboard_html(
    journal: &StepJournal,
    seed: u64,
    roofline: Option<&RooflineReport>,
) -> String {
    let s = journal.summary();
    let records = journal.records();
    let timings = journal.timings();
    let final_loss = records.last().map_or(f32::NAN, |r| r.loss);
    let final_scale = records.last().map_or(0.0, |r| r.loss_scale);

    let loss: Vec<(u64, Option<f64>)> = records
        .iter()
        .map(|r| (r.step, r.loss.is_finite().then(|| f64::from(r.loss))))
        .collect();
    let grad: Vec<(u64, Option<f64>)> = records.iter().map(|r| (r.step, r.grad_norm)).collect();
    let mfu: Vec<(u64, Option<f64>)> = timings
        .iter()
        .map(|t| (t.step, Some(t.mfu * 100.0)))
        .collect();

    let kpis = [
        stat_tile("Steps", &s.steps.to_string(), &format!("seed {seed}")),
        stat_tile(
            "Final loss",
            &format!("{final_loss:.4}"),
            &format!("{} applied", s.applied),
        ),
        stat_tile(
            "Tokens / sec",
            &fmt_short(journal.mean_tokens_per_sec()),
            "wall-clock mean",
        ),
        stat_tile(
            "Measured MFU",
            &format!("{:.2}%", journal.mean_mfu() * 100.0),
            &format!("of {:.0e} FLOPS", journal.config().peak_flops),
        ),
        stat_tile(
            "Rollbacks",
            &format!("{}", s.clipped + s.skipped),
            &format!("{} clipped, {} skipped", s.clipped, s.skipped),
        ),
        stat_tile(
            "Final loss scale",
            &fmt_short(f64::from(final_scale)),
            &format!("{} backoffs, {} growths", s.scale_backoffs, s.scale_growths),
        ),
    ]
    .concat();

    let charts = [
        line_chart("loss", "Training loss", "", "loss", &loss),
        line_chart(
            "grad-norm",
            "Gradient norm",
            "Gaps are skipped steps: an FP16 overflow rolls the step back before \
             the norm exists.",
            "grad-norm",
            &grad,
        ),
        line_chart(
            "mfu",
            "Measured MFU",
            "Wall-clock diagnostic from the timing sidecar \u{2014} host-dependent, \
             never part of the deterministic journal.",
            "% MFU",
            &mfu,
        ),
    ]
    .concat();

    format!(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
         <title>Training journal \u{2014} {JOURNAL_SCHEMA}</title>\n<style>{css}</style>\n\
         </head>\n<body>\n<div class=\"viz-root\">\n\
         <header><h1>Training journal</h1>\
         <p class=\"sub\">{JOURNAL_SCHEMA} \u{00b7} {steps} steps \u{00b7} seed {seed} \u{00b7} \
         {tokens} tokens \u{00b7} {flops} FLOP</p></header>\n\
         <section class=\"kpis\">{kpis}</section>\n\
         {charts}{strip}{table}{roofline}\
         <footer class=\"note\">Generated by <code>repro -- journal</code>. The JSONL \
         artifact is deterministic; this page and the timing sidecar carry the \
         host-dependent measurements.</footer>\n\
         </div>\n<script>{js}</script>\n</body>\n</html>\n",
        css = DASHBOARD_CSS,
        steps = s.steps,
        tokens = s.tokens,
        flops = fmt_short(s.flops as f64),
        kpis = kpis,
        charts = charts,
        strip = outcome_strip(journal),
        table = record_table(journal),
        roofline = roofline.map(roofline_section).unwrap_or_default(),
        js = HOVER_JS,
    )
}

/// Dashboard styles: role-named custom properties, dark values selected
/// (not flipped) under both the OS media query and an explicit
/// `data-theme` stamp.
pub(crate) const DASHBOARD_CSS: &str = r#"
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --on-warning: #0b0b0b; --on-status: #ffffff;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
  --series-1: #3987e5;
}
html, body { margin: 0; }
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  min-height: 100vh; padding: 24px;
  display: flex; flex-direction: column; gap: 16px;
  max-width: 760px; margin: 0 auto; box-sizing: border-box;
}
header h1 { font-size: 22px; margin: 0 0 4px; }
.sub { color: var(--text-secondary); font-size: 13px; margin: 0; }
.kpis { display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); gap: 12px; }
.tile, .card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px;
}
.tile-label { font-size: 12px; color: var(--text-secondary); }
.tile-value { font-size: 28px; margin: 2px 0; }
.tile-detail { font-size: 12px; color: var(--muted); }
.card { position: relative; }
.card h2 { font-size: 14px; margin: 0 0 8px; }
.note { font-size: 12px; color: var(--muted); margin: 0 0 8px; }
svg { display: block; width: 100%; height: auto; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--baseline); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 11px; font-variant-numeric: tabular-nums; }
.series { fill: none; stroke: var(--series-1); stroke-width: 2;
          stroke-linecap: round; stroke-linejoin: round; }
.end-dot { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.crosshair { stroke: var(--baseline); stroke-width: 1; }
.hover-dot { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.tooltip {
  position: absolute; pointer-events: none; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px; padding: 6px 10px;
  font-size: 12px; box-shadow: 0 2px 8px rgba(0,0,0,0.12); white-space: nowrap;
}
.tooltip strong { font-size: 14px; }
.tooltip .tt-label { color: var(--text-secondary); }
.strip { display: flex; flex-wrap: wrap; gap: 2px; }
.cell, .key {
  display: inline-flex; align-items: center; justify-content: center;
  width: 18px; height: 22px; border-radius: 3px;
  font-size: 11px; font-weight: 600; color: var(--on-status);
}
.cell { cursor: default; }
.ok { background: var(--good); }
.warn { background: var(--warning); color: var(--on-warning); }
.crit { background: var(--critical); }
.legend { display: flex; gap: 16px; margin-top: 10px; font-size: 12px;
          color: var(--text-secondary); flex-wrap: wrap; }
.legend > span { display: inline-flex; align-items: center; gap: 6px; }
.key { width: 16px; height: 18px; }
.table-wrap { overflow-x: auto; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th, td { text-align: right; padding: 4px 8px; font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600;
     border-bottom: 1px solid var(--baseline); }
td { border-bottom: 1px solid var(--grid); }
th:nth-child(2), td:nth-child(2), th:nth-child(6), td:nth-child(6) { text-align: left; }
tr.rf th:first-child, tr.rf td:first-child,
tr.rf th:last-child, tr.rf td:last-child { text-align: left; }
.util-row { display: flex; align-items: center; gap: 8px; margin: 4px 0; font-size: 12px; }
.util-label { width: 70px; color: var(--text-secondary); }
.util-track { flex: 1; height: 10px; background: var(--grid);
              border-radius: 5px; overflow: hidden; }
.util-fill { height: 100%; background: var(--series-1); }
.util-pct { width: 48px; text-align: right; font-variant-numeric: tabular-nums; }
footer.note { margin-top: 4px; }
"#;

/// Crosshair + tooltip layer for the line charts: snaps to the nearest
/// step, never gates (every value is also in the table). Tooltip content
/// is set via `textContent` only.
const HOVER_JS: &str = r#"
document.querySelectorAll('.chart').forEach(function (card) {
  var svg = card.querySelector('svg');
  var pts = JSON.parse(card.dataset.points);
  var unit = card.dataset.unit;
  var cross = svg.querySelector('.crosshair');
  var dot = svg.querySelector('.hover-dot');
  var tip = card.querySelector('.tooltip');
  function hide() { cross.hidden = true; dot.hidden = true; tip.hidden = true; }
  function show(ev) {
    var box = svg.getBoundingClientRect();
    var vx = (ev.clientX - box.left) * (640 / box.width);
    var best = 0, bd = Infinity;
    for (var i = 0; i < pts.length; i++) {
      var d = Math.abs(pts[i][0] - vx);
      if (d < bd) { bd = d; best = i; }
    }
    var p = pts[best];
    cross.setAttribute('x1', p[0]); cross.setAttribute('x2', p[0]);
    cross.hidden = false;
    if (p[1] === null) { dot.hidden = true; }
    else {
      dot.setAttribute('cx', p[0]); dot.setAttribute('cy', p[1]);
      dot.hidden = false;
    }
    tip.textContent = '';
    var strong = document.createElement('strong');
    strong.textContent = p[3];
    var label = document.createElement('span');
    label.className = 'tt-label';
    label.textContent = ' ' + unit + ' · step ' + p[2];
    tip.appendChild(strong); tip.appendChild(label);
    tip.hidden = false;
    var cardBox = card.getBoundingClientRect();
    var left = ev.clientX - cardBox.left + 14;
    if (left + tip.offsetWidth > cardBox.width - 8) {
      left = ev.clientX - cardBox.left - tip.offsetWidth - 14;
    }
    tip.style.left = Math.max(8, left) + 'px';
    tip.style.top = (ev.clientY - cardBox.top - 10) + 'px';
  }
  svg.addEventListener('pointermove', show);
  svg.addEventListener('pointerleave', hide);
});
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults_and_overrides() {
        assert_eq!(JournalArgs::parse(&[]).unwrap(), JournalArgs::default());
        let a = JournalArgs::parse(&strs(&[
            "--steps",
            "7",
            "--seed",
            "9",
            "--peak-flops",
            "2e12",
        ]))
        .unwrap();
        assert_eq!((a.steps, a.seed), (7, 9));
        assert_eq!(a.peak_flops, 2e12);
        assert!(JournalArgs::parse(&strs(&["--steps", "0"])).is_err());
        assert!(JournalArgs::parse(&strs(&["--steps"])).is_err());
        assert!(JournalArgs::parse(&strs(&["--peak-flops", "-1"])).is_err());
        assert!(JournalArgs::parse(&strs(&["--peak-flops", "nan"])).is_err());
    }

    fn sample_roofline() -> RooflineReport {
        use crate::roofline::KernelRow;
        use tensorlite::spans::WorkerUtilization;
        use tensorlite::OpKind;
        RooflineReport {
            host_threads: 4,
            threads: 0,
            steps: 8,
            seed: 5,
            peak_flops: 1e12,
            peak_bw: 1e11,
            degraded_host: false,
            rows: vec![KernelRow {
                kind: OpKind::MatMul,
                calls: 3,
                elems: 10,
                flops: 1_000_000,
                bytes: 4_000_000,
                busy_secs: 0.001,
            }],
            total_flops: 1_000_000,
            total_bytes: 4_000_000,
            total_busy_secs: 0.001,
            wall_secs: 0.01,
            utilization: vec![WorkerUtilization {
                worker: 0,
                busy_nanos: 900,
                present_nanos: 1000,
            }],
            dropped_spans: 0,
        }
    }

    #[test]
    fn dashboard_is_self_contained_and_complete() {
        let _cpu = crate::cpu_heavy_test_guard();
        // 8 steps at seed 5 cover both outcomes: 5 skipped, 3 applied —
        // so the grad-norm chart has real points AND gaps to render.
        let trainer = journaled_run(JournalArgs {
            steps: 8,
            seed: 5,
            ..JournalArgs::default()
        })
        .unwrap();
        let journal = trainer.journal().unwrap();
        assert!(journal.summary().applied > 0 && journal.summary().skipped > 0);
        let html = dashboard_html(journal, 5, Some(&sample_roofline()));
        // Self-contained: no external fetches of any kind ("http" alone,
        // because the CI smoke greps for that).
        for forbidden in ["http", "src=", "@import", "url("] {
            assert!(!html.contains(forbidden), "external reference: {forbidden}");
        }
        for expected in [
            JOURNAL_SCHEMA,
            "Training loss",
            "Gradient norm",
            "Measured MFU",
            "Step outcomes",
            "Per-step records",
            "Kernel roofline (measured)",
            "Worker utilization",
            "class=\"util-fill\"",
            "prefers-color-scheme: dark",
            "<svg",
        ] {
            assert!(html.contains(expected), "missing: {expected}");
        }
        // One outcome cell per step, and the table has one row per step —
        // the roofline table must not disturb either count.
        assert_eq!(html.matches("class=\"cell ").count(), 8);
        assert_eq!(html.matches("<tr><td>").count(), 8);
        // Without a roofline report the card is simply absent.
        let bare = dashboard_html(journal, 5, None);
        assert!(!bare.contains("Kernel roofline"));
    }

    #[test]
    fn fmt_short_covers_the_ranges() {
        assert_eq!(fmt_short(0.0), "0");
        assert_eq!(fmt_short(3.5e9), "3.5G");
        assert_eq!(fmt_short(2.0e6), "2.0M");
        assert_eq!(fmt_short(1500.0), "1.5k");
        assert_eq!(fmt_short(250.0), "250");
        assert_eq!(fmt_short(3.25), "3.25");
        assert_eq!(fmt_short(0.042), "0.042");
    }
}
