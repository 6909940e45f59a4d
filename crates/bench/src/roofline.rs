//! The `repro -- roofline` subcommand: join the numeric plane's **exact**
//! FLOP/byte ledger ([`tensorlite::counters`]) against **measured**
//! wall-clock kernel spans ([`tensorlite::spans`]) over the realbench
//! training workload, and report achieved GFLOP/s, GB/s, arithmetic
//! intensity, and percent-of-peak per kernel family.
//!
//! Artifacts:
//!
//! - `roofline.json` — the versioned `superoffload.roofline/v1` sidecar.
//!   Wall-clock lives here and **only** here: the deterministic journal /
//!   metrics artifacts never see a nanosecond (same rule as the trainer's
//!   `StepTiming` sidecar).
//! - `roofline_trace.json` — Chrome Trace Event export of the same run
//!   (kernel spans per driver track, worker busy rows, a `workers:busy`
//!   counter track), loadable in Perfetto / `chrome://tracing`.
//!
//! The FLOP and byte columns are copied verbatim (`u64`) from the counter
//! ledger, so the sidecar reconciles bit-exactly with
//! [`tensorlite::counters::snapshot`] by construction — CI asserts the
//! per-kernel sums equal the ledger totals.

use superchip_sim::chrome_trace::{real_spans_chrome_trace, RealSpan};
use superchip_sim::telemetry::{JsonWriter, Layout, MetricsRecorder};
use tensorlite::counters::{self, OpKind};
use tensorlite::spans::{self, SpanLog, WorkerUtilization};

use crate::cli::parse_flag;
use crate::realbench::{self, REALPLANE_BATCH, REALPLANE_SEED, REALPLANE_SEQ, REALPLANE_STEPS};

/// Schema tag of the roofline sidecar.
pub const ROOFLINE_SCHEMA: &str = "superoffload.roofline/v1";

/// Default peak-FLOPS denominator (same nominal peak as the journal's
/// measured-MFU default).
pub const DEFAULT_PEAK_FLOPS: f64 = 1e12;

/// Default peak memory-bandwidth denominator in bytes/sec (a nominal
/// 100 GB/s host; override with `--peak-bw` for a calibrated roofline).
pub const DEFAULT_PEAK_BW: f64 = 1e11;

/// Chrome-trace tid offset for worker rows (driver tracks use the dense
/// span track ids, which are small).
const WORKER_TID_BASE: u32 = 1000;

/// Parsed flags for the roofline subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineArgs {
    /// Worker threads for the measured run (0 = all host threads).
    pub threads: usize,
    /// Training steps to measure.
    pub steps: u64,
    /// Model/data seed.
    pub seed: u64,
    /// Peak-FLOPS denominator for percent-of-peak.
    pub peak_flops: f64,
    /// Peak-bandwidth denominator (bytes/sec) for percent-of-peak.
    pub peak_bw: f64,
}

impl Default for RooflineArgs {
    fn default() -> Self {
        RooflineArgs {
            threads: 0,
            steps: REALPLANE_STEPS,
            seed: REALPLANE_SEED,
            peak_flops: DEFAULT_PEAK_FLOPS,
            peak_bw: DEFAULT_PEAK_BW,
        }
    }
}

impl RooflineArgs {
    /// Parses `[--threads N] [--steps N] [--seed N] [--peak-flops F]
    /// [--peak-bw B]` (any order).
    ///
    /// # Errors
    /// A CLI-ready message on a malformed or out-of-range value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = RooflineArgs::default();
        if let Some(threads) = parse_flag(args, "threads", |v| v.parse::<usize>().ok())? {
            out.threads = threads;
        }
        if let Some(steps) = parse_flag(args, "steps", |v| v.parse::<u64>().ok())? {
            if steps == 0 {
                return Err("--steps must be at least 1".into());
            }
            out.steps = steps;
        }
        if let Some(seed) = parse_flag(args, "seed", |v| v.parse::<u64>().ok())? {
            out.seed = seed;
        }
        for (name, slot) in [
            ("peak-flops", &mut out.peak_flops as &mut f64),
            ("peak-bw", &mut out.peak_bw),
        ] {
            if let Some(v) = parse_flag(args, name, |v| v.parse::<f64>().ok())? {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--{name} must be a positive finite number"));
                }
                *slot = v;
            }
        }
        Ok(out)
    }
}

/// One kernel family's row: exact work (verbatim from the counter ledger)
/// over measured busy time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRow {
    /// Kernel family.
    pub kind: OpKind,
    /// Invocations (ledger, exact).
    pub calls: u64,
    /// Output elements (ledger, exact).
    pub elems: u64,
    /// FLOPs (ledger, exact).
    pub flops: u64,
    /// Memory-traffic bytes (ledger, exact).
    pub bytes: u64,
    /// Measured wall-clock busy seconds across all invocations.
    pub busy_secs: f64,
}

impl KernelRow {
    /// Achieved GFLOP/s (0 when no busy time was measured).
    pub fn gflops(&self) -> f64 {
        if self.busy_secs > 0.0 {
            self.flops as f64 / self.busy_secs / 1e9
        } else {
            0.0
        }
    }

    /// Achieved GB/s (0 when no busy time was measured).
    pub fn gbytes_per_sec(&self) -> f64 {
        if self.busy_secs > 0.0 {
            self.bytes as f64 / self.busy_secs / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in FLOP/byte (0 when the family moved no
    /// bytes).
    pub fn intensity(&self) -> f64 {
        if self.bytes > 0 {
            self.flops as f64 / self.bytes as f64
        } else {
            0.0
        }
    }

    /// Achieved fraction of `peak_flops`, as a percentage.
    pub fn pct_of_peak_flops(&self, peak_flops: f64) -> f64 {
        self.gflops() * 1e9 / peak_flops * 100.0
    }

    /// Achieved fraction of `peak_bw` (bytes/sec), as a percentage.
    pub fn pct_of_peak_bw(&self, peak_bw: f64) -> f64 {
        self.gbytes_per_sec() * 1e9 / peak_bw * 100.0
    }

    /// Which roof this family sits under: families whose arithmetic
    /// intensity is below the machine balance (`peak_flops / peak_bw`)
    /// are `"memory"`-bound, the rest `"compute"`-bound.
    pub fn bound(&self, peak_flops: f64, peak_bw: f64) -> &'static str {
        if self.intensity() < peak_flops / peak_bw {
            "memory"
        } else {
            "compute"
        }
    }
}

/// The measured roofline: per-kernel-family rows plus ledger totals and
/// per-worker busy/idle accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineReport {
    /// Hardware threads on this host.
    pub host_threads: usize,
    /// Worker threads requested for the run (0 = all host threads).
    pub threads: usize,
    /// Steps measured.
    pub steps: u64,
    /// Model/data seed.
    pub seed: u64,
    /// Peak-FLOPS denominator.
    pub peak_flops: f64,
    /// Peak-bandwidth denominator (bytes/sec).
    pub peak_bw: f64,
    /// Whether this host cannot support utilization / percent-of-peak
    /// claims (single hardware thread; same detection as realbench).
    pub degraded_host: bool,
    /// One row per kernel family that ran, in [`OpKind::ALL`] order.
    pub rows: Vec<KernelRow>,
    /// Ledger total FLOPs (exactly `sum(rows.flops)`).
    pub total_flops: u64,
    /// Ledger total traffic bytes (exactly `sum(rows.bytes)`).
    pub total_bytes: u64,
    /// Total measured kernel-busy seconds (from the cumulative span
    /// atomics — exact even if the span log overflowed).
    pub total_busy_secs: f64,
    /// Wall-clock seconds for the whole measured run.
    pub wall_secs: f64,
    /// Per-worker busy/idle accounting over every parallel region.
    pub utilization: Vec<WorkerUtilization>,
    /// Spans discarded because the bounded log filled up.
    pub dropped_spans: u64,
}

/// Joins an already-measured counter ledger with per-kind busy nanos and
/// a span log into a report. `repro -- roofline` feeds it the realbench
/// workload; `repro -- journal` reuses it to embed a roofline summary in
/// the dashboard from the journal's own ledger.
#[allow(clippy::too_many_arguments)]
pub fn report_from_parts(
    ctr: &counters::CounterSnapshot,
    kind_nanos: &[u64; tensorlite::counters::N_OP_KINDS],
    total_busy_nanos: u64,
    wall_secs: f64,
    log: &SpanLog,
    args: RooflineArgs,
) -> RooflineReport {
    let host_threads = realbench::host_threads();
    let rows: Vec<KernelRow> = OpKind::ALL
        .iter()
        .filter(|&&kind| ctr.calls(kind) > 0)
        .map(|&kind| KernelRow {
            kind,
            calls: ctr.calls(kind),
            elems: ctr.elems(kind),
            flops: ctr.flops(kind),
            bytes: ctr.bytes(kind),
            busy_secs: kind_nanos[kind.index()] as f64 / 1e9,
        })
        .collect();
    RooflineReport {
        host_threads,
        threads: args.threads,
        steps: args.steps,
        seed: args.seed,
        peak_flops: args.peak_flops,
        peak_bw: args.peak_bw,
        degraded_host: realbench::degraded_host(host_threads),
        total_flops: ctr.total_flops(),
        total_bytes: ctr.total_op_bytes(),
        total_busy_secs: total_busy_nanos as f64 / 1e9,
        wall_secs,
        utilization: log.worker_utilization(),
        dropped_spans: log.dropped,
        rows,
    }
}

/// Runs the realbench training workload under counters + spans and joins
/// the two into a report. Returns the drained span log alongside so the
/// caller can export the trace.
pub fn measure(args: RooflineArgs) -> (RooflineReport, SpanLog) {
    let (((_params, per_step, _fwd, _bwd, _opt), ctr), log) = spans::with_spans(|| {
        counters::with_counters(|| {
            realbench::run_training(
                args.threads,
                args.steps,
                REALPLANE_BATCH,
                REALPLANE_SEQ,
                args.seed,
            )
        })
    });
    let kind_nanos = spans::kind_busy_nanos();
    let report = report_from_parts(
        &ctr,
        &kind_nanos,
        spans::total_busy_nanos(),
        per_step * args.steps as f64,
        &log,
        args,
    );
    (report, log)
}

/// Digits after the point of the sidecar's wall-clock-derived floats:
/// nanosecond resolution for seconds.
const DECIMALS: usize = 9;

impl RooflineReport {
    /// The `superoffload.roofline/v1` sidecar. FLOP/byte columns are `u64`
    /// copied verbatim from the counter ledger; `total-flops` /
    /// `total-bytes` equal the per-kernel sums exactly.
    pub fn to_json(&self) -> String {
        JsonWriter::with_capacity(8192).document(Layout::Block, |doc| {
            doc.str("schema", ROOFLINE_SCHEMA)
                .num("host_threads", self.host_threads)
                .bool("degraded_host", self.degraded_host)
                .num("threads", self.threads)
                .num("steps", self.steps)
                .num("seed", self.seed)
                .fixed("peak-flops", self.peak_flops, DECIMALS)
                .fixed("peak-bw", self.peak_bw, DECIMALS)
                .fixed("wall-secs", self.wall_secs, DECIMALS)
                .fixed("total-busy-secs", self.total_busy_secs, DECIMALS)
                .num("total-flops", self.total_flops)
                .num("total-bytes", self.total_bytes)
                .num("dropped-spans", self.dropped_spans)
                .array("kernels", Layout::Block, |rows| {
                    for r in &self.rows {
                        rows.object(Layout::Inline, |o| {
                            o.str("kind", r.kind.name())
                                .num("calls", r.calls)
                                .num("elems", r.elems)
                                .num("flops", r.flops)
                                .num("bytes", r.bytes)
                                .fixed("busy-secs", r.busy_secs, DECIMALS)
                                .fixed("gflops", r.gflops(), DECIMALS)
                                .fixed("gbs", r.gbytes_per_sec(), DECIMALS)
                                .fixed("intensity", r.intensity(), DECIMALS)
                                .fixed(
                                    "pct-of-peak-flops",
                                    r.pct_of_peak_flops(self.peak_flops),
                                    DECIMALS,
                                )
                                .fixed("pct-of-peak-bw", r.pct_of_peak_bw(self.peak_bw), DECIMALS)
                                .str("bound", r.bound(self.peak_flops, self.peak_bw));
                        });
                    }
                })
                .array("workers", Layout::Block, |rows| {
                    for u in &self.utilization {
                        rows.object(Layout::Inline, |o| {
                            o.num("worker", u.worker)
                                .fixed("busy-secs", u.busy_nanos as f64 / 1e9, DECIMALS)
                                .fixed("present-secs", u.present_nanos as f64 / 1e9, DECIMALS)
                                .fixed("utilization", u.utilization(), DECIMALS);
                        });
                    }
                });
        })
    }
}

/// Chrome Trace Event export of one measured run: kernel spans on
/// `driver-<track>` rows, worker busy intervals on `worker-<i>` rows
/// (tid `1000 + i`), and a `workers:busy` counter track showing parallel
/// occupancy over time. Open in Perfetto (`ui.perfetto.dev`) or
/// `chrome://tracing`.
pub fn trace_json(log: &SpanLog) -> String {
    // Normalize to the earliest span so the trace starts at t = 0.
    let t0 = log
        .kernels
        .iter()
        .map(|s| s.start_nanos)
        .chain(log.regions.iter().map(|s| s.start_nanos))
        .chain(log.workers.iter().map(|s| s.start_nanos))
        .min()
        .unwrap_or(0);
    let us = |nanos: u64| nanos.saturating_sub(t0) / 1_000;

    let mut spans_out: Vec<RealSpan> = Vec::new();
    let mut end_us = 0u64;
    for s in &log.kernels {
        let (ts_us, dur_us) = (us(s.start_nanos), s.dur_nanos / 1_000);
        end_us = end_us.max(ts_us + dur_us);
        spans_out.push(RealSpan {
            name: s.kind.name().to_string(),
            cat: "kernel".into(),
            tid: s.track,
            ts_us,
            dur_us,
        });
    }
    for s in &log.regions {
        let (ts_us, dur_us) = (us(s.start_nanos), s.dur_nanos / 1_000);
        end_us = end_us.max(ts_us + dur_us);
        spans_out.push(RealSpan {
            name: format!("pool region x{}", s.workers),
            cat: "region".into(),
            tid: s.track,
            ts_us,
            dur_us,
        });
    }
    for s in &log.workers {
        let (ts_us, dur_us) = (us(s.start_nanos), s.dur_nanos / 1_000);
        end_us = end_us.max(ts_us + dur_us);
        spans_out.push(RealSpan {
            name: "busy".into(),
            cat: "worker".into(),
            tid: WORKER_TID_BASE + s.worker,
            ts_us,
            dur_us,
        });
    }

    let mut track_names: Vec<(u32, String)> = log
        .tracks()
        .into_iter()
        .map(|t| (t, format!("driver-{t}")))
        .collect();
    let mut worker_ids: Vec<u32> = log.workers.iter().map(|w| w.worker).collect();
    worker_ids.sort_unstable();
    worker_ids.dedup();
    for w in &worker_ids {
        track_names.push((WORKER_TID_BASE + w, format!("worker-{w}")));
    }

    // workers:busy — a step counter of concurrently-busy workers, sampled
    // at every busy-interval edge.
    let mut rec = MetricsRecorder::new();
    if !log.workers.is_empty() {
        let mut edges: Vec<(u64, i64)> = Vec::with_capacity(log.workers.len() * 2);
        for s in &log.workers {
            edges.push((us(s.start_nanos), 1));
            edges.push((us(s.start_nanos) + s.dur_nanos / 1_000, -1));
        }
        // Ends before starts at the same microsecond, so the counter dips
        // instead of double-counting back-to-back regions.
        edges.sort_unstable();
        let mut busy = 0i64;
        rec.sample_us("workers:busy", "workers", 0, 0.0);
        for (ts, d) in edges {
            busy += d;
            rec.sample_us("workers:busy", "workers", ts, busy as f64);
        }
    }

    real_spans_chrome_trace(
        &spans_out,
        &track_names,
        (!log.workers.is_empty()).then_some(&rec),
        end_us,
    )
}

/// Prints the human roofline table.
pub fn print_report(r: &RooflineReport) {
    println!(
        "# Roofline ({ROOFLINE_SCHEMA}) — {} steps, seed {}, threads {} (host has {})",
        r.steps,
        r.seed,
        if r.threads == 0 {
            "all".to_string()
        } else {
            r.threads.to_string()
        },
        r.host_threads
    );
    println!(
        "peaks: {:.2e} FLOP/s, {:.2e} B/s (machine balance {:.1} FLOP/byte)",
        r.peak_flops,
        r.peak_bw,
        r.peak_flops / r.peak_bw
    );
    println!(
        "{:>20} {:>7} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7} {:>8}",
        "kernel",
        "calls",
        "GFLOP",
        "GiB",
        "busy-ms",
        "GFLOP/s",
        "GB/s",
        "f/B",
        "%pk-f",
        "%pk-b",
        "bound"
    );
    for row in &r.rows {
        println!(
            "{:>20} {:>7} {:>10.3} {:>10.3} {:>9.2} {:>9.2} {:>8.2} {:>8.2} {:>7.2} {:>7.2} {:>8}",
            row.kind.name(),
            row.calls,
            row.flops as f64 / 1e9,
            row.bytes as f64 / (1u64 << 30) as f64,
            row.busy_secs * 1e3,
            row.gflops(),
            row.gbytes_per_sec(),
            row.intensity(),
            row.pct_of_peak_flops(r.peak_flops),
            row.pct_of_peak_bw(r.peak_bw),
            row.bound(r.peak_flops, r.peak_bw),
        );
    }
    println!(
        "totals: {:.3} GFLOP / {:.3} GiB over {:.3}s busy ({:.3}s wall); \
         ledger-exact: flops {} bytes {}",
        r.total_flops as f64 / 1e9,
        r.total_bytes as f64 / (1u64 << 30) as f64,
        r.total_busy_secs,
        r.wall_secs,
        r.total_flops,
        r.total_bytes
    );
    if r.degraded_host {
        // Same rule as realbench: a single-core host cannot back
        // utilization or percent-of-peak claims, so say so instead of
        // printing artifact numbers as findings.
        println!(
            "single hardware thread: utilization / percent-of-peak are \
             host artifacts here (snapshot marked degraded_host)"
        );
    } else {
        for u in &r.utilization {
            let width = (u.utilization() * 40.0).clamp(0.0, 40.0) as usize;
            println!(
                "worker {:>2}: {:>6.1}% busy  |{:<40}|",
                u.worker,
                u.utilization() * 100.0,
                "#".repeat(width)
            );
        }
    }
    if r.dropped_spans > 0 {
        println!(
            "note: {} spans dropped at the log cap; busy totals stay exact",
            r.dropped_spans
        );
    }
}

/// Entry point for `repro -- roofline`: measures, prints the table, and
/// writes `roofline.json` + `roofline_trace.json`.
///
/// # Errors
/// A CLI-ready message on bad flags, invalid generated JSON, or an I/O
/// failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = RooflineArgs::parse(args)?;
    let out_dir = crate::cli::parse_out_dir(args)?;
    let (report, log) = measure(parsed);
    print_report(&report);
    let dir = std::path::Path::new(&out_dir);
    crate::cli::write_artifacts(&[
        (dir.join("roofline.json"), report.to_json()),
        (dir.join("roofline_trace.json"), trace_json(&log)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::telemetry::validate_json;
    use tensorlite::spans::{KernelSpan, RegionSpan, WorkerSpan};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults_and_overrides() {
        assert_eq!(RooflineArgs::parse(&[]).unwrap(), RooflineArgs::default());
        let a = RooflineArgs::parse(&strs(&[
            "--threads",
            "2",
            "--steps",
            "3",
            "--seed",
            "9",
            "--peak-flops",
            "2e12",
            "--peak-bw",
            "5e10",
        ]))
        .unwrap();
        assert_eq!((a.threads, a.steps, a.seed), (2, 3, 9));
        assert_eq!((a.peak_flops, a.peak_bw), (2e12, 5e10));
        assert!(RooflineArgs::parse(&strs(&["--steps", "0"])).is_err());
        assert!(RooflineArgs::parse(&strs(&["--peak-bw", "-1"])).is_err());
        assert!(RooflineArgs::parse(&strs(&["--peak-flops", "inf"])).is_err());
    }

    fn sample_row() -> KernelRow {
        // 2 GFLOP over 8 GB in 1 second: 2 GFLOP/s, 8 GB/s, AI 0.25.
        KernelRow {
            kind: OpKind::MatMul,
            calls: 4,
            elems: 100,
            flops: 2_000_000_000,
            bytes: 8_000_000_000,
            busy_secs: 1.0,
        }
    }

    #[test]
    fn derived_rates_and_bound_classification() {
        let r = sample_row();
        assert!((r.gflops() - 2.0).abs() < 1e-9);
        assert!((r.gbytes_per_sec() - 8.0).abs() < 1e-9);
        assert!((r.intensity() - 0.25).abs() < 1e-12);
        // Machine balance 10 FLOP/byte: AI 0.25 is memory-bound.
        assert_eq!(r.bound(1e12, 1e11), "memory");
        // Balance 0.1: the same kernel sits under the compute roof.
        assert_eq!(r.bound(1e10, 1e11), "compute");
        assert!((r.pct_of_peak_flops(1e10) - 20.0).abs() < 1e-9);
        assert!((r.pct_of_peak_bw(1e10) - 80.0).abs() < 1e-9);
        // Zero busy time never divides by zero.
        let z = KernelRow {
            busy_secs: 0.0,
            ..sample_row()
        };
        assert_eq!((z.gflops(), z.gbytes_per_sec()), (0.0, 0.0));
    }

    #[test]
    fn sidecar_json_is_valid_and_ledger_exact() {
        let report = RooflineReport {
            host_threads: 4,
            threads: 0,
            steps: 2,
            seed: 7,
            peak_flops: 1e12,
            peak_bw: 1e11,
            degraded_host: false,
            rows: vec![sample_row()],
            total_flops: 2_000_000_000,
            total_bytes: 8_000_000_000,
            total_busy_secs: 1.0,
            wall_secs: 1.5,
            utilization: vec![WorkerUtilization {
                worker: 0,
                busy_nanos: 500,
                present_nanos: 1000,
            }],
            dropped_spans: 0,
        };
        let json = report.to_json();
        validate_json(&json).expect("valid JSON");
        assert!(json.contains(&format!("\"schema\": \"{ROOFLINE_SCHEMA}\"")));
        // u64 ledger values appear verbatim (no float rounding).
        assert!(json.contains("\"total-flops\": 2000000000"));
        assert!(json.contains("\"total-bytes\": 8000000000"));
        assert!(json.contains("\"flops\": 2000000000"));
        assert!(json.contains("\"degraded_host\": false"));
        assert!(json.contains("\"pct-of-peak-flops\""));
        assert!(json.contains("\"bound\": \"memory\""));
    }

    #[test]
    fn trace_export_covers_all_span_kinds() {
        let log = SpanLog {
            kernels: vec![KernelSpan {
                kind: OpKind::MatMul,
                track: 0,
                start_nanos: 5_000,
                dur_nanos: 10_000,
            }],
            regions: vec![RegionSpan {
                region: 0,
                workers: 2,
                track: 0,
                start_nanos: 6_000,
                dur_nanos: 8_000,
            }],
            workers: vec![
                WorkerSpan {
                    region: 0,
                    worker: 0,
                    start_nanos: 7_000,
                    dur_nanos: 6_000,
                },
                WorkerSpan {
                    region: 0,
                    worker: 1,
                    start_nanos: 7_000,
                    dur_nanos: 5_000,
                },
            ],
            dropped: 0,
        };
        let trace = trace_json(&log);
        validate_json(&trace).expect("valid trace JSON");
        // Thread-name metadata for the driver track and both worker rows.
        assert!(trace.contains("\"driver-0\""));
        assert!(trace.contains("\"worker-0\""));
        assert!(trace.contains("\"worker-1\""));
        // Slices for the kernel, the region, and the worker intervals.
        assert!(trace.contains("\"name\":\"matmul\""));
        assert!(trace.contains("\"pool region x2\""));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 4);
        // The occupancy counter track samples at every busy edge.
        assert!(trace.contains("workers:busy"));
        assert!(trace.contains("\"ph\":\"C\""));
        // Timestamps are normalized to the earliest span.
        assert!(trace.contains("\"ts\":0"));
    }

    #[test]
    fn empty_log_exports_a_valid_trace() {
        let trace = trace_json(&SpanLog::default());
        validate_json(&trace).expect("valid empty trace");
    }
}
