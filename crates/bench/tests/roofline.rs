//! Cross-cutting roofline guarantees:
//!
//! 1. The roofline report's FLOP/byte columns reconcile **bit-exactly**
//!    with an independent `tensorlite::Recorder` ledger over the same
//!    workload, at thread counts 1 / 2 / 7 (the ledger is thread-count
//!    invariant, so the roofline is too).
//! 2. Span recording is a pure observer: the deterministic artifacts
//!    (journal JSONL, metrics snapshot) are byte-identical whether
//!    recording is enabled or disabled.
//! 3. A measured run replays as an ordinary `Trace`: every interval sits
//!    exactly where its span was measured, on its own driver, region or
//!    worker row, and the analyzer's busy and stall ledger sums to the
//!    makespan as it does for simulated traces.

use std::collections::BTreeSet;

use superchip_sim::analysis::analyze;
use superoffload_bench::journal::{self, JournalArgs};
use superoffload_bench::realbench::{REALPLANE_BATCH, REALPLANE_SEED, REALPLANE_SEQ};
use superoffload_bench::roofline::{measure, RooflineArgs};
use superoffload_bench::{realbench, roofline};
use tensorlite::{Recorder, StoragePrecision};

#[test]
fn roofline_reconciles_bit_exactly_with_the_counter_ledger() {
    let steps = 2;
    let mut invariant: Option<(u64, u64)> = None;
    for threads in [1usize, 2, 7] {
        let (report, _log) = measure(RooflineArgs {
            threads,
            steps,
            ..RooflineArgs::default()
        });
        // Replay the identical workload under a fresh, independent ledger.
        let ledger = Recorder::new(StoragePrecision::F32);
        ledger.scope(|| {
            realbench::run_training(
                threads,
                steps,
                REALPLANE_BATCH,
                REALPLANE_SEQ,
                REALPLANE_SEED,
            )
        });
        let ctr = ledger.snapshot();
        assert_eq!(
            report.total_flops,
            ctr.total_flops(),
            "threads={threads}: report total must equal the ledger"
        );
        assert_eq!(
            report.total_bytes,
            ctr.total_op_bytes(),
            "threads={threads}: byte total must equal the ledger"
        );
        // Per-kernel rows carry the ledger values verbatim and sum to the
        // totals with no rounding (u64 end to end).
        assert_eq!(
            report.rows.iter().map(|r| r.flops).sum::<u64>(),
            report.total_flops,
            "threads={threads}"
        );
        assert_eq!(
            report.rows.iter().map(|r| r.bytes).sum::<u64>(),
            report.total_bytes,
            "threads={threads}"
        );
        for row in &report.rows {
            assert_eq!(row.calls, ctr.calls(row.kind), "threads={threads}");
            assert_eq!(row.flops, ctr.flops(row.kind), "threads={threads}");
            assert_eq!(row.bytes, ctr.bytes(row.kind), "threads={threads}");
        }
        // The exact ledger is thread-count invariant, so the roofline's
        // work columns are too.
        match invariant {
            None => invariant = Some((report.total_flops, report.total_bytes)),
            Some(expect) => assert_eq!(
                (report.total_flops, report.total_bytes),
                expect,
                "threads={threads}: ledger must not depend on thread count"
            ),
        }
        // And the sidecar embeds those u64s verbatim.
        let json = report.to_json();
        assert!(json.contains(&format!("\"total-flops\": {}", report.total_flops)));
        assert!(json.contains(&format!("\"total-bytes\": {}", report.total_bytes)));
    }
}

#[test]
fn parallel_runs_record_worker_spans_and_a_loadable_trace() {
    let (report, log) = measure(RooflineArgs {
        threads: 2,
        steps: 1,
        ..RooflineArgs::default()
    });
    assert!(!log.kernels.is_empty(), "kernels must have recorded spans");
    assert!(
        !report.rows.is_empty() && report.rows.iter().all(|r| r.busy_secs >= 0.0),
        "every row carries measured busy time"
    );
    // Two workers were requested: parallel regions record both indices.
    assert!(
        log.workers.iter().any(|w| w.worker == 1),
        "worker 1 busy spans missing"
    );
    assert_eq!(report.utilization.len(), 2);
    let trace = trace_is_valid(&log);
    assert!(trace.contains("\"ph\":\"X\""), "trace has slices");
    assert!(trace.contains("worker-1"), "trace names the worker row");
}

fn trace_is_valid(log: &tensorlite::SpanLog) -> String {
    let trace = roofline::trace_json(log).expect("the replay moves no span");
    superchip_sim::telemetry::validate_json(&trace).expect("trace must be valid JSON");
    trace
}

/// Whole nanoseconds of a replayed time.
fn nanos(t: superchip_sim::SimTime) -> u64 {
    (t.as_secs() * 1e9).round() as u64
}

#[test]
fn a_measured_run_replays_exactly_on_one_row_per_track() {
    for threads in [1usize, 2] {
        let (_report, log) = measure(RooflineArgs {
            threads,
            steps: 2,
            ..RooflineArgs::default()
        });
        assert_eq!(log.dropped, 0, "threads={threads}");
        let trace = roofline::measured_trace(&log).expect("the replay moves no span");

        // Submission order is kernels, regions, workers, each in log order.
        let spans: Vec<(u64, u64)> = log
            .kernels
            .iter()
            .map(|s| (s.start_nanos, s.dur_nanos))
            .chain(log.regions.iter().map(|s| (s.start_nanos, s.dur_nanos)))
            .chain(log.workers.iter().map(|s| (s.start_nanos, s.dur_nanos)))
            .collect();
        let t0 = spans.iter().map(|&(start, _)| start).min().unwrap();
        assert_eq!(trace.intervals().len(), spans.len(), "threads={threads}");
        for (iv, &(start, dur)) in trace.intervals().iter().zip(&spans) {
            assert_eq!(nanos(iv.start), start - t0, "threads={threads}: {iv:?}");
            assert_eq!(nanos(iv.duration()), dur, "threads={threads}: {iv:?}");
        }

        // One row per driver track, per region-launching track and per
        // worker index.
        let expected: BTreeSet<String> = log
            .kernels
            .iter()
            .map(|s| format!("driver-{}", s.track))
            .chain(
                log.regions
                    .iter()
                    .map(|s| format!("driver-{}:regions", s.track)),
            )
            .chain(log.workers.iter().map(|s| format!("worker-{}", s.worker)))
            .collect();
        let rows: BTreeSet<String> = trace.resource_names().iter().cloned().collect();
        assert_eq!(trace.resource_names().len(), rows.len(), "row names repeat");
        assert_eq!(rows, expected, "threads={threads}");
        if threads == 2 {
            assert!(rows.contains("worker-1") && rows.iter().any(|r| r.ends_with(":regions")));
        }
    }
}

#[test]
fn a_measured_trace_analyzes_like_a_simulated_one() {
    let (_report, log) = measure(RooflineArgs {
        threads: 2,
        steps: 2,
        ..RooflineArgs::default()
    });
    let trace = roofline::measured_trace(&log).expect("the replay moves no span");
    let report = analyze(&trace);
    assert_eq!(report.makespan_us, trace.makespan_us());
    assert!(report.makespan_us > 0 && !report.critical_path.is_empty());
    assert_eq!(report.stalls.len(), trace.resource_names().len());
    for r in &report.stalls {
        assert_eq!(r.busy_us + r.idle_us, report.makespan_us, "{r:?}");
        assert_eq!(r.by_class.iter().sum::<u64>(), r.idle_us, "{r:?}");
    }
}

#[test]
fn span_recording_leaves_deterministic_artifacts_byte_identical() {
    let args = JournalArgs {
        steps: 4,
        seed: 5,
        ..JournalArgs::default()
    };
    let meta = [("seed", "5".to_string()), ("steps", "4".to_string())];

    let off = journal::journaled_run(args).expect("journaled run (spans off)");
    let off_journal = off.journal().expect("journal enabled");
    let (jsonl_off, snap_off) = (off_journal.to_jsonl(), off_journal.snapshot_json(&meta));

    let timer = Recorder::traced(StoragePrecision::F32);
    let on = timer
        .scope(|| journal::journaled_run(args))
        .expect("journaled run (spans on)");
    let log = timer.take_log();
    let on_journal = on.journal().expect("journal enabled");

    assert!(
        !log.kernels.is_empty(),
        "spans-on run must actually have recorded kernels"
    );
    assert_eq!(
        jsonl_off,
        on_journal.to_jsonl(),
        "journal JSONL must be byte-identical with span recording on"
    );
    assert_eq!(
        snap_off,
        on_journal.snapshot_json(&meta),
        "metrics snapshot must be byte-identical with span recording on"
    );
}
