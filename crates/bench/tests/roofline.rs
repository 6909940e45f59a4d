//! Cross-cutting roofline guarantees:
//!
//! 1. The roofline report's FLOP/byte columns reconcile **bit-exactly**
//!    with an independent `tensorlite::Recorder` ledger over the same
//!    workload, at thread counts 1 / 2 / 7 (the ledger is thread-count
//!    invariant, so the roofline is too).
//! 2. Span recording is a pure observer: the deterministic artifacts
//!    (journal JSONL, metrics snapshot) are byte-identical whether
//!    recording is enabled or disabled.

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
    let trace = roofline::trace_json(log);
    superchip_sim::telemetry::validate_json(&trace).expect("trace must be valid JSON");
    trace
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
