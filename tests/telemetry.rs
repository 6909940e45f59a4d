//! Cross-plane telemetry invariants: profiles are deterministic,
//! Perfetto-loadable, and the wall-clock span counters agree with the
//! simulated-plane statistics.

use baselines::standard_registry;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::workload::Workload;
use llm_model::{ModelConfig, SyntheticPile};
use superchip_sim::telemetry::{validate_json, MetricsRecorder, METRICS_SCHEMA};
use superchip_sim::{presets, single_chip_cluster};
use superoffload::engine::{Discipline, Engine, EngineConfig};
use superoffload::{OffloadSystem, RunProfile, SuperOffload, Trainer};

fn smoke_workload() -> Workload {
    Workload::new(ModelConfig::by_name("3B").unwrap(), 8, 2048)
}

fn tiny_model(seed: u64) -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 43,
            hidden: 16,
            layers: 2,
            heads: 2,
            max_seq: 16,
        },
        seed,
    )
}

/// SuperOffload's profile of the smoke workload on one Superchip.
fn smoke_profile() -> RunProfile {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    SuperOffload::default()
        .simulate_profiled(&cluster, 1, &smoke_workload())
        .expect("smoke fits")
}

/// Two identical runs must produce byte-identical trace and snapshot
/// output: all telemetry derives from simulated time, never wall clock.
#[test]
fn profile_outputs_are_byte_deterministic() {
    let a = smoke_profile();
    let b = smoke_profile();
    assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    assert_eq!(a.snapshot_json(), b.snapshot_json());
}

/// The Chrome trace must carry both slice (`ph:X`) and counter (`ph:C`)
/// events, including at least one memory-pool track and one link
/// bandwidth track, and must be valid JSON.
#[test]
fn chrome_trace_has_slices_and_counter_tracks() {
    let p = smoke_profile();
    let trace = p.chrome_trace_json();
    validate_json(&trace).expect("trace is valid JSON");
    assert!(trace.contains("\"ph\":\"X\""), "missing slice events");
    assert!(trace.contains("\"ph\":\"C\""), "missing counter events");
    assert!(trace.contains("mem:hbm"), "missing HBM pool track");
    assert!(trace.contains("mem:ddr"), "missing DDR pool track");
    assert!(trace.contains("bw:"), "missing link bandwidth track");
}

/// The metrics snapshot is schema-versioned valid JSON and carries the
/// derived report gauges.
#[test]
fn snapshot_is_versioned_and_valid() {
    let p = smoke_profile();
    let snap = p.snapshot_json();
    validate_json(&snap).expect("snapshot is valid JSON");
    assert!(snap.contains(METRICS_SCHEMA), "missing schema tag");
    assert!(snap.contains("report.tflops"), "missing throughput gauge");
    assert!(snap.contains("peak-bytes:hbm"), "missing pool peak gauge");
}

/// Every feasible registry system reports memory-pool high-water marks.
#[test]
fn registry_systems_report_pool_peaks() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let w = smoke_workload();
    for sys in standard_registry().iter() {
        let Ok(p) = sys.simulate_profiled(&cluster, 1, &w) else {
            continue;
        };
        assert!(
            p.report.peak_bytes("hbm").unwrap_or(0) > 0,
            "{} reports no HBM peak",
            sys.name()
        );
    }
}

/// Wall-clock span counters on the real plane must agree with the
/// simulated statistics: one validate span per attempted step, one
/// rollback span per rolled-back step.
#[test]
fn stv_span_counters_agree_with_stats() {
    let mut trainer = Trainer::new(tiny_model(7)).build();
    let mut pile = SyntheticPile::new(43, 7);
    trainer
        .run(12, || pile.next_batch(2, 12))
        .expect("training");
    let stats = trainer.stats();
    let spans = trainer.spans();
    assert_eq!(spans.rollback.count, stats.rollbacks());
    assert_eq!(spans.validate.count, stats.steps + stats.skipped);
    let mut rec = MetricsRecorder::new();
    spans.record_into(&mut rec);
    assert_eq!(
        rec.counter("span.validate.count"),
        stats.steps + stats.skipped
    );
}

/// The standalone engine exposes the same invariant without the trainer,
/// including under clipping stress that forces rollbacks.
#[test]
fn engine_spans_match_engine_stats() {
    let stress = EngineConfig {
        max_grad_norm: 0.05,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(Discipline::Stv, tiny_model(21), 1, stress);
    let mut pile = SyntheticPile::new(37, 21);
    for _ in 0..8 {
        let batch = pile.next_batch(2, 12);
        eng.train_step(&batch).expect("stv step");
    }
    assert_eq!(eng.spans().rollback.count, eng.stats().rollbacks());
    assert_eq!(
        eng.spans().validate.count,
        eng.stats().steps + eng.stats().skipped
    );
}
