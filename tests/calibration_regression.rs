//! Calibration regression tests: pin the headline numbers of EXPERIMENTS.md
//! within tolerance bands so future changes to cost models or schedules
//! cannot silently drift the reproduction away from the paper.

use baselines::zero_infinity::ZeroInfinity;
use baselines::zero_offload::ZeroOffload;
use baselines::OffloadSystem;
use llm_model::{ModelConfig, Workload};
use superchip_sim::{presets, single_chip_cluster};
use superoffload::schedule::SuperOffloadOptions;
use superoffload::SuperOffload;

fn wl(name: &str, batch: u32) -> Workload {
    Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048)
}

fn within(value: f64, target: f64, tol: f64) -> bool {
    (value - target).abs() <= target * tol
}

/// SuperOffload's 5B throughput stays near the paper's 238.9 TFLOPS.
#[test]
fn superoffload_5b_pinned_near_239_tflops() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let r = SuperOffload::default().simulate(&cluster, 1, &wl("5B", 8));
    assert!(
        within(r.tflops, 242.6, 0.08),
        "5B SuperOffload drifted: {:.1} TFLOPS (calibrated 242.6, paper 238.9)",
        r.tflops
    );
}

/// The Table 2 baseline stays near the paper's 116 TFLOPS band.
#[test]
fn ablation_baseline_pinned_near_paper_band() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let r = SuperOffload::with_opts(SuperOffloadOptions::ablation(false, false, false, false))
        .simulate(&cluster, 1, &wl("5B", 8));
    assert!(
        (110.0..165.0).contains(&r.tflops),
        "ablation baseline drifted: {:.1} TFLOPS (paper 116.2)",
        r.tflops
    );
}

/// ZeRO-Offload's 13B configuration keeps the Fig. 4 idle band.
#[test]
fn zero_offload_idle_band_pinned() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let r = ZeroOffload.simulate(&cluster, 1, &wl("13B", 8));
    let idle = 1.0 - r.gpu_util;
    assert!(
        (0.30..0.55).contains(&idle),
        "ZeRO-Offload idle drifted: {:.1}% (paper 40-50%)",
        idle * 100.0
    );
}

/// ZeRO-Infinity stays in the paper's sub-50-TFLOPS band (with margin).
#[test]
fn zero_infinity_band_pinned() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    for name in ["5B", "25B"] {
        let r = ZeroInfinity::default().simulate(&cluster, 1, &wl(name, 8));
        assert!(
            (35.0..60.0).contains(&r.tflops),
            "{name}: ZeRO-Infinity drifted to {:.1} TFLOPS",
            r.tflops
        );
    }
}

/// The C2C bandwidth anchors: ~50 GB/s at 1 MiB, >400 GB/s at 64 MiB.
#[test]
fn c2c_curve_anchors_pinned() {
    let c2c = presets::nvlink_c2c();
    let small = c2c.effective_bandwidth(1_000_000) / 1e9;
    let knee = c2c.effective_bandwidth(64 << 20) / 1e9;
    assert!(
        (40.0..65.0).contains(&small),
        "1 MB anchor drifted: {small:.1} GB/s"
    );
    assert!(knee > 390.0, "64 MiB anchor drifted: {knee:.1} GB/s");
}

/// The modeled Table 3 GraceAdam latencies stay pinned to the paper.
#[test]
fn grace_adam_model_pinned_to_table3() {
    use superoffload::costs::OptimizerImpl;
    let cpu = presets::grace_cpu(480 * superchip_sim::GB);
    let t1 = OptimizerImpl::GraceAdam
        .step_time(&cpu, 1_000_000_000)
        .as_secs();
    let t8 = OptimizerImpl::GraceAdam
        .step_time(&cpu, 8_000_000_000)
        .as_secs();
    assert!(within(t1, 0.082, 0.15), "1B GraceAdam drifted: {t1:.3} s");
    assert!(
        within(t8, 0.706, 0.20),
        "8B GraceAdam drifted: {t8:.3} s (paper 0.608)"
    );
}

/// The 25B single-chip capacity headline holds exactly.
#[test]
fn capacity_headline_pinned() {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let fits = |name| {
        SuperOffload::default()
            .simulate(&cluster, 1, &wl(name, 8))
            .feasible()
    };
    assert!(fits("25B"));
    // The next Appendix-A rung must NOT fit (50B), keeping 25B the headline.
    assert!(!fits("50B"));
}
