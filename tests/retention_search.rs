//! The §4.3 retention search admits candidates on an upper bound of their
//! TFLOPS, scores without profiling only those whose bound can beat the
//! best score so far, and profiles only the winner. This checks it against
//! the plain search it replaces: profile every candidate with its
//! retention pinned and keep the first profile with the highest TFLOPS.
//! The two must agree byte for byte on the report, the telemetry snapshot
//! and the Chrome trace, and on the first infeasibility reason when nothing
//! fits.

use llm_model::{ModelConfig, Workload};
use superchip_sim::presets;
use superoffload::costs::OP_OVERHEAD_TUNED;
use superoffload::policy::WeightPolicy;
use superoffload::schedule::{
    retention_candidates, simulate_single_chip_profiled, SuperOffloadOptions,
};
use superoffload::system::Infeasible;
use superoffload::RunProfile;

/// The plain search: every candidate fully profiled, first maximum kept.
fn reference_search(
    chip: &superchip_sim::ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<RunProfile, Infeasible> {
    let mut best: Option<RunProfile> = None;
    let mut first_err = None;
    for n in retention_candidates(chip, workload, opts) {
        let pinned = SuperOffloadOptions {
            retained_buckets: Some(n),
            ..*opts
        };
        match simulate_single_chip_profiled(chip, workload, &pinned) {
            Ok(p) => {
                if best
                    .as_ref()
                    .is_none_or(|b| p.report.tflops > b.report.tflops)
                {
                    best = Some(p);
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    best.ok_or_else(|| first_err.expect("an empty grid records an error"))
}

fn assert_search_matches(label: &str, workload: &Workload, opts: &SuperOffloadOptions) {
    let chip = presets::gh200_chip();
    assert_eq!(opts.retained_buckets, None, "{label}: automatic retention");
    let got = simulate_single_chip_profiled(&chip, workload, opts);
    match (got, reference_search(&chip, workload, opts)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.report, want.report, "{label}: report");
            assert!(
                got.snapshot_json() == want.snapshot_json(),
                "{label}: snapshot differs"
            );
            assert!(
                got.chrome_trace_json() == want.chrome_trace_json(),
                "{label}: chrome trace differs"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}: infeasibility"),
        (got, want) => panic!(
            "{label}: search gave {:?}, reference {:?}",
            got.map(|p| p.report.tflops),
            want.map(|p| p.report.tflops)
        ),
    }
}

/// The sim-search ladder of the benchmark: Appendix-A sizes up to 25B,
/// rung `i` at bucket {16, 64, 256} MiB `[i mod 3]` and batch {4, 8, 16}
/// `[(i / 3) mod 3]`, sequence 2048.
fn ladder(overhead_scale: f64) {
    let rungs = ModelConfig::appendix_a()
        .into_iter()
        .filter(|m| m.param_billions() < 26.0)
        .enumerate();
    for (i, model) in rungs {
        let batch = [4, 8, 16][(i / 3) % 3];
        let bucket_mib: u64 = [16, 64, 256][i % 3];
        let label = format!("{} b{batch} {bucket_mib}MiB x{overhead_scale}", model.name);
        let opts = SuperOffloadOptions {
            bucket_bytes: bucket_mib << 20,
            op_overhead_secs: OP_OVERHEAD_TUNED * overhead_scale,
            ..SuperOffloadOptions::default()
        };
        assert_search_matches(&label, &Workload::new(model, batch, 2048), &opts);
    }
}

#[test]
fn ladder_at_half_overhead_matches_reference() {
    ladder(0.5);
}

#[test]
fn ladder_at_one_and_a_half_overhead_matches_reference() {
    ladder(1.5);
}

#[test]
fn table2_ablation_rows_match_reference() {
    let workload = Workload::new(ModelConfig::by_name("5B").unwrap(), 8, 2048);
    let rows = [
        (false, false, false, false),
        (true, false, false, false),
        (true, true, false, false),
        (true, true, true, false),
        (true, true, true, true),
    ];
    for (i, &(adam, sac, stv, repartition)) in rows.iter().enumerate() {
        let opts = SuperOffloadOptions::ablation(adam, sac, stv, repartition);
        assert_search_matches(&format!("table2 row {i}"), &workload, &opts);
    }
}

/// One of the regimes where the bound is loosest, at default options
/// apart from the bucket size and weight policy.
fn loose(name: &str, batch: u32, bucket_mib: u64, weight_policy: Option<WeightPolicy>) {
    let opts = SuperOffloadOptions {
        bucket_bytes: bucket_mib << 20,
        weight_policy,
        ..SuperOffloadOptions::default()
    };
    let label = format!("{name} b{batch} {bucket_mib}MiB {weight_policy:?}");
    let workload = Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048);
    assert_search_matches(&label, &workload, &opts);
}

#[test]
fn loose_bound_grad_accumulation_at_large_batch_matches_reference() {
    loose("8B", 32, 256, None);
}

/// Two micro-steps: only the late suffixes of the per-resource term, which
/// skip the first micro-step's early CPU work, prune here.
#[test]
fn loose_bound_grad_accumulation_at_13b_matches_reference() {
    loose("13B", 8, 64, None);
}

/// CPU-bound: only the per-resource term prunes (12B here is a ladder
/// rung).
#[test]
fn loose_bound_cpu_bound_13b_matches_reference() {
    loose("13B", 4, 16, None);
}

#[test]
fn loose_bound_forced_weight_flow_matches_reference() {
    loose("5B", 8, 64, Some(WeightPolicy::FULL_FLOW));
}
