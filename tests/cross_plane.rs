//! Integration tests tying the two planes together: the accounting used by
//! the performance plane must agree with the numeric plane's real objects,
//! and the policy modules must compose coherently.

use llm_model::memory::ModelStateMemory;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::{ModelConfig, Workload};
use superchip_sim::engine::TaskTag;
use superchip_sim::presets;
use superchip_sim::trace::Interval;
use superoffload::bucket::{BucketPlan, DEFAULT_BUCKET_BYTES};
use superoffload::casting::CastPlacement;
use superoffload::policy::{choose_policy, WeightPolicy};
use superoffload::schedule::{simulate_single_chip_profiled, SuperOffloadOptions};

/// The real flat model's parameter count matches the analytic formula for
/// a same-shaped config (with learned positions added, which the analytic
/// count excludes by its RoPE convention).
#[test]
fn real_model_matches_analytic_param_count() {
    let g = GptConfig {
        vocab: 100,
        hidden: 64,
        layers: 3,
        heads: 4,
        max_seq: 32,
    };
    let model = GptModel::new(g.clone(), 1);
    let mut cfg = ModelConfig::new("t", g.layers as u32, g.hidden as u32);
    cfg.vocab = g.vocab as u32;
    let analytic = cfg.param_count() as usize;
    let learned_positions = g.max_seq * g.hidden;
    assert_eq!(model.num_params(), analytic + learned_positions);
}

/// Bucketizing the real model's flat vector covers every parameter exactly
/// once — buckets are literally sub-ranges of the same storage the STV
/// engine rolls back.
#[test]
fn bucket_plan_partitions_real_flat_model() {
    let model = GptModel::new(GptConfig::tiny(), 2);
    let plan = BucketPlan::new(model.num_params() as u64, 4096, 1);
    let total: u64 = (0..plan.num_buckets).map(|i| plan.bucket_elems(i)).sum();
    assert_eq!(total, model.num_params() as u64);
    // Every view of the model falls inside the covered range.
    for v in model.views() {
        assert!(v.offset + v.len <= model.num_params());
    }
}

/// The 16Ψ accounting matches a literal sum over the mixed-precision
/// buffers the numeric plane would allocate.
#[test]
fn sixteen_psi_matches_buffer_sum() {
    let n = 12_345u64;
    let m = ModelStateMemory::for_params(n);
    let fp16 = 2 * n;
    let fp32 = 4 * n;
    // fp16 params + fp16 grads + fp32 master + fp32 m + fp32 v
    assert_eq!(m.total(), fp16 + fp16 + fp32 + fp32 + fp32);
}

/// Policy and casting compose: on a GH200 the adaptive stack picks
/// GPU-side casting and goes weight-stationary for small models.
#[test]
fn adaptive_stack_is_coherent_on_gh200() {
    let chip = presets::gh200_chip();
    let wl = Workload::new(ModelConfig::appendix_a_5b(), 8, 2048);

    assert_eq!(choose_policy(&chip, &wl, 0), WeightPolicy::Stationary);
    assert_eq!(
        CastPlacement::choose(&chip, DEFAULT_BUCKET_BYTES / 4),
        CastPlacement::GpuCastMoveFp32
    );
}

/// §4.1's placement, read from the trace of the builder that decides it:
/// compute stays on the GPU, the optimizer runs on the CPU except for one
/// trailing run of retained buckets (§4.3), the parameter casts follow
/// [`CastPlacement::choose`] (§4.5), and a GH200 streams no weights (§4.2).
#[test]
fn superoffload_trace_places_work_as_section_4_1_says() {
    let wl = Workload::new(ModelConfig::appendix_a_5b(), 8, 2048);
    let chips = [
        ("GH200", presets::gh200_chip()),
        ("DGX-2", presets::dgx2_chip()),
        ("DGX-A100", presets::dgx_a100_chip()),
    ];
    for (name, chip) in chips {
        let profile = simulate_single_chip_profiled(&chip, &wl, &SuperOffloadOptions::default())
            .unwrap_or_else(|e| panic!("{name}: 5B is infeasible: {e}"));
        let trace = &profile.trace;
        let on = |iv: &Interval| trace.resource_names()[iv.resource.index()].as_str();
        let intervals = trace.intervals();

        for iv in intervals {
            if iv.label == "fwd" || iv.label.starts_with("bwd[") {
                assert_eq!(on(iv), "gpu", "{name}: {} left the GPU", iv.label);
            }
        }
        assert!(intervals.iter().any(|iv| iv.label == "fwd"), "{name}");

        // Tasks are submitted iteration by iteration, each closed by its
        // gate, so the intervals split into iterations at the gates.
        let mut retained_per_iter = Vec::new();
        for iteration in intervals.split_inclusive(|iv| iv.label == "iter-gate") {
            let mut gpu_buckets = Vec::new();
            let mut steps = 0;
            for iv in iteration
                .iter()
                .filter(|iv| iv.tag == TaskTag::OptimizerStep)
            {
                steps += 1;
                let gpu_bucket = iv
                    .label
                    .strip_prefix("step-gpu[")
                    .and_then(|rest| rest.strip_suffix(']'))
                    .map(|bi| bi.parse::<u32>().expect("a bucket index"));
                match gpu_bucket {
                    Some(bi) => {
                        assert_eq!(on(iv), "gpu", "{name}: {} left the GPU", iv.label);
                        gpu_buckets.push(bi);
                    }
                    None => assert_eq!(on(iv), "cpu", "{name}: {} left the CPU", iv.label),
                }
            }
            gpu_buckets.sort_unstable();
            let retained = gpu_buckets.len() as u32;
            assert!(retained < steps, "{name}: no bucket steps on the CPU");
            assert_eq!(
                gpu_buckets,
                (steps - retained..steps).collect::<Vec<_>>(),
                "{name}: the GPU-stepped buckets are not the trailing run"
            );
            retained_per_iter.push(retained);
        }
        assert!(
            retained_per_iter.len() >= 2,
            "{name}: {retained_per_iter:?}"
        );
        assert!(
            retained_per_iter.iter().all(|&n| n == retained_per_iter[0]),
            "{name}: retention changes between iterations: {retained_per_iter:?}"
        );

        let gpu_param_casts = intervals
            .iter()
            .any(|iv| iv.label.starts_with("cast-param-gpu["));
        assert_eq!(
            gpu_param_casts,
            CastPlacement::choose(&chip, DEFAULT_BUCKET_BYTES / 4)
                == CastPlacement::GpuCastMoveFp32,
            "{name}: parameter casts disagree with CastPlacement::choose"
        );

        if name == "GH200" {
            assert!(
                intervals.iter().all(|iv| iv.label != "weight-fetch-fwd"),
                "GH200: a weight-stationary 5B streams weights"
            );
        }
    }
}

/// On a PCIe-era chip the same adaptive stack flips to the conventional
/// choices — the paper's "revisit the assumptions" point, in reverse.
#[test]
fn adaptive_stack_reverts_on_pcie() {
    let chip = presets::dgx2_chip();
    assert_eq!(
        CastPlacement::choose(&chip, DEFAULT_BUCKET_BYTES / 4),
        CastPlacement::CpuCastMoveFp16Fused
    );
}

/// A full tiny training step with FP16 gradient round-tripping keeps every
/// model-state buffer finite — the invariant the validator protects.
#[test]
fn tiny_training_keeps_states_finite() {
    use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, GraceAdam};
    use tensorlite::cast::{f16_to_f32_slice, f32_to_f16_slice};

    let mut model = GptModel::new(GptConfig::tiny(), 9);
    let mut pile = llm_model::SyntheticPile::new(64, 9);
    let mut state = AdamState::new(model.num_params());
    let cfg = AdamConfig::default();
    for t in 1..=5 {
        model.zero_grads();
        let (x, y) = pile.next_sequence(16);
        model.forward_backward(&x, &y).unwrap();
        // FP16 round trip, as if the gradients crossed the C2C link.
        let grads = f16_to_f32_slice(&f32_to_f16_slice(model.grads()));
        GraceAdam::default().step(&cfg, t, model.params_mut(), &grads, &mut state);
        assert!(model.params().iter().all(|p| p.is_finite()));
        assert!(state.v.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
