//! Property-based tests of SuperOffload's policy and planning invariants.

use llm_model::{ModelConfig, Workload};
use proptest::prelude::*;
use superchip_sim::{presets, single_chip_cluster, SimTime};
use superoffload::bucket::{min_retained, BucketPlan};
use superoffload::casting::CastPlacement;
use superoffload::costs::{pipeline_step_time, OptimizerImpl};
use superoffload::policy::{choose_policy, flow_efficiency, WeightPolicy};
use superoffload::{OffloadSystem, SuperOffload};

proptest! {
    /// Bucket plans always cover every element exactly once, with all full
    /// buckets except possibly the last.
    #[test]
    fn bucket_plans_partition(total in 1u64..10_000_000_000, bucket_kb in 1u64..262_144,
                              retained in 0u32..1000) {
        let plan = BucketPlan::new(total, bucket_kb * 1024, retained);
        let sum: u64 = (0..plan.num_buckets).map(|i| plan.bucket_elems(i)).sum();
        prop_assert_eq!(sum, total);
        for i in 0..plan.num_buckets.saturating_sub(1) {
            prop_assert_eq!(plan.bucket_elems(i), plan.elems_per_bucket);
        }
        prop_assert!(plan.retained_on_gpu <= plan.num_buckets);
        prop_assert_eq!(plan.cpu_buckets() + plan.retained_on_gpu, plan.num_buckets);
        // Retained flags are a suffix in production order.
        let mut seen_retained = false;
        for i in 0..plan.num_buckets {
            if plan.is_retained(i) {
                seen_retained = true;
            } else {
                prop_assert!(!seen_retained, "retention must be a trailing suffix");
            }
        }
    }

    /// Flow efficiency is monotone in batch, seq, and bandwidth, and always
    /// a valid fraction.
    #[test]
    fn flow_efficiency_monotone(b in 1u32..64, s in 128u64..1_000_000,
                                bw in 1e9f64..1e12, peak in 1e12f64..2e15) {
        let e = flow_efficiency(b, s, bw, peak);
        prop_assert!((0.0..1.0).contains(&e));
        prop_assert!(flow_efficiency(b + 1, s, bw, peak) >= e);
        prop_assert!(flow_efficiency(b, s * 2, bw, peak) >= e);
        prop_assert!(flow_efficiency(b, s, bw * 2.0, peak) >= e);
        prop_assert!(flow_efficiency(b, s, bw, peak * 2.0) <= e);
    }

    /// The weight policy always yields a residency fraction in [0, 1], and
    /// reserving more GPU memory never increases it.
    #[test]
    fn policy_residency_fraction_valid(layers in 10u32..80, hidden_pow in 11u32..14,
                                       reserved_gb in 0u64..64) {
        let chip = presets::gh200_chip();
        let cfg = ModelConfig::new("t", layers, 1 << hidden_pow);
        let wl = Workload::new(cfg, 8, 2048);
        let base = choose_policy(&chip, &wl, 0).resident_fraction();
        let tighter = choose_policy(&chip, &wl, reserved_gb << 30).resident_fraction();
        prop_assert!((0.0..=1.0).contains(&base));
        prop_assert!((0.0..=1.0).contains(&tighter));
        prop_assert!(tighter <= base + 1e-12);
    }

    /// Stationary policy implies the FP16 weights genuinely fit.
    #[test]
    fn stationary_implies_fit(layers in 5u32..100, hidden_pow in 11u32..14) {
        let chip = presets::gh200_chip();
        let cfg = ModelConfig::new("t", layers, 1 << hidden_pow);
        let wl = Workload::new(cfg.clone(), 8, 2048);
        if choose_policy(&chip, &wl, 0) == WeightPolicy::Stationary {
            prop_assert!(4 * cfg.param_count() <= chip.gpu.mem_bytes);
        }
    }

    /// min_retained is monotone in the backward speed: a slower backward
    /// (more time per element) needs at least as much retention... inverted:
    /// a FASTER backward (less overlap window) needs >= retention.
    #[test]
    fn min_retained_monotone_in_bwd_speed(params in 100_000_000u64..5_000_000_000) {
        let chip = presets::gh200_chip();
        let slow_bwd = chip.gpu.time_for_flops(4.0 * 64.0 * 2048.0);
        let fast_bwd = slow_bwd / 8.0;
        let n_slow = min_retained(&chip, params, 64 << 20,
            CastPlacement::GpuCastMoveFp32, OptimizerImpl::GraceAdam, slow_bwd);
        let n_fast = min_retained(&chip, params, 64 << 20,
            CastPlacement::GpuCastMoveFp32, OptimizerImpl::GraceAdam, fast_bwd);
        prop_assert!(n_fast >= n_slow, "fast bwd {n_fast} < slow bwd {n_slow}");
    }

    /// Pipeline step time is monotone in parameters and bounded below by the
    /// kernel time.
    #[test]
    fn pipeline_time_bounds(params in 1u64..10_000_000_000) {
        let cpu = presets::grace_cpu(480 * superchip_sim::GB);
        for opt in [OptimizerImpl::GraceAdam, OptimizerImpl::CpuAdam, OptimizerImpl::PtCpu] {
            let kernel = opt.step_time(&cpu, params);
            let pipeline = pipeline_step_time(opt, &cpu, params);
            prop_assert!(pipeline >= kernel);
            prop_assert!(pipeline_step_time(opt, &cpu, params * 2) >= pipeline);
        }
    }

    /// Cast round trips are positive and monotone in size for every strategy.
    #[test]
    fn cast_costs_monotone(elems in 1u64..1_000_000_000) {
        let chip = presets::gh200_chip();
        for strategy in [
            CastPlacement::GpuCastMoveFp32,
            CastPlacement::CpuCastMoveFp16Pageable,
            CastPlacement::CpuCastMoveFp16Fused,
        ] {
            let t1 = strategy.round_trip_time(&chip, elems);
            let t2 = strategy.round_trip_time(&chip, elems * 2);
            prop_assert!(t1 > SimTime::ZERO);
            prop_assert!(t2 >= t1);
        }
    }

    /// The single-chip schedule never reports nonsense: finite TFLOPS,
    /// utilizations in [0, 1], and OOM exactly when no plan exists.
    #[test]
    fn schedule_reports_are_sane(model_idx in 0usize..8, batch_pow in 0u32..4) {
        let names = ["1B", "3B", "5B", "8B", "10B", "13B", "20B", "25B"];
        let cluster = single_chip_cluster(&presets::gh200_chip());
        let wl = Workload::new(
            ModelConfig::by_name(names[model_idx]).unwrap(),
            1 << batch_pow,
            2048,
        );
        let r = SuperOffload::default().simulate(&cluster, 1, &wl);
        if r.feasible() {
            prop_assert!(r.tflops.is_finite() && r.tflops > 0.0);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.gpu_util));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.cpu_util));
            prop_assert!(r.iter_time > SimTime::ZERO);
            prop_assert!((0.0..=0.55).contains(&r.mfu), "mfu {}", r.mfu);
        } else {
            prop_assert_eq!(r.tflops, 0.0);
        }
    }
}
