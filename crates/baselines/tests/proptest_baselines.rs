//! Property-based tests of system invariants, driven by the registry: every
//! system registered in [`baselines::standard_registry`] is exercised on a
//! grid of (model, ranks, batch) points without any hand-maintained list.

use baselines::standard_registry;
use llm_model::{ModelConfig, Workload};
use proptest::prelude::*;
use superchip_sim::topology::ClusterSpec;
use superchip_sim::{presets, single_chip_cluster};
use superoffload::report::TrainReport;

const NAMES: [&str; 7] = ["1B", "3B", "5B", "8B", "13B", "20B", "25B"];

fn grid_cluster(ranks: u32) -> ClusterSpec {
    if ranks == 1 {
        single_chip_cluster(&presets::gh200_chip())
    } else {
        presets::gh200_nvl2_cluster(2)
    }
}

fn all_reports(cluster: &ClusterSpec, ranks: u32, w: &Workload) -> Vec<TrainReport> {
    standard_registry()
        .iter()
        .map(|s| s.simulate(cluster, ranks, w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Registry-wide grid property: every system on every (model, ranks,
    /// batch) point either returns a feasible report with sane numbers or a
    /// structured `Infeasible` reason with a non-empty message — and the
    /// `simulate` wrapper collapses the latter to a zeroed infeasible
    /// report.
    #[test]
    fn grid_reports_sane_or_structured(
        model_idx in 0usize..NAMES.len(),
        ranks_pow in 0u32..3,
        batch_pow in 0u32..4,
    ) {
        let ranks = 1u32 << ranks_pow;
        let cluster = grid_cluster(ranks);
        let w = Workload::new(
            ModelConfig::by_name(NAMES[model_idx]).unwrap(),
            1 << batch_pow,
            2048,
        );
        for sys in standard_registry().iter() {
            match sys.simulate_traced(&cluster, ranks, &w) {
                Ok((r, _)) => {
                    prop_assert!(r.feasible(), "{}: Ok but infeasible", sys.name());
                    prop_assert!(
                        r.tflops.is_finite() && r.tflops > 0.0,
                        "{}: tflops {}", sys.name(), r.tflops
                    );
                    prop_assert!(
                        (0.0..=1.0 + 1e-9).contains(&r.gpu_util),
                        "{}: gpu_util {}", sys.name(), r.gpu_util
                    );
                    prop_assert!(
                        (0.0..=1.0 + 1e-9).contains(&r.cpu_util),
                        "{}: cpu_util {}", sys.name(), r.cpu_util
                    );
                }
                Err(e) => {
                    prop_assert!(
                        !format!("{e}").is_empty(),
                        "{}: empty infeasibility reason", sys.name()
                    );
                    let collapsed = sys.simulate(&cluster, ranks, &w);
                    prop_assert!(!collapsed.feasible(), "{}", sys.name());
                    prop_assert_eq!(collapsed.tflops, 0.0);
                }
            }
        }
    }

    /// Feasibility is monotone in model size for every registered system:
    /// if a model fits, every smaller Appendix-A model fits too (same
    /// batch).
    #[test]
    fn feasibility_monotone_in_model_size(batch_pow in 0u32..3) {
        let cluster = single_chip_cluster(&presets::gh200_chip());
        let batch = 1u32 << batch_pow;
        let reg = standard_registry();
        for sys in reg.iter() {
            let mut prev_feasible = true;
            for name in NAMES {
                let w = Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048);
                let feasible = sys.simulate(&cluster, 1, &w).feasible();
                if !prev_feasible {
                    prop_assert!(
                        !feasible,
                        "{}: {name} fits but a smaller model did not", sys.name()
                    );
                }
                prev_feasible = feasible;
            }
        }
    }

    /// Simulations are deterministic: repeated runs of the whole registry
    /// are bit-identical, on the error path as well as the report path.
    #[test]
    fn deterministic(model_idx in 0usize..4, ranks_pow in 0u32..2) {
        let ranks = 1u32 << (2 * ranks_pow); // 1 or 4
        let cluster = grid_cluster(ranks);
        let w = Workload::new(ModelConfig::by_name(NAMES[model_idx]).unwrap(), 8, 2048);
        let a = all_reports(&cluster, ranks, &w);
        let b = all_reports(&cluster, ranks, &w);
        prop_assert_eq!(a, b);
        for sys in standard_registry().iter() {
            let ea = sys.simulate_traced(&cluster, ranks, &w).err();
            let eb = sys.simulate_traced(&cluster, ranks, &w).err();
            prop_assert_eq!(ea, eb, "{}", sys.name());
        }
    }

    /// GPU-only systems never use the CPU; offloaders always do (when
    /// feasible).
    #[test]
    fn cpu_usage_matches_system_class(model_idx in 0usize..3) {
        let cluster = single_chip_cluster(&presets::gh200_chip());
        let w = Workload::new(ModelConfig::by_name(NAMES[model_idx]).unwrap(), 8, 2048);
        let reg = standard_registry();
        let d = reg.expect("pytorch-ddp").simulate(&cluster, 1, &w);
        if d.feasible() {
            prop_assert!(d.cpu_util < 1e-9, "DDP used the CPU: {}", d.cpu_util);
        }
        let zo = reg.expect("zero-offload").simulate(&cluster, 1, &w);
        if zo.feasible() {
            prop_assert!(zo.cpu_util > 0.05, "ZeRO-Offload CPU idle: {}", zo.cpu_util);
        }
    }
}
