//! Fleet-refactor guardrail: the single-node path must be bit-identical to
//! the pre-refactor single-chip path for every registered system.
//!
//! The lease refactor moved every schedule builder from ambient
//! `CPU_USABLE`/`GPU_USABLE` globals onto per-node
//! [`NodeLease`](superoffload::fleet::NodeLease)s, and the scale sweep runs
//! its `--nodes 1` point on `gh200_superchip_fleet(1)` instead of the
//! single-chip cluster the profile/analyze subcommands use. Those two
//! cluster spellings are structurally identical, so *every* artifact a
//! system emits — metrics snapshot, Chrome trace, analysis snapshot — must
//! come out byte-equal. Any drift here means the refactor changed the
//! modeled numbers, which it must not.

use baselines::standard_registry;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::{presets, single_chip_cluster};
use superoffload_bench::experiments::{FIG10_BATCH, SEQ};
use superoffload_bench::profile::PROFILE_MODEL;

#[test]
fn every_system_is_bit_identical_on_a_one_node_fleet() {
    let reg = standard_registry();
    let workload = Workload::new(
        ModelConfig::by_name(PROFILE_MODEL).expect("smoke model registered"),
        FIG10_BATCH,
        SEQ,
    );
    let chip_cluster = single_chip_cluster(&presets::gh200_chip());
    let fleet = presets::gh200_superchip_fleet(1);
    for sys in reg.iter() {
        let name = sys.name();
        let legacy = sys.simulate_profiled(&chip_cluster, 1, &workload);
        let leased = sys.simulate_profiled(&fleet, 1, &workload);
        match (legacy, leased) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.snapshot_json(),
                    b.snapshot_json(),
                    "{name}: metrics snapshot drifted"
                );
                assert_eq!(
                    a.chrome_trace_json(),
                    b.chrome_trace_json(),
                    "{name}: chrome trace drifted"
                );
                assert_eq!(
                    a.analysis_json(),
                    b.analysis_json(),
                    "{name}: analysis snapshot drifted"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{name}: reason drifted");
            }
            (a, b) => panic!(
                "{name}: feasibility diverged between cluster spellings: \
                 single-chip {:?} vs fleet {:?}",
                a.map(|p| p.report.feasible()),
                b.map(|p| p.report.feasible()),
            ),
        }
    }
}
