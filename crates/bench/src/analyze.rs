//! The `repro -- analyze <system>` subcommand: run any registered system on
//! the smoke workload, feed its trace through the critical-path / stall-
//! attribution analyzer, and emit a human table plus a versioned
//! `superoffload.analysis/v1` JSON snapshot.
//!
//! The snapshot is derived purely from simulated time, so repeated runs are
//! byte-identical — which is what lets `repro -- compare` gate CI against a
//! committed baseline (see `ci/baselines/`).

use superchip_sim::analysis::AnalysisReport;
use superoffload::report::RunProfile;

pub use crate::sysname::normalize_system_name;

/// Runs `system` on the smoke workload and analyzes its trace.
///
/// Returns the normalized system name, the run profile, and the analysis.
///
/// # Errors
/// A CLI-ready message for unknown systems or infeasible workloads.
pub fn analyze_system(system: &str) -> Result<(String, RunProfile, AnalysisReport), String> {
    let (name, profile) = crate::profile::resolve_and_profile(system)?;
    let report = profile.analyze();
    Ok((name, profile, report))
}

/// File name for a system's analysis snapshot.
pub fn analysis_path(system: &str) -> String {
    format!("analysis_{system}.json")
}

/// Entry point for `repro -- analyze <system> [--out <path>]`: runs the
/// analyzer, prints the human table, and writes the snapshot to `--out`,
/// or `analysis_<system>.json` in the cwd.
///
/// # Errors
/// A CLI-ready message on unknown system, missing/bad flags, infeasible
/// workload, or I/O failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let system = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: repro analyze <system> [--out <path>]  (see `repro systems` for names)")?;
    let out = crate::cli::parse_flag(args, "out", |v| Some(v.to_string()))?;
    let (name, profile, report) = analyze_system(system)?;
    println!(
        "# Analysis: {name} ({}, batch {}, 1 chip)",
        crate::profile::PROFILE_MODEL,
        crate::experiments::FIG10_BATCH
    );
    println!();
    print!("{}", report.render_table());
    println!();
    let path = out.unwrap_or_else(|| analysis_path(&name));
    crate::cli::write_artifacts(&[(path, profile.analysis_json())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::engine::ResourceId;

    #[test]
    fn underscore_names_normalize() {
        assert_eq!(normalize_system_name("zero_offload"), "zero-offload");
        assert_eq!(
            normalize_system_name("deep_optimizer_states"),
            "deep-optimizer-states"
        );
        assert_eq!(normalize_system_name("superoffload"), "superoffload");
    }

    #[test]
    fn unknown_system_lists_registry() {
        let msg = analyze_system("no-such-system").unwrap_err();
        assert!(msg.contains("superoffload"), "{msg}");
    }

    #[test]
    fn analysis_is_exact_for_headline_systems() {
        for system in ["superoffload", "zero_offload"] {
            let (name, profile, report) = analyze_system(system).unwrap();
            // Stall attribution must partition the simulator's idle ledger
            // bit-exactly, per resource.
            for (ridx, stalls) in report.stalls.iter().enumerate() {
                let sum: u64 = stalls.by_class.iter().sum();
                assert_eq!(sum, stalls.idle_us, "{name}/{}", stalls.name);
                assert_eq!(
                    stalls.idle_us,
                    profile.trace.idle_us(ResourceId::from_index(ridx)),
                    "{name}/{}",
                    stalls.name
                );
            }
            // Critical-path invariants.
            assert!(report.cp_len_us <= report.makespan_us, "{name}");
            for ridx in 0..profile.trace.resource_names().len() {
                assert!(
                    report.cp_len_us >= profile.trace.busy_us(ResourceId::from_index(ridx)),
                    "{name}: cp shorter than busy time of resource {ridx}"
                );
            }
        }
    }

    #[test]
    fn zero_offload_exposes_optimizer_stall() {
        // The whole point of the paper: ZeRO-Offload's CPU optimizer step
        // leaves the GPU idle. The analyzer must attribute GPU idle time to
        // the optimizer-exposed class.
        let (_, _, report) = analyze_system("zero-offload").unwrap();
        let gpu = report
            .stalls
            .iter()
            .find(|s| s.name == "gpu")
            .expect("gpu resource");
        assert!(
            gpu.class_us(superchip_sim::StallClass::OptimizerExposed) > 0,
            "zero-offload GPU idle should include optimizer-exposed time: {:?}",
            gpu.by_class
        );
    }
}
