//! The `repro -- profile <system>` subcommand: run any registered system
//! on the smoke workload and emit a machine-readable run profile —
//! a Perfetto-loadable Chrome trace (slices + counter tracks) and a
//! versioned JSON metrics snapshot.
//!
//! Both outputs are derived purely from simulated time, so repeated runs
//! are byte-identical (see `tests/telemetry.rs`).

use baselines::standard_registry;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::{presets, single_chip_cluster};
use superoffload::report::RunProfile;
use superoffload::system::Infeasible;

use crate::experiments::FIG10_BATCH;

/// Model used by the profile smoke workload (matches `repro -- systems`).
pub const PROFILE_MODEL: &str = "3B";

/// Runs `system` (a name from [`standard_registry`]) on the single-chip
/// smoke workload and returns its [`RunProfile`].
///
/// Returns `Err(None)` when the name is unknown, `Err(Some(reason))` when
/// the workload is infeasible on the smoke configuration.
pub fn profile_system(system: &str) -> Result<RunProfile, Option<Infeasible>> {
    let reg = standard_registry();
    let sys = reg.get(system).ok_or(None)?;
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let workload = Workload::new(
        ModelConfig::by_name(PROFILE_MODEL).expect("smoke model registered"),
        FIG10_BATCH,
        crate::experiments::SEQ,
    );
    sys.simulate_profiled(&cluster, 1, &workload).map_err(Some)
}

/// File names for a system's profile outputs:
/// `(chrome trace, metrics snapshot)`.
pub fn profile_paths(system: &str) -> (String, String) {
    (
        format!("profile_{system}.trace.json"),
        format!("profile_{system}.json"),
    )
}

/// Prints a human summary of a profile: throughput, pool peaks, and the
/// busiest counters.
pub fn print_profile(system: &str, profile: &RunProfile) {
    let r = &profile.report;
    println!("# Profile: {system} ({PROFILE_MODEL}, batch {FIG10_BATCH}, 1 chip)");
    println!(
        "  iter {:.1} ms, {:.1} TFLOPS, gpu util {:.1}%",
        r.iter_time.as_secs() * 1e3,
        r.tflops,
        r.gpu_util * 100.0
    );
    for (pool, peak) in &r.peaks {
        println!(
            "  peak {pool:<4} {:>8.2} GiB",
            *peak as f64 / (1u64 << 30) as f64
        );
    }
    let mut counters: Vec<(&String, &u64)> = profile.metrics.counters().iter().collect();
    counters.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (name, value) in counters.iter().take(8) {
        println!("  counter {name:<28} {value}");
    }
}

/// Normalizes the user-facing spelling (underscores → hyphens, matching
/// `repro -- analyze`) and runs the profile, returning the registry name
/// actually used — so artifacts are always named for the canonical
/// spelling (`profile_zero-offload.json`, never `profile_zero_offload.json`).
///
/// # Errors
/// A CLI-ready message for unknown systems or infeasible workloads.
pub fn resolve_and_profile(system: &str) -> Result<(String, RunProfile), String> {
    let name = crate::sysname::normalize_system_name(system);
    let profile = profile_system(&name).map_err(|e| match e {
        None => crate::sysname::UnknownSystem::new(system).to_string(),
        Some(reason) => format!("'{name}' is infeasible on the smoke workload: {reason}"),
    })?;
    Ok((name, profile))
}

/// Entry point for `repro -- profile <system> [--out-dir <dir>]`: runs,
/// writes, and summarizes the profile. Returns an error message suitable
/// for the CLI on failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let system = args.first().filter(|a| !a.starts_with("--")).ok_or(
        "usage: repro profile <system> [--out-dir <dir>]  (see `repro systems` for names)",
    )?;
    let out_dir = crate::cli::parse_out_dir(args)?;
    let (name, profile) = resolve_and_profile(system)?;
    print_profile(&name, &profile);
    let (trace_name, metrics_name) = profile_paths(&name);
    let dir = std::path::Path::new(&out_dir);
    crate::cli::write_artifacts(&[
        (dir.join(trace_name), profile.chrome_trace_json()),
        (dir.join(metrics_name), profile.snapshot_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_system_lists_registry() {
        let err = profile_system("no-such-system");
        assert!(matches!(err, Err(None)));
        let msg = run(&["no-such-system".to_string()]).unwrap_err();
        assert!(msg.contains("superoffload"), "{msg}");
        assert!(msg.contains("zero-offload"), "{msg}");
        // A flag in system position is a usage error, not a lookup.
        let msg = run(&["--out-dir".to_string()]).unwrap_err();
        assert!(msg.contains("usage:"), "{msg}");
    }

    #[test]
    fn superoffload_profile_has_counters_slices_and_pools() {
        let p = profile_system("superoffload").expect("smoke workload fits");
        let trace = p.chrome_trace_json();
        assert!(trace.contains("\"ph\":\"X\""), "missing slices");
        assert!(trace.contains("\"ph\":\"C\""), "missing counters");
        assert!(trace.contains("mem:hbm"), "missing memory pool track");
        assert!(trace.contains("bw:"), "missing link bandwidth track");
        let snap = p.snapshot_json();
        assert!(snap.contains("\"system\": \"superoffload\""), "{snap}");
        assert!(p.report.peak_bytes("hbm").unwrap_or(0) > 0);
    }

    #[test]
    fn underscore_spellings_normalize_to_registry_names() {
        // The registry is hyphenated; the raw underscore spelling misses…
        assert!(matches!(profile_system("zero_offload"), Err(None)));
        // …but the CLI path normalizes it and names artifacts canonically.
        let (name, profile) = resolve_and_profile("zero_offload").expect("normalized");
        assert_eq!(name, "zero-offload");
        assert!(profile
            .snapshot_json()
            .contains("\"system\": \"zero-offload\""));
        let (trace, metrics) = profile_paths(&name);
        assert_eq!(trace, "profile_zero-offload.trace.json");
        assert_eq!(metrics, "profile_zero-offload.json");
        // Still-unknown names keep reporting the user's own spelling.
        let msg = resolve_and_profile("no_such_system").unwrap_err();
        assert!(msg.contains("unknown system 'no_such_system'"), "{msg}");
    }
}
