//! The `repro -- scale [--nodes A..B] [--system <name>]` subcommand: the
//! multi-Superchip scaling sweep (the paper's §5.1 testbed, 4×GH200 over an
//! HPE Slingshot 11 fabric, generalized to `A..B` nodes).
//!
//! Every point runs a registered system on a [`gh200_superchip_fleet`]
//! cluster of `n` single-Superchip nodes with `ranks = n` and a weakly
//! scaled workload (the smoke model at `FIG10_BATCH × n` global batch, so
//! the per-node batch stays constant). The `n = 1` point is therefore the
//! exact profile smoke configuration — byte-identical to
//! `repro -- profile`, which is what `tests/scale_guardrail.rs` enforces.
//!
//! Per point the sweep reports throughput-per-node (TFLOPS; one Superchip
//! per node, so per-GPU and per-node coincide) and **communication-exposed
//! time**: the GPU's `waiting-on-transfer` stall class from the
//! critical-path analyzer, i.e. GPU idle microseconds bound by a transfer,
//! cast, or collective in flight. All numbers are simulated time, so the
//! emitted `superoffload.scale/v1` snapshot is byte-identical across reruns
//! and gates CI via `repro -- compare` (see `ci/baselines/`).
//!
//! [`gh200_superchip_fleet`]: superchip_sim::presets::gh200_superchip_fleet

use baselines::standard_registry;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::presets;
use superchip_sim::telemetry::{JsonWriter, Layout};
use superchip_sim::StallClass;

use crate::analyze::normalize_system_name;
use crate::experiments::{FIG10_BATCH, SEQ};
use crate::profile::PROFILE_MODEL;

/// Schema identifier stamped into [`sweep_json`] output.
pub const SCALE_SCHEMA: &str = "superoffload.scale/v1";

/// Systems swept when no `--system` is given: the paper's headline system
/// plus the two strongest baselines of its multi-chip evaluation.
pub const DEFAULT_SYSTEMS: [&str; 3] = ["superoffload", "zero-3", "zero-offload"];

/// Node range used when no `--nodes` is given.
pub const DEFAULT_NODES: (u32, u32) = (1, 4);

/// Upper bound on the sweep's node count (keeps a typo'd `--nodes 1..9999`
/// from grinding through thousands of simulations).
pub const MAX_NODES: u32 = 64;

/// Metrics of one feasible sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMetrics {
    /// Steady-state time per optimizer step, microseconds.
    pub iter_time_us: f64,
    /// Effective TFLOPS per node (== per GPU: one Superchip per node).
    pub tflops_per_node: f64,
    /// Aggregate training throughput, tokens per second across the fleet.
    pub tokens_per_sec: f64,
    /// GPU busy fraction over the steady-state iteration.
    pub gpu_util: f64,
    /// GPU idle microseconds charged to [`StallClass::WaitingOnTransfer`]
    /// over the whole traced run — the communication-exposed time.
    pub comm_exposed_us: u64,
    /// `comm_exposed_us` as a fraction of the traced run's makespan.
    pub comm_exposed_frac: f64,
}

/// One point of a system's sweep: the node count and either its metrics or
/// the typed infeasibility reason, rendered for the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Fleet size (nodes == ranks; one Superchip per node).
    pub nodes: u32,
    /// Metrics when feasible, the [`Infeasible`] display string otherwise.
    ///
    /// [`Infeasible`]: superoffload::system::Infeasible
    pub outcome: Result<ScaleMetrics, String>,
}

/// A system's full sweep over the node range.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSweep {
    /// Registry name of the system.
    pub name: String,
    /// One point per node count, ascending.
    pub points: Vec<ScalePoint>,
}

/// Parses a `--nodes` spec: either a single count (`"4"`) or an inclusive
/// range (`"1..8"`).
///
/// # Errors
/// A CLI-ready message for malformed specs, zero counts, inverted ranges,
/// or counts beyond [`MAX_NODES`].
pub fn parse_nodes(spec: &str) -> Result<(u32, u32), String> {
    let (lo, hi) = match spec.split_once("..") {
        Some((a, b)) => {
            let parse = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| format!("--nodes range bound `{s}` is not a count"))
            };
            (parse(a)?, parse(b)?)
        }
        None => {
            let n = spec
                .parse::<u32>()
                .map_err(|_| format!("--nodes `{spec}` is neither a count nor an `A..B` range"))?;
            (n, n)
        }
    };
    if lo == 0 {
        return Err("--nodes counts start at 1".into());
    }
    if lo > hi {
        return Err(format!("--nodes range {lo}..{hi} is inverted"));
    }
    if hi > MAX_NODES {
        return Err(format!("--nodes caps at {MAX_NODES} (asked for {hi})"));
    }
    Ok((lo, hi))
}

/// Resolves the optional `--system` argument into the list of systems to
/// sweep and the artifact path: the default trio writes `scale_sweep.json`,
/// a named system (underscore spellings normalized, as in `repro --
/// profile`) writes `scale_<name>.json`.
pub fn resolve(system: Option<&str>) -> (Vec<String>, String) {
    match system {
        None => (
            DEFAULT_SYSTEMS.iter().map(|s| s.to_string()).collect(),
            "scale_sweep.json".to_string(),
        ),
        Some(s) => {
            let name = normalize_system_name(s);
            let path = format!("scale_{name}.json");
            (vec![name], path)
        }
    }
}

/// The weakly scaled sweep workload for `nodes` nodes: the profile smoke
/// model and sequence length at `FIG10_BATCH × nodes` global batch, so each
/// node keeps the single-chip smoke batch.
pub fn sweep_workload(nodes: u32) -> Workload {
    Workload::new(
        ModelConfig::by_name(PROFILE_MODEL).expect("smoke model registered"),
        FIG10_BATCH * nodes,
        SEQ,
    )
}

/// Runs `system` over `lo..=hi` nodes on the Superchip fleet.
///
/// # Errors
/// A CLI-ready message when the name is not in the registry (infeasible
/// points are *not* errors — they become typed-reason points).
pub fn sweep_system(system: &str, lo: u32, hi: u32) -> Result<SystemSweep, String> {
    let reg = standard_registry();
    let sys = reg
        .get(system)
        .ok_or_else(|| crate::sysname::UnknownSystem::new(system).to_string())?;
    let mut points = Vec::new();
    for nodes in lo..=hi {
        let cluster = presets::gh200_superchip_fleet(nodes);
        let workload = sweep_workload(nodes);
        let outcome = match sys.simulate_profiled(&cluster, nodes, &workload) {
            Err(reason) => Err(reason.to_string()),
            Ok(profile) => {
                let analysis = profile.analyze();
                let gpu = analysis
                    .stalls
                    .iter()
                    .find(|s| s.name == "gpu")
                    .or_else(|| analysis.stalls.iter().find(|s| s.name.starts_with("gpu")))
                    .expect("every schedule registers a gpu resource");
                let comm_exposed_us = gpu.class_us(StallClass::WaitingOnTransfer);
                let r = &profile.report;
                let iter_secs = r.iter_time.as_secs();
                let tokens = (workload.global_batch as u64 * workload.seq) as f64;
                points.push(ScalePoint {
                    nodes,
                    outcome: Ok(ScaleMetrics {
                        iter_time_us: r.iter_time.as_micros(),
                        tflops_per_node: r.tflops,
                        tokens_per_sec: if iter_secs > 0.0 {
                            tokens / iter_secs
                        } else {
                            0.0
                        },
                        gpu_util: r.gpu_util,
                        comm_exposed_us,
                        comm_exposed_frac: if analysis.makespan_us > 0 {
                            comm_exposed_us as f64 / analysis.makespan_us as f64
                        } else {
                            0.0
                        },
                    }),
                });
                continue;
            }
        };
        points.push(ScalePoint { nodes, outcome });
    }
    Ok(SystemSweep {
        name: system.to_string(),
        points,
    })
}

/// Serializes a sweep as the deterministic, versioned
/// [`SCALE_SCHEMA`] JSON document.
///
/// Point objects carry a stable `"name": "nodes-N"` key (so `repro --
/// compare` addresses them by name, not position) and metric keys whose
/// spelling picks the gate direction: `iter-time-us` / `comm-exposed-us`
/// gate lower-is-better, `tflops-per-node` / `tokens_per_sec` / `gpu-util`
/// gate higher-is-better. Infeasible points carry the typed reason as a
/// (non-gating) string; their missing metrics make a feasibility regression
/// fail the gate.
pub fn sweep_json(sweeps: &[SystemSweep], lo: u32, hi: u32) -> String {
    JsonWriter::with_capacity(4096).document(Layout::Block, |doc| {
        doc.str("schema", SCALE_SCHEMA)
            .object("meta", Layout::Block, |m| {
                m.str("model", PROFILE_MODEL)
                    .str("seq", &SEQ.to_string())
                    .str("batch-per-node", &FIG10_BATCH.to_string())
                    .str("nodes", &format!("{lo}..{hi}"));
            })
            .array("systems", Layout::Block, |systems| {
                for sweep in sweeps {
                    systems.object(Layout::Block, |sys| {
                        sys.str("name", &sweep.name);
                        sys.array("points", Layout::Block, |rows| {
                            for p in &sweep.points {
                                rows.object(Layout::Inline, |o| {
                                    o.str("name", &format!("nodes-{}", p.nodes))
                                        .num("nodes", p.nodes);
                                    match &p.outcome {
                                        Ok(m) => {
                                            o.bool("feasible", true)
                                                .num("iter-time-us", m.iter_time_us)
                                                .num("tflops-per-node", m.tflops_per_node)
                                                .num("tokens_per_sec", m.tokens_per_sec)
                                                .num("gpu-util", m.gpu_util)
                                                .num("comm-exposed-us", m.comm_exposed_us)
                                                .num("comm-exposed-frac", m.comm_exposed_frac);
                                        }
                                        Err(reason) => {
                                            o.bool("feasible", false).str("reason", reason);
                                        }
                                    }
                                });
                            }
                        });
                    });
                }
            });
    })
}

/// Prints the human table for one system's sweep.
pub fn print_sweep(sweep: &SystemSweep) {
    println!("## {}", sweep.name);
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>9} {:>16}",
        "nodes", "iter ms", "TFLOPS/node", "tokens/s", "gpu util", "comm-exposed"
    );
    for p in &sweep.points {
        match &p.outcome {
            Ok(m) => println!(
                "{:>5} {:>10.1} {:>12.1} {:>12.0} {:>8.1}% {:>10.1} ms {:>3.0}%",
                p.nodes,
                m.iter_time_us / 1e3,
                m.tflops_per_node,
                m.tokens_per_sec,
                m.gpu_util * 100.0,
                m.comm_exposed_us as f64 / 1e3,
                m.comm_exposed_frac * 100.0,
            ),
            Err(reason) => println!("{:>5} infeasible: {reason}", p.nodes),
        }
    }
}

/// Entry point for `repro -- scale [--nodes A..B] [--system <name>]
/// [--out <path>]`: runs the sweep, prints the tables, and writes the
/// snapshot. `--out` overrides the default artifact path (which
/// stays in the current directory for interactive use); the snapshot bytes
/// are identical either way.
///
/// # Errors
/// A CLI-ready message on malformed flags, unknown systems, or I/O failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let (lo, hi) = match crate::cli::parse_flag(args, "nodes", |v| Some(v.to_string()))? {
        Some(spec) => parse_nodes(&spec)?,
        None => DEFAULT_NODES,
    };
    let system = crate::cli::parse_flag(args, "system", |v| Some(v.to_string()))?;
    let out = crate::cli::parse_flag(args, "out", |v| Some(v.to_string()))?;
    let (systems, default_path) = resolve(system.as_deref());
    let path = out.unwrap_or(default_path);

    println!(
        "# Scale sweep: {PROFILE_MODEL}, seq {SEQ}, batch {FIG10_BATCH}/node (weak scaling), \
         {lo}..{hi} GH200 nodes over Slingshot 11"
    );
    let mut sweeps = Vec::new();
    for s in &systems {
        let sweep = sweep_system(s, lo, hi)?;
        println!();
        print_sweep(&sweep);
        sweeps.push(sweep);
    }

    println!();
    crate::cli::write_artifacts(&[(path, sweep_json(&sweeps, lo, hi))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_system;
    use superchip_sim::telemetry::validate_json;

    #[test]
    fn parse_nodes_accepts_counts_and_ranges() {
        assert_eq!(parse_nodes("4"), Ok((4, 4)));
        assert_eq!(parse_nodes("1..8"), Ok((1, 8)));
        assert_eq!(parse_nodes("2..2"), Ok((2, 2)));
    }

    #[test]
    fn parse_nodes_rejects_bad_specs() {
        for bad in ["0", "0..4", "8..1", "abc", "1..q", "1..9999", ""] {
            assert!(parse_nodes(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn artifact_names_normalize_underscores() {
        let (systems, path) = resolve(Some("zero_offload"));
        assert_eq!(systems, vec!["zero-offload"]);
        assert_eq!(path, "scale_zero-offload.json");
        let (systems, path) = resolve(None);
        assert_eq!(systems, DEFAULT_SYSTEMS.to_vec());
        assert_eq!(path, "scale_sweep.json");
    }

    #[test]
    fn unknown_system_lists_registry() {
        let msg = sweep_system("no-such-system", 1, 1).unwrap_err();
        assert!(msg.contains("superoffload"), "{msg}");
        assert!(msg.contains("zero-offload"), "{msg}");
    }

    #[test]
    fn single_node_point_matches_the_profile_smoke() {
        // The sweep's n = 1 point is the profile smoke run, bit for bit:
        // same cluster shape, same workload, same report numbers.
        let sweep = sweep_system("superoffload", 1, 1).unwrap();
        let m = sweep.points[0].outcome.as_ref().expect("smoke fits");
        let profile = profile_system("superoffload").unwrap();
        assert_eq!(m.iter_time_us, profile.report.iter_time.as_micros());
        assert_eq!(m.tflops_per_node, profile.report.tflops);
        assert_eq!(m.gpu_util, profile.report.gpu_util);
    }

    #[test]
    fn multi_node_points_expose_communication() {
        // ZeRO-3 all-gathers parameters on the critical path at every
        // micro-step: going from one node to two must surface nonzero
        // communication-exposed time and a longer iteration (weak scaling
        // holds per-node batch constant, so comm is the only growth).
        let sweep = sweep_system("zero-3", 1, 2).unwrap();
        let one = sweep.points[0].outcome.as_ref().expect("fits on one node");
        let two = sweep.points[1].outcome.as_ref().expect("fits on two nodes");
        assert!(two.comm_exposed_us > 0, "no comm exposure at 2 nodes");
        assert!(
            two.iter_time_us >= one.iter_time_us,
            "communication should not speed up a weakly scaled iteration: \
             {} < {}",
            two.iter_time_us,
            one.iter_time_us
        );
    }

    #[test]
    fn infeasible_points_carry_typed_reasons() {
        // pytorch-ddp replicates all 16Ψ state per GPU; the smoke model
        // fits, so force a fabric-capacity miss instead: more ranks than
        // the sweep's fleet provides cannot happen through `run` (ranks ==
        // nodes), so exercise the JSON path with a synthetic point.
        let sweeps = vec![SystemSweep {
            name: "demo".into(),
            points: vec![ScalePoint {
                nodes: 2,
                outcome: Err("collective spans 2 ranks but the fabric connects \
                              only 1 GPU endpoints"
                    .into()),
            }],
        }];
        let json = sweep_json(&sweeps, 2, 2);
        validate_json(&json).unwrap();
        assert!(json.contains("\"feasible\": false"), "{json}");
        assert!(json.contains("fabric connects"), "{json}");
    }
}
