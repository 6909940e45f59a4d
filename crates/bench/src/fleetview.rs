//! The `repro -- fleetview [--nodes N] [--system <name>] [--seed S]
//! [--out-dir D]` subcommand: the fleet observatory.
//!
//! Registered systems schedule from a rank-0 perspective — their traces
//! carry one node's resources plus the collectives that bind it to the
//! rest of the fleet. Fleetview turns that single perspective into a
//! cross-node view by **replaying** the rank-0 trace onto every node of
//! one simulator:
//!
//! - every resource is re-registered once per node under the
//!   `node<N>/<name>` namespace (node 0 keeps the bare names),
//! - every task is replicated per node; compute and cast durations are
//!   scaled by a deterministic per-node skew factor (0–6 % slowdown,
//!   hashed from `--seed` and the node id) that models fleet
//!   heterogeneity,
//! - collective replicas depend on *all* nodes' replicas of the original
//!   dependencies — the cross-node barrier that makes the slowest node
//!   bind the fleet.
//!
//! Running the replay instrumented yields one trace whose per-node
//! analyzer ledgers join into a cross-node skew report: per-node makespan
//! and idle-class breakdown, the binding collective on the global
//! critical path, and a straggler ranking. Everything derives from
//! simulated time, so all five artifacts — the
//! [`FLEETVIEW_SCHEMA`] snapshot, the metrics snapshot (with duration
//! histograms), the `superoffload.events/v1` causal event log, the
//! Perfetto-loadable Chrome trace (per-node process tracks + cross-node
//! flow arrows), and the self-contained HTML dashboard — are
//! byte-identical across reruns.

use std::fmt::Write as _;
use std::path::Path;

use baselines::standard_registry;
use superchip_sim::analysis::{analyze, AnalysisReport, STALL_CLASSES};
use superchip_sim::chrome_trace::to_chrome_trace_with_counters;
use superchip_sim::engine::{node_of_resource, ResourceId, TaskId};
use superchip_sim::presets;
use superchip_sim::telemetry::{JsonWriter, Layout, MetricsRecorder};
use superchip_sim::{EventLog, SimTime, Simulator, TaskKind, TaskSpec, Trace};
use superoffload::fleet::{FleetCtx, LeaseLedger};

use crate::cli::parse_flag;
use crate::diff::esc_html;
use crate::experiments::{FIG10_BATCH, SEQ};
use crate::journal::{fmt_short, html_page, stat_tile};
use crate::profile::PROFILE_MODEL;
use crate::scale::sweep_workload;
use crate::sysname;

/// Schema identifier stamped into [`FleetView::snapshot_json`] output.
pub const FLEETVIEW_SCHEMA: &str = "superoffload.fleetview/v1";

/// Fleet size when no `--nodes` is given (the paper's §5.1 testbed).
pub const DEFAULT_FLEET_NODES: u32 = 4;

/// System replayed when no `--system` is given.
pub const DEFAULT_SYSTEM: &str = "superoffload";

/// Default skew seed (matches `repro -- journal`'s data seed).
pub const DEFAULT_SEED: u64 = 42;

/// Upper bound on the replayed fleet size: the replay multiplies the task
/// graph by the node count, so a typo'd `--nodes 9999` would explode.
pub const MAX_FLEET_NODES: u32 = 16;

/// The tenant label every fleetview lease is attributed to.
pub const TENANT: &str = "fleetview";

/// Largest per-node skew, parts-per-million of the nominal duration (6 %).
pub const MAX_SKEW_PPM: u64 = 60_000;

/// Parsed flags for the fleetview subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetviewArgs {
    /// Fleet size (nodes == ranks; one Superchip per node).
    pub nodes: u32,
    /// System to replay, pre-normalization spelling.
    pub system: String,
    /// Per-node skew seed.
    pub seed: u64,
    /// Directory the artifacts are written into (`None` = current dir).
    pub out_dir: Option<String>,
}

impl Default for FleetviewArgs {
    fn default() -> Self {
        FleetviewArgs {
            nodes: DEFAULT_FLEET_NODES,
            system: DEFAULT_SYSTEM.to_string(),
            seed: DEFAULT_SEED,
            out_dir: None,
        }
    }
}

impl FleetviewArgs {
    /// Parses `[--nodes N] [--system <name>] [--seed N] [--out-dir D]`
    /// (any order).
    ///
    /// # Errors
    /// A CLI-ready message on a malformed or out-of-range value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = FleetviewArgs::default();
        if let Some(nodes) = parse_flag(args, "nodes", |v| v.parse::<u32>().ok())? {
            if nodes == 0 {
                return Err("--nodes starts at 1".into());
            }
            if nodes > MAX_FLEET_NODES {
                return Err(format!(
                    "--nodes caps at {MAX_FLEET_NODES} (asked for {nodes})"
                ));
            }
            out.nodes = nodes;
        }
        if let Some(system) = parse_flag(args, "system", |v| Some(v.to_string()))? {
            out.system = system;
        }
        if let Some(seed) = parse_flag(args, "seed", |v| v.parse::<u64>().ok())? {
            out.seed = seed;
        }
        out.out_dir = parse_flag(args, "out-dir", |v| Some(v.to_string()))?;
        Ok(out)
    }
}

/// SplitMix64: the standard 64-bit finalizer, used to hash `(seed, node)`
/// into a skew factor without any wall-clock or platform dependence.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-node compute slowdown in parts per million, in
/// `0..=`[`MAX_SKEW_PPM`]. Depends only on `(seed, node)`.
pub fn skew_ppm(seed: u64, node: u32) -> u64 {
    splitmix64(seed ^ u64::from(node + 1).wrapping_mul(0xA076_1D64_78BD_642F)) % (MAX_SKEW_PPM + 1)
}

/// Applies a skew factor to a duration: `dur_us × (1 + ppm/1e6)`,
/// round-half-up in integer microseconds.
fn skewed_us(dur_us: u64, ppm: u64) -> u64 {
    (dur_us * (1_000_000 + ppm) + 500_000) / 1_000_000
}

/// One node's row of the cross-node skew report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// Node id.
    pub node: u32,
    /// The node's compute slowdown, parts per million.
    pub skew_ppm: u64,
    /// Last microsecond any of the node's resources was busy.
    pub makespan_us: u64,
    /// Busy microseconds summed over the node's resources.
    pub busy_us: u64,
    /// Idle microseconds summed over the node's resources (against the
    /// fleet makespan); always equals the sum of `by_class`.
    pub idle_us: u64,
    /// Idle microseconds per stall class, in
    /// [`STALL_CLASSES`] order, summed over the node's resources.
    pub by_class: [u64; 5],
}

impl NodeReport {
    /// The node's display name (`node0`, `node1`, ...).
    pub fn name(&self) -> String {
        format!("node{}", self.node)
    }

    /// The stall class carrying the most idle time, as its kebab-case
    /// name (`waiting-on-transfer` when fully tied at zero).
    pub fn top_stall_class(&self) -> &'static str {
        let mut best = 0;
        for (i, &us) in self.by_class.iter().enumerate() {
            if us > self.by_class[best] {
                best = i;
            }
        }
        STALL_CLASSES[best].name()
    }
}

/// The collective on the global critical path that binds the fleet: the
/// longest collective step the analyzer put on the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingCollective {
    /// Task label of the collective.
    pub label: String,
    /// Resource it ran on (node-namespaced).
    pub resource: String,
    /// Node that resource belongs to.
    pub node: u32,
    /// Start, integer microseconds.
    pub start_us: u64,
    /// Duration, integer microseconds.
    pub dur_us: u64,
}

/// The full fleet observatory: the replayed trace, its telemetry, the
/// analyzer report, and the cross-node join.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// Canonical registry name of the replayed system.
    pub system: String,
    /// Fleet size.
    pub nodes: u32,
    /// Skew seed.
    pub seed: u64,
    /// The replayed multi-node trace.
    pub trace: Trace,
    /// Telemetry of the replay: engine counters/tracks plus the duration
    /// histograms and lease-attribution counters fleetview adds.
    pub metrics: MetricsRecorder,
    /// Critical-path / stall-attribution analysis of the replayed trace.
    pub analysis: AnalysisReport,
    /// Per-node skew report rows, node order.
    pub node_reports: Vec<NodeReport>,
    /// The binding collective on the global critical path (`None` when
    /// the replay has no collectives, e.g. a single-node fleet).
    pub binding_collective: Option<BindingCollective>,
    /// Causal event log of the replay (transfers, collectives, evictions,
    /// leases).
    pub events: EventLog,
}

/// Replays `system`'s rank-0 trace across a fleet of `nodes` Superchips
/// and joins the per-node analyzer ledgers into a [`FleetView`].
///
/// # Errors
/// A CLI-ready message for unknown systems, infeasible workloads, fleets
/// beyond [`MAX_FLEET_NODES`], or systems whose traces already carry
/// per-node resources (the replay needs a rank-0 perspective).
pub fn fleet_replay(system: &str, nodes: u32, seed: u64) -> Result<FleetView, String> {
    if nodes == 0 {
        return Err("--nodes starts at 1".into());
    }
    if nodes > MAX_FLEET_NODES {
        return Err(format!(
            "--nodes caps at {MAX_FLEET_NODES} (asked for {nodes})"
        ));
    }
    let name = sysname::resolve_system_name(system).map_err(|e| e.to_string())?;
    let reg = standard_registry();
    let sys = reg.get(&name).expect("resolved against the same registry");
    let cluster = presets::gh200_superchip_fleet(nodes);
    let workload = sweep_workload(nodes);
    let (_, source) = sys
        .simulate_traced(&cluster, nodes, &workload)
        .map_err(|e| format!("'{name}' is infeasible on {nodes} fleet node(s): {e}"))?;
    if let Some(named) = source
        .resource_names()
        .iter()
        .find(|n| node_of_resource(n) != 0)
    {
        return Err(format!(
            "'{name}' already schedules onto per-node resources ('{named}'); \
             fleetview replays rank-0 perspective traces only"
        ));
    }

    // Re-register every rank-0 resource once per node. Node 0 keeps the
    // bare names, node n's copies live under `node<n>/`; replica resource
    // ids are `n * R + r` by construction.
    let mut sim = Simulator::new();
    let r_count = source.resource_names().len();
    let mut res: Vec<ResourceId> = Vec::with_capacity(r_count * nodes as usize);
    for n in 0..nodes {
        for rname in source.resource_names() {
            res.push(sim.add_node_resource(n, rname.clone()));
        }
    }
    let ppm: Vec<u64> = (0..nodes).map(|n| skew_ppm(seed, n)).collect();

    // Replicate the task graph per node, in submission order. Collectives
    // become cross-node barriers: every replica waits for *all* nodes'
    // replicas of the original dependencies, so the slowest node's
    // backward pass delays everyone's collective — exactly the straggler
    // dynamics the observatory exists to attribute.
    let t_count = source.intervals().len();
    let mut replicas: Vec<Vec<TaskId>> = vec![Vec::new(); t_count];
    for iv in source.intervals() {
        let deps = source.deps_of(iv.task);
        let release = source.release_time(iv.task);
        let dur_us = iv.duration_us();
        for n in 0..nodes {
            let rid = res[n as usize * r_count + iv.resource.index()];
            let us = match iv.kind {
                TaskKind::Compute | TaskKind::Cast => skewed_us(dur_us, ppm[n as usize]),
                _ => dur_us,
            };
            let mut spec = TaskSpec::new(rid, iv.kind, SimTime::from_micros(us as f64))
                .with_label(iv.label.clone())
                .tagged(iv.tag)
                .not_before(release);
            if iv.kind == TaskKind::Collective {
                for &d in deps {
                    spec = spec.after_all(replicas[d.index()].iter().copied());
                }
            } else {
                for &d in deps {
                    spec = spec.after(replicas[d.index()][n as usize]);
                }
            }
            let id = sim
                .add_task(spec)
                .map_err(|e| format!("fleet replay of task '{}' failed: {e}", iv.label))?;
            replicas[iv.task.index()].push(id);
        }
    }

    // Lease every node through the instrumented fleet context so each
    // acquisition is attributed to its metric scope (`fleetview@node<n>`).
    let ledger = LeaseLedger::new();
    let ctx = FleetCtx::new(&cluster)
        .with_tenant(TENANT)
        .observed(&ledger);
    for n in 0..nodes {
        ctx.lease(n)
            .map_err(|e| format!("lease of node {n} failed: {e}"))?;
    }

    let mut metrics = MetricsRecorder::new();
    let trace = sim
        .run_instrumented(&mut metrics)
        .map_err(|e| format!("fleet replay failed: {e}"))?;

    // Duration histograms: exact count/sum/min/max per task kind, plus
    // the per-node makespans (filled in below).
    for iv in trace.intervals() {
        metrics.observe(&format!("dur-us:{}", iv.kind), "us", iv.duration_us());
    }
    ledger.record_metrics(&mut metrics);

    let analysis = analyze(&trace);
    let mut node_reports: Vec<NodeReport> = (0..nodes)
        .map(|n| NodeReport {
            node: n,
            skew_ppm: ppm[n as usize],
            makespan_us: 0,
            busy_us: 0,
            idle_us: 0,
            by_class: [0; 5],
        })
        .collect();
    for st in &analysis.stalls {
        let nr = &mut node_reports[node_of_resource(&st.name) as usize];
        nr.busy_us += st.busy_us;
        nr.idle_us += st.idle_us;
        for (acc, &us) in nr.by_class.iter_mut().zip(&st.by_class) {
            *acc += us;
        }
    }
    for iv in trace.intervals() {
        let n = node_of_resource(&trace.resource_names()[iv.resource.index()]) as usize;
        node_reports[n].makespan_us = node_reports[n].makespan_us.max(iv.end.as_micros_rounded());
    }
    for nr in &node_reports {
        metrics.observe("node-makespan-us", "us", nr.makespan_us);
    }

    let binding_collective = analysis
        .critical_path
        .iter()
        .filter(|s| s.kind == TaskKind::Collective)
        .max_by_key(|s| (s.dur_us, std::cmp::Reverse(s.start_us)))
        .map(|s| {
            let resource = trace.resource_names()[s.resource.index()].clone();
            BindingCollective {
                label: s.label.clone(),
                node: node_of_resource(&resource),
                resource,
                start_us: s.start_us,
                dur_us: s.dur_us,
            }
        });

    let mut events = EventLog::from_trace(&trace);
    for rec in ledger.snapshot() {
        let makespan_us = node_reports[rec.node as usize].makespan_us;
        events.push_lease(rec.node, &rec.scope, "fleet replay", 0, makespan_us);
    }

    Ok(FleetView {
        system: name,
        nodes,
        seed,
        trace,
        metrics,
        analysis,
        node_reports,
        binding_collective,
        events,
    })
}

impl FleetView {
    /// Nodes ranked slowest-first: descending per-node makespan, ties
    /// broken toward the lower node id. The first entry is the straggler.
    pub fn stragglers(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.nodes).collect();
        order.sort_by_key(|&n| {
            (
                std::cmp::Reverse(self.node_reports[n as usize].makespan_us),
                n,
            )
        });
        order
    }

    /// Spread between the slowest and fastest node's makespan,
    /// microseconds.
    pub fn skew_spread_us(&self) -> u64 {
        let mks = self.node_reports.iter().map(|nr| nr.makespan_us);
        mks.clone().max().unwrap_or(0) - mks.min().unwrap_or(0)
    }

    /// The shared meta entries stamped into every artifact.
    fn meta(&self) -> [(&'static str, String); 3] {
        [
            ("system", self.system.clone()),
            ("nodes", self.nodes.to_string()),
            ("seed", self.seed.to_string()),
        ]
    }

    /// Serializes the cross-node skew report as the deterministic,
    /// versioned [`FLEETVIEW_SCHEMA`] JSON document.
    pub fn snapshot_json(&self) -> String {
        JsonWriter::with_capacity(4096).document(Layout::Block, |doc| {
            doc.str("schema", FLEETVIEW_SCHEMA)
                .object("meta", Layout::Block, |m| {
                    m.str("system", &self.system)
                        .str("model", PROFILE_MODEL)
                        .str("seq", &SEQ.to_string())
                        .str("batch-per-node", &FIG10_BATCH.to_string())
                        .str("nodes", &self.nodes.to_string())
                        .str("seed", &self.seed.to_string());
                })
                .object("fleet", Layout::Block, |f| {
                    f.num("makespan-us", self.analysis.makespan_us)
                        .num("cp-len-us", self.analysis.cp_len_us)
                        .num("skew-spread-us", self.skew_spread_us())
                        .num("lease-count", self.nodes);
                    match &self.binding_collective {
                        None => f.null("binding-collective"),
                        Some(b) => f.object("binding-collective", Layout::Inline, |o| {
                            o.str("label", &b.label)
                                .str("resource", &b.resource)
                                .num("node", b.node)
                                .num("start-us", b.start_us)
                                .num("dur-us", b.dur_us);
                        }),
                    };
                })
                .array("nodes", Layout::Block, |rows| {
                    for nr in &self.node_reports {
                        rows.object(Layout::Inline, |o| {
                            o.str("name", &nr.name())
                                .num("skew-ppm", nr.skew_ppm)
                                .num("makespan-us", nr.makespan_us)
                                .num("busy-us", nr.busy_us)
                                .num("idle-us", nr.idle_us)
                                .object("stalls", Layout::Inline, |st| {
                                    for (class, us) in STALL_CLASSES.iter().zip(&nr.by_class) {
                                        st.num(class.name(), *us);
                                    }
                                });
                        });
                    }
                })
                .array("stragglers", Layout::Inline, |a| {
                    for n in self.stragglers() {
                        a.str(&format!("node{n}"));
                    }
                });
        })
    }

    /// The `superoffload.metrics/v1` snapshot of the replay's telemetry:
    /// engine counters, queue-wait tracks, lease-attribution counters, and
    /// the duration histograms.
    pub fn metrics_json(&self) -> String {
        let mut meta = vec![("kind", "fleetview".to_string())];
        meta.extend(self.meta());
        self.metrics.snapshot_json(&meta)
    }

    /// The `superoffload.events/v1` causal event log as JSONL.
    pub fn events_jsonl(&self) -> String {
        self.events.to_jsonl(&self.meta())
    }

    /// The Perfetto-loadable Chrome trace of the replay: per-node process
    /// tracks, cross-node flow arrows into every collective, link
    /// occupancy counters, and the engine's counter tracks.
    pub fn chrome_trace_json(&self) -> String {
        to_chrome_trace_with_counters(&self.trace, &self.metrics)
    }

    /// Renders the self-contained fleet dashboard: KPI tiles, per-node
    /// heat strips, the collective waterfall, and histogram percentile
    /// tiles. Inline styles and SVG only — no external assets.
    pub fn dashboard_html(&self) -> String {
        dashboard_html(self)
    }
}

// ---------------------------------------------------------------------------
// Dashboard rendering
// ---------------------------------------------------------------------------

/// Colors for the heat-strip segments: busy, then the five stall classes
/// in [`STALL_CLASSES`] order. Stall colors are distinct but secondary to
/// the labels carried in each segment's tooltip and the snapshot itself.
const STRIP_COLORS: [&str; 6] = [
    "var(--series-1)",
    "#d03b3b",
    "#fab219",
    "#8e5bd0",
    "#0ca30c",
    "#898781",
];

/// Maximum rows the collective waterfall draws (longest first).
const WATERFALL_ROWS: usize = 40;

/// One node's heat strip: busy and stall-class segments, proportional to
/// the fleet makespan.
fn heat_strip(nr: &NodeReport, fleet_makespan_us: u64) -> String {
    let total = fleet_makespan_us.max(1) as f64;
    let mut segs = String::new();
    let mut seg = |us: u64, color: &str, label: &str| {
        if us == 0 {
            return;
        }
        let pct = us as f64 / total * 100.0;
        let _ = write!(
            segs,
            "<div class=\"seg\" style=\"width:{pct:.2}%;background:{color}\" \
             title=\"{label}: {} us ({pct:.1}%)\"></div>",
            us
        );
    };
    seg(nr.busy_us, STRIP_COLORS[0], "busy");
    for (i, class) in STALL_CLASSES.iter().enumerate() {
        seg(nr.by_class[i], STRIP_COLORS[i + 1], class.name());
    }
    format!(
        "<div class=\"heat-row\"><span class=\"heat-label\">{} (+{:.2}%)</span>\
         <div class=\"heat-track\">{segs}</div>\
         <span class=\"heat-mk\">{} ms</span></div>",
        nr.name(),
        nr.skew_ppm as f64 / 1e4,
        fmt_short(nr.makespan_us as f64 / 1e3),
    )
}

/// The collective waterfall: one bar per collective interval (the
/// [`WATERFALL_ROWS`] longest), node-colored, on a shared time axis.
fn waterfall(view: &FleetView) -> String {
    let names = view.trace.resource_names();
    let mut collectives: Vec<_> = view
        .trace
        .intervals()
        .iter()
        .filter(|iv| iv.kind == TaskKind::Collective)
        .collect();
    let total = collectives.len();
    collectives.sort_by_key(|iv| {
        (
            std::cmp::Reverse(iv.duration_us()),
            iv.start.as_micros_rounded(),
            iv.task.index(),
        )
    });
    collectives.truncate(WATERFALL_ROWS);
    collectives.sort_by_key(|iv| (iv.start.as_micros_rounded(), iv.task.index()));
    if collectives.is_empty() {
        return "<section class=\"card\"><h2>Collective waterfall</h2>\
                <p class=\"note\">The replay ran no collectives (single-node fleet).</p>\
                </section>\n"
            .to_string();
    }
    let makespan = view.analysis.makespan_us.max(1) as f64;
    let row_h = 16.0;
    let label_w = 190.0;
    let w = 640.0;
    let h = row_h * collectives.len() as f64 + 20.0;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {w} {h:.0}\" role=\"img\" aria-label=\"Collective waterfall\" \
         preserveAspectRatio=\"xMidYMid meet\">"
    );
    for (i, iv) in collectives.iter().enumerate() {
        let resource = &names[iv.resource.index()];
        let node = node_of_resource(resource);
        let y = i as f64 * row_h + 4.0;
        let x = label_w + iv.start.as_micros_rounded() as f64 / makespan * (w - label_w - 8.0);
        let bw = (iv.duration_us() as f64 / makespan * (w - label_w - 8.0)).max(1.5);
        let hue = (node * 67) % 360;
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">node{node} {}</text>\
             <rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{bw:.1}\" height=\"{:.1}\" rx=\"2\" \
             fill=\"hsl({hue} 60% 52%)\"><title>{} on {} \u{2014} {} us at t={} us</title></rect>",
            label_w - 6.0,
            y + row_h - 6.0,
            esc_html(&iv.label),
            y,
            row_h - 4.0,
            esc_html(&iv.label),
            resource,
            iv.duration_us(),
            iv.start.as_micros_rounded(),
        );
    }
    let _ = write!(
        svg,
        "<line x1=\"{label_w}\" y1=\"{:.1}\" x2=\"{w}\" y2=\"{:.1}\" class=\"axis\"/>\
         <text x=\"{label_w}\" y=\"{h:.0}\" class=\"tick\">0</text>\
         <text x=\"{w}\" y=\"{h:.0}\" class=\"tick\" text-anchor=\"end\">{} ms</text></svg>",
        h - 16.0,
        h - 16.0,
        fmt_short(view.analysis.makespan_us as f64 / 1e3),
    );
    let note = if total > collectives.len() {
        format!(
            "<p class=\"note\">Longest {} of {total} collectives; the full set is in the \
             Chrome trace.</p>",
            collectives.len()
        )
    } else {
        String::new()
    };
    format!("<section class=\"card\"><h2>Collective waterfall</h2>{note}{svg}</section>\n")
}

/// Histogram percentile tiles, one per recorded histogram.
fn histogram_tiles(view: &FleetView) -> String {
    let mut tiles = String::new();
    for (hname, h) in view.metrics.histograms() {
        tiles.push_str(&stat_tile(
            hname,
            &format!(
                "p50 {} \u{00b7} p99 {}",
                fmt_short(h.percentile(0.50) as f64),
                fmt_short(h.percentile(0.99) as f64)
            ),
            &format!(
                "{} obs \u{00b7} mean {} \u{00b7} max {}",
                h.count(),
                fmt_short(h.mean()),
                fmt_short(h.max() as f64)
            ),
        ));
    }
    if tiles.is_empty() {
        return String::new();
    }
    format!(
        "<section class=\"card\"><h2>Histogram percentiles ({} units)</h2>\
         <div class=\"kpis\">{tiles}</div></section>\n",
        "\u{00b5}s"
    )
}

/// Extra styles for the fleet dashboard (appended to the journal CSS).
const FLEET_CSS: &str = r#"
.heat-row { display: flex; align-items: center; gap: 8px; margin: 5px 0; font-size: 12px; }
.heat-label { width: 110px; color: var(--text-secondary); font-variant-numeric: tabular-nums; }
.heat-track { flex: 1; height: 14px; background: var(--grid); border-radius: 4px;
              overflow: hidden; display: flex; }
.seg { height: 100%; }
.heat-mk { width: 64px; text-align: right; font-variant-numeric: tabular-nums; }
.swatches { display: flex; gap: 14px; flex-wrap: wrap; font-size: 12px;
            color: var(--text-secondary); margin-top: 8px; }
.swatches .sw { display: inline-block; width: 12px; height: 12px; border-radius: 3px;
                margin-right: 5px; vertical-align: -2px; }
"#;

/// Renders the self-contained dashboard for a [`FleetView`].
fn dashboard_html(view: &FleetView) -> String {
    let straggler = view.stragglers()[0];
    let fastest_mk = view
        .node_reports
        .iter()
        .map(|nr| nr.makespan_us)
        .min()
        .unwrap_or(0)
        .max(1);
    let binding = match &view.binding_collective {
        Some(b) => stat_tile(
            "Binding collective",
            &b.label,
            &format!(
                "node{} \u{00b7} {} ms",
                b.node,
                fmt_short(b.dur_us as f64 / 1e3)
            ),
        ),
        None => stat_tile("Binding collective", "\u{2014}", "no collectives ran"),
    };
    let kpis = [
        stat_tile(
            "Fleet makespan",
            &format!("{} ms", fmt_short(view.analysis.makespan_us as f64 / 1e3)),
            &format!("{} nodes \u{00b7} seed {}", view.nodes, view.seed),
        ),
        stat_tile(
            "Critical path",
            &format!("{} ms", fmt_short(view.analysis.cp_len_us as f64 / 1e3)),
            &format!("{} tasks", view.analysis.critical_path.len()),
        ),
        binding,
        stat_tile(
            "Skew spread",
            &format!("{} ms", fmt_short(view.skew_spread_us() as f64 / 1e3)),
            "slowest \u{2212} fastest node makespan",
        ),
        stat_tile(
            "Straggler",
            &format!("node{straggler}"),
            &format!(
                "+{:.2}% vs fastest",
                (view.node_reports[straggler as usize].makespan_us as f64 / fastest_mk as f64
                    - 1.0)
                    * 100.0
            ),
        ),
        stat_tile(
            "Leases",
            &view.nodes.to_string(),
            &format!("tenant {TENANT}"),
        ),
    ]
    .concat();

    let mut strips = String::new();
    for nr in &view.node_reports {
        strips.push_str(&heat_strip(nr, view.analysis.makespan_us));
    }
    let mut swatches = String::new();
    let _ = write!(
        swatches,
        "<span><span class=\"sw\" style=\"background:{}\"></span>busy</span>",
        STRIP_COLORS[0]
    );
    for (i, class) in STALL_CLASSES.iter().enumerate() {
        let _ = write!(
            swatches,
            "<span><span class=\"sw\" style=\"background:{}\"></span>{}</span>",
            STRIP_COLORS[i + 1],
            class.name()
        );
    }
    let heat = format!(
        "<section class=\"card\"><h2>Node heat strips</h2>\
         <p class=\"note\">Busy and idle-class microseconds per node, as shares of the \
         fleet makespan. Exact figures are in the snapshot.</p>\
         <div class=\"heat\">{strips}</div><div class=\"swatches\">{swatches}</div>\
         </section>\n"
    );

    let body = format!(
        "<header><h1>Fleet observatory</h1>\
         <p class=\"sub\">{FLEETVIEW_SCHEMA} \u{00b7} {system} \u{00b7} {nodes} nodes \u{00b7} \
         seed {seed}</p></header>\n\
         <section class=\"kpis\">{kpis}</section>\n\
         {heat}{waterfall}{hists}\
         <footer class=\"note\">Generated by <code>repro -- fleetview</code>. All numbers \
         are simulated time; every artifact is byte-identical across reruns.</footer>\n",
        system = view.system,
        nodes = view.nodes,
        seed = view.seed,
        waterfall = waterfall(view),
        hists = histogram_tiles(view),
    );
    html_page(
        &format!("Fleet observatory \u{2014} {FLEETVIEW_SCHEMA}"),
        FLEET_CSS,
        &body,
        None,
    )
}

// ---------------------------------------------------------------------------
// CLI entry point
// ---------------------------------------------------------------------------

/// Artifact file names for a system's fleetview run, in emit order:
/// skew-report snapshot, metrics snapshot, causal event log, Chrome
/// trace, HTML dashboard.
pub fn fleetview_paths(system: &str) -> [String; 5] {
    [
        format!("fleetview_{system}.json"),
        format!("fleetview_{system}.metrics.json"),
        format!("fleetview_{system}.events.jsonl"),
        format!("fleetview_{system}.trace.json"),
        format!("fleetview_{system}.html"),
    ]
}

/// Prints the human skew report for a fleet view.
pub fn print_fleetview(view: &FleetView) {
    println!(
        "# Fleetview: {} \u{00d7} {} nodes ({PROFILE_MODEL}, batch {FIG10_BATCH}/node, \
         seed {})",
        view.system, view.nodes, view.seed
    );
    println!(
        "fleet makespan {:.3} ms, critical path {:.3} ms, skew spread {:.3} ms",
        view.analysis.makespan_us as f64 / 1e3,
        view.analysis.cp_len_us as f64 / 1e3,
        view.skew_spread_us() as f64 / 1e3
    );
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12}  top stall class",
        "node", "skew", "makespan ms", "busy ms", "idle ms"
    );
    for nr in &view.node_reports {
        println!(
            "{:>6} {:>7.2}% {:>12.3} {:>12.3} {:>12.3}  {}",
            nr.name(),
            nr.skew_ppm as f64 / 1e4,
            nr.makespan_us as f64 / 1e3,
            nr.busy_us as f64 / 1e3,
            nr.idle_us as f64 / 1e3,
            nr.top_stall_class()
        );
    }
    match &view.binding_collective {
        Some(b) => println!(
            "binding collective on the global critical path: '{}' on {} \
             ({:.3} ms at t={:.3} ms)",
            b.label,
            b.resource,
            b.dur_us as f64 / 1e3,
            b.start_us as f64 / 1e3
        ),
        None => println!("no collectives on the critical path (single-node fleet)"),
    }
    let ranking: Vec<String> = view
        .stragglers()
        .iter()
        .map(|n| format!("node{n}"))
        .collect();
    println!("straggler ranking (slowest first): {}", ranking.join(" > "));
}

/// Entry point for `repro -- fleetview [--nodes N] [--system <name>]
/// [--seed S] [--out-dir D]`: replays the fleet, prints the skew report,
/// and writes the five artifacts.
///
/// # Errors
/// A CLI-ready message on malformed flags, unknown systems, infeasible
/// workloads, or I/O failure.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = FleetviewArgs::parse(args)?;
    let view = fleet_replay(&parsed.system, parsed.nodes, parsed.seed)?;
    print_fleetview(&view);

    let dir = Path::new(parsed.out_dir.as_deref().unwrap_or("."));
    let bodies = [
        view.snapshot_json(),
        view.metrics_json(),
        view.events_jsonl(),
        view.chrome_trace_json(),
        view.dashboard_html(),
    ];
    let files: Vec<_> = fleetview_paths(&view.system)
        .iter()
        .map(|name| dir.join(name))
        .zip(bodies)
        .collect();
    crate::cli::write_artifacts(&files)?;
    println!("  (schema {FLEETVIEW_SCHEMA}; open the trace in https://ui.perfetto.dev)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::telemetry::{parse_json, validate_json};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults_and_overrides() {
        assert_eq!(FleetviewArgs::parse(&[]).unwrap(), FleetviewArgs::default());
        let a = FleetviewArgs::parse(&strs(&[
            "--nodes",
            "3",
            "--system",
            "zero_3",
            "--seed",
            "7",
            "--out-dir",
            "out",
        ]))
        .unwrap();
        assert_eq!(a.nodes, 3);
        assert_eq!(a.system, "zero_3");
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir.as_deref(), Some("out"));
        assert!(FleetviewArgs::parse(&strs(&["--nodes", "0"])).is_err());
        assert!(FleetviewArgs::parse(&strs(&["--nodes", "999"])).is_err());
        assert!(FleetviewArgs::parse(&strs(&["--nodes"])).is_err());
    }

    #[test]
    fn skew_is_deterministic_and_bounded() {
        for node in 0..16 {
            let a = skew_ppm(42, node);
            assert_eq!(a, skew_ppm(42, node));
            assert!(a <= MAX_SKEW_PPM, "node {node}: {a}");
        }
        // Different nodes get different skews (the whole point).
        let distinct: std::collections::BTreeSet<u64> = (0..8).map(|n| skew_ppm(42, n)).collect();
        assert!(distinct.len() > 4, "skews collapsed: {distinct:?}");
        assert_eq!(skewed_us(1_000_000, 60_000), 1_060_000);
        assert_eq!(skewed_us(0, 60_000), 0);
        assert_eq!(skewed_us(1, 0), 1);
    }

    #[test]
    fn unknown_system_lists_registry() {
        let msg = fleet_replay("no-such-system", 2, 42).unwrap_err();
        assert!(msg.contains("unknown system 'no-such-system'"), "{msg}");
        assert!(msg.contains("superoffload"), "{msg}");
    }

    #[test]
    fn multi_node_traces_are_rejected_gracefully() {
        // The pipeline baseline schedules its own per-node resources, so
        // its trace is not a rank-0 perspective the replay can replicate.
        let msg = fleet_replay("pipeline", 2, 42).unwrap_err();
        assert!(msg.contains("per-node resources"), "{msg}");
    }

    #[test]
    fn node_ledgers_join_bit_exactly() {
        use superchip_sim::engine::ResourceId;
        let view = fleet_replay("superoffload", 3, 42).unwrap();
        // Each node's stall breakdown sums bit-exactly to that node's
        // analyzer idle ledger, which itself matches the trace's.
        let names = view.trace.resource_names();
        for nr in &view.node_reports {
            assert_eq!(nr.by_class.iter().sum::<u64>(), nr.idle_us, "{}", nr.name());
            let trace_idle: u64 = names
                .iter()
                .enumerate()
                .filter(|(_, n)| node_of_resource(n) == nr.node)
                .map(|(i, _)| view.trace.idle_us(ResourceId::from_index(i)))
                .sum();
            assert_eq!(nr.idle_us, trace_idle, "{}", nr.name());
            assert!(nr.makespan_us <= view.analysis.makespan_us);
        }
        // Every resource of the replay belongs to a modeled node.
        for name in names {
            assert!(node_of_resource(name) < view.nodes, "{name}");
        }
        // The fleet makespan is the slowest node's makespan.
        let max_mk = view.node_reports.iter().map(|nr| nr.makespan_us).max();
        assert_eq!(max_mk, Some(view.analysis.makespan_us));
    }

    #[test]
    fn collectives_bind_the_fleet() {
        let view = fleet_replay("superoffload", 3, 42).unwrap();
        let b = view
            .binding_collective
            .as_ref()
            .expect("multi-node replay has collectives");
        assert!(!b.label.is_empty());
        assert!(b.dur_us > 0);
        assert!(b.node < view.nodes);
        // The skew model must actually spread the nodes apart...
        assert!(view.skew_spread_us() > 0, "no skew spread");
        // ...and the straggler ranking leads with the slowest node.
        let order = view.stragglers();
        assert_eq!(order.len(), 3);
        let mks: Vec<u64> = order
            .iter()
            .map(|&n| view.node_reports[n as usize].makespan_us)
            .collect();
        assert!(mks.windows(2).all(|w| w[0] >= w[1]), "{mks:?}");
        // Waiting on the fleet barrier shows up as transfer-class stalls
        // (STALL_CLASSES[0] is waiting-on-transfer) somewhere off the
        // straggler.
        let waiting: u64 = view.node_reports.iter().map(|nr| nr.by_class[0]).sum();
        assert!(waiting > 0, "no cross-node waiting attributed");
    }

    #[test]
    fn snapshot_validates_and_round_trips() {
        let view = fleet_replay("superoffload", 2, 42).unwrap();
        let snap = view.snapshot_json();
        assert!(snap.contains(FLEETVIEW_SCHEMA));
        let doc = parse_json(&snap).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(FLEETVIEW_SCHEMA)
        );
        let fleet = doc.get("fleet").expect("fleet section");
        assert!(fleet.get("makespan-us").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(fleet.get("binding-collective").is_some());
        // The metrics artifact carries the histograms and validates and
        // round-trips under the telemetry parser.
        let metrics = view.metrics_json();
        let mdoc = parse_json(&metrics).unwrap();
        let hists = mdoc.get("histograms").expect("histograms section");
        let dur = hists
            .get("dur-us:collective")
            .expect("collective histogram");
        assert_eq!(
            dur.get("count").and_then(|v| v.as_f64()),
            Some(view.metrics.histogram("dur-us:collective").unwrap().count() as f64)
        );
        // Lease attribution reached the counters.
        assert!(
            metrics.contains("lease-acquired:fleetview@node1"),
            "{metrics}"
        );
    }

    #[test]
    fn dashboard_is_self_contained_and_complete() {
        let view = fleet_replay("superoffload", 2, 42).unwrap();
        let html = view.dashboard_html();
        for forbidden in ["http", "src=", "@import", "url("] {
            assert!(!html.contains(forbidden), "external reference: {forbidden}");
        }
        for expected in [
            FLEETVIEW_SCHEMA,
            "Node heat strips",
            "Collective waterfall",
            "Histogram percentiles",
            "Straggler",
            "Binding collective",
            "class=\"heat-row\"",
            "<svg",
        ] {
            assert!(html.contains(expected), "missing: {expected}");
        }
        // One heat strip per node.
        assert_eq!(html.matches("class=\"heat-row\"").count(), 2);
    }

    #[test]
    fn single_node_fleetview_degrades_gracefully() {
        let view = fleet_replay("superoffload", 1, 42).unwrap();
        assert!(view.binding_collective.is_none());
        assert_eq!(view.skew_spread_us(), 0);
        let snap = view.snapshot_json();
        validate_json(&snap).unwrap();
        assert!(snap.contains("\"binding-collective\": null"), "{snap}");
        let html = view.dashboard_html();
        assert!(html.contains("no collectives"), "{html}");
    }
}
