//! Chrome-tracing (`chrome://tracing` / Perfetto) export of execution
//! traces.
//!
//! Emits the "JSON Array Format" of the Trace Event specification: one
//! complete (`"ph": "X"`) event per executed interval, with one row (tid)
//! per simulated resource and one process (pid) per fleet node, flow events
//! (`"ph": "s"`/`"f"`) drawing arrows from each collective's dependencies
//! into the collective, and — via [`to_chrome_trace_with_counters`] —
//! counter (`"ph": "C"`) tracks for memory occupancy, link bandwidth,
//! queueing delay, and the 0/1 occupancy of every resource that moves
//! data. Load the output in Perfetto
//! to inspect a schedule visually — the reproduction's equivalent of the
//! paper's timeline figures (Fig. 3, Fig. 8) with the memory/bandwidth
//! plots of Fig. 10–13 attached; on a multi-node trace the flow arrows run
//! from a collective's send on one node to its completion on another.
//!
//! Timestamps and durations are integer microseconds (see
//! [`crate::time::SimTime::as_micros_rounded`]) so output is byte-stable
//! across runs.
//!
//! The JSON is written through [`crate::telemetry::JsonWriter`], one
//! record per line, to keep the crate free of serialization dependencies.

use crate::engine::{node_of_resource, TaskKind};
use crate::telemetry::{JsonArray, JsonWriter, Layout, MetricsRecorder};
use crate::trace::{Interval, Trace};

/// Per-resource process id: the node each resource belongs to, so Perfetto
/// groups every `node<N>/...` row under one process track per node. Bare
/// (pre-fleet) names stay on pid 0, byte-identical to the old layout.
fn pids(resource_names: &[String]) -> Vec<u32> {
    resource_names.iter().map(|n| node_of_resource(n)).collect()
}

/// Writes a Trace Event array sized for `intervals` slices, one record
/// per line, filled by `f`.
fn event_array(intervals: usize, f: impl FnOnce(&mut JsonArray<'_>)) -> String {
    // A slice record is ~130 bytes; flows and counters add a few more.
    JsonWriter::with_capacity(160 * intervals + 1024).array(Layout::Lines, f)
}

/// One complete (`"ph":"X"`) slice record for `iv` on row `tid`.
fn write_slice(events: &mut JsonArray<'_>, iv: &Interval, pid: u32, tid: usize) {
    let label = if iv.label.is_empty() {
        "task"
    } else {
        &iv.label
    };
    let kind = iv.kind.name();
    events.object(Layout::Dense, |e| {
        e.str("name", label)
            .str("cat", kind)
            .str("ph", "X")
            .num("ts", iv.start.as_micros_rounded())
            .num("dur", iv.duration().as_micros_rounded())
            .num("pid", pid)
            .num("tid", tid)
            .object("args", Layout::Dense, |a| {
                a.str("kind", kind);
            });
    });
}

/// A `"ph":"M"` metadata record `name` (`thread_name` or `process_name`)
/// that gives its track the display name `value`.
fn write_metadata(
    events: &mut JsonArray<'_>,
    name: &str,
    pid: u32,
    tid: Option<usize>,
    value: &str,
) {
    events.object(Layout::Dense, |e| {
        e.str("name", name).str("ph", "M").num("pid", pid);
        if let Some(tid) = tid {
            e.num("tid", tid);
        }
        e.object("args", Layout::Dense, |a| {
            a.str("name", value);
        });
    });
}

/// Thread-name metadata for every row, then every row's slices in start
/// order.
fn write_rows(
    events: &mut JsonArray<'_>,
    rows: &[Vec<&Interval>],
    resource_names: &[String],
    pids: &[u32],
) {
    for (tid, name) in resource_names.iter().enumerate() {
        write_metadata(events, "thread_name", pids[tid], Some(tid), name);
    }
    for (tid, row) in rows.iter().enumerate().take(resource_names.len()) {
        for iv in row {
            write_slice(events, iv, pids[tid], tid);
        }
    }
}

/// Slices with one process track per node. The process tracks are named
/// only when the trace actually spans several nodes, so single-node exports
/// stay byte-identical to the pre-fleet format.
fn write_slice_events(
    events: &mut JsonArray<'_>,
    rows: &[Vec<&Interval>],
    resource_names: &[String],
    pids: &[u32],
) {
    if pids.iter().any(|&p| p != 0) {
        let mut seen = Vec::new();
        for &pid in pids {
            if !seen.contains(&pid) {
                seen.push(pid);
                let node = format!("node{pid}");
                write_metadata(events, "process_name", pid, None, &node);
            }
        }
    }
    write_rows(events, rows, resource_names, pids);
}

/// A timestamp guaranteed to fall *inside* the slice drawn for `iv` (flow
/// endpoints must land within a slice for Perfetto to bind the arrow to
/// it): the last whole microsecond of the interval, or its start for
/// zero-duration slices.
fn flow_ts(iv: &Interval) -> u64 {
    let start = iv.start.as_micros_rounded();
    let end = iv.end.as_micros_rounded();
    if end > start {
        end - 1
    } else {
        start
    }
}

/// Chrome-trace flow events (`"ph":"s"` / `"ph":"f"`) drawing an arrow from
/// each dependency of a collective task into the collective's slice.
///
/// On a multi-node trace the dependencies of a collective live on *other*
/// nodes' resources, so Perfetto draws arrows from a collective's send on
/// one node to its completion on another. Every arrow is one `s`/`f` pair
/// sharing a unique integer `id` and the collective's `name`/`cat`; the
/// start binds to the dependency's slice, the finish (with `"bp":"e"` —
/// bind to the *enclosing* slice) to the collective's slice, and
/// `ts(s) <= ts(f)` always, because a dependency finishes before its
/// dependent starts.
fn write_flow_events(events: &mut JsonArray<'_>, trace: &Trace, pids: &[u32]) {
    let pid_of = |iv: &Interval| pids.get(iv.resource.index()).copied().unwrap_or(0);
    let mut id = 0u64;
    for iv in trace.intervals() {
        if iv.kind != TaskKind::Collective {
            continue;
        }
        let name = if iv.label.is_empty() {
            "collective"
        } else {
            &iv.label
        };
        for &dep in trace.deps_of(iv.task) {
            let Some(src) = trace.interval(dep) else {
                continue;
            };
            for (ph, end) in [("s", src), ("f", iv)] {
                events.object(Layout::Dense, |e| {
                    e.str("name", name).str("cat", "flow").str("ph", ph);
                    if ph == "f" {
                        e.str("bp", "e");
                    }
                    e.num("id", id)
                        .num("ts", flow_ts(end))
                        .num("pid", pid_of(end))
                        .num("tid", end.resource.index());
                });
            }
            id += 1;
        }
    }
}

/// Occupancy counters (`"ph":"C"`): a 0/1 `busy` track for every resource
/// that ran a transfer or collective (C2C directions, fabric, pipeline
/// links, NVMe), toggled at every interval boundary on that resource, so
/// link duty cycles read directly off the trace. This is the trace's only
/// busy signal: the metrics carry none.
fn write_occupancy_events(
    events: &mut JsonArray<'_>,
    rows: &[Vec<&Interval>],
    resource_names: &[String],
    pids: &[u32],
) {
    let mut edges: Vec<(u64, u8)> = Vec::new();
    for (tid, (name, row)) in resource_names.iter().zip(rows).enumerate() {
        let moves_data = row
            .iter()
            .any(|iv| matches!(iv.kind, TaskKind::Transfer | TaskKind::Collective));
        if !moves_data {
            continue;
        }
        edges.clear();
        for iv in row {
            edges.push((iv.start.as_micros_rounded(), 1));
            edges.push((iv.end.as_micros_rounded(), 0));
        }
        // Stable by timestamp: a back-to-back interval emits its falling
        // edge before the next rising edge at the same microsecond, so the
        // counter renders busy across the boundary.
        edges.sort_by_key(|&(ts, _)| ts);
        let track = format!("occupancy:{name}");
        for &(ts, v) in &edges {
            events.object(Layout::Dense, |e| {
                e.str("name", &track)
                    .str("ph", "C")
                    .num("ts", ts)
                    .num("pid", pids[tid])
                    .object("args", Layout::Dense, |a| {
                        a.num("busy", v);
                    });
            });
        }
    }
}

/// Serializes a [`Trace`] to the Chrome Trace Event JSON array format,
/// one row (tid) per resource, named as it was registered with the
/// simulator.
///
/// ```
/// use superchip_sim::prelude::*;
/// # fn main() -> Result<(), SimError> {
/// let mut sim = Simulator::new();
/// let gpu = sim.add_resource("gpu");
/// sim.add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)).with_label("fwd"))?;
/// let trace = sim.run()?;
/// let json = superchip_sim::chrome_trace::to_chrome_trace(&trace);
/// assert!(json.contains("\"fwd\""));
/// # Ok(())
/// # }
/// ```
pub fn to_chrome_trace(trace: &Trace) -> String {
    let names = trace.resource_names();
    let pids = pids(names);
    event_array(trace.intervals().len(), |events| {
        write_slice_events(events, &trace.rows(), names, &pids);
        write_flow_events(events, trace, &pids);
    })
}

/// Serializes a [`Trace`] plus the counter tracks of a [`MetricsRecorder`]
/// into one Chrome Trace Event JSON array.
///
/// Slice events come first (as in [`to_chrome_trace`]), then the 0/1
/// occupancy track of every resource that ran a transfer or collective,
/// then one `"ph":"C"` counter event per telemetry sample — so a single
/// file shows compute/transfer rows alongside link-busy, memory-occupancy
/// and bandwidth tracks.
///
/// Every counter track is closed with a final sample repeating its last
/// value at the trace makespan, so Perfetto does not extrapolate the last
/// counter value past the end of the run.
pub fn to_chrome_trace_with_counters(trace: &Trace, metrics: &MetricsRecorder) -> String {
    let names = trace.resource_names();
    let pids = pids(names);
    let rows = trace.rows();
    event_array(trace.intervals().len(), |events| {
        write_slice_events(events, &rows, names, &pids);
        write_flow_events(events, trace, &pids);
        write_occupancy_events(events, &rows, names, &pids);
        metrics.write_chrome_counter_events(events, 0, trace.makespan_us());
    })
}

/// Serializes *two* runs into one Chrome Trace Event JSON array with
/// aligned, pinned tracks: run A's node `k` becomes process `2k`, run B's
/// becomes process `2k + 1`, so in Perfetto the two runs' timelines for
/// the same node sit directly above each other and every resource keeps
/// an identically named row in both. Each run's occupancy tracks sit on
/// its own processes, as in [`to_chrome_trace_with_counters`]; its
/// telemetry counter tracks are attached to its node-0 process and closed
/// at its makespan.
///
/// This is the visual companion of [`crate::analysis::diff_analyses`]:
/// scrub one timeline against the other to see exactly where the aligned
/// schedules diverge. Flow arrows are omitted — with interleaved pids
/// they would bind across runs.
pub fn side_by_side_chrome_trace(
    label_a: &str,
    trace_a: &Trace,
    metrics_a: &MetricsRecorder,
    label_b: &str,
    trace_b: &Trace,
    metrics_b: &MetricsRecorder,
) -> String {
    let intervals = trace_a.intervals().len() + trace_b.intervals().len();
    event_array(intervals, |events| {
        for (side, (label, trace, metrics)) in
            [(label_a, trace_a, metrics_a), (label_b, trace_b, metrics_b)]
                .into_iter()
                .enumerate()
        {
            let side = side as u32;
            let names = trace.resource_names();
            let pids: Vec<u32> = names
                .iter()
                .map(|n| 2 * node_of_resource(n) + side)
                .collect();
            let mut seen = Vec::new();
            for &pid in &pids {
                if !seen.contains(&pid) {
                    seen.push(pid);
                    let process = format!("{label}:node{}", (pid - side) / 2);
                    write_metadata(events, "process_name", pid, None, &process);
                    // Keep a:nodeK directly above b:nodeK regardless of pid
                    // numerology in the viewer.
                    events.object(Layout::Dense, |e| {
                        e.str("name", "process_sort_index")
                            .str("ph", "M")
                            .num("pid", pid)
                            .object("args", Layout::Dense, |a| {
                                a.num("sort_index", pid);
                            });
                    });
                }
            }
            let rows = trace.rows();
            write_rows(events, &rows, names, &pids);
            write_occupancy_events(events, &rows, names, &pids);
            metrics.write_chrome_counter_events(events, side, trace.makespan_us());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, TaskSpec};
    use crate::telemetry::validate_json;
    use crate::SimTime;

    /// The records one of the writers above appends to an empty event
    /// array, one string each.
    fn records(write: impl FnOnce(&mut JsonArray<'_>)) -> Vec<String> {
        let json = event_array(0, write);
        validate_json(&json).unwrap();
        let body = &json[1..json.len() - 1];
        body.split_terminator(",\n").map(str::to_string).collect()
    }

    fn sample() -> Trace {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let a = sim
            .add_task(TaskSpec::compute(gpu, SimTime::from_millis(2.0)).with_label("bwd"))
            .unwrap();
        sim.add_task(
            TaskSpec::compute(cpu, SimTime::from_millis(1.0))
                .with_label("step")
                .after(a),
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn emits_array_with_metadata_and_events() {
        let json = to_chrome_trace(&sample());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"bwd\""));
        assert!(json.contains("\"step\""));
        validate_json(&json).unwrap();
    }

    #[test]
    fn events_carry_timing_and_rows() {
        let json = to_chrome_trace(&sample());
        // bwd: row 0, 2000 us duration starting at 0.
        assert!(json.contains(
            r#""name":"bwd","cat":"compute","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0"#
        ));
        // step: row 1, starts exactly when bwd ends — integer microseconds,
        // no float jitter.
        assert!(json.contains(
            r#""name":"step","cat":"compute","ph":"X","ts":2000,"dur":1000,"pid":0,"tid":1"#
        ));
    }

    #[test]
    fn timestamps_are_integers() {
        // A duration that is not representable exactly in binary floating
        // point used to leak "2000.0000000000002"-style timestamps.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let a = sim
            .add_task(TaskSpec::compute(gpu, SimTime::from_secs(0.002)))
            .unwrap();
        sim.add_task(TaskSpec::compute(gpu, SimTime::from_secs(0.001)).after(a))
            .unwrap();
        let json = to_chrome_trace(&sim.run().unwrap());
        assert!(!json.contains("ts\":2000."), "float jitter in: {json}");
        assert!(json.contains(r#""ts":2000,"#));
    }

    #[test]
    fn counters_are_appended_after_slices() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        sim.add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)).with_label("fwd"))
            .unwrap();
        let trace = sim.run().unwrap();
        let mut rec = MetricsRecorder::new();
        rec.sample_us("mem:hbm", "bytes", 0, 42.0);
        rec.sample_us("mem:hbm", "bytes", 1000, 0.0);
        let json = to_chrome_trace_with_counters(&trace, &rec);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2);
        assert!(json.contains(r#""name":"mem:hbm","ph":"C","ts":0,"pid":0,"args":{"bytes":42}"#));
        validate_json(&json).unwrap();
    }

    #[test]
    fn counters_close_at_makespan() {
        // Makespan is 3 ms but the last memory sample is at 1 ms: the export
        // must repeat the value at 3000 us so Perfetto does not extrapolate.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let a = sim
            .add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)))
            .unwrap();
        sim.add_task(TaskSpec::compute(gpu, SimTime::from_millis(2.0)).after(a))
            .unwrap();
        let trace = sim.run().unwrap();
        let mut rec = MetricsRecorder::new();
        rec.sample_us("mem:hbm", "bytes", 0, 42.0);
        rec.sample_us("mem:hbm", "bytes", 1000, 7.0);
        let json = to_chrome_trace_with_counters(&trace, &rec);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
        assert!(json.contains(r#""name":"mem:hbm","ph":"C","ts":3000,"pid":0,"args":{"bytes":7}"#));
        validate_json(&json).unwrap();
    }

    #[test]
    fn labels_are_escaped() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("g\"pu");
        sim.add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)).with_label("a\"b\\c\nd"))
            .unwrap();
        let trace = sim.run().unwrap();
        let json = to_chrome_trace(&trace);
        assert!(json.contains(r#"a\"b\\c\nd"#));
        assert!(json.contains(r#"g\"pu"#));
        // No raw control characters or unescaped quotes inside strings.
        assert!(!json.contains('\n') || json.matches('\n').count() == json.matches(",\n").count());
        validate_json(&json).unwrap();
    }

    fn fleet_sample() -> Trace {
        // Two nodes, each with a gpu and a fabric; a collective on each
        // node's fabric waits on *both* nodes' compute (the cross-node
        // barrier shape fleetview replays).
        let mut sim = Simulator::new();
        let g0 = sim.add_node_resource(0, "gpu");
        let f0 = sim.add_node_resource(0, "fabric");
        let g1 = sim.add_node_resource(1, "gpu");
        let f1 = sim.add_node_resource(1, "fabric");
        let c0 = sim
            .add_task(TaskSpec::compute(g0, SimTime::from_millis(2.0)).with_label("bwd"))
            .unwrap();
        let c1 = sim
            .add_task(TaskSpec::compute(g1, SimTime::from_millis(3.0)).with_label("bwd"))
            .unwrap();
        for f in [f0, f1] {
            sim.add_task(
                TaskSpec::collective(f, SimTime::from_millis(1.0))
                    .with_label("allreduce")
                    .after(c0)
                    .after(c1),
            )
            .unwrap();
        }
        sim.run().unwrap()
    }

    #[test]
    fn multi_node_traces_get_per_node_processes_and_flows() {
        let json = to_chrome_trace(&fleet_sample());
        validate_json(&json).unwrap();
        // One process_name per node, pid = node id.
        assert!(json.contains(r#""name":"process_name","ph":"M","pid":0,"args":{"name":"node0"}"#));
        assert!(json.contains(r#""name":"process_name","ph":"M","pid":1,"args":{"name":"node1"}"#));
        // node1 rows carry pid 1.
        assert!(json.contains(r#""name":"bwd","cat":"compute","ph":"X","ts":0,"dur":3000,"pid":1"#));
        // Each collective has two deps -> two s/f pairs; two collectives.
        assert_eq!(json.matches(r#""ph":"s""#).count(), 4);
        assert_eq!(json.matches(r#""ph":"f""#).count(), 4);
        // A flow start on node 1 binds inside the node-1 bwd slice.
        assert!(json.contains(r#""cat":"flow","ph":"s","id":1,"ts":2999,"pid":1,"tid":2"#));
    }

    #[test]
    fn flow_pairs_share_ids_and_order_timestamps() {
        let trace = fleet_sample();
        let events = records(|e| write_flow_events(e, &trace, &pids(trace.resource_names())));
        assert_eq!(events.len(), 8);
        for pair in events.chunks(2) {
            let (s, f) = (pair[0].as_str(), pair[1].as_str());
            assert!(s.contains(r#""ph":"s""#) && f.contains(r#""ph":"f","bp":"e""#));
            let id_of = |e: &str| {
                let i = e.find("\"id\":").unwrap() + 5;
                e[i..].split(',').next().unwrap().parse::<u64>().unwrap()
            };
            let ts_of = |e: &str| {
                let i = e.find("\"ts\":").unwrap() + 5;
                e[i..].split(',').next().unwrap().parse::<u64>().unwrap()
            };
            assert_eq!(id_of(s), id_of(f));
            assert!(ts_of(s) <= ts_of(f), "flow runs backwards: {s} -> {f}");
        }
    }

    #[test]
    fn link_occupancy_toggles_per_interval() {
        let trace = fleet_sample();
        let names = trace.resource_names();
        let events = records(|e| write_occupancy_events(e, &trace.rows(), names, &pids(names)));
        // Two fabric resources with one interval each: rise + fall per link.
        assert_eq!(events.len(), 4);
        assert!(events[0].contains(r#""name":"occupancy:fabric","ph":"C","ts":3000"#));
        assert!(events[0].contains(r#""args":{"busy":1}"#));
        assert!(events[1].contains(r#""ts":4000"#) && events[1].contains(r#"{"busy":0}"#));
        assert!(events[2].contains(r#""name":"occupancy:node1/fabric","ph":"C""#));
        assert!(events[2].contains(r#""pid":1"#));
        for e in &events {
            validate_json(e).unwrap();
        }
    }

    #[test]
    fn occupancy_follows_task_kind_not_resource_name() {
        // `nvme` matches no link name, but it carries transfers: it gets a
        // busy track; the compute-only `gpu` gets none.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let nvme = sim.add_resource("nvme");
        let a = sim
            .add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)))
            .unwrap();
        sim.add_task(TaskSpec::transfer(nvme, SimTime::from_millis(2.0)).after(a))
            .unwrap();
        let trace = sim.run().unwrap();
        let names = trace.resource_names();
        let events = records(|e| write_occupancy_events(e, &trace.rows(), names, &pids(names)));
        assert_eq!(events.len(), 2);
        assert!(events[0].contains(r#""name":"occupancy:nvme","ph":"C","ts":1000"#));
        assert!(events[0].contains(r#"{"busy":1}"#));
        assert!(events[1].contains(r#""ts":3000"#) && events[1].contains(r#"{"busy":0}"#));
    }

    #[test]
    fn single_node_traces_stay_flat_without_collectives() {
        // No collectives, no links, one node: the export has no process
        // metadata, no flows, no occupancy counters — byte-compatible with
        // the pre-fleet format.
        let json = to_chrome_trace(&sample());
        assert!(!json.contains("process_name"));
        assert!(!json.contains(r#""ph":"s""#));
        assert!(!json.contains("occupancy:"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut sim = Simulator::new();
        sim.add_resource("gpu");
        let trace = sim.run().unwrap();
        let json = to_chrome_trace(&trace);
        assert!(json.contains("thread_name"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
        validate_json(&json).unwrap();
    }

    #[test]
    fn side_by_side_interleaves_runs_on_aligned_tracks() {
        let trace = fleet_sample();
        let rec = MetricsRecorder::new();
        let json = side_by_side_chrome_trace("base", &trace, &rec, "cand", &trace, &rec);
        validate_json(&json).unwrap();
        // Run A node0 -> pid 0, run B node0 -> pid 1, run A node1 -> pid 2...
        assert!(json.contains(r#""pid":0,"args":{"name":"base:node0"}"#));
        assert!(json.contains(r#""pid":1,"args":{"name":"cand:node0"}"#));
        assert!(json.contains(r#""pid":2,"args":{"name":"base:node1"}"#));
        assert!(json.contains(r#""pid":3,"args":{"name":"cand:node1"}"#));
        // Identical thread names on both sides so the rows align.
        assert_eq!(json.matches(r#"{"name":"gpu"}"#).count(), 2);
        // Slices from both runs: 4 intervals each.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
        // No cross-run flow arrows.
        assert!(!json.contains(r#""ph":"s""#));
        // Each run's fabrics keep their busy tracks, on that run's pids.
        for pid in 0..4 {
            let fabric = if pid < 2 { "fabric" } else { "node1/fabric" };
            let rise = format!(r#""name":"occupancy:{fabric}","ph":"C","ts":3000,"pid":{pid}"#);
            assert!(json.contains(&rise), "{rise}");
        }
    }

    #[test]
    fn side_by_side_attaches_counters_per_run() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        sim.add_task(TaskSpec::compute(gpu, SimTime::from_millis(1.0)))
            .unwrap();
        let trace = sim.run().unwrap();
        let mut rec = MetricsRecorder::new();
        rec.sample_us("mem:hbm", "bytes", 0, 42.0);
        let json = side_by_side_chrome_trace("a", &trace, &rec, "b", &trace, &rec);
        validate_json(&json).unwrap();
        // Each run closes its counter track under its own pid.
        assert!(json.contains(r#""name":"mem:hbm","ph":"C","ts":0,"pid":0"#));
        assert!(json.contains(r#""name":"mem:hbm","ph":"C","ts":0,"pid":1"#));
    }

    #[test]
    fn side_by_side_is_deterministic() {
        let trace = fleet_sample();
        let rec = MetricsRecorder::new();
        let a = side_by_side_chrome_trace("x", &trace, &rec, "y", &trace, &rec);
        let b = side_by_side_chrome_trace("x", &trace, &rec, "y", &trace, &rec);
        assert_eq!(a, b);
    }
}
