//! Causal structured-event log: `superoffload.events/v1` JSONL.
//!
//! The Chrome trace answers "what ran when"; this log answers "what caused
//! what". Every state change of interest — a transfer beginning or ending,
//! a collective phase beginning or ending, an eviction transfer firing, a
//! node lease being acquired or released — becomes one JSON record with a
//! stable integer `id` and a causal `parent` link, so downstream tooling
//! can walk the chain that produced any observed stall without re-deriving
//! the task graph.
//!
//! Records are derived *post hoc* from an executed [`Trace`] (plus
//! explicitly pushed lease events), so the log is byte-deterministic for a
//! deterministic schedule and costs the simulation nothing. The causal
//! parent of a `*-begin` event is the `*-end` event of the task's binding
//! dependency — the dependency that finished last (ties broken by task
//! submission order), i.e. the edge the critical-path analyzer walks; the
//! parent of an `*-end` event is its own `*-begin`.
//!
//! Timestamps are integer microseconds on the shared fleet clock: every
//! node's resource timeline lives in one simulator, so no cross-node clock
//! alignment is needed (see DESIGN.md §14).

use crate::engine::{node_of_resource, TaskKind, TaskTag};
use crate::telemetry::{JsonObject, JsonWriter, Layout};
use crate::trace::Trace;

/// Schema identifier stamped into the JSONL header line.
pub const EVENTS_SCHEMA: &str = "superoffload.events/v1";

/// What happened. Kebab-case in the emitted JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A transfer (or eviction transfer) started on a link.
    TransferBegin,
    /// A transfer finished.
    TransferEnd,
    /// A collective phase started on a fabric resource.
    CollectiveBegin,
    /// A collective phase finished.
    CollectiveEnd,
    /// A capacity-eviction transfer fired (emitted alongside its
    /// transfer-begin, at the same timestamp, so eviction storms are
    /// greppable as first-class events).
    Eviction,
    /// A node lease was acquired from the fleet.
    LeaseAcquire,
    /// A node lease was released back to the fleet.
    LeaseRelease,
}

impl EventKind {
    /// The kebab-case name used in the JSON records.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TransferBegin => "transfer-begin",
            EventKind::TransferEnd => "transfer-end",
            EventKind::CollectiveBegin => "collective-begin",
            EventKind::CollectiveEnd => "collective-end",
            EventKind::Eviction => "eviction",
            EventKind::LeaseAcquire => "lease-acquire",
            EventKind::LeaseRelease => "lease-release",
        }
    }
}

/// One record of the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Stable id: position in the log, dense from 0.
    pub id: u64,
    /// Causal parent event id, if any.
    pub parent: Option<u64>,
    /// What happened.
    pub kind: EventKind,
    /// When, in integer microseconds on the shared fleet clock.
    pub ts_us: u64,
    /// Node the event belongs to (from its resource's namespace, or the
    /// leased node for lease events).
    pub node: u32,
    /// Metric scope the event is attributed to (`"node0"`,
    /// `"tenantA@node3"`, ... — see `superoffload::fleet::MetricScope`).
    pub scope: String,
    /// Resource the event occurred on (empty for lease events).
    pub resource: String,
    /// Human-readable label (the task label, or the lease holder).
    pub label: String,
}

impl Event {
    /// Writes the record's members into `record` (one JSONL line).
    pub fn write_json(&self, record: &mut JsonObject<'_>) {
        record
            .num("id", self.id)
            .num("parent", self.parent)
            .str("kind", self.kind.name())
            .num("ts-us", self.ts_us)
            .num("node", self.node)
            .str("scope", &self.scope)
            .str("resource", &self.resource)
            .str("label", &self.label);
    }
}

/// An ordered causal event log, serializable as `superoffload.events/v1`
/// JSONL (header line + one record per line).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the transfer/collective/eviction events of an executed
    /// trace, in event-time order (ties broken by task submission order,
    /// begins before ends).
    ///
    /// Each interesting task contributes a begin event whose causal parent
    /// is the end event of its binding dependency (the dependency that
    /// finished last; ties broken by submission order), and an end event
    /// parented on the begin. Eviction-tagged transfers additionally
    /// contribute an `eviction` marker parented on their begin.
    pub fn from_trace(trace: &Trace) -> Self {
        // First pass: which tasks produce events, and their begin/end
        // record slots, in (time, task) order.
        #[derive(Clone, Copy)]
        struct Slot {
            begin: u64,
            end: u64,
        }
        let mut ordered: Vec<usize> = (0..trace.intervals().len())
            .filter(|&i| {
                let iv = &trace.intervals()[i];
                matches!(
                    iv.kind,
                    TaskKind::Transfer | TaskKind::Cast | TaskKind::Collective
                )
            })
            .collect();
        // Emit in begin-time order so the log reads chronologically;
        // submission order breaks ties deterministically.
        ordered.sort_by_key(|&i| {
            let iv = &trace.intervals()[i];
            (iv.start.as_micros_rounded(), iv.task.index())
        });

        let mut slots: Vec<Option<Slot>> = vec![None; trace.intervals().len()];
        let mut next = 0u64;
        for &i in &ordered {
            let evicted = trace.intervals()[i].tag == TaskTag::Eviction;
            slots[trace.intervals()[i].task.index()] = Some(Slot {
                begin: next,
                end: next + 1 + u64::from(evicted),
            });
            next += 2 + u64::from(evicted);
        }

        // Second pass: build the records with causal parents resolved.
        let mut events = Vec::with_capacity(next as usize);
        for &i in &ordered {
            let iv = &trace.intervals()[i];
            let slot = slots[iv.task.index()].expect("slot assigned above");
            let resource = trace
                .resource_names()
                .get(iv.resource.index())
                .cloned()
                .unwrap_or_default();
            let node = node_of_resource(&resource);
            let scope = format!("node{node}");
            let (begin_kind, end_kind) = match iv.kind {
                TaskKind::Collective => (EventKind::CollectiveBegin, EventKind::CollectiveEnd),
                _ => (EventKind::TransferBegin, EventKind::TransferEnd),
            };
            // Binding dependency: the one that finished last; its end event
            // (when it has one) is the causal parent of this begin.
            let parent = trace
                .deps_of(iv.task)
                .iter()
                .filter_map(|&d| {
                    trace
                        .interval(d)
                        .map(|div| (div.end.as_micros_rounded(), d.index()))
                })
                .max_by_key(|&(end, idx)| (end, std::cmp::Reverse(idx)))
                .and_then(|(_, idx)| slots[idx].map(|s| s.end));
            events.push(Event {
                id: slot.begin,
                parent,
                kind: begin_kind,
                ts_us: iv.start.as_micros_rounded(),
                node,
                scope: scope.clone(),
                resource: resource.clone(),
                label: iv.label.clone(),
            });
            if iv.tag == TaskTag::Eviction {
                events.push(Event {
                    id: slot.begin + 1,
                    parent: Some(slot.begin),
                    kind: EventKind::Eviction,
                    ts_us: iv.start.as_micros_rounded(),
                    node,
                    scope: scope.clone(),
                    resource: resource.clone(),
                    label: iv.label.clone(),
                });
            }
            events.push(Event {
                id: slot.end,
                parent: Some(slot.begin),
                kind: end_kind,
                ts_us: iv.end.as_micros_rounded(),
                node,
                scope,
                resource,
                label: iv.label.clone(),
            });
        }
        EventLog { events }
    }

    /// Appends a lease acquire/release pair for `node` under `scope`,
    /// acquired at `acquire_us` and released at `release_us` (normally 0
    /// and the makespan). Returns the acquire event's id, which the release
    /// is parented on.
    pub fn push_lease(
        &mut self,
        node: u32,
        scope: &str,
        label: &str,
        acquire_us: u64,
        release_us: u64,
    ) -> u64 {
        let id = self.events.len() as u64;
        self.events.push(Event {
            id,
            parent: None,
            kind: EventKind::LeaseAcquire,
            ts_us: acquire_us,
            node,
            scope: scope.to_string(),
            resource: String::new(),
            label: label.to_string(),
        });
        self.events.push(Event {
            id: id + 1,
            parent: Some(id),
            kind: EventKind::LeaseRelease,
            ts_us: release_us,
            node,
            scope: scope.to_string(),
            resource: String::new(),
            label: label.to_string(),
        });
        id
    }

    /// The records, in id order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the log as JSONL: a header line carrying the schema and
    /// the record count, then one record per line. Byte-deterministic.
    ///
    /// `meta` entries (emitted in the given order) identify the run.
    pub fn to_jsonl(&self, meta: &[(&str, String)]) -> String {
        // A record is ~150 bytes plus its label.
        let mut w = JsonWriter::with_capacity(192 * (self.events.len() + 1));
        w.record(Layout::Dense, |head| {
            head.str("schema", EVENTS_SCHEMA);
            for (k, v) in meta {
                head.str(k, v);
            }
            head.num("events", self.events.len());
        });
        for e in &self.events {
            w.record(Layout::Dense, |record| e.write_json(record));
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, TaskSpec};
    use crate::telemetry::{parse_json, validate_json, JsonValue};
    use crate::SimTime;

    fn ms(x: f64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn sample() -> Trace {
        let mut sim = Simulator::new();
        let gpu = sim.add_node_resource(0, "gpu");
        let d2h = sim.add_node_resource(0, "c2c-d2h");
        let fab = sim.add_node_resource(1, "fabric");
        let c = sim
            .add_task(TaskSpec::compute(gpu, ms(2.0)).with_label("bwd"))
            .unwrap();
        let x = sim
            .add_task(
                TaskSpec::transfer(d2h, ms(1.0))
                    .with_label("grad-out")
                    .tagged(TaskTag::Eviction)
                    .after(c),
            )
            .unwrap();
        sim.add_task(
            TaskSpec::collective(fab, ms(1.5))
                .with_label("allreduce")
                .after(x),
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn derives_causally_linked_events() {
        let log = EventLog::from_trace(&sample());
        // transfer (begin + eviction + end) + collective (begin + end);
        // compute tasks contribute nothing.
        assert_eq!(log.events().len(), 5);
        let [tb, ev, te, cb, ce] = log.events() else {
            panic!("unexpected shape");
        };
        assert_eq!(tb.kind, EventKind::TransferBegin);
        assert_eq!(ev.kind, EventKind::Eviction);
        assert_eq!(te.kind, EventKind::TransferEnd);
        assert_eq!(cb.kind, EventKind::CollectiveBegin);
        assert_eq!(ce.kind, EventKind::CollectiveEnd);
        // Ids are dense and stable; parents form the causal chain
        // bwd -> (no event) -> transfer -> collective.
        assert_eq!((tb.id, ev.id, te.id, cb.id, ce.id), (0, 1, 2, 3, 4));
        assert_eq!(tb.parent, None, "compute dep has no event record");
        assert_eq!(ev.parent, Some(tb.id));
        assert_eq!(te.parent, Some(tb.id));
        assert_eq!(cb.parent, Some(te.id), "collective caused by transfer end");
        assert_eq!(ce.parent, Some(cb.id));
        // Timing and attribution.
        assert_eq!((tb.ts_us, te.ts_us), (2000, 3000));
        assert_eq!((cb.ts_us, ce.ts_us), (3000, 4500));
        assert_eq!(tb.node, 0);
        assert_eq!(cb.node, 1);
        assert_eq!(cb.scope, "node1");
        assert_eq!(cb.resource, "node1/fabric");
    }

    #[test]
    fn jsonl_is_versioned_valid_and_deterministic() {
        let trace = sample();
        let mut log = EventLog::from_trace(&trace);
        log.push_lease(0, "node0", "fleetview", 0, trace.makespan_us());
        let meta = [("system", "demo".to_string())];
        let jsonl = log.to_jsonl(&meta);
        let mut lines = jsonl.lines();
        let head = parse_json(lines.next().unwrap()).unwrap();
        assert_eq!(head.get("schema").unwrap().as_str(), Some(EVENTS_SCHEMA));
        assert_eq!(head.get("events").unwrap().as_f64(), Some(7.0));
        let mut ids = Vec::new();
        for line in lines {
            validate_json(line).unwrap();
            let v = parse_json(line).unwrap();
            let id = v.get("id").unwrap().as_f64().unwrap() as u64;
            // Parent must reference an earlier id or be null.
            match v.get("parent").unwrap() {
                JsonValue::Null => {}
                JsonValue::Num(p) => assert!((*p as u64) < id, "parent after child"),
                other => panic!("bad parent: {other:?}"),
            }
            ids.push(id);
        }
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
        // Byte-identical on rebuild.
        let mut log2 = EventLog::from_trace(&trace);
        log2.push_lease(0, "node0", "fleetview", 0, trace.makespan_us());
        assert_eq!(jsonl, log2.to_jsonl(&meta));
    }

    #[test]
    fn lease_pairs_link_release_to_acquire() {
        let mut log = EventLog::new();
        let id = log.push_lease(3, "tenantA@node3", "daemon", 0, 9000);
        let [acq, rel] = log.events() else {
            panic!("expected two events");
        };
        assert_eq!(acq.id, id);
        assert_eq!(acq.kind, EventKind::LeaseAcquire);
        assert_eq!(rel.kind, EventKind::LeaseRelease);
        assert_eq!(rel.parent, Some(id));
        assert_eq!((acq.node, rel.ts_us), (3, 9000));
        assert_eq!(acq.scope, "tenantA@node3");
    }
}
