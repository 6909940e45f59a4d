//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (plus kernel spans imported from the numeric plane's
//! `tensorlite::spans` recorder), kept in memory, and written once at the
//! end of a traced run as a Chrome Trace Event file that Perfetto opens.
//! A disabled recorder turns `begin`/`end` into a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use superchip_sim::telemetry::escape_json;

/// Track of spans the benchmark records on its own (only) thread.
pub const HARNESS_TRACK: u32 = 0;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `"schedule"` or `"kernel.matmul"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Operation (configuration or training step) the span belongs to.
    pub op: u64,
    /// Thread track the span ran on ([`HARNESS_TRACK`] for the benchmark's
    /// own calls).
    pub track: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it that
    /// its same-track children cover.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the benchmark's track; its parent is the innermost
    /// span still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            track: HARNESS_TRACK,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a span measured elsewhere (already closed, any track) and
    /// returns its index. Ignored when disabled.
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if self.spans[p].track == s.track {
                    children[p].push(i);
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = 0;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(union);
        }
        out
    }

    /// The spans as a Chrome Trace Event JSON array (open in Perfetto or
    /// `chrome://tracing`): one complete (`"ph":"X"`) event per span with
    /// its index, parent and operation id in `args`, one row per track.
    pub fn chrome_trace_json(&self) -> String {
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut out = String::from("[");
        for t in &tracks {
            let name = if *t == HARNESS_TRACK {
                "benchmark".to_string()
            } else {
                format!("tensorlite thread {}", t - 1)
            };
            let _ = write!(
                out,
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{t},"args":{{"name":"{}"}}}},"#,
                escape_json(&name)
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}},",
                escape_json(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.track,
                s.op,
            );
        }
        if out.ends_with(',') {
            out.pop();
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            track: HARNESS_TRACK,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.push(span("step", 0, 100, None));
        // Nested kernel spans overlap: the union, not the sum, is covered.
        t.push(span("a", 10, 40, Some(0)));
        t.push(span("b", 20, 30, Some(1)));
        t.push(span("b", 30, 50, Some(0)));
        let times = t.layer_times();
        assert_eq!(times["step"].total_ns, 100);
        assert_eq!(times["step"].self_ns, 60);
        assert_eq!(times["a"].self_ns, 20);
        assert_eq!(times["b"].count, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 1);
        t.end(s);
        assert!(t.push(span("y", 0, 1, None)).is_none());
        assert!(t.spans().is_empty());
        assert_eq!(t.chrome_trace_json(), "[]");
    }

    #[test]
    fn begin_end_nests_and_exports_valid_json() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.chrome_trace_json();
        superchip_sim::telemetry::validate_json(&json).unwrap();
        assert!(json.contains(r#""parent":0,"op":7"#));
    }
}
