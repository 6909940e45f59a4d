//! Cross-plane telemetry: counters, gauges, and time-series counter tracks.
//!
//! The paper argues with timelines *and* resource plots (memory occupancy in
//! Fig. 10–13, bandwidth utilization in Fig. 7, speculation behaviour in
//! Fig. 14). A plain busy/idle trace cannot show those, so the simulator,
//! [`crate::memory::MemoryPool`], and [`crate::link::Link`] feed a
//! [`MetricsRecorder`] during a run:
//!
//! * **counters** — monotonically increasing event counts (`tasks.compute`,
//!   `transfers:c2c-d2h`, ...),
//! * **gauges** — single summary values (`peak-bytes:hbm`, `busy-us:gpu`),
//! * **tracks** — time-series of `(microsecond, value)` samples that export
//!   as Perfetto counter events (`"ph":"C"`) next to the slice rows,
//! * **histograms** — deterministic log-bucketed distributions
//!   ([`Histogram`]) with exact integer counts and sums, for duration and
//!   skew percentiles across a fleet.
//!
//! Everything is deterministic: keys are stored in [`BTreeMap`]s, timestamps
//! are integer microseconds, and [`MetricsRecorder::snapshot_json`] emits a
//! versioned snapshot that is byte-identical across repeated runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::SimTime;

/// Schema identifier stamped into [`MetricsRecorder::snapshot_json`] output.
pub const METRICS_SCHEMA: &str = "superoffload.metrics/v1";

/// Appends `s` to `out`, escaped for embedding inside a JSON string
/// literal. Inlined so that the check folds away for a literal key; the
/// rare string that needs escapes takes [`escape_runs`].
#[inline(always)]
fn escape_json_into(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        escape_runs(out, s);
    } else {
        out.push_str(s);
    }
}

/// Appends `s` escaped, copying the runs of bytes between escapes whole.
#[cold]
fn escape_runs(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every byte that needs an escape is ASCII, so `i` is a char
        // boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

// ---------------------------------------------------------------------------
// The JSON writer: every artifact of the workspace is emitted through it.
// ---------------------------------------------------------------------------

/// How a container the [`JsonWriter`] opens lays out its members or
/// elements. Each artifact picks its layouts in code, so the bytes it
/// writes are fixed by the emitter, not by the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One item per line, indented two spaces per nesting level, `": "`
    /// after keys: `{\n  "a": 1,\n  "b": 2\n}`.
    Block,
    /// On one line, `", "` between items and `": "` after keys:
    /// `{"a": 1, "b": 2}`.
    Inline,
    /// On one line with no spaces: `{"a":1,"b":2}` (JSONL and Trace Event
    /// records).
    Dense,
    /// One unindented item per line, no spaces inside: `[{"a":1},\n{"a":2}]`
    /// (a Trace Event array).
    Lines,
}

mod sealed {
    pub trait Sealed {}
}

/// A number the [`JsonWriter`] formats itself: a `u8`, `u32`, `u64`,
/// `usize` or `i64`; an `f32` or `f64` in its shortest round-trip form;
/// `None` as `null`. A NaN or
/// infinite float, which JSON cannot represent, is written as `null` too.
pub trait JsonNumber: sealed::Sealed {
    /// Appends the number's JSON text.
    #[doc(hidden)]
    fn write_number(&self, out: &mut String);
}

/// Appends the decimal digits of `v`, after a `-` when `negative`.
fn write_integer(out: &mut String, negative: bool, mut v: u64) {
    if negative {
        out.push('-');
    }
    let len = v.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut digits = [0u8; 20];
    for d in digits[..len].iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend(digits[..len].iter().map(|&d| char::from(d)));
}

/// An integral value below `$exact` skips `fmt`, since its `Display` text
/// is exactly its digits (`-0` for negative zero): most numbers of an
/// artifact are integers. `1e15` lies inside the range where `f64` holds
/// every integer; an `f32` prints shortest round-trip digits, which are
/// its exact digits only below 2^24.
macro_rules! json_numbers {
    ($($t:ty: $exact:expr),*) => {$(
        impl sealed::Sealed for $t {}
        impl JsonNumber for $t {
            #[allow(clippy::unnecessary_cast)]
            fn write_number(&self, out: &mut String) {
                let v = *self as f64;
                if !v.is_finite() {
                    out.push_str("null");
                } else if v == v.trunc() && v.abs() < $exact {
                    write_integer(out, v.is_sign_negative(), v.abs() as u64);
                } else {
                    let _ = write!(out, "{self}");
                }
            }
        }
    )*};
}
json_numbers!(u8: 1e15, u32: 1e15, u64: 1e15, usize: 1e15, i64: 1e15);
json_numbers!(f32: 16_777_216.0, f64: 1e15);

impl<T: JsonNumber> sealed::Sealed for Option<T> {}
impl<T: JsonNumber> JsonNumber for Option<T> {
    fn write_number(&self, out: &mut String) {
        match self {
            Some(v) => v.write_number(out),
            None => out.push_str("null"),
        }
    }
}

/// A streaming JSON writer that is valid by construction.
///
/// It appends to one `String` sized by the caller. Containers open and
/// close around a closure, so every bracket it opens is closed; every key
/// and string is escaped; every number is formatted by the writer
/// ([`JsonNumber`], `fixed`). There is no way to append raw
/// text, so what it produces parses, and the artifacts need no re-parse
/// when they are written.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// An empty writer whose buffer holds `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
        }
    }

    /// Appends one top-level object and the newline that ends it: one
    /// JSONL record.
    pub fn record(&mut self, layout: Layout, f: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        write_object(&mut self.out, layout, 0, f);
        self.out.push('\n');
        self
    }

    /// Appends one top-level object and its closing newline, a whole
    /// document, and returns everything written.
    pub fn document(mut self, layout: Layout, f: impl FnOnce(&mut JsonObject<'_>)) -> String {
        self.record(layout, f);
        self.out
    }

    /// Appends one top-level object with nothing after it and returns
    /// everything written.
    pub fn object(mut self, layout: Layout, f: impl FnOnce(&mut JsonObject<'_>)) -> String {
        write_object(&mut self.out, layout, 0, f);
        self.out
    }

    /// Appends one top-level array with nothing after it and returns
    /// everything written.
    pub fn array(mut self, layout: Layout, f: impl FnOnce(&mut JsonArray<'_>)) -> String {
        write_array(&mut self.out, layout, 0, f);
        self.out
    }

    /// Everything written.
    pub fn finish(self) -> String {
        self.out
    }
}

#[derive(Debug)]
struct Scope<'a> {
    out: &'a mut String,
    layout: Layout,
    depth: usize,
    empty: bool,
}

impl<'a> Scope<'a> {
    fn open(out: &'a mut String, layout: Layout, depth: usize, bracket: char) -> Self {
        out.push(bracket);
        Scope {
            out,
            layout,
            depth,
            empty: true,
        }
    }

    /// Starts the next item: the separator after the previous one, then,
    /// in a block, a new line at the items' indent. The separator is
    /// pushed byte by byte, which is cheaper than copying a short slice.
    #[inline]
    fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
            match self.layout {
                Layout::Inline => self.out.push(' '),
                Layout::Lines => self.out.push('\n'),
                _ => {}
            }
        }
        self.empty = false;
        if self.layout == Layout::Block {
            self.newline(self.depth + 1);
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', 2 * depth));
    }

    fn close(mut self, bracket: char) {
        if self.layout == Layout::Block && !self.empty {
            self.newline(self.depth);
        }
        self.out.push(bracket);
    }

    #[inline]
    fn string(&mut self, s: &str) {
        self.out.push('"');
        escape_json_into(self.out, s);
        self.out.push('"');
    }
}

fn write_object(
    out: &mut String,
    layout: Layout,
    depth: usize,
    f: impl FnOnce(&mut JsonObject<'_>),
) {
    let mut o = JsonObject(Scope::open(out, layout, depth, '{'));
    f(&mut o);
    o.0.close('}');
}

fn write_array(out: &mut String, layout: Layout, depth: usize, f: impl FnOnce(&mut JsonArray<'_>)) {
    let mut a = JsonArray(Scope::open(out, layout, depth, '['));
    f(&mut a);
    a.0.close(']');
}

/// An open JSON object of a [`JsonWriter`]: each method appends one
/// member, under `key`.
#[derive(Debug)]
pub struct JsonObject<'a>(Scope<'a>);

impl JsonObject<'_> {
    /// Starts the member `key` and returns where its value goes. Always
    /// inlined, as are the value methods where the compiler agrees: with a
    /// literal key, the escape check then folds away at compile time.
    #[inline(always)]
    fn slot(&mut self, key: &str) -> &mut String {
        self.0.item();
        self.0.string(key);
        self.0.out.push(':');
        if !matches!(self.0.layout, Layout::Dense | Layout::Lines) {
            self.0.out.push(' ');
        }
        self.0.out
    }
}

/// An open JSON array of a [`JsonWriter`]: each method appends one element.
#[derive(Debug)]
pub struct JsonArray<'a>(Scope<'a>);

impl JsonArray<'_> {
    /// Starts the next element and returns where it goes.
    fn slot(&mut self) -> &mut String {
        self.0.item();
        self.0.out
    }
}

/// The value methods of [`JsonObject`] (which take a key first) and
/// [`JsonArray`] (which do not), defined once.
macro_rules! json_values {
    ($container:ident $(, $key:ident)?) => {
        impl $container<'_> {
            /// A number (see [`JsonNumber`]).
            #[inline]
            pub fn num(&mut self, $($key: &str,)? v: impl JsonNumber) -> &mut Self {
                v.write_number(self.slot($($key)?));
                self
            }

            /// An `f64` with exactly `decimals` digits after the point
            /// (`null` when `v` is NaN or infinite).
                        pub fn fixed(&mut self, $($key: &str,)? v: f64, decimals: usize) -> &mut Self {
                let out = self.slot($($key)?);
                if v.is_finite() {
                    let _ = write!(out, "{v:.decimals$}");
                } else {
                    out.push_str("null");
                }
                self
            }

            /// A string, escaped.
            #[inline]
            pub fn str(&mut self, $($key: &str,)? v: &str) -> &mut Self {
                self.slot($($key)?);
                self.0.string(v);
                self
            }

            /// `true` or `false`.
                        pub fn bool(&mut self, $($key: &str,)? v: bool) -> &mut Self {
                self.slot($($key)?).push_str(if v { "true" } else { "false" });
                self
            }

            /// `null`.
                        pub fn null(&mut self $(, $key: &str)?) -> &mut Self {
                self.slot($($key)?).push_str("null");
                self
            }

            /// An object, filled by `f`.
            pub fn object(
                &mut self,
                $($key: &str,)?
                layout: Layout,
                f: impl FnOnce(&mut JsonObject<'_>),
            ) -> &mut Self {
                let depth = self.0.depth + 1;
                write_object(self.slot($($key)?), layout, depth, f);
                self
            }

            /// An array, filled by `f`.
            pub fn array(
                &mut self,
                $($key: &str,)?
                layout: Layout,
                f: impl FnOnce(&mut JsonArray<'_>),
            ) -> &mut Self {
                let depth = self.0.depth + 1;
                write_array(self.slot($($key)?), layout, depth, f);
                self
            }
        }
    };
}
json_values!(JsonObject, key);
json_values!(JsonArray);

/// A time-series counter track: `(integer microsecond, value)` samples plus
/// a unit label, exported as one Perfetto counter row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterTrack {
    /// Unit of the sampled values (`"bytes"`, `"GB/s"`, `"us"`, ...).
    pub unit: String,
    /// Samples in insertion order; timestamps are integer microseconds.
    pub samples: Vec<(u64, f64)>,
}

impl CounterTrack {
    /// Largest sampled value, or 0 for an empty track.
    pub fn max_value(&self) -> f64 {
        self.samples.iter().fold(0.0, |m, &(_, v)| m.max(v))
    }
}

/// A deterministic log-bucketed histogram of non-negative integer
/// observations (integer microseconds, bytes, ...).
///
/// Bucket `k` covers `[2^(k-1), 2^k)` and bucket 0 holds exactly the value
/// zero, so bucket boundaries are fixed by construction: no configuration,
/// no data-dependent resizing, and merging two histograms is exact.
/// Alongside the bucketed counts the histogram keeps the *exact* integer
/// count, sum, min, and max, so aggregate statistics carry no bucketing
/// error; only percentiles are bucket-resolution upper-bound estimates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Unit of the observed values (`"us"`, `"bytes"`, ...).
    pub unit: String,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sparse bucket counts: `(bucket index, observations)`, ascending.
    buckets: Vec<(u32, u64)>,
}

impl Histogram {
    /// The bucket index holding `value`: 0 for zero, otherwise the bit
    /// width of `value` (so bucket `k` covers `[2^(k-1), 2^k)`).
    pub fn bucket_index(value: u64) -> u32 {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros()
        }
    }

    /// Half-open range `[lo, hi)` of bucket `k`. Bucket 64 is capped at
    /// `u64::MAX` (its one unrepresentable top value folds in).
    pub fn bucket_bounds(k: u32) -> (u64, u64) {
        match k {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let k = Self::bucket_index(value);
        match self.buckets.binary_search_by_key(&k, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (k, 1)),
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds every observation of `other` into `self` (exact: counts, sums,
    /// and bucket tallies all add; min/max take the tighter bound).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for &(k, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&k, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (k, n)),
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sparse bucket tallies `(bucket index, count)`, ascending by index.
    pub fn buckets(&self) -> &[(u32, u64)] {
        &self.buckets
    }

    /// Deterministic percentile estimate: the inclusive upper bound of the
    /// first bucket whose cumulative count reaches rank `ceil(p * count)`,
    /// clamped into `[min, max]`. Exact for the extremes (p = 0 returns
    /// `min`, p = 1 is clamped to `max`); within a bucket it over-estimates
    /// by at most the bucket width (< 2x).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(k, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                let (_, hi) = Self::bucket_bounds(k);
                return (hi - 1).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Collects counters, gauges, and counter tracks during a run.
///
/// ```
/// use superchip_sim::telemetry::MetricsRecorder;
/// use superchip_sim::SimTime;
/// let mut rec = MetricsRecorder::new();
/// rec.add("tasks.compute", 3);
/// rec.set_gauge("peak-bytes:hbm", 1024.0);
/// rec.sample("mem:hbm", "bytes", SimTime::from_micros(5.0), 1024.0);
/// assert_eq!(rec.counter("tasks.compute"), 3);
/// assert_eq!(rec.track("mem:hbm").unwrap().samples, vec![(5, 1024.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRecorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    tracks: BTreeMap<String, CounterTrack>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by `n` (creating it at zero first). The
    /// key is copied only when the counter is new.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, ordered by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Sets gauge `name` to `value`, overwriting any previous value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, ordered by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Appends a sample to track `track` at integer microsecond `ts_us`.
    ///
    /// The unit is fixed by the first sample; later calls may pass the same
    /// unit (or anything — the first one wins).
    pub fn sample_us(&mut self, track: &str, unit: &str, ts_us: u64, value: f64) {
        // Look up before inserting: the key is copied once per track, not
        // once per sample.
        if !self.tracks.contains_key(track) {
            self.tracks
                .insert(track.to_string(), CounterTrack::default());
        }
        let t = self.tracks.get_mut(track).expect("track just ensured");
        if t.unit.is_empty() {
            t.unit = unit.to_string();
        }
        t.samples.push((ts_us, value));
    }

    /// Appends a sample to track `track` at simulated time `at` (rounded to
    /// integer microseconds).
    pub fn sample(&mut self, track: &str, unit: &str, at: SimTime, value: f64) {
        self.sample_us(track, unit, at.as_micros_rounded(), value);
    }

    /// The named track, if any samples were recorded.
    pub fn track(&self, name: &str) -> Option<&CounterTrack> {
        self.tracks.get(name)
    }

    /// All tracks, ordered by name.
    pub fn tracks(&self) -> &BTreeMap<String, CounterTrack> {
        &self.tracks
    }

    /// Records one observation into histogram `name`.
    ///
    /// The unit is fixed by the first observation (like
    /// [`MetricsRecorder::sample_us`] for tracks).
    pub fn observe(&mut self, name: &str, unit: &str, value: u64) {
        let h = self.histograms.entry(name.to_string()).or_default();
        if h.unit.is_empty() {
            h.unit = unit.to_string();
        }
        h.observe(value);
    }

    /// The named histogram, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, ordered by name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.tracks.is_empty()
            && self.histograms.is_empty()
    }

    /// Appends every track to a Trace Event array as counter events
    /// (`"ph":"C"`), one record per sample.
    ///
    /// Samples within a track are emitted time-sorted (stable, so same-
    /// timestamp samples keep insertion order and the last one wins in
    /// Perfetto's rendering).
    ///
    /// Every track is closed with a final sample repeating its last value
    /// at `end_us` (the trace makespan). Without this, Perfetto
    /// extrapolates the last counter value past the end of the trace, which
    /// misreads as activity after the run finished. Tracks whose last
    /// sample is already at or past `end_us` are emitted unchanged.
    pub fn write_chrome_counter_events(&self, events: &mut JsonArray<'_>, pid: u32, end_us: u64) {
        for (name, track) in &self.tracks {
            let mut samples = track.samples.clone();
            samples.sort_by_key(|&(ts, _)| ts);
            if let Some(&(last_ts, last_v)) = samples.last() {
                if last_ts < end_us {
                    samples.push((end_us, last_v));
                }
            }
            let arg = if track.unit.is_empty() {
                "value"
            } else {
                &track.unit
            };
            for (ts, v) in samples {
                events.object(Layout::Dense, |e| {
                    e.str("name", name)
                        .str("ph", "C")
                        .num("ts", ts)
                        .num("pid", pid)
                        .object("args", Layout::Dense, |a| {
                            a.num(arg, v);
                        });
                });
            }
        }
    }

    /// Serializes the recorder as a deterministic, versioned JSON object.
    ///
    /// `meta` entries (string key/value pairs, emitted in the given order)
    /// identify the run — system name, workload, schema extensions. The
    /// output is byte-identical across repeated identical runs: keys are
    /// sorted, timestamps are integers, and no wall-clock values appear.
    pub fn snapshot_json(&self, meta: &[(&str, String)]) -> String {
        let samples: usize = self.tracks.values().map(|t| t.samples.len()).sum();
        let capacity = 1024 + 64 * (self.counters.len() + self.gauges.len()) + 24 * samples;
        JsonWriter::with_capacity(capacity).document(Layout::Block, |doc| {
            doc.str("schema", METRICS_SCHEMA);
            write_meta(doc, meta);
            doc.object("counters", Layout::Block, |o| {
                for (k, v) in &self.counters {
                    o.num(k, *v);
                }
            });
            doc.object("gauges", Layout::Block, |o| {
                for (k, v) in &self.gauges {
                    o.num(k, *v);
                }
            });
            doc.object("tracks", Layout::Block, |o| {
                for (k, track) in &self.tracks {
                    let mut samples = track.samples.clone();
                    samples.sort_by_key(|&(ts, _)| ts);
                    o.object(k, Layout::Inline, |t| {
                        t.str("unit", &track.unit);
                        t.array("samples", Layout::Dense, |a| {
                            for (ts, v) in samples {
                                a.array(Layout::Dense, |s| {
                                    s.num(ts).num(v);
                                });
                            }
                        });
                    });
                }
            });
            doc.object("histograms", Layout::Block, |o| {
                for (k, h) in &self.histograms {
                    o.object(k, Layout::Inline, |t| {
                        t.str("unit", &h.unit)
                            .num("count", h.count())
                            .num("sum", h.sum())
                            .num("min", h.min())
                            .num("max", h.max())
                            .array("buckets", Layout::Dense, |a| {
                                for &(b, n) in h.buckets() {
                                    let (lo, hi) = Histogram::bucket_bounds(b);
                                    a.array(Layout::Dense, |r| {
                                        r.num(lo).num(hi).num(n);
                                    });
                                }
                            });
                    });
                }
            });
        })
    }
}

/// Writes `meta` as the block-laid `"meta"` object of a snapshot: string
/// members, in the given order.
pub(crate) fn write_meta(doc: &mut JsonObject<'_>, meta: &[(&str, String)]) {
    doc.object("meta", Layout::Block, |m| {
        for (k, v) in meta {
            m.str(k, v);
        }
    });
}

// ---------------------------------------------------------------------------
// Telemetry diffing: bucket-by-bucket comparison of two recorders.
// ---------------------------------------------------------------------------

/// Delta of one named counter between two recorders. A counter missing
/// from a side counts as zero there.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
    /// Signed `b - a`.
    pub delta: i64,
}

/// Delta of one named gauge between two recorders. `None` on a side means
/// the gauge was never set there; `delta` treats a missing side as zero.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeDelta {
    /// Gauge name.
    pub name: String,
    /// Value in run A, if set.
    pub a: Option<f64>,
    /// Value in run B, if set.
    pub b: Option<f64>,
    /// `b - a` with missing sides as zero.
    pub delta: f64,
}

/// Bucket-by-bucket delta of one named histogram. The bucket list is the
/// union of both runs' occupied buckets, ascending by index, each entry
/// carrying both runs' tallies; a histogram missing from a side is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDiff {
    /// Histogram name.
    pub name: String,
    /// Unit (run B's when present, else run A's).
    pub unit: String,
    /// Observation count in run A / run B.
    pub count_a: u64,
    /// Observation count in run B.
    pub count_b: u64,
    /// Exact sum in run A.
    pub sum_a: u64,
    /// Exact sum in run B.
    pub sum_b: u64,
    /// Signed count delta.
    pub count_delta: i64,
    /// Signed sum delta.
    pub sum_delta: i64,
    /// p50 estimate in run A / run B.
    pub p50_a: u64,
    /// p50 estimate in run B.
    pub p50_b: u64,
    /// p99 estimate in run A.
    pub p99_a: u64,
    /// p99 estimate in run B.
    pub p99_b: u64,
    /// Union of occupied buckets: `(bucket index, count_a, count_b)`,
    /// ascending by bucket index.
    pub buckets: Vec<(u32, u64, u64)>,
}

impl HistogramDiff {
    /// True when both sides tally identically in every bucket.
    pub fn is_zero(&self) -> bool {
        self.count_delta == 0 && self.sum_delta == 0 && self.buckets.iter().all(|&(_, a, b)| a == b)
    }
}

/// Sample-count and peak-value delta of one named counter track. A track
/// missing from a side is empty there.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackDiff {
    /// Track name.
    pub name: String,
    /// Unit (run B's when present, else run A's).
    pub unit: String,
    /// Number of samples in run A.
    pub samples_a: usize,
    /// Number of samples in run B.
    pub samples_b: usize,
    /// Largest sampled value in run A.
    pub max_a: f64,
    /// Largest sampled value in run B.
    pub max_b: f64,
    /// True when both runs recorded the identical sample sequence.
    pub identical: bool,
}

/// The structured delta between two [`MetricsRecorder`]s: every counter,
/// gauge, histogram, and track of either run, compared name-by-name (and
/// bucket-by-bucket for histograms). Entries are ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDiff {
    /// Counter deltas.
    pub counters: Vec<CounterDelta>,
    /// Gauge deltas.
    pub gauges: Vec<GaugeDelta>,
    /// Histogram diffs.
    pub histograms: Vec<HistogramDiff>,
    /// Track diffs.
    pub tracks: Vec<TrackDiff>,
}

impl MetricsDiff {
    /// True when both recorders carry bit-identical telemetry.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|c| c.delta == 0)
            && self.gauges.iter().all(|g| g.a == g.b)
            && self.histograms.iter().all(HistogramDiff::is_zero)
            && self.tracks.iter().all(|t| t.identical)
    }
}

/// Sorted union of the key sets of two maps.
fn union_names<'a, A, B>(
    a: &'a BTreeMap<String, A>,
    b: &'a BTreeMap<String, B>,
) -> Vec<&'a String> {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    names
}

/// Diffs one pair of histograms bucket-by-bucket (see [`HistogramDiff`]).
/// Either side may be absent; an absent histogram is empty.
pub fn diff_histograms(name: &str, a: Option<&Histogram>, b: Option<&Histogram>) -> HistogramDiff {
    let empty = Histogram::default();
    let unit = b.or(a).map(|h| h.unit.clone()).unwrap_or_default();
    let ha = a.unwrap_or(&empty);
    let hb = b.unwrap_or(&empty);
    let mut buckets = Vec::new();
    let (ba, bb) = (ha.buckets(), hb.buckets());
    let (mut i, mut j) = (0, 0);
    while i < ba.len() || j < bb.len() {
        let ka = ba.get(i).map(|&(k, _)| k);
        let kb = bb.get(j).map(|&(k, _)| k);
        match (ka, kb) {
            (Some(x), Some(y)) if x == y => {
                buckets.push((x, ba[i].1, bb[j].1));
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                buckets.push((x, ba[i].1, 0));
                i += 1;
            }
            (Some(_), Some(y)) => {
                buckets.push((y, 0, bb[j].1));
                j += 1;
            }
            (Some(x), None) => {
                buckets.push((x, ba[i].1, 0));
                i += 1;
            }
            (None, Some(y)) => {
                buckets.push((y, 0, bb[j].1));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    HistogramDiff {
        name: name.to_string(),
        unit,
        count_a: ha.count(),
        count_b: hb.count(),
        sum_a: ha.sum(),
        sum_b: hb.sum(),
        count_delta: hb.count() as i64 - ha.count() as i64,
        sum_delta: hb.sum() as i64 - ha.sum() as i64,
        p50_a: ha.percentile(0.50),
        p50_b: hb.percentile(0.50),
        p99_a: ha.percentile(0.99),
        p99_b: hb.percentile(0.99),
        buckets,
    }
}

/// Diffs two recorders name-by-name across all four telemetry families.
/// Deterministic: identical recorder pairs produce identical diffs.
pub fn diff_metrics(a: &MetricsRecorder, b: &MetricsRecorder) -> MetricsDiff {
    let counters = union_names(&a.counters, &b.counters)
        .into_iter()
        .map(|name| {
            let (va, vb) = (a.counter(name), b.counter(name));
            CounterDelta {
                name: name.clone(),
                a: va,
                b: vb,
                delta: vb as i64 - va as i64,
            }
        })
        .collect();
    let gauges = union_names(&a.gauges, &b.gauges)
        .into_iter()
        .map(|name| {
            let (va, vb) = (a.gauge(name), b.gauge(name));
            GaugeDelta {
                name: name.clone(),
                a: va,
                b: vb,
                delta: vb.unwrap_or(0.0) - va.unwrap_or(0.0),
            }
        })
        .collect();
    let histograms = union_names(&a.histograms, &b.histograms)
        .into_iter()
        .map(|name| diff_histograms(name, a.histogram(name), b.histogram(name)))
        .collect();
    let tracks = union_names(&a.tracks, &b.tracks)
        .into_iter()
        .map(|name| {
            let (ta, tb) = (a.track(name), b.track(name));
            TrackDiff {
                name: name.clone(),
                unit: tb.or(ta).map(|t| t.unit.clone()).unwrap_or_default(),
                samples_a: ta.map_or(0, |t| t.samples.len()),
                samples_b: tb.map_or(0, |t| t.samples.len()),
                max_a: ta.map_or(0.0, CounterTrack::max_value),
                max_b: tb.map_or(0.0, CounterTrack::max_value),
                identical: match (ta, tb) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                },
            }
        })
        .collect();
    MetricsDiff {
        counters,
        gauges,
        histograms,
        tracks,
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. Every
/// artifact this workspace writes nests fewer than 10 levels; the bound
/// keeps a hostile document from exhausting the stack of the recursive
/// parser.
pub const MAX_JSON_DEPTH: usize = 128;

/// Validates that `s` is one well-formed JSON value with nothing trailing.
/// This runs [`parse_json`]'s grammar without building the value, so it
/// accepts and rejects exactly what `parse_json` does, with the same errors.
///
/// # Errors
/// Returns a human-readable description of the first syntax error, with its
/// byte offset.
pub fn validate_json(s: &str) -> Result<(), String> {
    run_json_parser::<false>(s).map(|_| ())
}

/// Longest string, in bytes, that a [`JsonStr`] stores inline.
const JSON_STR_INLINE: usize = 22;

/// An owned, immutable string of a parsed [`JsonValue`]: a string value or
/// an object key.
///
/// Up to 22 bytes are stored inline and cost no allocation; longer strings
/// live in a `Box<str>`. Nearly every key and string value of a trace or
/// snapshot is short (`"ph"`, `"ts"`, `"X"`, resource and task labels), so
/// parsing one allocates per container rather than per string. A
/// `JsonStr` is 24 bytes, like a `String`, and reads like one: it
/// dereferences to `str`, and its `Debug` and `Display` print exactly as a
/// `String` holding the same text does.
#[derive(Clone)]
pub struct JsonStr(JsonStrRepr);

#[derive(Clone)]
enum JsonStrRepr {
    /// `buf[..len]` is the text.
    Inline {
        len: u8,
        buf: [u8; JSON_STR_INLINE],
    },
    Boxed(Box<str>),
}

impl JsonStr {
    /// The empty string.
    pub const EMPTY: JsonStr = JsonStr(JsonStrRepr::Inline {
        len: 0,
        buf: [0; JSON_STR_INLINE],
    });

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            JsonStrRepr::Inline { len, buf } => std::str::from_utf8(&buf[..*len as usize])
                .expect("inline bytes were copied from a str"),
            JsonStrRepr::Boxed(s) => s,
        }
    }

    /// The text's UTF-8 bytes, without re-checking them.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            JsonStrRepr::Inline { len, buf } => &buf[..*len as usize],
            JsonStrRepr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl std::ops::Deref for JsonStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for JsonStr {
    fn from(s: &str) -> Self {
        if s.len() <= JSON_STR_INLINE {
            let mut buf = [0; JSON_STR_INLINE];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            JsonStr(JsonStrRepr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            JsonStr(JsonStrRepr::Boxed(s.into()))
        }
    }
}

impl From<String> for JsonStr {
    fn from(s: String) -> Self {
        if s.len() <= JSON_STR_INLINE {
            JsonStr::from(s.as_str())
        } else {
            JsonStr(JsonStrRepr::Boxed(s.into_boxed_str()))
        }
    }
}

impl PartialEq for JsonStr {
    fn eq(&self, other: &JsonStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<str> for JsonStr {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for JsonStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::fmt::Debug for JsonStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for JsonStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self.as_str(), f)
    }
}

/// A parsed JSON value, produced by [`parse_json`].
///
/// Object members keep their document order (duplicate keys are kept as-is;
/// [`JsonValue::get`] returns the first). Numbers are `f64`, which is exact
/// for the integer-microsecond magnitudes our snapshots contain. Strings and
/// keys are [`JsonStr`]s, so short ones cost no allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(JsonStr),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in document order.
    Obj(Vec<(JsonStr, JsonValue)>),
}

impl JsonValue {
    /// First member of an object named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members
                .iter()
                .find(|(k, _)| k.as_bytes() == key.as_bytes())
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses `s` into a [`JsonValue`], checking the grammar and building the
/// value in one pass: objects, arrays, strings with escapes, numbers,
/// `true`/`false`/`null`, nested at most [`MAX_JSON_DEPTH`] deep, with
/// nothing trailing. This is the crate's one JSON grammar, so tests and the
/// `repro` CLI can check emitted traces and snapshots without a
/// serialization dependency.
///
/// # Errors
/// Returns a human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    run_json_parser::<true>(s)
}

/// The one JSON grammar behind [`parse_json`] (`BUILD`) and
/// [`validate_json`] (check only: no string, number or container is built,
/// and the returned value is a placeholder).
fn run_json_parser<const BUILD: bool>(s: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser::<BUILD> {
        s,
        b: s.as_bytes(),
        i: 0,
        depth: 0,
        items: Vec::new(),
        members: Vec::new(),
        scratch: String::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct JsonParser<'a, const BUILD: bool> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Elements of the open arrays, innermost last. Each array moves its
    /// own into one exactly-sized `Vec` when it closes, so a container
    /// costs one allocation rather than one per growth step.
    items: Vec<JsonValue>,
    /// Members of the open objects, likewise.
    members: Vec<(JsonStr, JsonValue)>,
    /// The decoded text of a string with escapes, reused from one such
    /// string to the next. Empty between strings; a check-only parse never
    /// touches it.
    scratch: String,
}

/// Moves the elements a closing container pushed (`stack[start..]`) into
/// their own exactly-sized `Vec`, leaving the stack's buffer for the next
/// container. The document root takes the buffer itself: nothing is parsed
/// after it.
fn close_container<T>(stack: &mut Vec<T>, start: usize, root: bool) -> Vec<T> {
    if root {
        let mut v = std::mem::take(stack);
        v.shrink_to_fit();
        v
    } else {
        stack.drain(start..).collect()
    }
}

impl<const BUILD: bool> JsonParser<'_, BUILD> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    /// Consumes the opening bracket of an array or object, one level deeper.
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        self.i += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(Vec::new()));
        }
        let start = self.members.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            if BUILD {
                self.members.push((key, v));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    self.depth -= 1;
                    let members = close_container(&mut self.members, start, self.depth == 0);
                    return Ok(JsonValue::Obj(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(Vec::new()));
        }
        let start = self.items.len();
        loop {
            self.skip_ws();
            let v = self.value()?;
            if BUILD {
                self.items.push(v);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    self.depth -= 1;
                    let items = close_container(&mut self.items, start, self.depth == 0);
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    /// A string literal. An escape-free string is copied straight from the
    /// input into its [`JsonStr`]. A string with escapes is decoded run by
    /// run into `scratch` (the bytes between escapes copied whole) and then
    /// copied once. A check-only parse copies nothing.
    fn string(&mut self) -> Result<JsonStr, String> {
        self.expect(b'"')?;
        let start = self.i;
        let mut run = start;
        let mut escaped = false;
        loop {
            let Some(n) = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            else {
                return Err("unterminated string".to_string());
            };
            // The run ends at an ASCII byte, so both ends are char
            // boundaries of the input.
            self.i += n;
            match self.b[self.i] {
                b'"' => {
                    let end = self.i;
                    self.i += 1;
                    if !BUILD {
                        return Ok(JsonStr::EMPTY);
                    }
                    if !escaped {
                        return Ok(JsonStr::from(&self.s[start..end]));
                    }
                    self.scratch.push_str(&self.s[run..end]);
                    let text = JsonStr::from(self.scratch.as_str());
                    self.scratch.clear();
                    return Ok(text);
                }
                b'\\' => {
                    if BUILD {
                        self.scratch.push_str(&self.s[run..self.i]);
                    }
                    escaped = true;
                    self.i += 1;
                    self.escape()?;
                    run = self.i;
                }
                _ => return Err(format!("raw control character at byte {}", self.i)),
            }
        }
    }

    /// Decodes the escape after a backslash into `scratch`.
    fn escape(&mut self) -> Result<(), String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                let mut hi = self.hex4()?;
                // Combine a surrogate pair if one follows; anything unpaired
                // decodes to U+FFFD. A high surrogate whose following \u
                // escape is NOT a low surrogate is itself unpaired — the
                // second escape then stands alone (and may open a new pair
                // of its own).
                loop {
                    if !(0xD800..0xDC00).contains(&hi) {
                        self.push(char::from_u32(hi).unwrap_or('\u{FFFD}'));
                        return Ok(());
                    }
                    if !self.b[self.i..].starts_with(b"\\u") {
                        self.push('\u{FFFD}');
                        return Ok(());
                    }
                    self.i += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let combined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        self.push(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                        return Ok(());
                    }
                    self.push('\u{FFFD}');
                    hi = lo;
                }
            }
            other => {
                return Err(format!(
                    "bad escape {:?} at byte {}",
                    other.map(|b| b as char),
                    self.i
                ))
            }
        };
        self.push(c);
        self.i += 1;
        Ok(())
    }

    /// Appends a decoded character to `scratch`, unless this parse only
    /// checks.
    fn push(&mut self, c: char) {
        if BUILD {
            self.scratch.push(c);
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?` — leading zeros allowed.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.digits() == 0 {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if !BUILD {
            return Ok(JsonValue::Null);
        }
        self.s[start..self.i]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| bad())
    }

    fn literal(&mut self, lit: &[u8], v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter records of `rec` closed at `end_us`, one string each.
    /// An `end_us` of 0 appends no closing sample.
    fn counter_records(rec: &MetricsRecorder, end_us: u64) -> Vec<String> {
        let json = JsonWriter::default().array(Layout::Lines, |events| {
            rec.write_chrome_counter_events(events, 0, end_us);
        });
        validate_json(&json).unwrap();
        let body = &json[1..json.len() - 1];
        body.split_terminator(",\n").map(str::to_string).collect()
    }

    /// `v` as the member `"k"` of a dense object, through `num`.
    fn num_member(v: impl JsonNumber) -> String {
        JsonWriter::default().object(Layout::Dense, |o| {
            o.num("k", v);
        })
    }

    /// `v` as the member `"k"` of a dense object, through `fixed`.
    fn fixed_member(v: f64, decimals: usize) -> String {
        JsonWriter::default().object(Layout::Dense, |o| {
            o.fixed("k", v, decimals);
        })
    }

    #[test]
    fn writer_turns_every_non_finite_number_into_null() {
        let null = r#"{"k":null}"#;
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num_member(v), null);
            assert_eq!(num_member(v as f32), null);
            assert_eq!(num_member(Some(v)), null);
            assert_eq!(fixed_member(v, 3), null);
            let elements = JsonWriter::default().array(Layout::Dense, |a| {
                a.num(v).num(v as f32).num(Some(v)).fixed(v, 3);
            });
            assert_eq!(elements, "[null,null,null,null]");
        }
        assert_eq!(num_member(None::<u64>), null);
    }

    #[test]
    fn writer_formats_numbers_like_rust() {
        let floats = [
            0.0,
            -0.0,
            -1.5,
            1e-7,
            123_456.789_012_345,
            1e21,
            2.0 / 3.0,
            42.0,
            -7.0,
        ];
        for v in floats
            .into_iter()
            .chain([999_999_999_999_999.0, 1e15, -(2f64.powi(53))])
        {
            for decimals in [0, 1, 3, 6, 9] {
                assert_eq!(
                    fixed_member(v, decimals),
                    format!("{{\"k\":{v:.decimals$}}}")
                );
            }
            assert_eq!(num_member(v), format!("{{\"k\":{v}}}"));
        }
        for v in [
            0.1f32,
            -3.0,
            16_777_215.0,
            16_777_216.0,
            4_294_967_296.0,
            123_456_790.0,
            -0.0,
        ] {
            assert_eq!(num_member(v), format!("{{\"k\":{v}}}"));
        }
        assert_eq!(num_member(u64::MAX), format!("{{\"k\":{}}}", u64::MAX));
        for v in [
            0i64,
            -7,
            999_999_999_999_999,
            1_000_000_000_000_001,
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(num_member(v), format!("{{\"k\":{v}}}"));
        }
    }

    #[test]
    fn writer_layouts_space_and_indent_as_documented() {
        let write = |o: &mut JsonObject<'_>| {
            o.num("a", 1u32).array("b", Layout::Dense, |a| {
                a.str("x").bool(true).null();
            });
        };
        let expected = [
            (
                Layout::Block,
                "{\n  \"a\": 1,\n  \"b\": [\"x\",true,null]\n}",
            ),
            (Layout::Inline, r#"{"a": 1, "b": ["x",true,null]}"#),
            (Layout::Dense, r#"{"a":1,"b":["x",true,null]}"#),
            (Layout::Lines, "{\"a\":1,\n\"b\":[\"x\",true,null]}"),
        ];
        for (layout, text) in expected {
            assert_eq!(
                JsonWriter::default().object(layout, write),
                text,
                "{layout:?}"
            );
            // Empty containers print as a bare pair in every layout.
            assert_eq!(JsonWriter::default().object(layout, |_| {}), "{}");
            assert_eq!(JsonWriter::default().array(layout, |_| {}), "[]");
            let nested = JsonWriter::default().array(layout, |a| {
                a.object(Layout::Block, |_| {}).array(Layout::Block, |_| {});
            });
            validate_json(&nested).unwrap();
            assert!(nested.contains("{}") && nested.contains("[]"), "{nested}");
        }
        // Blocks indent by nesting depth; records end with a newline.
        let mut w = JsonWriter::default();
        w.record(Layout::Block, |doc| {
            doc.object("o", Layout::Block, |o| {
                o.array("l", Layout::Block, |l| {
                    l.num(1u32);
                });
            });
        });
        w.record(Layout::Dense, |r| {
            r.str("k\"ey", "v\\al\n");
        });
        let expected =
            "{\n  \"o\": {\n    \"l\": [\n      1\n    ]\n  }\n}\n{\"k\\\"ey\":\"v\\\\al\\n\"}\n";
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut rec = MetricsRecorder::new();
        rec.add("tasks.compute", 2);
        rec.add("tasks.compute", 3);
        rec.set_gauge("peak-bytes:hbm", 7.0);
        rec.set_gauge("peak-bytes:hbm", 9.0);
        assert_eq!(rec.counter("tasks.compute"), 5);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(rec.gauge("peak-bytes:hbm"), Some(9.0));
        assert!(!rec.is_empty());
    }

    #[test]
    fn samples_round_to_integer_micros() {
        let mut rec = MetricsRecorder::new();
        rec.sample(
            "mem:hbm",
            "bytes",
            SimTime::from_secs(0.002_000_000_000_3),
            4.0,
        );
        assert_eq!(rec.track("mem:hbm").unwrap().samples, vec![(2000, 4.0)]);
        assert_eq!(rec.track("mem:hbm").unwrap().unit, "bytes");
    }

    #[test]
    fn counter_events_are_sorted_and_valid_json() {
        let mut rec = MetricsRecorder::new();
        rec.sample_us("mem:hbm", "bytes", 10, 2.0);
        rec.sample_us("mem:hbm", "bytes", 5, 1.0);
        let events = counter_records(&rec, 0);
        assert_eq!(events.len(), 2);
        assert!(events[0].contains(r#""ts":5"#));
        assert!(events[1].contains(r#""ts":10"#));
        for e in &events {
            assert!(e.contains(r#""ph":"C""#));
            validate_json(e).unwrap();
        }
    }

    #[test]
    fn snapshot_is_valid_and_deterministic() {
        let build = || {
            let mut rec = MetricsRecorder::new();
            rec.add("b", 1);
            rec.add("a", 2);
            rec.set_gauge("g", 1.5);
            rec.sample_us("t", "us", 3, 0.5);
            rec.snapshot_json(&[("system", "demo".to_string())])
        };
        let one = build();
        let two = build();
        assert_eq!(one, two);
        validate_json(&one).unwrap();
        assert!(one.contains("superoffload.metrics/v1"));
        // BTreeMap ordering: "a" before "b".
        assert!(one.find("\"a\"").unwrap() < one.find("\"b\"").unwrap());
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let rec = MetricsRecorder::new();
        let json = rec.snapshot_json(&[]);
        validate_json(&json).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json(r#"{"a": [1, -2.5, 3e-4], "b": "x\"\n", "c": null}"#).unwrap();
        validate_json("[]").unwrap();
        validate_json("true").unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json(r#"{"a" 1}"#).is_err());
        assert!(validate_json("1 2").is_err());
        assert!(validate_json("01").is_ok()); // lenient: digits only
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("nul").is_err());
    }

    #[test]
    fn counter_events_until_repeats_last_value() {
        let mut rec = MetricsRecorder::new();
        rec.sample_us("mem:hbm", "bytes", 5, 1.0);
        rec.sample_us("flat", "us", 10, 3.0);
        let events = counter_records(&rec, 10);
        // "flat" ends exactly at 10 (no extra sample); "mem:hbm" gets one.
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .any(|e| e.contains(r#""name":"mem:hbm","ph":"C","ts":10"#)
                && e.contains(r#"{"bytes":1}"#)));
        assert_eq!(events.iter().filter(|e| e.contains("\"flat\"")).count(), 1);
        // An end at or before every track's last sample appends nothing.
        assert_eq!(counter_records(&rec, 0).len(), 2);
    }

    #[test]
    fn parse_json_builds_values() {
        let v =
            parse_json(r#"{"a": [1, -2.5, 3e-4], "b": "x\"\n", "c": null, "d": true}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-2.5),
                JsonValue::Num(3e-4),
            ])
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\n"));
        assert_eq!(v.get("c").unwrap(), &JsonValue::Null);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_json_decodes_unicode_escapes() {
        let v = parse_json(r#""Aé😀\ud800""#).unwrap();
        // BMP char, accented char, surrogate pair, unpaired surrogate.
        assert_eq!(v.as_str(), Some("Aé😀\u{FFFD}"));
    }

    #[test]
    fn parse_json_handles_adversarial_surrogates() {
        // An escaped pair combines to the real scalar.
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        // High surrogate + a \u escape that is NOT a low surrogate: the
        // high half alone becomes U+FFFD; the second escape stands alone
        // (before the fix this combined into a garbage scalar).
        assert_eq!(
            parse_json(r#""\ud800\u0041""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        // Two escaped high surrogates then a low one: the first is
        // unpaired, the second opens the pair.
        assert_eq!(
            parse_json(r#""\ud83d\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{FFFD}😀")
        );
        // Lone low surrogate, escaped pair of high surrogates at EOS.
        assert_eq!(
            parse_json(r#""\udc00""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
        assert_eq!(
            parse_json(r#""\ud800\ud800""#).unwrap().as_str(),
            Some("\u{FFFD}\u{FFFD}")
        );
        // High surrogate followed by a non-\u escape or literal text.
        assert_eq!(
            parse_json(r#""\ud800\n""#).unwrap().as_str(),
            Some("\u{FFFD}\n")
        );
        assert_eq!(
            parse_json(r#""\ud800x""#).unwrap().as_str(),
            Some("\u{FFFD}x")
        );
        // Truncated \u escapes still error rather than panic.
        assert!(parse_json(r#""\ud800\u00""#).is_err());
        assert!(parse_json(r#""\uzzzz""#).is_err());
    }

    /// A `JsonStr` is no larger than the `String` it replaced, and a
    /// `JsonValue` stays four words.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn json_value_layout_does_not_grow() {
        assert_eq!(std::mem::size_of::<JsonStr>(), 24);
        assert_eq!(std::mem::size_of::<JsonValue>(), 32);
    }

    #[test]
    fn json_str_stores_short_text_inline() {
        let at_limit = "x".repeat(JSON_STR_INLINE);
        assert!(matches!(
            JsonStr::from(at_limit.as_str()).0,
            JsonStrRepr::Inline { .. }
        ));
        assert!(matches!(
            JsonStr::from(format!("{at_limit}x")).0,
            JsonStrRepr::Boxed(_)
        ));
        assert!(matches!(
            JsonStr::from(at_limit.clone()).0,
            JsonStrRepr::Inline { .. }
        ));
        assert_eq!(JsonStr::EMPTY, "");
        assert_eq!(JsonStr::from(at_limit.as_str()), *at_limit.as_str());
    }

    #[test]
    fn strings_round_trip_through_escape_and_parse() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "ctl \u{1} \u{8} \u{c} \n\r\t",
            "unicode é 😀 \u{FFFD} \u{10FFFF}",
            "", // empty
        ] {
            let quoted = format!("\"{}\"", escape_json(s));
            validate_json(&quoted).unwrap();
            assert_eq!(parse_json(&quoted).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parse_json_agrees_with_validate_json() {
        for s in [
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            "1 2",
            "\"unterminated",
            "nul",
            "",
            "{\"x\": [/* no */]}",
        ] {
            assert!(validate_json(s).is_err());
            assert!(parse_json(s).is_err());
        }
        for s in ["[]", "true", "0", r#"{"k": {"k": [[["deep"]]]}}"#] {
            assert!(validate_json(s).is_ok());
            assert!(parse_json(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_parser() {
        let mut rec = MetricsRecorder::new();
        rec.add("tasks.compute", 3);
        rec.set_gauge("peak", 1.5);
        rec.sample_us("t", "us", 3, 0.5);
        let json = rec.snapshot_json(&[("system", "a\"b\\c".to_string())]);
        let v = parse_json(&json).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(
            v.get("meta").unwrap().get("system").unwrap().as_str(),
            Some("a\"b\\c")
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("tasks.compute")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let k = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(k);
            assert!(
                lo <= v && (v < hi || v == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn histogram_keeps_exact_count_sum_min_max() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 5, 5, 1000, 70] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1081);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets().iter().map(|&(_, n)| n).sum::<u64>(), h.count());
        // Mean is exact integer arithmetic divided once.
        assert!((h.mean() - 1081.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 1); // rank clamps to 1 -> bucket [1,2)
        assert_eq!(h.percentile(1.0), 100); // clamped to max
        let p50 = h.percentile(0.5);
        // Rank 50 lands in bucket [32,64): inclusive upper bound 63.
        assert_eq!(p50, 63);
        assert!(h.percentile(0.9) >= p50);
        let empty = Histogram::default();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in [3u64, 9, 12] {
            a.observe(v);
            whole.observe(v);
        }
        for v in [1u64, 500] {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        let mut empty = Histogram::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn histogram_snapshot_round_trips() {
        let mut rec = MetricsRecorder::new();
        rec.observe("dur:collective", "us", 120);
        rec.observe("dur:collective", "us", 3000);
        rec.observe("dur:collective", "us", 0);
        let json = rec.snapshot_json(&[("system", "demo".to_string())]);
        validate_json(&json).unwrap();
        let v = parse_json(&json).unwrap();
        let h = v.get("histograms").unwrap().get("dur:collective").unwrap();
        assert_eq!(h.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(h.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(3120.0));
        assert_eq!(h.get("min").unwrap().as_f64(), Some(0.0));
        assert_eq!(h.get("max").unwrap().as_f64(), Some(3000.0));
        // Three distinct buckets: [0,1), [64,128), [2048,4096).
        match h.get("buckets").unwrap() {
            JsonValue::Arr(rows) => {
                assert_eq!(rows.len(), 3);
                for row in rows {
                    match row {
                        JsonValue::Arr(t) => assert_eq!(t.len(), 3),
                        other => panic!("bucket row is not a triple: {other:?}"),
                    }
                }
            }
            other => panic!("buckets is not an array: {other:?}"),
        }
        // Byte-deterministic across rebuilds.
        let mut rec2 = MetricsRecorder::new();
        for v in [120, 3000, 0] {
            rec2.observe("dur:collective", "us", v);
        }
        assert_eq!(json, rec2.snapshot_json(&[("system", "demo".to_string())]));
    }

    #[test]
    fn non_finite_values_stay_json_safe() {
        let mut rec = MetricsRecorder::new();
        rec.set_gauge("bad", f64::NAN);
        rec.sample_us("t", "x", 0, f64::INFINITY);
        let json = rec.snapshot_json(&[]);
        validate_json(&json).unwrap();
        for e in counter_records(&rec, 0) {
            validate_json(&e).unwrap();
        }
    }
}
