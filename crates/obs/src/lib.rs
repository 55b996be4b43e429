//! # iotls-obs
//!
//! The deterministic observability layer for the IoTLS reproduction.
//!
//! A [`Registry`] is a named bag of mergeable instruments:
//!
//! * **counters** — monotonically increasing `u64`s ([`Registry::inc`]);
//! * **gauges** — point-in-time `i64`s ([`Registry::set_gauge`]), merged
//!   by summation so per-shard set-once gauges compose;
//! * **histograms** — fixed upper-bound buckets ([`Registry::observe`]);
//! * **timings** — wall-clock [`Span`] totals ([`Registry::record`]).
//!
//! Counters, gauges, and histograms are *deterministic*: experiment
//! engines record into one thread-local shard per item of a
//! `simnet::par` fan-out (`ordered_map_with`, or a run-scoped
//! `with_pool`) and the shards are merged in roster order, so the
//! merged values are byte-identical at any `IOTLS_THREADS`. Timings
//! are wall-clock and therefore **excluded** from the deterministic
//! snapshot:
//! [`Registry::counters_json`] serializes only the deterministic
//! sections (the payload determinism tests pin), while
//! [`Registry::to_json`] appends the `timings` section for humans and
//! dashboards.
//!
//! The crate is dependency-free by design: tier-1 builds offline, so
//! the JSON encoder is hand-rolled (sorted keys via `BTreeMap`, full
//! string escaping) and floats never appear — all values are integers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order, with an implicit `+Inf` bucket at the end, so
/// `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (last bucket is `+Inf`).
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: u64,
    /// Total number of observations.
    count: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Adds another histogram's observations; the bucket layouts must
    /// match (they do when both sides used the same call site).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bucket mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    fn encode_json(&self, out: &mut String) {
        out.push_str("{\"bounds\":[");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"sum\":{},\"count\":{}}}", self.sum, self.count);
    }
}

/// Accumulated wall-clock time for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStat {
    /// Number of recorded spans.
    pub count: u64,
    /// Total elapsed nanoseconds across all recordings.
    pub total_nanos: u64,
}

/// A started wall-clock timer; hand it back to
/// [`Registry::record`] to accumulate its elapsed time under `name`
/// in the (non-deterministic) `timings` section.
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
}

impl Span {
    /// Starts timing now.
    pub fn start(name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            start: Instant::now(),
        }
    }
}

/// A named registry of mergeable instruments. See the crate docs for
/// the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, TimingStat>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `n` to the counter `name`. Adding zero creates nothing, so
    /// a counter exists only once some call added to it.
    pub fn add(&mut self, name: &str, n: u64) {
        if n > 0 {
            *self.counter_slot(name) += n;
        }
    }

    /// Increments the counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        *self.counter_slot(name) += 1;
    }

    fn counter_slot(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`. Gauges merge by summation, so shards should
    /// either set disjoint gauges or leave gauge-setting to the
    /// post-merge caller.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name` (zero if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`, creating it with
    /// `bounds` on first use. Every call site for a given name must
    /// pass the same bounds.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::new(bounds));
        }
        self.histograms
            .get_mut(name)
            .expect("just inserted")
            .observe(value);
    }

    /// The histogram `name`, if any observation created it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Stops `span` and accumulates its elapsed wall-clock time in the
    /// `timings` section (excluded from deterministic snapshots).
    pub fn record(&mut self, span: Span) {
        let elapsed = span.start.elapsed().as_nanos();
        let t = self.timings.entry(span.name).or_default();
        t.count += 1;
        t.total_nanos += u64::try_from(elapsed).unwrap_or(u64::MAX);
    }

    /// The accumulated timing for `name`, if any span recorded it.
    pub fn timing(&self, name: &str) -> Option<TimingStat> {
        self.timings.get(name).copied()
    }

    /// Merges another registry into `self`: counters, gauges, and
    /// histogram buckets add; timings accumulate. Associative and
    /// commutative on the deterministic sections, so shard merge order
    /// cannot change the snapshot.
    pub fn merge(&mut self, other: &Registry) {
        for (name, n) in &other.counters {
            *self.counter_slot(name) += n;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        for (name, t) in &other.timings {
            let mine = self.timings.entry(name.clone()).or_default();
            mine.count += t.count;
            mine.total_nanos += t.total_nanos;
        }
    }

    /// True when no instrument has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timings.is_empty()
    }

    /// Iterates `(name, value)` over all counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    fn encode_sections(&self, out: &mut String, include_timings: bool) {
        out.push_str("{\"counters\":{");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_str(out, name);
            let _ = write!(out, ":{n}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_str(out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_str(out, name);
            out.push(':');
            h.encode_json(out);
        }
        out.push('}');
        if include_timings {
            out.push_str(",\"timings\":{");
            for (i, (name, t)) in self.timings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_str(out, name);
                let _ = write!(
                    out,
                    ":{{\"count\":{},\"total_nanos\":{}}}",
                    t.count, t.total_nanos
                );
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The **deterministic** snapshot: counters, gauges, and
    /// histograms only, sorted keys, no whitespace. Byte-identical at
    /// any worker count when the recording discipline is followed.
    pub fn counters_json(&self) -> String {
        let mut out = String::new();
        self.encode_sections(&mut out, false);
        out
    }

    /// The full snapshot: the deterministic sections plus the
    /// wall-clock `timings` section (which is *not* covered by any
    /// determinism guarantee).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.encode_sections(&mut out, true);
        out
    }
}

/// Appends a JSON string literal (quotes + escapes) to `out`.
fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A cheaply cloneable handle to an optional shared [`Registry`] —
/// the "record here if anyone is listening" half of an experiment
/// context.
///
/// The default handle is a **no-op shard**: [`SharedRegistry::with`]
/// and [`SharedRegistry::merge`] return immediately without locking
/// or touching a registry, so unmetered runs pay nothing for the
/// instrumentation plumbing. A live handle ([`SharedRegistry::live`])
/// wraps one mutex-guarded [`Registry`] that any number of clones
/// merge into.
///
/// The determinism discipline is unchanged: engines accumulate into a
/// local [`Registry`] in roster order and [`merge`](Self::merge) the
/// finished shard once at the end, so the shared registry receives
/// the same bytes regardless of worker count.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Option<std::sync::Arc<std::sync::Mutex<Registry>>>,
}

impl SharedRegistry {
    /// The no-op handle: every recording is dropped.
    pub fn noop() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// A live handle around a fresh empty registry.
    pub fn live() -> SharedRegistry {
        SharedRegistry {
            inner: Some(std::sync::Arc::new(std::sync::Mutex::new(Registry::new()))),
        }
    }

    /// Whether recordings are kept (`true`) or dropped (`false`).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the underlying registry; no-op handles skip
    /// the closure entirely.
    pub fn with(&self, f: impl FnOnce(&mut Registry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }

    /// Merges a finished local shard. Callers merge once from the
    /// sequential roster-order loop, never per worker, so liveness
    /// cannot change the merged bytes.
    pub fn merge(&self, shard: &Registry) {
        self.with(|reg| reg.merge(shard));
    }

    /// A clone of the accumulated registry (empty for no-op handles).
    pub fn snapshot(&self) -> Registry {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            None => Registry::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        r.inc("a.b");
        r.add("a.b", 4);
        r.add("zero", 0);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("untouched"), 0);
        // add(0) still creates no entry…
        assert_eq!(r.counter("zero"), 0);
        assert!(!r.counters_json().contains("zero"));
    }

    #[test]
    fn histogram_buckets_and_inf_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(50);
        h.observe(1000); // +Inf bucket
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
    }

    #[test]
    fn merge_is_commutative_on_deterministic_sections() {
        let mut a = Registry::new();
        a.inc("x");
        a.set_gauge("g", 2);
        a.observe("h", &[8], 3);
        let mut b = Registry::new();
        b.add("x", 2);
        b.inc("y");
        b.set_gauge("g", 5);
        b.observe("h", &[8], 30);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters_json(), ba.counters_json());
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.gauge("g"), 7);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_snapshot_is_sorted_and_escaped() {
        let mut r = Registry::new();
        r.inc("b.second");
        r.inc("a.first");
        r.set_gauge("needs\"escape\n", -3);
        let json = r.counters_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"b.second\":1},\
             \"gauges\":{\"needs\\\"escape\\n\":-3},\"histograms\":{}}"
        );
        // Deterministic snapshot never mentions timings.
        r.record(Span::start("wall"));
        assert!(!r.counters_json().contains("timings"));
        assert!(r.to_json().contains("\"timings\":{\"wall\""));
    }

    #[test]
    fn spans_accumulate_wall_clock_only_in_timings() {
        let mut r = Registry::new();
        r.record(Span::start("phase"));
        r.record(Span::start("phase"));
        let t = r.timing("phase").unwrap();
        assert_eq!(t.count, 2);
        assert!(r.counters_json() == Registry::new().counters_json() || r.counter("phase") == 0);
    }

    #[test]
    #[should_panic(expected = "histogram bucket mismatch")]
    fn mismatched_histogram_merge_panics() {
        let mut a = Histogram::new(&[1]);
        a.merge(&Histogram::new(&[2]));
    }

    #[test]
    fn noop_shared_registry_drops_everything() {
        let handle = SharedRegistry::noop();
        assert!(!handle.is_live());
        let mut touched = false;
        handle.with(|_| touched = true);
        assert!(!touched, "no-op handle ran the closure");
        let mut shard = Registry::new();
        shard.inc("dropped");
        handle.merge(&shard);
        assert!(handle.snapshot().is_empty());
        assert!(!SharedRegistry::default().is_live());
    }

    #[test]
    fn live_shared_registry_accumulates_across_clones() {
        let handle = SharedRegistry::live();
        assert!(handle.is_live());
        let clone = handle.clone();
        let mut shard = Registry::new();
        shard.add("work.done", 3);
        clone.merge(&shard);
        handle.with(|reg| reg.inc("work.done"));
        assert_eq!(handle.snapshot().counter("work.done"), 4);
        assert_eq!(clone.snapshot().counter("work.done"), 4);
    }
}
