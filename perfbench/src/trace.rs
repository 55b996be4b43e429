//! Span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (one span per
//! chunk, slice, engine run, handshake or replay batch; never one per
//! replayed session). They live in a buffer preallocated up front, so
//! recording never allocates, and are written out as JSON lines once
//! the process is done measuring. A span's self time is its duration
//! minus the durations of its children, so the self times of a tree
//! sum exactly to its root's duration: whatever the root does outside
//! its children is the tree's unattributed residual.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;
/// Spans one process can hold; later spans are counted as dropped.
const CAPACITY: usize = 1 << 16;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Which rep (or replay pass) the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn is_root(&self) -> bool {
        self.parent == ROOT
    }
}

/// Handle returned by [`Trace::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The span buffer. A disabled trace records nothing, so untraced
/// runs share the traced code path at the cost of a branch per call.
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    dropped: u64,
}

impl Trace {
    pub fn off() -> Trace {
        Trace {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            dropped: 0,
        }
    }

    pub fn on() -> Trace {
        Trace {
            on: true,
            spans: Vec::with_capacity(CAPACITY),
            open: Vec::with_capacity(64),
            ..Trace::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with rep number `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<u32> {
        if !self.on {
            return None;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent: self.open.last().copied().unwrap_or(ROOT),
            rep: self.rep,
        });
        Some(id)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let now = Instant::now();
        match self.push(name, now, now) {
            Some(id) => {
                self.open.push(id);
                SpanId(id)
            }
            None => SpanId(ROOT),
        }
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == ROOT {
            return;
        }
        let now = Instant::now();
        debug_assert_eq!(
            self.open.last(),
            Some(&id.0),
            "spans must close innermost first"
        );
        self.open.pop();
        let end = self.at(now);
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Records an already-timed span (e.g. measured on a worker inside
    /// a library callback) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, start, end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Trace::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if !s.is_root() {
                children[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed duration (seconds) of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-rep sums of the durations of spans named `name`, one entry
    /// per rep that has such a span.
    pub fn per_rep(&self, name: &str) -> Vec<f64> {
        self.per_rep_of(name, |s, _| s.ns())
    }

    /// Per-rep sums of the self times of spans named `name`.
    pub fn self_per_rep(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.per_rep_of(name, |_, i| own[i])
    }

    fn per_rep_of(&self, name: &str, value: impl Fn(&Span, usize) -> u64) -> Vec<f64> {
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            match out.iter_mut().find(|(rep, _)| *rep == s.rep) {
                Some((_, sum)) => *sum += value(s, i),
                None => out.push((s.rep, value(s, i))),
            }
        }
        out.into_iter().map(|(_, ns)| ns as f64 * 1e-9).collect()
    }

    /// Appends every span to `path` as one JSON object per line.
    pub fn append_jsonl(&self, path: &Path, family: &str) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.is_root() { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                text,
                "{{\"family\":\"{family}\",\"rep\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.rep, s.name, s.start_ns, s.end_ns, own[i]
            );
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_telescope_to_the_root() {
        let mut tr = Trace::on();
        let root = tr.begin("root");
        let a = tr.begin("a");
        std::thread::sleep(Duration::from_millis(2));
        tr.end(a);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        tr.record("b", t0, Instant::now());
        tr.end(root);
        let own = tr.self_ns();
        assert_eq!(own.iter().sum::<u64>(), tr.spans()[0].ns());
        assert_eq!(tr.spans()[1].parent, 0);
        assert_eq!(tr.spans()[2].parent, 0);
        assert!(tr.spans()[1].ns() >= 2_000_000);
    }

    #[test]
    fn per_rep_sums_group_by_rep() {
        let mut tr = Trace::on();
        for rep in 0..3 {
            tr.set_rep(rep);
            for _ in 0..2 {
                let s = tr.begin("x");
                tr.end(s);
            }
        }
        assert_eq!(tr.per_rep("x").len(), 3);
        assert_eq!(tr.durations("x").len(), 6);
        assert!(tr.per_rep("missing").is_empty());
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::off();
        let s = tr.begin("x");
        tr.record("y", Instant::now(), Instant::now());
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.dropped(), 0);
    }
}
