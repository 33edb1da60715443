//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions: name, start, end, parent span and
//! the id of the area round they belong to, plus counts at the same
//! boundaries. Everything stays in memory until the run ends. A span's
//! self time is its duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::{cpu_ns, RefKind};

/// One recorded span. Times are raw process-CPU nanoseconds.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `conflict` or `codec.decode`.
    pub name: &'static str,
    /// The area round this span belongs to.
    pub round: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start reading.
    pub start: u64,
    /// End reading.
    pub end: u64,
}

/// In-memory span and count recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u64,
    /// Calibration factors per round id (from the references around
    /// it): `[vector, mixed]`.
    factors: BTreeMap<u64, [f64; 2]>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts attributing spans to area round `round`.
    pub fn begin_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Records the calibration factors (`[vector, mixed]`) that apply
    /// to `round`'s spans.
    pub fn set_factors(&mut self, round: u64, factors: [f64; 2]) {
        self.factors.insert(round, factors);
    }

    /// The factor for `span`: masking spans are calibrated against the
    /// vector reference, every other layer against the mixed one.
    fn factor(&self, span: &Span) -> f64 {
        let [vector, mixed] = self.factors.get(&span.round).copied().unwrap_or([1.0, 1.0]);
        match kind_of(span.name) {
            RefKind::Vector => vector,
            RefKind::Mixed => mixed,
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, round: self.round, parent, start: 0, end: 0 });
        self.stack.push(id);
        self.spans[id].start = cpu_ns();
        let out = f(self);
        self.spans[id].end = cpu_ns();
        self.stack.pop();
        out
    }

    /// Closes every span still open — after a panic unwound through
    /// them — at the current reading.
    pub fn unwind(&mut self) {
        let now = cpu_ns();
        for id in self.stack.drain(..) {
            self.spans[id].end = now;
        }
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// A recorded count, 0 if never counted.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Calibrated self time per span name, ns: each span's duration
    /// minus its direct children's, scaled by its round's factor.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child_ns[i]);
            *out.entry(span.name).or_insert(0.0) += own as f64 * self.factor(span);
        }
        out
    }

    /// Calibrated total duration of every span called `name`, ns.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * self.factor(s))
            .sum()
    }

    /// Root spans called `name`.
    pub fn roots(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none() && s.name == name).count()
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans of the first `max_rounds` area rounds as JSON lines:
    /// `id`, `name`, `round`, `parent`, `start_ns`, `end_ns` (raw clock,
    /// relative to the first span) and `factor`. Returns the text and the
    /// number of spans written.
    pub fn to_json_lines(&self, max_rounds: usize) -> (String, usize) {
        let mut rounds: Vec<u64> = Vec::new();
        for s in &self.spans {
            if rounds.last() != Some(&s.round) && !rounds.contains(&s.round) {
                rounds.push(s.round);
            }
        }
        rounds.truncate(max_rounds);
        let origin = self.spans.first().map_or(0, |s| s.start);
        let mut out = String::new();
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if !rounds.contains(&s.round) {
                continue;
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"factor\":{}}}",
                s.name,
                s.round,
                s.start - origin,
                s.end - origin,
                self.factor(s)
            );
            written += 1;
        }
        (out, written)
    }
}

/// The reference a span is calibrated against.
pub fn kind_of(name: &str) -> RefKind {
    if name == "mask" {
        RefKind::Vector
    } else {
        RefKind::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.begin_round(7);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::hint::black_box(crate::clock::reference_scalar(100)));
            });
        });
        assert_eq!(t.len(), 3);
        // Rewrite the clock readings to exact values: root 0..100,
        // a 10..60, b 20..50.
        t.spans[0].start = 0;
        t.spans[0].end = 100;
        t.spans[1].start = 10;
        t.spans[1].end = 60;
        t.spans[2].start = 20;
        t.spans[2].end = 50;
        t.set_factors(7, [3.0, 2.0]);
        let self_times = t.self_times();
        assert_eq!(self_times["root"], 100.0); // (100 - 50) × 2
        assert_eq!(self_times["a"], 40.0); // (50 - 30) × 2
        assert_eq!(self_times["b"], 60.0); // 30 × 2
        assert_eq!(t.roots("root"), 1);
        assert_eq!(t.total("root"), 200.0);
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[2].round, 7);
        assert_eq!(t.to_json_lines(1), (t.to_json_lines(8).0, 3));
        assert_eq!(t.to_json_lines(0).1, 0);
    }

    #[test]
    fn counts_accumulate() {
        let mut t = Tracer::new();
        t.count("frames", 2.0);
        t.count("frames", 3.0);
        assert_eq!(t.get("frames"), 5.0);
        assert_eq!(t.get("missing"), 0.0);
    }
}
