//! Spans recorded from outside the program: around the load generator's own
//! calls and around the layer replay's calls into each layer's public
//! functions. Kept in memory, written once when the run ends. Tracing inside
//! the program is a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::percentile;

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Which boundary.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by all spans of one request.
    pub request: u64,
}

/// An in-memory span log.
#[derive(Clone, Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with the same epoch: for another thread's spans, to
    /// be merged back, or for warm-up spans, to be dropped.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a root span. The result passes through `black_box`
    /// so that a caller that drops it still pays for computing it.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(name, start, Instant::now(), NO_PARENT, request);
        out
    }

    /// Appends another tracer's spans (same epoch), re-basing their parents.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations in microseconds of the spans called `name` whose request
    /// identifier is below `request_limit`.
    pub fn durations_us(&self, name: &str, request_limit: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request < request_limit)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, with the sample count.
    pub fn p50_us(&self, name: &str) -> (f64, u64) {
        let mut d = self.durations_us(name, u64::MAX);
        (percentile(&mut d, 0.50), d.len() as u64)
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parents_across_a_merge_and_report_medians() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut a = Tracer::new(epoch);
        let root = a.record("rt", at(0), at(100), NO_PARENT, 1);
        a.record("wait", at(10), at(90), root, 1);
        let mut b = Tracer::new(epoch);
        let root = b.record("rt", at(200), at(500), NO_PARENT, 2);
        b.record("wait", at(210), at(220), root, 2);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(a.spans()[2].parent, NO_PARENT);
        assert_eq!(a.p50_us("rt"), (100.0, 2));
        assert_eq!(a.durations_us("wait", 2), vec![80.0]);
        assert_eq!(a.p50_us("absent"), (0.0, 0));
    }
}
