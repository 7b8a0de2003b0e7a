//! In-memory span and sample recorder for the traced run.
//!
//! A [`Tracer`] wraps calls into the library in named spans. With tracing off, a span is
//! a plain call: no clock is read and nothing is stored, so the plain run measures the
//! program alone. With tracing on, every span records its start, end and parent, and
//! the whole list is written out once, when the run ends. A span's self time is its
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Time spent under one span name, summed over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls through the tracer handed to
    /// `f` become child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let token = self.begin(name);
        let out = f(self);
        self.end(token);
        out
    }

    /// Opens a span that [`Tracer::end`] closes, for code that cannot run inside a
    /// closure. Spans must close in the reverse order they opened.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Some(index)
    }

    pub fn end(&mut self, token: Option<usize>) {
        if let Some(index) = token {
            debug_assert_eq!(self.open.last(), Some(&index), "spans close in order");
            self.open.pop();
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Records one value of a count or a rate under `name` (traced run only).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// The recorded spans as JSON lines: `{"name", "parent", "start_ns", "end_ns"}`.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Nanoseconds one empty span costs, from `n` spans recorded back to back on a
/// scratch tracer.
pub fn span_overhead_ns(n: usize) -> f64 {
    let mut tracer = Tracer::new(true);
    tracer.spans.reserve(n);
    let start = Instant::now();
    for _ in 0..n {
        tracer.span("overhead", |_| ());
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("a", |t| t.span("b", |_| 7));
        tracer.sample("x", 1.0);
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
        assert!(tracer.samples("x").is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let layers = tracer.layer_times();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(inner.total_s >= 0.005);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-6);
        assert_eq!(tracer.spans_jsonl().lines().count(), 2);
    }
}
