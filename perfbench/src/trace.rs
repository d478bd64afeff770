//! Spans around the benchmark's calls into each layer's public
//! functions. Spans live in memory and are written out as JSON lines
//! when the traced run ends; the per-layer metrics are derived from
//! them. With tracing off, [`Tracer::span`] is a single branch.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `layer.function`, times are nanoseconds
/// since the tracer's epoch, `parent` indexes the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function` of the call.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Opens a span that encloses the spans recorded until the matching
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start: self.now_ns(),
                end: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(idx);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.now_ns();
        }
    }

    /// Records a span timed elsewhere (a campaign run on a worker
    /// thread) under the currently open span.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
            });
        }
    }

    /// Recorded spans, in start order of their `span` call.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total ns spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per span name, in first-seen order: calls, total ns and self ns
    /// (a span's duration minus the time its direct children cover).
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let child = self.child_ns();
        let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns().saturating_sub(child[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.ns();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.ns(), own)),
            }
        }
        rows
    }

    /// Time each span's direct children cover, indexed like `spans`.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        child
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }

    /// Cost of recording one empty span on this host, in ns (median of
    /// five batches), measured on a throwaway recorder.
    pub fn span_cost_ns() -> f64 {
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = Tracer::new(true);
                let n = 20_000;
                let started = Instant::now();
                for _ in 0..n {
                    t.span("trace.calibrate", || std::hint::black_box(0));
                }
                started.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        crate::stats::median(&batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("core.outer");
        t.span("core.child", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let now = t.now_ns();
        t.record("core.remote", now, now + 1_000);
        t.end();
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let children = spans[1].ns() + spans[2].ns();
        assert!(t.total_ns("core.child") >= 2_000_000);
        assert_eq!(t.durations("core.remote"), vec![1_000.0]);
        let summary = t.summary();
        assert_eq!(
            summary[0],
            // The recorded span may end after the outer one does.
            (
                "core.outer",
                1,
                spans[0].ns(),
                spans[0].ns().saturating_sub(children)
            )
        );
        assert_eq!(summary.len(), 3);
        assert!(t.to_json_lines().contains("\"name\":\"core.outer\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.x", || 7), 7);
        t.record("core.y", 0, 1);
        assert!(t.spans().is_empty());
    }
}
