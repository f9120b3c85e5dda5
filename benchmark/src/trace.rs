//! The benchmark's own span recorder.
//!
//! Spans are recorded *from outside* the measured code, around the calls
//! into each layer's public functions. They are kept in memory and written
//! as Chrome `trace_event` JSON when the run ends. A disabled recorder
//! costs one branch per call, which is what untraced (end-to-end) runs
//! use.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.engine`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// An in-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder sharing `epoch` with its siblings; `tid` labels its
    /// track in the exported trace.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Recorder {
            enabled: false,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (between passes, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Appends the spans of `other` (a recorder of the same thread and
    /// epoch, filled elsewhere), keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Total duration (µs) of the spans called `name` in each traced pass,
    /// one value per pass. Op ids count up through the run, so
    /// `op / ops_per_pass` is the pass a span belongs to.
    pub fn per_pass_sum_us(&self, name: &str, ops_per_pass: u64) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op / ops_per_pass.max(1)).or_insert(0.0) += s.dur_us();
        }
        sums.into_values().collect()
    }
}

/// Renders recorders as one Chrome `trace_event` JSON document (complete
/// `X` events; open it in Perfetto or `chrome://tracing`). `args` carries
/// the op id and the parent span's name so causality survives the export.
pub fn chrome_json(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for rec in recorders {
        for s in &rec.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map_or(String::new(), |p| rec.spans[p].name.clone());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": \"{}\"}}}}",
                salam_obs::json::escape(&s.name),
                rec.tid,
                s.start_ns as f64 / 1e3,
                s.dur_us(),
                s.op,
                salam_obs::json::escape(&parent),
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 0);
        assert_eq!(rec.span("a", 1, || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.set_enabled(true);
        let outer = rec.begin("outer", 9);
        rec.span("inner", 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 9));
        let outer_us = rec.durations_us("outer")[0];
        let inner_us = rec.durations_us("inner")[0];
        assert!(inner_us >= 2000.0);
        assert!(outer_us >= inner_us);
    }

    #[test]
    fn chrome_export_parses_and_keeps_causality() {
        let mut rec = Recorder::new(Instant::now(), 1);
        rec.set_enabled(true);
        let o = rec.begin("serve.job", 4);
        rec.span("serve.\"wait\"", 4, || ());
        rec.end(o);
        let text = chrome_json(&[&rec]);
        let v = salam_obs::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_str()),
            Some("serve.job")
        );
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("serve.\"wait\"")
        );
    }
}
