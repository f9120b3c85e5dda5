//! The post-mortem flight recorder.
//!
//! An always-on, bounded ring of recent lifecycle and engine events
//! (submits, dispatches, run starts/ends, engine heartbeats, faults).
//! Recording is cheap — one mutex lock and a `VecDeque` push, behind an
//! [`FlightRecorder::is_enabled`] gate callers check before formatting a
//! message. When a job dies (panic, deadlock, kernel fault) the server
//! dumps the recent tail into the job's `postmortem` artifact, which is
//! the "what happened in the seconds before" that a point-in-time metrics
//! snapshot cannot answer.
//!
//! Like [`salam_obs::SharedTrace`], the handle is a cloneable
//! `Option<Arc<Mutex<..>>>`: a disabled recorder is a `None` and every
//! hook is a no-op, so the engine can carry one unconditionally.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use salam_obs::json::escape;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// The request this event belongs to (0 = server-wide).
    pub trace_id: u64,
    /// Coarse event class (`job`, `sched`, `engine`, `fault`, ...).
    pub category: &'static str,
    /// Human-readable detail.
    pub message: String,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
    cap: usize,
    seq: u64,
    dropped: u64,
    epoch: Instant,
}

/// Default ring depth: enough for thousands of job lifecycles or a long
/// stretch of engine heartbeats, at ~100 bytes apiece.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Cloneable handle to the (optional) shared ring.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<Ring>>>,
}

impl FlightRecorder {
    /// A recorder whose every hook is a no-op.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// An active recorder holding the most recent `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(Ring {
                events: VecDeque::new(),
                cap: capacity.max(1),
                seq: 0,
                dropped: 0,
                epoch: Instant::now(),
            }))),
        }
    }

    /// Callers must check this before formatting a message, so a disabled
    /// recorder costs one branch.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn record(&self, trace_id: u64, category: &'static str, message: String) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.lock().unwrap();
        let at_ns = ring.epoch.elapsed().as_nanos() as u64;
        let seq = ring.seq;
        ring.seq += 1;
        if ring.events.len() == ring.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(FlightEvent {
            seq,
            at_ns,
            trace_id,
            category,
            message,
        });
    }

    /// Events evicted so far (diagnostics).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().dropped)
            .unwrap_or(0)
    }

    /// Number of events currently held (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap().events.len())
            .unwrap_or(0)
    }

    /// True when the recorder is disabled or holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `limit` events as a JSON array, oldest first. Each
    /// element: `{"seq":n,"at_ms":f,"trace_id":"hex","cat":"...","msg":"..."}`.
    /// Returns `"[]"` when disabled.
    pub fn tail_json(&self, limit: usize) -> String {
        let Some(inner) = &self.inner else {
            return "[]".to_string();
        };
        let ring = inner.lock().unwrap();
        let skip = ring.events.len().saturating_sub(limit);
        let mut out = String::from("[");
        for (i, ev) in ring.events.iter().skip(skip).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"seq\": {}, \"at_ms\": {:.3}, \"trace_id\": \"{:016x}\", \"cat\": \"{}\", \"msg\": \"{}\"}}",
                ev.seq,
                ev.at_ns as f64 / 1e6,
                ev.trace_id,
                escape(ev.category),
                escape(&ev.message),
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let f = FlightRecorder::disabled();
        assert!(!f.is_enabled());
        f.record(1, "job", "ignored".into());
        assert_eq!(f.len(), 0);
        assert_eq!(f.tail_json(10), "[]");
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let f = FlightRecorder::enabled(3);
        for i in 0..5 {
            f.record(0, "job", format!("event {i}"));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.dropped(), 2);
        let tail = f.tail_json(10);
        assert!(!tail.contains("event 1"));
        assert!(tail.contains("event 2"));
        assert!(tail.contains("event 4"));
    }

    #[test]
    fn tail_json_is_valid_and_escaped() {
        let f = FlightRecorder::enabled(8);
        f.record(0xabc, "fault", "detail with \"quotes\"\nand newline".into());
        let tail = f.tail_json(4);
        let parsed = salam_obs::json::parse(&tail).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("trace_id").and_then(|v| v.as_str()),
            Some("0000000000000abc")
        );
        assert!(arr[0]
            .get("msg")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains('\n'));
    }

    #[test]
    fn handles_share_one_ring() {
        let a = FlightRecorder::enabled(8);
        let b = a.clone();
        b.record(1, "job", "from clone".into());
        assert_eq!(a.len(), 1);
    }
}
