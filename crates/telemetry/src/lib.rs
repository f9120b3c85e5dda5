//! Request-scoped tracing and the post-mortem flight recorder for the
//! serving and sweep layers.
//!
//! Metrics live in [`salam_obs::MetricsRegistry`], which holds typed
//! counters, gauges and latency histograms and renders them as JSON or
//! Prometheus text. This crate adds the two pieces that are not metrics,
//! both std-only:
//!
//! * [`JobTrace`]/[`TraceCtx`] — request-scoped span trees feeding the
//!   existing Chrome `trace_event` exporter, one per served job;
//! * [`FlightRecorder`] — an always-on bounded ring of recent lifecycle /
//!   engine events, dumped into a post-mortem artifact when a job dies.
//!
//! Nothing here touches simulation state: recording is either under the
//! caller's existing lock (spans) or behind a cheap `is_enabled()` gate
//! (flight recorder), and the non-perturbation tests in `salam-bench` pin
//! that simulation artifacts are byte-identical with telemetry on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use span::{JobTrace, TraceCtx};
