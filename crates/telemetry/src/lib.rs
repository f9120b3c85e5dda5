//! The post-mortem flight recorder for the serving and sweep layers.
//!
//! Metrics live in [`salam_obs::MetricsRegistry`], which holds typed
//! counters, gauges and latency histograms and renders them as JSON or
//! Prometheus text; per-job span trees are `salam_obs` trace recorders
//! that `salam-serve` keeps itself. This crate adds the one piece that is
//! neither, std-only: [`FlightRecorder`], an always-on bounded ring of
//! recent lifecycle / engine events, dumped into a post-mortem artifact
//! when a job dies.
//!
//! Recording never touches simulation state: it sits behind a cheap
//! `is_enabled()` gate, and the non-perturbation tests in `salam-bench`
//! pin that simulation artifacts are byte-identical with the recorder on
//! and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;

pub use flight::{FlightEvent, FlightRecorder};
