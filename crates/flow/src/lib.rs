//! Monotone dataflow analysis over the SSA IR.
//!
//! This crate is the static-analysis substrate for the verifier, the
//! lint driver and design-space pruning: a generic worklist
//! [solver](crate::solver) over a [`Lattice`] trait (join, transfer, and
//! widening-after-K so infinite-height domains provably terminate), plus
//! five client passes:
//!
//! 1. [sparse conditional constant propagation](crate::sccp) — folds
//!    integer computation seeded from the runtime argument bindings and
//!    proves blocks dead;
//! 2. [interval value-range analysis](crate::ranges) — a sound enclosing
//!    [`Interval`] per value, tight for address arithmetic over counted
//!    induction variables;
//! 3. [loop trip-count inference](crate::trips) — the loop nest (which
//!    the verifier's schedule bound walks too), exact per-entry iteration
//!    counts and induction-variable ranges for canonical counted loops,
//!    and exact whole-function block execution counts where control flow
//!    permits;
//! 4. [scratchpad liveness](crate::live) — every access's footprint:
//!    its range, its [affine form](crate::affine) over induction
//!    variables and, where that is exact, its exact footprint; then
//!    range-proven dead stores and unwritten reads;
//! 5. [static deadlock prediction](crate::deadlock) — predicts the
//!    watchdog verdict for drop-hazard fault plans from static access
//!    counts.
//!
//! The passes run in dependency order under [`analyze`], which returns
//! one [`FlowFacts`] bundle. All fact containers are ordered
//! (`BTreeMap`/`BTreeSet`) and the fixpoint iterations pop ordered
//! worklists, so facts are byte-for-byte deterministic for a given
//! function and argument binding — a property the test-suite pins.
//!
//! Soundness conventions, relied on by downstream consumers:
//!
//! * value ranges and access footprints are *over*-approximations —
//!   suitable for proving absence (bounds violations, overlaps), never
//!   presence;
//! * an access's exact footprint is the hull of the addresses it takes
//!   when its loops run — suitable for proving an escape from a region;
//! * published trip counts are *exact* — suitable both for lower bounds
//!   and expected-case estimates; statically unknown counts are absent,
//!   never guessed;
//! * dead-store/unwritten-read reports and `Deadlock`/`NoDeadlock`
//!   verdicts are proofs under the documented caller obligations
//!   (declared live-out/initialized regions, armed hazards).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod deadlock;
pub mod interval;
pub mod live;
pub mod ranges;
pub mod sccp;
pub mod solver;
pub mod trips;

pub use affine::Affine;
pub use deadlock::{predict_deadlock, DeadlockPrediction, DeadlockVerdict, HazardSpec};
pub use interval::Interval;
pub use live::{collect_accesses, dead_stores, unwritten_reads, AccessFact, IntervalSet};
pub use ranges::{infer_ranges, Ranges};
pub use sccp::{sccp, Lat, Sccp};
pub use solver::{solve, BlockAnalysis, Direction, Lattice, Solution};
pub use trips::{infer_trips, loop_nest, IvFact, LoopTrip, TripFacts};

use salam_ir::interp::RtVal;
use salam_ir::Function;

/// Every fact the framework computes for one function under one argument
/// binding.
#[derive(Debug, Clone)]
pub struct FlowFacts {
    /// Constant propagation: proven constants and executable blocks.
    pub sccp: Sccp,
    /// Loop structure, induction variables and block trip counts.
    pub trips: TripFacts,
    /// Per-value intervals.
    pub ranges: Ranges,
    /// Per-access byte footprints and affine address forms.
    pub accesses: Vec<AccessFact>,
}

impl FlowFacts {
    /// Dead stores under the given live-out regions (see
    /// [`live::dead_stores`]).
    pub fn dead_stores(&self, f: &Function, live_out: &[(i128, i128)]) -> Vec<salam_ir::InstId> {
        live::dead_stores(f, &self.accesses, live_out)
    }

    /// Unwritten reads under the given initialized regions (see
    /// [`live::unwritten_reads`]).
    pub fn unwritten_reads(&self, initialized: &[(i128, i128)]) -> Vec<salam_ir::InstId> {
        live::unwritten_reads(&self.accesses, initialized)
    }

    /// Static deadlock verdict for an armed hazard (see
    /// [`deadlock::predict_deadlock`]).
    pub fn predict_deadlock(&self, f: &Function, spec: &HazardSpec) -> DeadlockPrediction {
        deadlock::predict_deadlock(f, &self.sccp, &self.trips, spec)
    }
}

/// Runs the full pass pipeline over `f` with arguments bound to `args`:
/// SCCP → trip inference → range analysis → access collection (ranges
/// and affine forms).
pub fn analyze(f: &Function, args: &[RtVal]) -> FlowFacts {
    let sccp = sccp::sccp(f, args);
    let trips = trips::infer_trips(f, &sccp);
    let ranges = ranges::infer_ranges(f, &sccp, &trips);
    let accesses = live::collect_accesses(f, &sccp, &trips, &ranges);
    FlowFacts {
        sccp,
        trips,
        ranges,
        accesses,
    }
}
