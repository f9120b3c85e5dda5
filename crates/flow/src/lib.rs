//! Static dataflow analysis over the SSA IR.
//!
//! This crate is the static-analysis substrate for the verifier, the
//! lint driver, the HLS reference scheduler and design-space pruning:
//! five passes over one function under one argument binding.
//!
//! 1. [sparse conditional constant propagation](crate::sccp) — folds
//!    integer computation seeded from the runtime argument bindings and
//!    proves blocks dead;
//! 2. [loop trip-count inference](crate::trips) — the one loop nest
//!    ([`loop_nest`], which the verifier's schedule bound, its dependence
//!    profiler and the HLS scheduler walk too; [`innermost`] picks its
//!    leaves), exact per-entry iteration counts and induction-variable
//!    ranges for canonical counted loops, and exact whole-function block
//!    execution counts where control flow permits;
//! 3. [interval value-range analysis](crate::ranges) — a sound enclosing
//!    [`Interval`] per value, tight for address arithmetic over counted
//!    induction variables;
//! 4. [access collection](crate::live) — every access's footprint: its
//!    range, its [affine form](crate::affine) over induction variables
//!    and, where that is exact, its exact footprint;
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
//! * `Deadlock`/`NoDeadlock` verdicts are proofs under the documented
//!   caller obligation (armed hazards).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod deadlock;
pub mod interval;
pub mod live;
pub mod ranges;
pub mod sccp;
pub mod trips;

pub use affine::Affine;
pub use deadlock::{predict_deadlock, DeadlockPrediction, DeadlockVerdict, HazardSpec};
pub use interval::Interval;
pub use live::{collect_accesses, AccessFact};
pub use ranges::{infer_ranges, Ranges};
pub use sccp::{sccp, Lat, Sccp};
pub use trips::{infer_trips, innermost, loop_nest, IvFact, LoopTrip, TripFacts};

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
