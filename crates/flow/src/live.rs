//! Per-access memory footprints: every load and store with its address
//! facts.
//!
//! Every memory instruction gets an [`AccessFact`] with a sound enclosing
//! `[lo, hi)` byte interval (when [range analysis](crate::ranges) bounded
//! its address), plus its address's [affine form](crate::affine) and, where
//! every term is a counted induction variable, its exact footprint. The
//! verifier's bounds check reads the exact footprint (`M003`) and, for the
//! other accesses, the interval (`F001`); its shared-scratchpad race lint
//! (`M004`) reads the store intervals and its dependence lint
//! (`M001`/`M002`) the affine forms.

use salam_ir::{BlockId, Function, InstId, Opcode};

use crate::affine::{Affine, Folder};
use crate::interval::Interval;
use crate::ranges::Ranges;
use crate::sccp::Sccp;
use crate::trips::TripFacts;

/// One memory instruction with its resolved byte-address footprint.
#[derive(Debug, Clone)]
pub struct AccessFact {
    /// The load or store.
    pub inst: InstId,
    /// Its block.
    pub block: BlockId,
    /// Whether it writes.
    pub is_store: bool,
    /// Bytes moved per execution.
    pub size: u64,
    /// Sound enclosing `[lo, hi)` byte interval over all executions, when
    /// range analysis bounded the address.
    pub interval: Option<(i128, i128)>,
    /// The address as `base + Σ stride·phi`, when it folds to one.
    pub affine: Option<Affine>,
    /// The exact `[lo, hi)` footprint, when every term of `affine` is a
    /// counted induction variable that runs at least once.
    pub exact: Option<(i128, i128)>,
}

/// Collects an [`AccessFact`] for every load and store in `f`.
///
/// The footprint of an access at addresses `A` with width `s` is
/// `[min A, max A + s)`. Addresses whose interval is wider than
/// [`Interval::is_bounded`] tolerates are published as unknown.
pub fn collect_accesses(
    f: &Function,
    sccp: &Sccp,
    trips: &TripFacts,
    ranges: &Ranges,
) -> Vec<AccessFact> {
    let mut folder = Folder::new(f, sccp);
    let mut out = Vec::new();
    for (bid, b) in f.blocks() {
        for &iid in &b.insts {
            let inst = f.inst(iid);
            let (is_store, ptr, size) = match inst.op {
                Opcode::Load => (false, inst.operands[0], inst.ty.size_bytes()),
                Opcode::Store => (
                    true,
                    inst.operands[1],
                    f.value_type(inst.operands[0]).size_bytes(),
                ),
                _ => continue,
            };
            // Published range, or the exact constant for a direct
            // constant-pointer access (constants are not range-published).
            let ptr_range = ranges
                .of(ptr)
                .or_else(|| sccp.const_of(ptr).map(Interval::exact));
            let interval = ptr_range
                .filter(Interval::is_bounded)
                .map(|i| (i.lo, i.hi + size as i128));
            let affine = folder.fold(ptr);
            let exact = affine.as_ref().and_then(|a| a.exact(&trips.ivs, size));
            out.push(AccessFact {
                inst: iid,
                block: bid,
                is_store,
                size,
                interval,
                affine,
                exact,
            });
        }
    }
    out
}
