//! Scratchpad liveness: dead stores (`F002`) and unwritten reads (`F003`).
//!
//! Both passes reason about byte-address intervals from
//! [range analysis](crate::ranges). Every memory instruction gets an
//! [`AccessFact`] with a sound enclosing `[lo, hi)` byte interval (when
//! range analysis bounded its address), plus its address's
//! [affine form](crate::affine) and exact footprint where those exist.
//!
//! **Dead store** — a store is dead when no later execution can observe
//! it: its written interval is disjoint from everything live after it.
//! The backward pass here runs the generic [solver](crate::solver) with an
//! [`IntervalSet`] fact (the union of byte ranges that may still be read),
//! seeded at exits with the caller-declared live-out regions (the
//! kernel's output buffers). Loads *gen* their interval (an unbounded
//! load gens ⊤); only stores with an *exact* singleton address *kill*,
//! since an imprecise store might write elsewhere. Because the live set
//! is an over-approximation and dead-ness requires disjointness from it,
//! every report is a proof.
//!
//! **Unwritten read** — a load is flagged when its interval is disjoint
//! from every store's interval and from the caller-declared initialized
//! regions (the kernel's input buffers). If *any* store is unbounded the
//! pass stays silent: that store might write anything.

use std::collections::BTreeMap;

use salam_ir::{BlockId, Function, InstId, Opcode};

use crate::affine::{Affine, Folder};
use crate::interval::Interval;
use crate::ranges::Ranges;
use crate::sccp::Sccp;
use crate::solver::{solve, BlockAnalysis, Direction, Lattice, Solution};
use crate::trips::TripFacts;

/// Spans above this count are hulled together to bound fact size.
const MAX_SPANS: usize = 64;

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

/// A finite union of disjoint half-open byte ranges, with an explicit ⊤
/// ("any byte may be live").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSet {
    top: bool,
    /// Sorted, pairwise-disjoint `[lo, hi)` spans.
    spans: Vec<(i128, i128)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> IntervalSet {
        IntervalSet {
            top: false,
            spans: Vec::new(),
        }
    }

    /// The universal set.
    pub fn top() -> IntervalSet {
        IntervalSet {
            top: true,
            spans: Vec::new(),
        }
    }

    /// Builds a set from arbitrary `[lo, hi)` ranges.
    pub fn from_ranges(ranges: &[(i128, i128)]) -> IntervalSet {
        let mut s = IntervalSet::empty();
        for &(lo, hi) in ranges {
            s.insert(lo, hi);
        }
        s
    }

    /// Adds `[lo, hi)`, merging overlaps.
    pub fn insert(&mut self, lo: i128, hi: i128) {
        if self.top || lo >= hi {
            return;
        }
        let (mut lo, mut hi) = (lo, hi);
        let mut keep = Vec::with_capacity(self.spans.len() + 1);
        for &(a, b) in &self.spans {
            if b < lo || hi < a {
                keep.push((a, b));
            } else {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        keep.push((lo, hi));
        keep.sort_unstable();
        self.spans = keep;
        if self.spans.len() > MAX_SPANS {
            let lo = self.spans.first().unwrap().0;
            let hi = self.spans.last().unwrap().1;
            self.spans = vec![(lo, hi)];
        }
    }

    /// Removes exactly `[lo, hi)` from the set.
    pub fn remove(&mut self, lo: i128, hi: i128) {
        if self.top || lo >= hi {
            return;
        }
        let mut next = Vec::with_capacity(self.spans.len() + 1);
        for &(a, b) in &self.spans {
            if b <= lo || hi <= a {
                next.push((a, b));
                continue;
            }
            if a < lo {
                next.push((a, lo));
            }
            if hi < b {
                next.push((hi, b));
            }
        }
        self.spans = next;
    }

    /// Whether `[lo, hi)` shares any byte with the set.
    pub fn intersects(&self, lo: i128, hi: i128) -> bool {
        if lo >= hi {
            return false;
        }
        self.top || self.spans.iter().any(|&(a, b)| a < hi && lo < b)
    }
}

impl Lattice for IntervalSet {
    fn bottom() -> Self {
        IntervalSet::empty()
    }
    fn join(&mut self, other: &Self) -> bool {
        if self.top {
            return false;
        }
        if other.top {
            *self = IntervalSet::top();
            return true;
        }
        let before = self.clone();
        for &(a, b) in &other.spans {
            self.insert(a, b);
        }
        *self != before
    }
    // `MAX_SPANS` hulling already bounds chain height; joins suffice.
}

impl Interval {
    /// Whether this interval is tight enough to serve as an address
    /// footprint: non-empty and well inside the scratchpad address space
    /// (|endpoint| < 2⁴⁴). Wider intervals — typically a wrap-to-type-top
    /// — carry no useful address information.
    pub fn is_bounded(&self) -> bool {
        const LIMIT: i128 = 1 << 44;
        !self.is_empty() && self.lo > -LIMIT && self.hi < LIMIT
    }
}

/// The backward liveness problem: which bytes may still be read.
struct SpmLiveness<'a> {
    /// Accesses grouped per block, in program order.
    by_block: BTreeMap<BlockId, Vec<&'a AccessFact>>,
    live_out: IntervalSet,
}

impl SpmLiveness<'_> {
    /// Applies one access backwards to a live set.
    fn step(fact: &mut IntervalSet, a: &AccessFact) {
        if a.is_store {
            // Kill only when the store provably writes this exact range
            // on every execution (singleton address).
            if let Some((lo, hi)) = a.interval {
                if hi - lo == a.size as i128 {
                    fact.remove(lo, hi);
                }
            }
        } else {
            match a.interval {
                Some((lo, hi)) => fact.insert(lo, hi),
                None => *fact = IntervalSet::top(),
            }
        }
    }
}

impl BlockAnalysis for SpmLiveness<'_> {
    type Fact = IntervalSet;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> IntervalSet {
        self.live_out.clone()
    }
    fn transfer(&self, _f: &Function, block: BlockId, fact: &IntervalSet) -> IntervalSet {
        let mut cur = fact.clone();
        if let Some(accs) = self.by_block.get(&block) {
            for a in accs.iter().rev() {
                Self::step(&mut cur, a);
            }
        }
        cur
    }
}

/// Stores proven dead: no later load and no live-out region can observe
/// the written bytes.
///
/// `live_out` lists the `[lo, hi)` byte ranges the caller reads after the
/// kernel returns (its output buffers). Only bounded stores can be
/// proven dead; reports are sound for any `live_out` that covers the
/// actually-observed bytes.
pub fn dead_stores(
    f: &Function,
    accesses: &[AccessFact],
    live_out: &[(i128, i128)],
) -> Vec<InstId> {
    let mut by_block: BTreeMap<BlockId, Vec<&AccessFact>> = BTreeMap::new();
    for a in accesses {
        by_block.entry(a.block).or_default().push(a);
    }
    let analysis = SpmLiveness {
        by_block,
        live_out: IntervalSet::from_ranges(live_out),
    };
    let sol: Solution<IntervalSet> = solve(f, &analysis, u32::MAX);

    let mut dead = Vec::new();
    for (bid, accs) in &analysis.by_block {
        // Walk backwards from the block's exit fact to each store's
        // program point.
        let mut cur = sol.input[bid.index()].clone();
        for a in accs.iter().rev() {
            if a.is_store {
                if let Some((lo, hi)) = a.interval {
                    if !cur.intersects(lo, hi) {
                        dead.push(a.inst);
                    }
                }
            }
            SpmLiveness::step(&mut cur, a);
        }
    }
    dead.sort_unstable();
    dead
}

/// Loads proven to read bytes nothing ever wrote: disjoint from every
/// store footprint and from the caller-initialized input regions.
///
/// Stays silent when any store is unbounded (it might write anything).
pub fn unwritten_reads(accesses: &[AccessFact], initialized: &[(i128, i128)]) -> Vec<InstId> {
    let mut written = IntervalSet::from_ranges(initialized);
    for a in accesses.iter().filter(|a| a.is_store) {
        match a.interval {
            Some((lo, hi)) => written.insert(lo, hi),
            None => return Vec::new(),
        }
    }
    let mut out: Vec<InstId> = accesses
        .iter()
        .filter(|a| !a.is_store)
        .filter_map(|a| {
            let (lo, hi) = a.interval?;
            (!written.intersects(lo, hi)).then_some(a.inst)
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::infer_ranges;
    use crate::sccp::sccp;
    use crate::trips::infer_trips;
    use salam_ir::interp::RtVal;
    use salam_ir::{FunctionBuilder, Type};

    fn accesses(f: &Function, args: &[RtVal]) -> Vec<AccessFact> {
        let s = sccp(f, args);
        let t = infer_trips(f, &s);
        let r = infer_ranges(f, &s, &t);
        collect_accesses(f, &s, &t, &r)
    }

    /// store a[0]; store a[0] again; load a[0] — the first store is dead.
    #[test]
    fn overwritten_store_is_dead() {
        let mut fb = FunctionBuilder::new("k", &[("a", Type::Ptr)]);
        let a = fb.arg(0);
        let one = fb.i64c(1);
        let two = fb.i64c(2);
        fb.store(one, a);
        fb.store(two, a);
        fb.load(Type::I64, a, "v");
        fb.ret();
        let f = fb.finish();
        let acc = accesses(&f, &[RtVal::P(0x100)]);
        let dead = dead_stores(&f, &acc, &[]);
        assert_eq!(dead, vec![acc[0].inst]);
    }

    /// A store into the declared output region is live even with no load.
    #[test]
    fn live_out_regions_keep_stores_alive() {
        let mut fb = FunctionBuilder::new("k", &[("out", Type::Ptr)]);
        let a = fb.arg(0);
        let one = fb.i64c(1);
        fb.store(one, a);
        fb.ret();
        let f = fb.finish();
        let acc = accesses(&f, &[RtVal::P(0x200)]);
        assert!(dead_stores(&f, &acc, &[(0x200, 0x208)]).is_empty());
        assert_eq!(dead_stores(&f, &acc, &[]).len(), 1);
    }

    /// Loads from a region nothing writes are flagged; declaring the
    /// region initialized clears them.
    #[test]
    fn unwritten_read_is_flagged_until_declared_initialized() {
        let mut fb = FunctionBuilder::new("k", &[("a", Type::Ptr), ("b", Type::Ptr)]);
        let a = fb.arg(0);
        let b = fb.arg(1);
        let v = fb.load(Type::I64, a, "v");
        fb.store(v, b);
        fb.ret();
        let f = fb.finish();
        let acc = accesses(&f, &[RtVal::P(0x100), RtVal::P(0x900)]);
        let loads = unwritten_reads(&acc, &[]);
        assert_eq!(loads.len(), 1);
        assert!(unwritten_reads(&acc, &[(0x100, 0x108)]).is_empty());
    }

    #[test]
    fn interval_set_algebra_holds() {
        let mut s = IntervalSet::empty();
        s.insert(0, 10);
        s.insert(20, 30);
        assert!(s.intersects(5, 6) && !s.intersects(10, 20));
        s.insert(10, 20); // bridges the gap
        assert_eq!(s, IntervalSet::from_ranges(&[(0, 30)]));
        s.remove(5, 25);
        assert!(s.intersects(0, 5) && s.intersects(25, 30) && !s.intersects(5, 25));
        assert!(IntervalSet::top().intersects(-1000, -999));
    }
}
