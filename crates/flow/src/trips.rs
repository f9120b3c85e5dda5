//! Static loop trip-count inference.
//!
//! The pass pattern-matches each natural loop against the canonical
//! counted shape — `phi [init, preheader], [phi + step, latch]` with an
//! `icmp {slt,ult,sle,ule} phi, bound` feeding the header's `cond_br` —
//! and resolves `init`, `step` and `bound` through [SCCP](crate::sccp)
//! constants, so bounds computed from scalar arguments (`n * n`, `n - 1`)
//! fold too. A matched loop yields the *exact* per-entry iteration count.
//!
//! From per-entry counts the pass derives exact whole-function block
//! execution counts where control flow permits: edge counts propagate
//! from `trips(entry) = 1` through unconditional branches and counted
//! headers (`entries × iters` into the body, `entries` to the exit).
//! Blocks reachable only through data-dependent branches get *no* entry
//! in [`TripFacts::block_trips`] — absent means "statically unknown",
//! never zero. All published counts are exact for terminating runs, so a
//! lower bound multiplying them stays a lower bound, and an expected-case
//! estimate multiplying them is exact.

use std::collections::{BTreeMap, BTreeSet};

use salam_ir::analysis::{find_natural_loops, Cfg, DomTree};
use salam_ir::{BlockId, Function, IntPredicate, Opcode, ValueId, ValueKind};

use crate::sccp::Sccp;

/// An induction variable proven to enumerate a closed arithmetic range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvFact {
    /// First value taken (on every entry to the loop).
    pub start: i128,
    /// Per-iteration increment (always > 0).
    pub step: i128,
    /// Number of iterations per loop entry.
    pub count: u64,
}

impl IvFact {
    /// The last value the variable takes inside the loop body, or `start`
    /// for a loop that never runs.
    pub fn last(&self) -> i128 {
        if self.count == 0 {
            self.start
        } else {
            self.start + self.step * (self.count as i128 - 1)
        }
    }
}

/// One natural loop (multi-latch loops sharing a header are merged),
/// annotated with whatever the analysis could prove.
#[derive(Debug, Clone)]
pub struct LoopTrip {
    /// Loop header.
    pub header: BlockId,
    /// All latches branching back to the header.
    pub latches: BTreeSet<BlockId>,
    /// Every block in the loop (header included).
    pub blocks: BTreeSet<BlockId>,
    /// Header of the innermost enclosing loop, if nested.
    pub parent: Option<BlockId>,
    /// The counted induction variable (phi result), when matched.
    pub iv: Option<(ValueId, IvFact)>,
    /// Exact iterations per entry (the IV count), when matched.
    pub iterations: Option<u64>,
    /// Exact number of times the loop is entered from outside.
    pub entries: Option<u64>,
    /// Exact total latch→header traversals (`entries × iterations`).
    pub total_iterations: Option<u64>,
}

/// The trip-count facts for one function.
#[derive(Debug, Clone, Default)]
pub struct TripFacts {
    /// Exact execution count per block. Absent = statically unknown.
    pub block_trips: BTreeMap<BlockId, u64>,
    /// Per-loop structure and counts, sorted by header.
    pub loops: Vec<LoopTrip>,
    /// Induction-variable ranges, keyed by the phi's result value.
    pub ivs: BTreeMap<ValueId, IvFact>,
}

impl TripFacts {
    /// The loop headed at `h`, if any.
    pub fn loop_at(&self, h: BlockId) -> Option<&LoopTrip> {
        self.loops.iter().find(|l| l.header == h)
    }
}

/// Matches `header`'s exit test against the canonical counted-loop shape
/// and returns the IV phi and its range.
fn match_counted(
    f: &Function,
    sccp: &Sccp,
    header: BlockId,
    blocks: &BTreeSet<BlockId>,
) -> Option<(ValueId, IvFact)> {
    let term = f.terminator(header)?;
    if f.inst(term).op != Opcode::CondBr {
        return None;
    }
    let cond = f.inst(term).operands[0];
    let ValueKind::Inst(cmp_id) = *f.value_kind(cond) else {
        return None;
    };
    let cmp = f.inst(cmp_id);
    let Opcode::ICmp(pred) = cmp.op else {
        return None;
    };
    let inclusive = match pred {
        IntPredicate::Slt | IntPredicate::Ult => false,
        IntPredicate::Sle | IntPredicate::Ule => true,
        _ => return None,
    };
    let phi_v = cmp.operands[0];
    let bound = sccp.const_of(cmp.operands[1])?;
    // The compared value must be a two-way phi in the header: one incoming
    // `phi + step` from a latch inside the loop, one constant from outside.
    let ValueKind::Inst(phi_id) = *f.value_kind(phi_v) else {
        return None;
    };
    let phi = f.inst(phi_id);
    if phi.op != Opcode::Phi || phi.operands.len() != 2 {
        return None;
    }
    if !f.block(header).insts.contains(&phi_id) {
        return None;
    }
    let mut start = None;
    let mut step: Option<i128> = None;
    for (k, &inc) in phi.operands.iter().enumerate() {
        let from_latch = blocks.contains(&phi.block_refs[k]);
        if from_latch {
            let ValueKind::Inst(def) = *f.value_kind(inc) else {
                return None;
            };
            let d = f.inst(def);
            if d.op != Opcode::Add || !d.operands.contains(&phi_v) {
                return None;
            }
            let other = if d.operands[0] == phi_v {
                d.operands[1]
            } else {
                d.operands[0]
            };
            step = sccp.const_of(other);
        } else {
            start = sccp.const_of(inc);
        }
    }
    let (start, step) = (start?, step?);
    if step <= 0 {
        return None;
    }
    let count = if inclusive {
        if start > bound {
            0
        } else {
            ((bound - start) / step + 1) as u64
        }
    } else if start >= bound {
        0
    } else {
        ((bound - start + step - 1) / step) as u64
    };
    Some((phi_v, IvFact { start, step, count }))
}

/// The loop nest of `f`: its natural loops merged by header (so a
/// multi-latch loop is one loop), each linked to its innermost enclosing
/// loop, sorted by header. Only the structure is filled in;
/// [`infer_trips`] adds the counts.
pub fn loop_nest(f: &Function, cfg: &Cfg) -> Vec<LoopTrip> {
    let dom = DomTree::new(f, cfg);
    let mut merged: BTreeMap<BlockId, (BTreeSet<BlockId>, BTreeSet<BlockId>)> = BTreeMap::new();
    for l in find_natural_loops(f, cfg, &dom) {
        let e = merged.entry(l.header).or_default();
        e.0.insert(l.latch);
        e.1.extend(l.blocks.iter().copied());
    }
    merged
        .iter()
        .map(|(&header, (latches, blocks))| LoopTrip {
            header,
            latches: latches.clone(),
            blocks: blocks.clone(),
            parent: merged
                .iter()
                .filter(|(&h, (_, bs))| h != header && bs.contains(&header))
                .map(|(&h, (_, bs))| (bs.len(), h))
                .min()
                .map(|(_, h)| h),
            iv: None,
            iterations: None,
            entries: None,
            total_iterations: None,
        })
        .collect()
}

/// The innermost loops of a [`loop_nest`]: those no loop names as its
/// `parent`, in nest order.
pub fn innermost(nest: &[LoopTrip]) -> impl Iterator<Item = &LoopTrip> {
    nest.iter()
        .filter(|l| nest.iter().all(|o| o.parent != Some(l.header)))
}

/// Runs trip-count inference over `f`, reusing `sccp`'s constants.
pub fn infer_trips(f: &Function, sccp: &Sccp) -> TripFacts {
    let cfg = Cfg::new(f);
    let mut loops = loop_nest(f, &cfg);
    for l in &mut loops {
        l.iv = match_counted(f, sccp, l.header, &l.blocks);
        // Counting is only exact when the header's exit test is the
        // loop's *sole* exit: every non-header block must branch strictly
        // inside the loop.
        let single_exit = l
            .blocks
            .iter()
            .filter(|&&b| b != l.header)
            .all(|&b| f.successors(b).iter().all(|s| l.blocks.contains(s)));
        l.iterations = l.iv.filter(|_| single_exit).map(|(_, r)| r.count);
    }

    let ivs: BTreeMap<ValueId, IvFact> = loops.iter().filter_map(|l| l.iv).collect();

    // Edge-count propagation. An edge (block, successor-slot) gets a count
    // once its source's trips are known and the branch is either
    // unconditional or the exit test of a counted single-exit header.
    let header_info: BTreeMap<BlockId, (u64, BTreeSet<BlockId>)> = loops
        .iter()
        .filter_map(|l| l.iterations.map(|n| (l.header, (n, l.blocks.clone()))))
        .collect();
    let latch_of: BTreeSet<(BlockId, BlockId)> = loops
        .iter()
        .flat_map(|l| l.latches.iter().map(move |&lt| (lt, l.header)))
        .collect();

    let mut trips: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut entries_of: BTreeMap<BlockId, u64> = BTreeMap::new();
    trips.insert(f.entry(), 1);
    // SCCP-proven dead blocks never run.
    for (bid, _) in f.blocks() {
        if !sccp.executable.contains(&bid) {
            trips.insert(bid, 0);
        }
    }
    // Header trips depend on external in-edges only; other blocks need all
    // in-edges. Iterate to fixpoint (bounded by loop nesting depth).
    let rpo = cfg.reverse_postorder().to_vec();
    loop {
        let mut changed = false;
        for &b in &rpo {
            if trips.contains_key(&b) {
                continue;
            }
            let is_header = header_info.contains_key(&b);
            let preds = cfg.predecessors(b);
            let mut sum: u64 = 0;
            let mut complete = true;
            for &p in preds {
                // Skip latch back-edges when totalling a header's entries.
                if is_header && latch_of.contains(&(p, b)) {
                    continue;
                }
                match edge_count(f, sccp, &trips, &header_info, p, b) {
                    Some(c) => sum = sum.saturating_add(c),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            if is_header {
                let (n, _) = &header_info[&b];
                entries_of.insert(b, sum);
                // Per entry: n body iterations plus the final exit check.
                trips.insert(b, sum.saturating_mul(n + 1));
            } else {
                trips.insert(b, sum);
            }
            changed = true;
        }
        if !changed {
            break;
        }
    }

    for l in &mut loops {
        if let (Some(&e), Some(n)) = (entries_of.get(&l.header), l.iterations) {
            l.entries = Some(e);
            l.total_iterations = Some(e.saturating_mul(n));
        }
    }

    TripFacts {
        block_trips: trips,
        loops,
        ivs,
    }
}

/// The exact traversal count of the CFG edge `p → s`, when derivable:
/// the sum over `p`'s terminator slots targeting `s` of the slot's count.
fn edge_count(
    f: &Function,
    sccp: &Sccp,
    trips: &BTreeMap<BlockId, u64>,
    header_info: &BTreeMap<BlockId, (u64, BTreeSet<BlockId>)>,
    p: BlockId,
    s: BlockId,
) -> Option<u64> {
    let t = *trips.get(&p)?;
    let term = f.terminator(p)?;
    let inst = f.inst(term);
    let mut sum: u64 = 0;
    for (slot, &target) in inst.block_refs.iter().enumerate() {
        if target != s {
            continue;
        }
        let c = match inst.op {
            Opcode::Br => t,
            Opcode::CondBr => {
                if let Some((n, blocks)) = header_info.get(&p) {
                    // trips(header) = entries × (n + 1); per entry the body
                    // edge is taken n times and the exit edge once.
                    let entries = t / (n + 1);
                    if blocks.contains(&target) {
                        entries.saturating_mul(*n)
                    } else {
                        entries
                    }
                } else if let Some(c) = sccp.const_of(inst.operands[0]) {
                    // Constant condition: only one slot is ever taken.
                    let taken = if c & 1 != 0 { 0 } else { 1 };
                    if slot == taken {
                        t
                    } else {
                        0
                    }
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        sum = sum.saturating_add(c);
    }
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sccp::sccp;
    use salam_ir::interp::RtVal;
    use salam_ir::{FunctionBuilder, Type};

    fn nested(n: i64, m: i64) -> (Function, Sccp) {
        let mut fb = FunctionBuilder::new("nested", &[("n", Type::I64), ("m", Type::I64)]);
        let n_v = fb.arg(0);
        let m_v = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n_v, |fb, _| {
            let z2 = fb.i64c(0);
            fb.counted_loop("j", z2, m_v, |_, _| {});
        });
        fb.ret();
        let f = fb.finish();
        let s = sccp(&f, &[RtVal::I(n), RtVal::I(m)]);
        (f, s)
    }

    #[test]
    fn nested_counted_loops_get_exact_block_trips() {
        let (f, s) = nested(4, 3);
        let t = infer_trips(&f, &s);
        let b = |n: &str| f.block_by_name(n).unwrap();
        assert_eq!(t.block_trips[&b("entry")], 1);
        assert_eq!(t.block_trips[&b("i.header")], 5);
        assert_eq!(t.block_trips[&b("i.body")], 4);
        assert_eq!(t.block_trips[&b("j.header")], 4 * (3 + 1));
        assert_eq!(t.block_trips[&b("j.body")], 12);
        assert_eq!(t.block_trips[&b("j.exit")], 4);
        assert_eq!(t.block_trips[&b("i.exit")], 1);

        let outer = t.loop_at(b("i.header")).unwrap();
        assert_eq!(outer.iterations, Some(4));
        assert_eq!(outer.entries, Some(1));
        assert_eq!(outer.parent, None);
        let inner = t.loop_at(b("j.header")).unwrap();
        assert_eq!(inner.iterations, Some(3));
        assert_eq!(inner.entries, Some(4));
        assert_eq!(inner.total_iterations, Some(12));
        assert_eq!(inner.parent, Some(b("i.header")));
    }

    #[test]
    fn zero_trip_loop_counts_zero() {
        let (f, s) = nested(0, 7);
        let t = infer_trips(&f, &s);
        let b = |n: &str| f.block_by_name(n).unwrap();
        assert_eq!(t.block_trips[&b("i.header")], 1);
        assert_eq!(t.block_trips[&b("i.body")], 0);
        assert_eq!(t.block_trips[&b("j.header")], 0);
        assert_eq!(t.block_trips[&b("i.exit")], 1);
    }

    #[test]
    fn data_dependent_branch_leaves_trips_unknown() {
        // A branch on a loaded value: successors get no static count.
        let mut fb = FunctionBuilder::new("datadep", &[("a", Type::Ptr)]);
        let a = fb.arg(0);
        let v = fb.load(Type::I64, a, "v");
        let zero = fb.i64c(0);
        let c = fb.icmp(IntPredicate::Sgt, v, zero, "c");
        let t_b = fb.add_block("then");
        let e_b = fb.add_block("else");
        fb.cond_br(c, t_b, e_b);
        fb.position_at(t_b);
        fb.ret();
        fb.position_at(e_b);
        fb.ret();
        let f = fb.finish();
        let s = sccp(&f, &[RtVal::P(0)]);
        let t = infer_trips(&f, &s);
        assert_eq!(t.block_trips[&f.entry()], 1);
        assert!(!t.block_trips.contains_key(&t_b));
        assert!(!t.block_trips.contains_key(&e_b));
    }

    #[test]
    fn iv_fact_reports_the_enumerated_range() {
        let (f, s) = nested(4, 3);
        let t = infer_trips(&f, &s);
        let outer = t.loop_at(f.block_by_name("i.header").unwrap()).unwrap();
        let (_, r) = outer.iv.unwrap();
        assert_eq!((r.start, r.step, r.count, r.last()), (0, 1, 4, 3));
    }
}
