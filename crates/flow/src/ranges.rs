//! Sparse interval value-range analysis over SSA values.
//!
//! Every integer- or pointer-typed value gets a sound enclosing
//! [`Interval`]: constants and SCCP-proven constants are exact, counted
//! induction variables get their proven `[start, last]` range from
//! [trip inference](crate::trips), arithmetic propagates through the
//! interval transfer functions (wrapping to the result type, see
//! [`Interval`]'s width semantics), and loads are the full range of their
//! type. Propagation is a use-driven sparse worklist (deterministic:
//! `BTreeSet` ordered by value id); each value's range may tighten-then-
//! grow through phi joins, so after `WIDEN_AFTER` updates a value widens
//! straight to its type's range, bounding the fixpoint.
//!
//! The headline client is address reasoning: a `getelementptr` over a
//! pointer argument bound to a concrete scratchpad base yields a tight
//! byte-address interval for every access the instruction can perform,
//! which powers range-proven bounds checks (`F001`) and disjointness
//! proofs that retire shared-scratchpad conflict warnings (`M004`).

use std::collections::{BTreeMap, BTreeSet};

use salam_ir::{Function, InstId, Opcode, Type, ValueId, ValueKind};

use crate::interval::Interval;
use crate::sccp::Sccp;
use crate::trips::TripFacts;

/// Updates per value before widening kicks in.
const WIDEN_AFTER: u32 = 3;

/// The computed ranges for one function.
#[derive(Debug, Clone, Default)]
pub struct Ranges {
    /// Sound enclosing interval per integer/pointer value. Absent means
    /// the value is non-integer or in dead code; treat as unknown.
    pub values: BTreeMap<ValueId, Interval>,
}

impl Ranges {
    /// The interval for `v`, or `None` when nothing was computed.
    pub fn of(&self, v: ValueId) -> Option<Interval> {
        self.values.get(&v).copied()
    }
}

/// The effective bit width for range purposes (pointers are 64-bit).
fn width(ty: &Type) -> Option<u32> {
    match ty {
        Type::Ptr => Some(64),
        t if t.is_int() => Some(t.bits()),
        _ => None,
    }
}

struct Engine<'a> {
    f: &'a Function,
    sccp: &'a Sccp,
    trips: &'a TripFacts,
    out: BTreeMap<ValueId, Interval>,
    uses: BTreeMap<ValueId, Vec<InstId>>,
    updates: BTreeMap<ValueId, u32>,
}

impl<'a> Engine<'a> {
    /// The current interval of an operand, seeding leaves on demand.
    /// Returns `None` for values with no range information yet (optimistic
    /// bottom — the consumer is re-queued when the operand gets one).
    fn operand(&mut self, v: ValueId) -> Option<Interval> {
        if let Some(i) = self.out.get(&v) {
            return Some(*i);
        }
        // SCCP constants, literals and bound arguments among them, are
        // exact regardless of how they are computed.
        if let Some(c) = self.sccp.const_of(v) {
            return Some(Interval::exact(c));
        }
        match self.f.value_kind(v) {
            // An unbound argument may hold anything of its type.
            ValueKind::Arg(_) => width(&self.f.value_type(v)).map(Interval::top_for),
            _ => None,
        }
    }

    /// Publishes a (possibly wider) interval for `v`, widening to the
    /// type bound after `WIDEN_AFTER` growths, and queues `v`'s users.
    fn publish(&mut self, v: ValueId, next: Interval, work: &mut BTreeSet<InstId>) {
        let bound = width(&self.f.value_type(v))
            .map(Interval::top_for)
            .unwrap_or(Interval::top());
        let n = self.updates.entry(v).or_insert(0);
        let cur = self.out.entry(v).or_insert(Interval::bottom());
        let changed = if *n >= WIDEN_AFTER {
            cur.widen(&next, &bound)
        } else {
            cur.join(&next)
        };
        if changed {
            *n += 1;
            if let Some(us) = self.uses.get(&v) {
                for &u in us.clone().iter() {
                    work.insert(u);
                }
            }
        }
    }

    fn transfer(&mut self, iid: InstId) -> Option<Interval> {
        let inst = self.f.inst(iid).clone();
        let res = self.f.inst_result(iid)?;
        // SCCP-proven constants short-circuit everything.
        if let Some(c) = self.sccp.const_of(res) {
            return Some(Interval::exact(c));
        }
        let bits = width(&inst.ty)?;
        let top = Interval::top_for(bits);
        let r = match inst.op {
            Opcode::Phi => {
                // Counted IVs have a proven enumeration range.
                if let Some(r) = self.trips.ivs.get(&res) {
                    let lo = r.start.min(r.last());
                    let hi = r.start.max(r.last());
                    return Some(Interval::of(lo, hi));
                }
                let mut acc = Interval::bottom();
                for &inc in &inst.operands {
                    match self.operand(inc) {
                        Some(i) => {
                            acc.join(&i);
                        }
                        // Optimistically ignore not-yet-ranged incomings;
                        // publish() re-joins when they arrive.
                        None => continue,
                    }
                }
                if acc.is_empty() {
                    return None;
                }
                acc
            }
            Opcode::Add => self.binop(&inst, bits, Interval::add)?,
            Opcode::Sub => self.binop(&inst, bits, Interval::sub)?,
            Opcode::Mul => self.binop(&inst, bits, Interval::mul)?,
            Opcode::Shl => {
                let a = self.operand(inst.operands[0])?;
                match self.operand(inst.operands[1]).and_then(|i| i.as_exact()) {
                    Some(k) if (0..64).contains(&k) => a.shl_const(k as u32, bits),
                    _ => top,
                }
            }
            Opcode::And => {
                // Masking with a non-negative constant bounds the result.
                let mask = [inst.operands[0], inst.operands[1]]
                    .iter()
                    .filter_map(|&o| self.operand(o).and_then(|i| i.as_exact()))
                    .find(|&m| m >= 0);
                match mask {
                    Some(m) => Interval::of(0, m),
                    None => top,
                }
            }
            Opcode::Or => {
                // For non-negative a, b: max(a, b) <= a|b <= a + b.
                let a = self.operand(inst.operands[0])?;
                let b = self.operand(inst.operands[1])?;
                if a.lo >= 0 && b.lo >= 0 {
                    Interval::of(a.lo.max(b.lo), a.hi.saturating_add(b.hi))
                } else {
                    top
                }
            }
            Opcode::UDiv | Opcode::LShr | Opcode::URem => {
                // Result is non-negative when the dividend provably is.
                let a = self.operand(inst.operands[0])?;
                if a.lo >= 0 {
                    Interval::of(0, a.hi)
                } else {
                    top
                }
            }
            Opcode::ICmp(_) | Opcode::FCmp(_) => Interval::top_for(1),
            Opcode::SExt | Opcode::BitCast | Opcode::PtrToInt | Opcode::IntToPtr => {
                self.operand(inst.operands[0])?
            }
            Opcode::ZExt => {
                let a = self.operand(inst.operands[0])?;
                if a.lo >= 0 {
                    a
                } else {
                    // Sign-extended storage reinterpreted unsigned: only the
                    // source type's unsigned range is certain.
                    let sb = width(&self.f.value_type(inst.operands[0])).unwrap_or(64);
                    if sb >= 64 {
                        top
                    } else {
                        Interval::of(0, (1i128 << sb) - 1)
                    }
                }
            }
            Opcode::Trunc => {
                let a = self.operand(inst.operands[0])?;
                if a.within(top.lo, top.hi) {
                    a
                } else {
                    top
                }
            }
            Opcode::Select => {
                let mut t = self.operand(inst.operands[1])?;
                let e = self.operand(inst.operands[2])?;
                t.join(&e);
                t
            }
            Opcode::Gep { ref elem } => {
                let mut addr = self.operand(inst.operands[0])?;
                let mut cur: Type = elem.clone();
                for (k, &idx) in inst.operands[1..].iter().enumerate() {
                    if k > 0 {
                        let Type::Array { elem, .. } = cur else {
                            return Some(Interval::top());
                        };
                        cur = *elem;
                    }
                    let i = self.operand(idx)?;
                    let sz = Interval::exact(cur.size_bytes() as i128);
                    addr = addr.add(&i.mul(&sz, 64), 64);
                }
                addr
            }
            Opcode::Load => top,
            _ => top,
        };
        Some(r)
    }

    fn binop(
        &mut self,
        inst: &salam_ir::Inst,
        bits: u32,
        op: fn(&Interval, &Interval, u32) -> Interval,
    ) -> Option<Interval> {
        let a = self.operand(inst.operands[0])?;
        let b = self.operand(inst.operands[1])?;
        Some(op(&a, &b, bits))
    }
}

/// Computes value ranges for `f`, reusing SCCP constants and trip facts.
pub fn infer_ranges(f: &Function, sccp: &Sccp, trips: &TripFacts) -> Ranges {
    let mut uses: BTreeMap<ValueId, Vec<InstId>> = BTreeMap::new();
    let mut insts: Vec<InstId> = Vec::new();
    for (bid, b) in f.blocks() {
        if !sccp.executable.contains(&bid) {
            continue; // dead code publishes nothing
        }
        for &iid in &b.insts {
            insts.push(iid);
            for &op in &f.inst(iid).operands {
                uses.entry(op).or_default().push(iid);
            }
        }
    }
    let mut eng = Engine {
        f,
        sccp,
        trips,
        out: BTreeMap::new(),
        uses,
        updates: BTreeMap::new(),
    };
    let mut work: BTreeSet<InstId> = insts.iter().copied().collect();
    while let Some(&iid) = work.iter().next() {
        work.remove(&iid);
        if let Some(next) = eng.transfer(iid) {
            let res = eng.f.inst_result(iid).expect("transfer implies result");
            eng.publish(res, next, &mut work);
        }
    }
    // Bound arguments, consulted lazily, are worth publishing for clients
    // that query them directly.
    let mut out = eng.out;
    for i in 0..f.params.len() {
        let v = f.arg_value(i);
        if let Some(c) = sccp.const_of(v) {
            out.entry(v).or_insert(Interval::exact(c));
        }
    }
    Ranges { values: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sccp::sccp;
    use crate::trips::infer_trips;
    use salam_ir::interp::RtVal;
    use salam_ir::{FunctionBuilder, IntPredicate};

    fn facts(f: &Function, args: &[RtVal]) -> Ranges {
        let s = sccp(f, args);
        let t = infer_trips(f, &s);
        infer_ranges(f, &s, &t)
    }

    #[test]
    fn gep_over_a_counted_iv_gets_a_tight_address_range() {
        // for i in 0..8: load a[i] (i64) — addresses [base, base+64).
        let mut fb = FunctionBuilder::new("k", &[("a", Type::Ptr), ("n", Type::I64)]);
        let a = fb.arg(0);
        let n = fb.arg(1);
        let zero = fb.i64c(0);
        let mut addr = None;
        fb.counted_loop("i", zero, n, |fb, iv| {
            let p = fb.gep1(Type::I64, a, iv, "p");
            fb.load(Type::I64, p, "v");
            addr = Some(p);
        });
        fb.ret();
        let f = fb.finish();
        let r = facts(&f, &[RtVal::P(0x1000), RtVal::I(8)]);
        assert_eq!(
            r.of(addr.unwrap()).unwrap(),
            Interval::of(0x1000, 0x1000 + 7 * 8)
        );
    }

    #[test]
    fn uncounted_phi_widens_to_type_range_and_terminates() {
        // A non-canonical recurrence (i = i * 3) cannot be counted; the
        // phi must widen instead of looping forever.
        let mut fb = FunctionBuilder::new("w", &[("a", Type::Ptr)]);
        let one = fb.i64c(1);
        let header = fb.add_block("header");
        let body = fb.add_block("body");
        let exit = fb.add_block("exit");
        let pre = fb.current_block();
        fb.br(header);
        fb.position_at(header);
        let (phi_id, iv) = fb.phi(Type::I64, "iv");
        fb.add_incoming(phi_id, one, pre);
        let k = fb.i64c(1000);
        let c = fb.icmp(IntPredicate::Slt, iv, k, "c");
        fb.cond_br(c, body, exit);
        fb.position_at(body);
        let three = fb.i64c(3);
        let next = fb.mul(iv, three, "next");
        fb.br(header);
        fb.add_incoming(phi_id, next, body);
        fb.position_at(exit);
        fb.ret();
        let f = fb.finish();
        let r = facts(&f, &[RtVal::P(0)]);
        let got = r.of(iv).unwrap();
        // Sound: contains 1, 3, 9, …; bounded by the type.
        assert!(got.lo <= 1 && got.hi >= 729);
        assert!(got.within(Interval::top_for(64).lo, Interval::top_for(64).hi));
    }

    #[test]
    fn or_of_non_negatives_bounds_between_max_and_sum() {
        // for i in 0..8: (i & 3) | 8 ∈ [8, 11].
        let mut fb = FunctionBuilder::new("o", &[("n", Type::I64)]);
        let n = fb.arg(0);
        let zero = fb.i64c(0);
        let mut orv = None;
        fb.counted_loop("i", zero, n, |fb, iv| {
            let three = fb.i64c(3);
            let m = fb.and(iv, three, "m");
            let eight = fb.i64c(8);
            orv = Some(fb.or(m, eight, "off"));
        });
        fb.ret();
        let f = fb.finish();
        let r = facts(&f, &[RtVal::I(8)]);
        assert_eq!(r.of(orv.unwrap()).unwrap(), Interval::of(8, 11));
    }

    #[test]
    fn or_with_possibly_negative_operand_stays_top() {
        let mut fb = FunctionBuilder::new("o", &[("a", Type::I64), ("b", Type::I64)]);
        let a = fb.arg(0);
        let b = fb.arg(1);
        // Neither operand is constant-folded when args are unknown at
        // analysis time; use a phi-free direct op on arguments instead.
        let v = fb.or(a, b, "v");
        fb.ret();
        let f = fb.finish();
        // Arguments are exact here, so SCCP folds; assert only soundness.
        let r = facts(&f, &[RtVal::I(-4), RtVal::I(1)]);
        let got = r.of(v).unwrap();
        assert!(
            got.lo <= -3 && got.hi >= -3,
            "must contain -4 | 1 = -3, got {got:?}"
        );
    }

    #[test]
    fn sccp_constants_pin_computed_values_exactly() {
        let mut fb = FunctionBuilder::new("c", &[("n", Type::I64)]);
        let n = fb.arg(0);
        let n2 = fb.mul(n, n, "n2");
        fb.ret();
        let f = fb.finish();
        let r = facts(&f, &[RtVal::I(6)]);
        assert_eq!(r.of(n2).unwrap(), Interval::exact(36));
    }
}
