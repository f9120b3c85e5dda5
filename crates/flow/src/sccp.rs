//! Sparse conditional constant propagation.
//!
//! The classic Wegman–Zadeck algorithm over the three-level lattice
//! `Undef ⊑ Const(c) ⊑ Over`: values start optimistically undefined,
//! blocks start unreachable, and the two worklists (CFG edges and SSA
//! uses) run to a simultaneous fixpoint. Branches whose condition folds
//! to a constant only mark the taken edge executable, so code behind a
//! statically-false branch never pollutes phi joins.
//!
//! Integer (and pointer) arithmetic folds; floats and memory do not —
//! a `Load` is always `Over`. Arguments are seeded from the caller's
//! [`RtVal`] bindings, mirroring how the runtime binds kernel arguments,
//! so loop bounds passed as scalars fold all the way into comparisons.
//! Constants are stored sign-extended at their type's width, matching
//! [`salam_ir::Constant`]'s storage convention.

use std::collections::{BTreeMap, BTreeSet};

use salam_ir::interp::RtVal;
use salam_ir::{BlockId, Function, InstId, IntPredicate, Opcode, Type, ValueId, ValueKind};

/// The SCCP value lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lat {
    /// No evidence yet (optimistic bottom).
    Undef,
    /// Provably this constant on every execution (sign-extended).
    Const(i128),
    /// Not provably constant (top).
    Over,
}

impl Lat {
    /// Least upper bound, in place. Returns `true` when `self` changed.
    pub fn join(&mut self, other: &Self) -> bool {
        let next = match (*self, *other) {
            (a, Lat::Undef) => a,
            (Lat::Undef, b) => b,
            (Lat::Const(a), Lat::Const(b)) if a == b => Lat::Const(a),
            _ => Lat::Over,
        };
        let changed = next != *self;
        *self = next;
        changed
    }
}

/// The result of constant propagation over one function.
#[derive(Debug, Clone, Default)]
pub struct Sccp {
    /// Values proven constant on every execution (sign-extended at the
    /// value's width). Every integer literal and every argument bound to
    /// an integer or pointer is included.
    pub consts: BTreeMap<ValueId, i128>,
    /// Blocks that may execute. Everything outside is dead code.
    pub executable: BTreeSet<BlockId>,
}

impl Sccp {
    /// The proven constant for `v`, if any.
    pub fn const_of(&self, v: ValueId) -> Option<i128> {
        self.consts.get(&v).copied()
    }
}

/// Sign-extends the low `bits` of `v`.
fn sext(v: i128, bits: u32) -> i128 {
    if bits == 0 || bits >= 128 {
        return v;
    }
    let shift = 128 - bits;
    (v << shift) >> shift
}

/// The low `bits` of `v` as an unsigned quantity.
fn uns(v: i128, bits: u32) -> u128 {
    if bits == 0 || bits >= 128 {
        return v as u128;
    }
    (v as u128) & ((1u128 << bits) - 1)
}

struct Engine<'a> {
    f: &'a Function,
    args: &'a [RtVal],
    lat: Vec<Lat>,
    /// Executable CFG edges, as (block, successor-slot).
    edges: BTreeSet<(BlockId, usize)>,
    executable: BTreeSet<BlockId>,
    /// Uses of each value, for the SSA worklist.
    uses: BTreeMap<ValueId, Vec<InstId>>,
    block_of: Vec<BlockId>,
    ssa_work: BTreeSet<InstId>,
    flow_work: BTreeSet<(BlockId, usize)>,
}

impl<'a> Engine<'a> {
    fn new(f: &'a Function, args: &'a [RtVal]) -> Self {
        let mut uses: BTreeMap<ValueId, Vec<InstId>> = BTreeMap::new();
        let mut block_of = vec![f.entry(); f.num_insts()];
        for (bid, b) in f.blocks() {
            for &iid in &b.insts {
                block_of[iid.index()] = bid;
                for &op in &f.inst(iid).operands {
                    uses.entry(op).or_default().push(iid);
                }
            }
        }
        Engine {
            f,
            args,
            lat: vec![Lat::Undef; f.num_values()],
            edges: BTreeSet::new(),
            executable: BTreeSet::new(),
            uses,
            block_of,
            ssa_work: BTreeSet::new(),
            flow_work: BTreeSet::new(),
        }
    }

    fn value(&mut self, v: ValueId) -> Lat {
        // Literal constants and arguments have fixed lattice values the
        // first time they are consulted.
        if self.lat[v.index()] == Lat::Undef {
            let fixed = match self.f.value_kind(v) {
                ValueKind::Const(c) => match c.as_int() {
                    Some(i) => Some(Lat::Const(i as i128)),
                    None => Some(Lat::Over),
                },
                ValueKind::Arg(i) => Some(match self.args.get(*i as usize) {
                    Some(RtVal::I(x)) => Lat::Const(*x as i128),
                    Some(RtVal::P(p)) => Lat::Const(*p as i128),
                    _ => Lat::Over,
                }),
                ValueKind::Inst(_) => None,
            };
            if let Some(l) = fixed {
                self.lat[v.index()] = l;
            }
        }
        self.lat[v.index()]
    }

    fn raise(&mut self, v: ValueId, to: Lat) {
        let mut cur = self.lat[v.index()];
        if cur.join(&to) {
            self.lat[v.index()] = cur;
            if let Some(us) = self.uses.get(&v) {
                for &u in us.clone().iter() {
                    if self.executable.contains(&self.block_of[u.index()]) {
                        self.ssa_work.insert(u);
                    }
                }
            }
        }
    }

    fn mark_edge(&mut self, from: BlockId, slot: usize) {
        if self.edges.insert((from, slot)) {
            self.flow_work.insert((from, slot));
        }
    }

    fn run(mut self) -> Sccp {
        // The entry executes unconditionally: model it as a virtual edge
        // by visiting the block directly.
        self.visit_block(self.f.entry());
        while !self.flow_work.is_empty() || !self.ssa_work.is_empty() {
            while let Some(&(b, slot)) = self.flow_work.iter().next() {
                self.flow_work.remove(&(b, slot));
                let term = self.f.terminator(b).expect("terminated block");
                let succ = self.f.inst(term).block_refs[slot];
                if self.executable.insert(succ) {
                    self.visit_block(succ);
                } else {
                    // Only phis can change from a new incoming edge.
                    for &iid in self.f.block(succ).insts.clone().iter() {
                        if self.f.inst(iid).op == Opcode::Phi {
                            self.visit_inst(iid);
                        }
                    }
                }
            }
            while let Some(&iid) = self.ssa_work.iter().next() {
                self.ssa_work.remove(&iid);
                self.visit_inst(iid);
            }
        }

        // Literals and bound arguments are constants even where no
        // executable code reads them.
        let mut consts = BTreeMap::new();
        for i in 0..self.lat.len() {
            let v = ValueId::from_raw(i as u32);
            if let Lat::Const(c) = self.value(v) {
                consts.insert(v, c);
            }
        }
        Sccp {
            consts,
            executable: self.executable,
        }
    }

    fn visit_block(&mut self, b: BlockId) {
        self.executable.insert(b);
        for &iid in self.f.block(b).insts.clone().iter() {
            self.visit_inst(iid);
        }
    }

    fn visit_inst(&mut self, iid: InstId) {
        let inst = self.f.inst(iid).clone();
        match inst.op {
            Opcode::Br => {
                self.mark_edge(self.block_of[iid.index()], 0);
                return;
            }
            Opcode::CondBr => {
                let b = self.block_of[iid.index()];
                match self.value(inst.operands[0]) {
                    Lat::Undef => {}
                    // Truth is "low bit set", covering both the 0/1 and
                    // sign-extended -1 encodings.
                    Lat::Const(c) => self.mark_edge(b, if c & 1 != 0 { 0 } else { 1 }),
                    Lat::Over => {
                        self.mark_edge(b, 0);
                        self.mark_edge(b, 1);
                    }
                }
                return;
            }
            Opcode::Ret => return,
            _ => {}
        }
        let Some(res) = self.f.inst_result(iid) else {
            return;
        };
        let out = self.eval(iid, &inst);
        self.raise(res, out);
    }

    fn eval(&mut self, iid: InstId, inst: &salam_ir::Inst) -> Lat {
        if inst.op == Opcode::Phi {
            return self.eval_phi(iid, inst);
        }
        if inst.op == Opcode::Select {
            let c = self.value(inst.operands[0]);
            let t = self.value(inst.operands[1]);
            let e = self.value(inst.operands[2]);
            return match c {
                Lat::Undef => Lat::Undef,
                Lat::Const(c) => {
                    if c & 1 != 0 {
                        t
                    } else {
                        e
                    }
                }
                Lat::Over => {
                    let mut j = t;
                    j.join(&e);
                    j
                }
            };
        }
        // Everything below folds pure integer computation only.
        let mut ops = Vec::with_capacity(inst.operands.len());
        for &o in &inst.operands {
            match self.value(o) {
                Lat::Undef => return Lat::Undef,
                Lat::Over => return Lat::Over,
                Lat::Const(c) => ops.push(c),
            }
        }
        let bits = match inst.ty {
            Type::Void => return Lat::Over,
            ref t if t.is_int() || *t == Type::Ptr => {
                if *t == Type::Ptr {
                    64
                } else {
                    t.bits()
                }
            }
            _ => return Lat::Over,
        };
        let src_bits = |e: &Engine, v: ValueId| -> u32 {
            let t = e.f.value_type(v);
            if t == Type::Ptr {
                64
            } else if t.is_int() {
                t.bits()
            } else {
                0
            }
        };
        let r = match inst.op {
            Opcode::Add => ops[0].wrapping_add(ops[1]),
            Opcode::Sub => ops[0].wrapping_sub(ops[1]),
            Opcode::Mul => ops[0].wrapping_mul(ops[1]),
            Opcode::SDiv => {
                if ops[1] == 0 {
                    return Lat::Over;
                }
                ops[0].wrapping_div(ops[1])
            }
            Opcode::SRem => {
                if ops[1] == 0 {
                    return Lat::Over;
                }
                ops[0].wrapping_rem(ops[1])
            }
            Opcode::UDiv => {
                if ops[1] == 0 {
                    return Lat::Over;
                }
                (uns(ops[0], bits) / uns(ops[1], bits)) as i128
            }
            Opcode::URem => {
                if ops[1] == 0 {
                    return Lat::Over;
                }
                (uns(ops[0], bits) % uns(ops[1], bits)) as i128
            }
            Opcode::And => ops[0] & ops[1],
            Opcode::Or => ops[0] | ops[1],
            Opcode::Xor => ops[0] ^ ops[1],
            Opcode::Shl => {
                let k = uns(ops[1], bits);
                if k >= 128 {
                    return Lat::Over;
                }
                ops[0].wrapping_shl(k as u32)
            }
            Opcode::LShr => {
                let k = uns(ops[1], bits);
                if k >= bits as u128 {
                    return Lat::Over;
                }
                (uns(ops[0], bits) >> k) as i128
            }
            Opcode::AShr => {
                let k = uns(ops[1], bits);
                if k >= bits as u128 {
                    return Lat::Over;
                }
                ops[0] >> k
            }
            Opcode::ICmp(pred) => {
                let sb = src_bits(self, inst.operands[0]);
                let (a, b) = (ops[0], ops[1]);
                let (ua, ub) = (uns(a, sb), uns(b, sb));
                let t = match pred {
                    IntPredicate::Eq => a == b,
                    IntPredicate::Ne => a != b,
                    IntPredicate::Slt => a < b,
                    IntPredicate::Sle => a <= b,
                    IntPredicate::Sgt => a > b,
                    IntPredicate::Sge => a >= b,
                    IntPredicate::Ult => ua < ub,
                    IntPredicate::Ule => ua <= ub,
                    IntPredicate::Ugt => ua > ub,
                    IntPredicate::Uge => ua >= ub,
                };
                t as i128
            }
            Opcode::Trunc => ops[0],
            Opcode::SExt => ops[0],
            // ZExt reinterprets the *source* width unsigned.
            Opcode::ZExt => uns(ops[0], src_bits(self, inst.operands[0])) as i128,
            Opcode::BitCast | Opcode::PtrToInt | Opcode::IntToPtr => ops[0],
            _ => return Lat::Over,
        };
        Lat::Const(sext(r, bits))
    }

    fn eval_phi(&mut self, iid: InstId, inst: &salam_ir::Inst) -> Lat {
        let b = self.block_of[iid.index()];
        let mut acc = Lat::Undef;
        for (k, &inc) in inst.operands.iter().enumerate() {
            let pred = inst.block_refs[k];
            // Only incomings along executable edges participate.
            let Some(term) = self.f.terminator(pred) else {
                continue;
            };
            let executable_edge = self
                .f
                .inst(term)
                .block_refs
                .iter()
                .enumerate()
                .any(|(s, &t)| t == b && self.edges.contains(&(pred, s)));
            if !executable_edge {
                continue;
            }
            let v = self.value(inc);
            acc.join(&v);
            if acc == Lat::Over {
                break;
            }
        }
        acc
    }
}

/// Runs SCCP over `f` with arguments bound to `args`.
pub fn sccp(f: &Function, args: &[RtVal]) -> Sccp {
    Engine::new(f, args).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_ir::FunctionBuilder;

    #[test]
    fn folds_through_arithmetic_and_branches() {
        // if (4 * 2 > 7) { x = 3 } else { x = 9 }; y = x + 1
        let mut fb = FunctionBuilder::new("fold", &[("n", Type::I64)]);
        let four = fb.i64c(4);
        let two = fb.i64c(2);
        let seven = fb.i64c(7);
        let prod = fb.mul(four, two, "prod");
        let cmp = fb.icmp(IntPredicate::Sgt, prod, seven, "cmp");
        let then_b = fb.add_block("then");
        let else_b = fb.add_block("else");
        let join_b = fb.add_block("join");
        fb.cond_br(cmp, then_b, else_b);
        fb.position_at(then_b);
        let three = fb.i64c(3);
        fb.br(join_b);
        fb.position_at(else_b);
        let nine = fb.i64c(9);
        fb.br(join_b);
        fb.position_at(join_b);
        let (phi_id, x) = fb.phi(Type::I64, "x");
        fb.add_incoming(phi_id, three, then_b);
        fb.add_incoming(phi_id, nine, else_b);
        let one = fb.i64c(1);
        let y = fb.add(x, one, "y");
        fb.ret();
        let f = fb.finish();

        let s = sccp(&f, &[RtVal::I(0)]);
        // The false arm is dead, so the phi folds to 3 and y to 4.
        assert!(!s.executable.contains(&else_b));
        assert_eq!(s.const_of(x), Some(3));
        assert_eq!(s.const_of(y), Some(4));
    }

    #[test]
    fn loop_iv_goes_overdefined_but_bound_folds() {
        let mut fb = FunctionBuilder::new("looped", &[("n", Type::I64)]);
        let n = fb.arg(0);
        let zero = fb.i64c(0);
        let eight = fb.i64c(8);
        let bound = fb.mul(n, eight, "bound");
        let mut iv_val = None;
        fb.counted_loop("i", zero, bound, |_, iv| iv_val = Some(iv));
        fb.ret();
        let f = fb.finish();

        let s = sccp(&f, &[RtVal::I(4)]);
        assert_eq!(s.const_of(bound), Some(32));
        assert_eq!(s.const_of(iv_val.unwrap()), None);
        // All blocks of a data-entered loop are executable.
        assert_eq!(s.executable.len(), f.num_blocks());
    }
}
