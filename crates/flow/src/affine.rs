//! Affine address forms over counted induction variables.
//!
//! An address folds to `base + Σ stride·phi` when add, sub, mul or shl by
//! a constant, width casts and `getelementptr` build it from constants and
//! phis. Its leaves are [SCCP](crate::sccp) constants (which include every
//! integer literal and bound argument), so a value computed from scalar
//! arguments folds too, wrapped to its type as it would be at run time. A
//! phi is a symbol of its own, even where SCCP proves it constant: the IV
//! of a loop that never runs stays a term. Arithmetic is checked, so a
//! form whose base or stride overflows stays unresolved.
//!
//! Where every term is a counted induction variable from
//! [trip inference](crate::trips) that runs at least once, the form gives
//! the access's exact footprint.

use std::collections::BTreeMap;

use salam_ir::{Function, Opcode, Type, ValueId, ValueKind};

use crate::sccp::Sccp;
use crate::trips::IvFact;

/// An address as `base + Σ stride·phi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// The constant part.
    pub base: i128,
    /// `(phi value, stride)`, sorted by value id, strides nonzero.
    pub terms: Vec<(ValueId, i64)>,
}

impl Affine {
    fn constant(base: i128) -> Self {
        Affine {
            base,
            terms: Vec::new(),
        }
    }

    fn as_constant(&self) -> Option<i128> {
        self.terms.is_empty().then_some(self.base)
    }

    /// `self + sign·other`, terms merged; `None` on overflow.
    fn add(&self, other: &Affine, sign: i64) -> Option<Affine> {
        let mut terms = self.terms.clone();
        for &(v, s) in &other.terms {
            terms.push((v, s.checked_mul(sign)?));
        }
        terms.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(ValueId, i64)> = Vec::with_capacity(terms.len());
        for (v, s) in terms {
            match merged.last_mut() {
                Some((lv, ls)) if *lv == v => *ls = ls.checked_add(s)?,
                _ => merged.push((v, s)),
            }
        }
        merged.retain(|&(_, s)| s != 0);
        Some(Affine {
            base: self
                .base
                .checked_add(other.base.checked_mul(sign.into())?)?,
            terms: merged,
        })
    }

    /// `k·self`; `None` on overflow.
    fn scale(&self, k: i128) -> Option<Affine> {
        let k64 = i64::try_from(k).ok()?;
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(v, s) in &self.terms {
            if k64 != 0 {
                terms.push((v, s.checked_mul(k64)?));
            }
        }
        Some(Affine {
            base: self.base.checked_mul(k)?,
            terms,
        })
    }

    /// The exact `[lo, hi)` footprint of a `size`-byte access at this
    /// address, when every term is a counted IV in `ivs` that runs at
    /// least once.
    pub fn exact(&self, ivs: &BTreeMap<ValueId, IvFact>, size: u64) -> Option<(i128, i128)> {
        let (mut lo, mut hi) = (self.base, self.base);
        for &(v, s) in &self.terms {
            let r = ivs.get(&v).filter(|r| r.count > 0)?;
            let (c0, c1) = (
                i128::from(s).checked_mul(r.start)?,
                i128::from(s).checked_mul(r.last())?,
            );
            lo = lo.checked_add(c0.min(c1))?;
            hi = hi.checked_add(c0.max(c1))?;
        }
        Some((lo, hi.checked_add(size.into())?))
    }
}

/// Folds values of one function to affine forms, each once.
pub(crate) struct Folder<'a> {
    f: &'a Function,
    sccp: &'a Sccp,
    memo: Vec<Option<Option<Affine>>>,
}

impl<'a> Folder<'a> {
    pub(crate) fn new(f: &'a Function, sccp: &'a Sccp) -> Self {
        Folder {
            f,
            sccp,
            memo: vec![None; f.num_values()],
        }
    }

    /// The affine form of `v`, or `None` when it depends on memory,
    /// floats, unbound arguments or non-affine arithmetic.
    pub(crate) fn fold(&mut self, v: ValueId) -> Option<Affine> {
        if let Some(known) = &self.memo[v.index()] {
            return known.clone();
        }
        let form = self.fold_uncached(v);
        self.memo[v.index()] = Some(form.clone());
        form
    }

    fn fold_uncached(&mut self, v: ValueId) -> Option<Affine> {
        let ValueKind::Inst(id) = *self.f.value_kind(v) else {
            return self.sccp.const_of(v).map(Affine::constant);
        };
        let inst = self.f.inst(id);
        if inst.op == Opcode::Phi {
            return Some(Affine {
                base: 0,
                terms: vec![(v, 1)],
            });
        }
        if let Some(c) = self.sccp.const_of(v) {
            return Some(Affine::constant(c));
        }
        let ops = &inst.operands;
        match &inst.op {
            Opcode::Add => self.fold(ops[0])?.add(&self.fold(ops[1])?, 1),
            Opcode::Sub => self.fold(ops[0])?.add(&self.fold(ops[1])?, -1),
            Opcode::Mul => {
                let (a, b) = (self.fold(ops[0])?, self.fold(ops[1])?);
                match (a.as_constant(), b.as_constant()) {
                    (_, Some(k)) => a.scale(k),
                    (Some(k), _) => b.scale(k),
                    _ => None,
                }
            }
            Opcode::Shl => {
                let k = self.fold(ops[1])?.as_constant()?;
                let a = self.fold(ops[0])?;
                (0..=62).contains(&k).then(|| a.scale(1 << k))?
            }
            // Width changes are treated as value-preserving; address
            // arithmetic in well-typed kernels never wraps.
            Opcode::SExt
            | Opcode::ZExt
            | Opcode::Trunc
            | Opcode::BitCast
            | Opcode::PtrToInt
            | Opcode::IntToPtr => self.fold(ops[0]),
            Opcode::Gep { elem } => {
                let mut addr = self.fold(ops[0])?;
                let mut cur: Type = elem.clone();
                for (k, &idx) in ops[1..].iter().enumerate() {
                    if k > 0 {
                        let Type::Array { elem, .. } = cur else {
                            return None;
                        };
                        cur = *elem;
                    }
                    let i = self.fold(idx)?;
                    addr = addr.add(&i.scale(cur.size_bytes().into())?, 1)?;
                }
                Some(addr)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sccp::sccp;
    use crate::trips::infer_trips;
    use salam_ir::interp::RtVal;
    use salam_ir::FunctionBuilder;

    #[test]
    fn strided_addresses_fold_to_exact_footprints() {
        // for i in 0..4 { a[(i << 1) + 3] }: a[3], a[5], a[7], a[9].
        let mut fb = FunctionBuilder::new("k", &[("a", Type::Ptr), ("n", Type::I64)]);
        let (a, n) = (fb.arg(0), fb.arg(1));
        let zero = fb.i64c(0);
        let mut addr = None;
        fb.counted_loop("i", zero, n, |fb, iv| {
            let (one, three) = (fb.i64c(1), fb.i64c(3));
            let x = fb.shl(iv, one, "x");
            let y = fb.add(x, three, "y");
            let p = fb.gep1(Type::I64, a, y, "p");
            fb.load(Type::I64, p, "v");
            addr = Some(p);
        });
        fb.ret();
        let f = fb.finish();
        let s = sccp(&f, &[RtVal::P(0x1000), RtVal::I(4)]);
        let t = infer_trips(&f, &s);
        let form = Folder::new(&f, &s).fold(addr.unwrap()).unwrap();
        assert_eq!(form.base, 0x1000 + 24);
        assert_eq!(form.terms.iter().map(|t| t.1).collect::<Vec<_>>(), [16]);
        assert_eq!(form.exact(&t.ivs, 8), Some((0x1000 + 24, 0x1000 + 80)));
    }

    #[test]
    fn narrow_constants_wrap_as_at_run_time() {
        // `a + sext(i32 0x7fffffff + 1)` is `a - 2³¹`, not `a + 2³¹`.
        let mut fb = FunctionBuilder::new("w", &[("a", Type::Ptr)]);
        let a = fb.arg(0);
        let (max, one) = (fb.i32c(i32::MAX), fb.i32c(1));
        let x = fb.add(max, one, "x");
        let wide = fb.sext(x, Type::I64, "wide");
        let p = fb.gep1(Type::I8, a, wide, "p");
        fb.ret();
        let f = fb.finish();
        let s = sccp(&f, &[RtVal::P(1 << 40)]);
        let form = Folder::new(&f, &s).fold(p).unwrap();
        assert_eq!(form, Affine::constant((1 << 40) - (1 << 31)));
    }
}
