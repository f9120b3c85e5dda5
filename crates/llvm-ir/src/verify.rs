//! IR well-formedness checks: structure, types, SSA dominance, and the
//! unreachable-block and dead-value lints.
//!
//! [`check_function`] is the one walk: it collects every [`Finding`], each
//! tagged with the [`IrRule`] it breaks. [`verify_function`] is its
//! fail-fast view (the first error), and `salam-verify` maps the rules to
//! its stable diagnostic codes.

use std::collections::HashMap;

use crate::analysis::{Cfg, DomTree};
use crate::function::{BlockId, Function, InstId};
use crate::inst::Opcode;
use crate::types::Type;
use crate::value::{ValueId, ValueKind};

/// An error found by [`verify_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function in which the error was found.
    pub function: String,
    /// Description of the violation.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verification of @{} failed: {}",
            self.function, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// The rule a [`Finding`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrRule {
    /// A use is not dominated by its definition (including use-before-def
    /// within a block and uses of dead ids).
    Dominance,
    /// Operand count or operand/result types do not match the opcode.
    Types,
    /// A reachable block is empty, its terminator is not last (or
    /// missing), a phi is not at the block head, or the entry has a phi.
    Structure,
    /// A phi's incoming blocks differ from the CFG predecessors.
    PhiEdges,
    /// A block is unreachable from the entry (lint).
    Unreachable,
    /// An instruction result is never used (lint).
    DeadValue,
    /// An integer cast does not narrow/widen as its opcode requires.
    CastWidth,
}

impl IrRule {
    /// Whether a finding of this rule makes the IR ill-formed; the two
    /// lints do not.
    pub fn is_error(self) -> bool {
        !matches!(self, IrRule::Unreachable | IrRule::DeadValue)
    }
}

/// One violation found by [`check_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule broken.
    pub rule: IrRule,
    /// The block it was found in.
    pub block: BlockId,
    /// Description of the violation.
    pub message: String,
}

/// Checks a function for structural, type, and SSA violations.
///
/// # Errors
///
/// Returns the first [`check_function`] finding whose rule is an error.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    match check_function(f).into_iter().find(|x| x.rule.is_error()) {
        None => Ok(()),
        Some(x) => Err(VerifyError {
            function: f.name.clone(),
            message: format!("in %{}: {}", f.block(x.block).name, x.message),
        }),
    }
}

/// Walks a function once and collects every finding, in this order:
/// structure and unreachable blocks, the entry phi, then per instruction
/// its types, the dominance of its operands and its phi edges, and last
/// the dead values. Unreachable blocks get only the lint: passes may
/// leave them half-built.
pub fn check_function(f: &Function) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flag = |rule, block, message: String| {
        out.push(Finding {
            rule,
            block,
            message,
        })
    };
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);

    for (bid, b) in f.blocks() {
        if !cfg.is_reachable(bid) {
            flag(
                IrRule::Unreachable,
                bid,
                "block is unreachable from entry".into(),
            );
            continue;
        }
        if b.insts.is_empty() {
            flag(IrRule::Structure, bid, "block is empty".into());
            continue;
        }
        for (i, &inst_id) in b.insts.iter().enumerate() {
            let is_last = i + 1 == b.insts.len();
            let inst = f.inst(inst_id);
            if inst.op.is_terminator() != is_last {
                flag(
                    IrRule::Structure,
                    bid,
                    format!("terminator placement violated at instruction {i}"),
                );
            }
            if inst.op == Opcode::Phi && i > 0 && f.inst(b.insts[i - 1]).op != Opcode::Phi {
                flag(IrRule::Structure, bid, "phi not at block head".into());
            }
        }
    }

    // The entry has no predecessors, so it must not contain phis.
    let entry = f.entry();
    if f.block(entry)
        .insts
        .iter()
        .any(|&i| f.inst(i).op == Opcode::Phi)
    {
        flag(
            IrRule::Structure,
            entry,
            "entry block contains a phi".into(),
        );
    }

    // Defining block and in-block position of every instruction result.
    let mut def_site: HashMap<ValueId, (BlockId, usize)> = HashMap::new();
    let mut used: HashMap<ValueId, u32> = HashMap::new();
    for (bid, b) in f.blocks() {
        for (i, &inst_id) in b.insts.iter().enumerate() {
            if let Some(v) = f.inst_result(inst_id) {
                def_site.insert(v, (bid, i));
            }
            for &op in &f.inst(inst_id).operands {
                *used.entry(op).or_insert(0) += 1;
            }
        }
    }

    for (bid, b) in f.blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for (pos, &inst_id) in b.insts.iter().enumerate() {
            check_types(f, inst_id, bid, &mut flag);
            let inst = f.inst(inst_id);

            // SSA dominance of every instruction-operand.
            for (k, &op) in inst.operands.iter().enumerate() {
                let ValueKind::Inst(_) = f.value_kind(op) else {
                    continue;
                };
                let Some(&(def_block, def_pos)) = def_site.get(&op) else {
                    flag(
                        IrRule::Dominance,
                        bid,
                        "use of value without live definition".into(),
                    );
                    continue;
                };
                if inst.op == Opcode::Phi {
                    // A phi use must be dominated at the end of the
                    // incoming edge, not at the phi itself.
                    let Some(&incoming) = inst.block_refs.get(k) else {
                        continue; // arity reported as a phi-edge finding
                    };
                    if !dom.dominates(def_block, incoming) {
                        flag(
                            IrRule::Dominance,
                            bid,
                            "phi uses value not dominating its incoming block".into(),
                        );
                    }
                } else if def_block == bid {
                    if def_pos >= pos {
                        flag(IrRule::Dominance, bid, "use before def within block".into());
                    }
                } else if !dom.dominates(def_block, bid) {
                    flag(
                        IrRule::Dominance,
                        bid,
                        "use not dominated by definition".into(),
                    );
                }
            }

            // Phi incoming edges must match the CFG predecessors.
            if inst.op == Opcode::Phi {
                let mut preds: Vec<BlockId> = cfg.predecessors(bid).to_vec();
                preds.sort();
                preds.dedup();
                let mut incoming: Vec<BlockId> = inst.block_refs.clone();
                incoming.sort();
                incoming.dedup();
                if preds != incoming {
                    flag(
                        IrRule::PhiEdges,
                        bid,
                        "phi incoming blocks do not match predecessors".into(),
                    );
                }
            }
        }
    }

    // Dead-value lint: a result no instruction ever reads. Reachable
    // blocks only — an unreachable block already has its own finding.
    for (bid, b) in f.blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for &inst_id in &b.insts {
            let inst = f.inst(inst_id);
            if let Some(v) = f.inst_result(inst_id) {
                if used.get(&v).copied().unwrap_or(0) == 0 {
                    let name = if inst.name.is_empty() {
                        "_"
                    } else {
                        &inst.name
                    };
                    flag(
                        IrRule::DeadValue,
                        bid,
                        format!("result of {} `%{name}` is never used", inst.op.mnemonic()),
                    );
                }
            }
        }
    }

    out
}

/// Per-opcode operand-count and type rules of one instruction.
fn check_types(
    f: &Function,
    inst_id: InstId,
    bid: BlockId,
    flag: &mut impl FnMut(IrRule, BlockId, String),
) {
    let inst = f.inst(inst_id);
    let ops = &inst.operands;
    let opty = |i: usize| f.value_type(ops[i]);
    let mut type_err = |msg: &str| flag(IrRule::Types, bid, msg.to_string());
    // Arity first; a wrong count makes the type checks below meaningless.
    let arity: Option<usize> = match &inst.op {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::UDiv
        | Opcode::SDiv
        | Opcode::URem
        | Opcode::SRem
        | Opcode::Shl
        | Opcode::LShr
        | Opcode::AShr
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv
        | Opcode::ICmp(_)
        | Opcode::FCmp(_)
        | Opcode::Store => Some(2),
        Opcode::FNeg
        | Opcode::Load
        | Opcode::Trunc
        | Opcode::ZExt
        | Opcode::SExt
        | Opcode::FPTrunc
        | Opcode::FPExt
        | Opcode::FPToSI
        | Opcode::FPToUI
        | Opcode::SIToFP
        | Opcode::UIToFP
        | Opcode::BitCast
        | Opcode::PtrToInt
        | Opcode::IntToPtr
        | Opcode::CondBr => Some(1),
        Opcode::Select => Some(3),
        Opcode::Br => Some(0),
        Opcode::Gep { .. } | Opcode::Phi | Opcode::Ret => None,
    };
    if let Some(n) = arity {
        if ops.len() != n {
            let mnemonic = inst.op.mnemonic();
            type_err(&format!(
                "{mnemonic} expects {n} operands, has {}",
                ops.len()
            ));
            return;
        }
    }

    match &inst.op {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::UDiv
        | Opcode::SDiv
        | Opcode::URem
        | Opcode::SRem
        | Opcode::Shl
        | Opcode::LShr
        | Opcode::AShr
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor => {
            if !opty(0).is_int() || opty(0) != opty(1) || inst.ty != opty(0) {
                let mnemonic = inst.op.mnemonic();
                type_err(&format!("integer binary op type mismatch ({mnemonic})"));
            }
        }
        Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
            if !opty(0).is_float() || opty(0) != opty(1) || inst.ty != opty(0) {
                let mnemonic = inst.op.mnemonic();
                type_err(&format!("float binary op type mismatch ({mnemonic})"));
            }
        }
        Opcode::FNeg => {
            if !opty(0).is_float() || inst.ty != opty(0) {
                type_err("fneg type mismatch");
            }
        }
        Opcode::ICmp(_) => {
            let t = opty(0);
            if !(t.is_int() || t.is_ptr()) || t != opty(1) || inst.ty != Type::I1 {
                type_err("icmp type mismatch");
            }
        }
        Opcode::FCmp(_) => {
            if !opty(0).is_float() || opty(0) != opty(1) || inst.ty != Type::I1 {
                type_err("fcmp type mismatch");
            }
        }
        Opcode::Load => {
            if !opty(0).is_ptr() {
                type_err("load from non-pointer");
            }
            if inst.ty == Type::Void {
                type_err("load of void");
            }
        }
        Opcode::Store => {
            if !opty(1).is_ptr() {
                type_err("store to non-pointer");
            }
        }
        Opcode::Gep { .. } => {
            if ops.is_empty() {
                type_err("gep needs a pointer operand");
                return;
            }
            if !opty(0).is_ptr() || inst.ty != Type::Ptr {
                type_err("gep pointer type mismatch");
            }
            for i in 1..ops.len() {
                if !opty(i).is_int() {
                    type_err("gep index not an integer");
                }
            }
        }
        Opcode::Trunc | Opcode::ZExt | Opcode::SExt => {
            if !opty(0).is_int() || !inst.ty.is_int() {
                type_err("integer cast on non-integer");
                return;
            }
            let (from, to) = (opty(0).bits(), inst.ty.bits());
            let ok = match inst.op {
                Opcode::Trunc => to < from,
                _ => to > from,
            };
            if !ok {
                let mnemonic = inst.op.mnemonic();
                let msg = format!("bad cast width {from} -> {to} for {mnemonic}");
                flag(IrRule::CastWidth, bid, msg);
            }
        }
        Opcode::FPTrunc | Opcode::FPExt => {
            if !opty(0).is_float() || !inst.ty.is_float() {
                type_err("float cast on non-float");
            }
        }
        Opcode::FPToSI | Opcode::FPToUI => {
            if !opty(0).is_float() || !inst.ty.is_int() {
                type_err("fp-to-int cast type mismatch");
            }
        }
        Opcode::SIToFP | Opcode::UIToFP => {
            if !opty(0).is_int() || !inst.ty.is_float() {
                type_err("int-to-fp cast type mismatch");
            }
        }
        Opcode::BitCast => {
            if opty(0).size_bytes() != inst.ty.size_bytes() {
                type_err("bitcast width mismatch");
            }
        }
        Opcode::PtrToInt => {
            if !opty(0).is_ptr() || !inst.ty.is_int() {
                type_err("ptrtoint type mismatch");
            }
        }
        Opcode::IntToPtr => {
            if !opty(0).is_int() || !inst.ty.is_ptr() {
                type_err("inttoptr type mismatch");
            }
        }
        Opcode::Phi => {
            if ops.len() != inst.block_refs.len() || ops.is_empty() {
                let msg = "phi operand/block arity mismatch".to_string();
                flag(IrRule::PhiEdges, bid, msg);
                return;
            }
            for &v in ops {
                if f.value_type(v) != inst.ty {
                    type_err("phi incoming type mismatch");
                }
            }
        }
        Opcode::Select => {
            if opty(0) != Type::I1 || opty(1) != opty(2) || inst.ty != opty(1) {
                type_err("select type mismatch");
            }
        }
        Opcode::Br => {
            if inst.block_refs.len() != 1 {
                let msg = "br must have exactly one target".to_string();
                flag(IrRule::Structure, bid, msg);
            }
        }
        Opcode::CondBr => {
            if inst.block_refs.len() != 2 || opty(0) != Type::I1 {
                type_err("condbr arity/type mismatch");
            }
        }
        Opcode::Ret => {
            if ops.len() > 1 {
                type_err("ret with multiple values");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Inst;
    use crate::value::Constant;

    #[test]
    fn accepts_wellformed_loop() {
        let mut fb = FunctionBuilder::new("ok", &[("a", Type::Ptr), ("n", Type::I64)]);
        let a = fb.arg(0);
        let n = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let p = fb.gep1(Type::I64, a, iv, "p");
            fb.store(iv, p);
        });
        fb.ret();
        assert!(verify_function(&fb.finish()).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut f = Function::new("bad", vec![]);
        let entry = f.entry();
        let c = f.const_value(Constant::i32(1));
        f.add_inst(
            entry,
            Inst {
                op: Opcode::Add,
                ty: Type::I32,
                operands: vec![c, c],
                block_refs: vec![],
                name: "x".into(),
            },
        );
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut f = Function::new("bad", vec![]);
        let entry = f.entry();
        let ci = f.const_value(Constant::i32(1));
        let cf = f.const_value(Constant::f32(1.0));
        f.add_inst(
            entry,
            Inst {
                op: Opcode::Add,
                ty: Type::I32,
                operands: vec![ci, cf],
                block_refs: vec![],
                name: "x".into(),
            },
        );
        f.add_inst(
            entry,
            Inst {
                op: Opcode::Ret,
                ty: Type::Void,
                operands: vec![],
                block_refs: vec![],
                name: String::new(),
            },
        );
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("type mismatch"), "{err}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut fb = FunctionBuilder::new("bad", &[("x", Type::I32)]);
        let x = fb.arg(0);
        // Build a legitimate function first, then scramble the block order.
        let a = fb.add(x, x, "a");
        let b = fb.add(a, x, "b");
        let _ = b;
        fb.ret();
        let mut f = fb.finish();
        // Swap the two adds so `b` uses `a` before its definition.
        let entry = f.entry();
        f.blocks[entry.index()].insts.swap(0, 1);
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("use before def"), "{err}");
    }

    #[test]
    fn rejects_phi_in_entry() {
        let mut f = Function::new("bad", vec![]);
        let entry = f.entry();
        let c = f.const_value(Constant::i32(0));
        f.add_inst(
            entry,
            Inst {
                op: Opcode::Phi,
                ty: Type::I32,
                operands: vec![c],
                block_refs: vec![entry],
                name: "p".into(),
            },
        );
        f.add_inst(
            entry,
            Inst {
                op: Opcode::Ret,
                ty: Type::Void,
                operands: vec![],
                block_refs: vec![],
                name: String::new(),
            },
        );
        let err = verify_function(&f).unwrap_err();
        assert!(err.message.contains("entry block contains a phi"), "{err}");
    }

    #[test]
    fn rejects_bad_cast_width() {
        let mut fb = FunctionBuilder::new("bad", &[("x", Type::I32)]);
        let x = fb.arg(0);
        let t = fb.trunc(x, Type::I64, "t"); // trunc to a *wider* type
        let _ = t;
        fb.ret();
        let err = verify_function(&fb.finish()).unwrap_err();
        assert!(err.message.contains("bad cast width"), "{err}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut fb = FunctionBuilder::new("bad", &[("n", Type::I64)]);
        let next = fb.add_block("next");
        fb.br(next);
        fb.position_at(next);
        let (phi, _) = fb.phi(Type::I64, "p");
        let n = fb.arg(0);
        // Claim the incoming edge is from `next` itself, which is not a pred.
        fb.add_incoming(phi, n, next);
        fb.ret();
        let err = verify_function(&fb.finish()).unwrap_err();
        assert!(err.message.contains("do not match predecessors"), "{err}");
    }
}
