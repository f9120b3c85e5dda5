//! The IR verifier as diagnostics: SSA, dominance, types, CFG structure,
//! and dead-code lints — every violation collected, not just the first.
//!
//! The walk itself is [`salam_ir::check_function`], the same one behind
//! the fail-fast [`salam_ir::verify_function`]; this module only maps
//! each finding's [`IrRule`] to a stable code and its block to a
//! [`Span`]. A function that passes here with no errors elaborates into a
//! well-defined CDFG.

use salam_ir::{check_function, Function, IrRule, Module};

use crate::diag::{codes, Diagnostic, Severity, Span};

/// Verifies every function of a module.
pub fn verify_module(m: &Module) -> Vec<Diagnostic> {
    m.functions().iter().flat_map(verify_ir).collect()
}

/// The stable code of each IR rule.
fn rule_code(rule: IrRule) -> &'static str {
    match rule {
        IrRule::Dominance => codes::V001,
        IrRule::Types => codes::V002,
        IrRule::Structure => codes::V003,
        IrRule::PhiEdges => codes::V004,
        IrRule::Unreachable => codes::V005,
        IrRule::DeadValue => codes::V006,
        IrRule::CastWidth => codes::V007,
    }
}

/// Verifies one function, collecting every violation and lint finding.
///
/// Checks and their codes:
/// * `V003` — reachable block empty, terminator not last (or missing),
///   phi not at block head, phi in the entry block;
/// * `V002` — operand/result types do not match the opcode;
/// * `V007` — integer cast does not narrow/widen as required;
/// * `V001` — a use is not dominated by its definition (including
///   use-before-def within a block and uses of dead ids);
/// * `V004` — phi incoming blocks differ from the CFG predecessors;
/// * `V005` *(warning)* — block unreachable from entry;
/// * `V006` *(warning)* — an instruction result is never used.
pub fn verify_ir(f: &Function) -> Vec<Diagnostic> {
    check_function(f)
        .into_iter()
        .map(|x| {
            let severity = if x.rule.is_error() {
                Severity::Error
            } else {
                Severity::Warning
            };
            let span = Span::block(&f.name, &f.block(x.block).name);
            Diagnostic::new(severity, rule_code(x.rule), span, x.message)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{error_count, explain};
    use salam_ir::{FunctionBuilder, Type};

    #[test]
    fn wellformed_loop_is_clean_of_errors() {
        let mut fb = FunctionBuilder::new("ok", &[("a", Type::Ptr), ("n", Type::I64)]);
        let a = fb.arg(0);
        let n = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let p = fb.gep1(Type::I64, a, iv, "p");
            fb.store(iv, p);
        });
        fb.ret();
        let diags = verify_ir(&fb.finish());
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn collects_multiple_violations_in_one_pass() {
        // A non-dominated use AND a dead value AND an unreachable block,
        // all reported together.
        let mut fb = FunctionBuilder::new("multi", &[("x", Type::I32), ("c", Type::I1)]);
        let x = fb.arg(0);
        let c = fb.arg(1);
        let then_b = fb.add_block("then");
        let else_b = fb.add_block("else");
        let join = fb.add_block("join");
        fb.cond_br(c, then_b, else_b);
        fb.position_at(then_b);
        let a = fb.add(x, x, "a"); // defined only on the `then` path
        fb.br(join);
        fb.position_at(else_b);
        fb.br(join);
        fb.position_at(join);
        let _dead = fb.add(a, x, "dead"); // uses non-dominating `a`; result unused
        fb.ret();
        let _orphan = fb.add_block("orphan");
        let diags = verify_ir(&fb.finish());
        let codes_seen: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::V001), "{diags:?}");
        assert!(codes_seen.contains(&codes::V005), "{diags:?}");
        assert!(codes_seen.contains(&codes::V006), "{diags:?}");
        // V003: the orphan block is empty but unreachable, so no V003.
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn all_machsuite_kernels_have_no_errors() {
        for bench in machsuite::Bench::ALL {
            let k = bench.build_standard();
            let diags = verify_ir(&k.func);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", k.name);
        }
    }

    #[test]
    fn explain_names_the_severity_each_rule_is_emitted_at() {
        for rule in [
            IrRule::Dominance,
            IrRule::Types,
            IrRule::Structure,
            IrRule::PhiEdges,
            IrRule::Unreachable,
            IrRule::DeadValue,
            IrRule::CastWidth,
        ] {
            let severity = if rule.is_error() { "error" } else { "warning" };
            let code = rule_code(rule);
            let text = explain(code).unwrap_or_else(|| panic!("{code} has no explanation"));
            let head = text.lines().next().unwrap();
            assert!(head.ends_with(&format!("({severity})")), "{code}: {head}");
        }
    }
}
