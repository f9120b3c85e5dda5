//! # salam-verify
//!
//! Static verification for the SALAM pipeline: everything that can be
//! proven about an accelerator **before** burning simulation cycles on it.
//!
//! The paper's static elaboration (§2) derives the datapath from the IR
//! alone; this crate extends that idea to *checking* — three layers, all
//! reporting through one [`Diagnostic`] currency with stable codes:
//!
//! * [`ir`] — the findings of `salam-ir`'s one IR walk (SSA/dominance,
//!   type and CFG well-formedness, unreachable-block and dead-value
//!   lints) as diagnostics (`V001`–`V007`).
//! * [`memdep`] — the dynamic loop-carried dependence profiler shared
//!   with the HLS scheduler, and the static memory lints, which read
//!   `salam-flow`'s loop nest, induction variables and per-access affine
//!   forms and ranges: RAW/WAR/WAW hazards (`M001`/`M002`), one bounds
//!   check for exact (`M003`) and range-proven (`F001`) out-of-bounds
//!   accesses, and shared-SPM write races (`M004`).
//! * [`schedule`] — ASAP/ALAP levels over the static CDFG and a provable
//!   lower bound on dynamic cycles (`static_lower_bound ≤ dynamic
//!   cycles`, the correctness oracle cross-checked in tests), plus the
//!   watchdog cross-check (`S001`) and the flow-tightened
//!   [`flow_lower_bound`] that folds loop-recurrence floors into the
//!   bound using `salam-flow` trip counts.
//! * [`sarif`] — SARIF 2.1.0 export of any diagnostic batch, for IDE
//!   and code-scanning integrations.
//!
//! Consumers: the `salam_lint` CLI renders diagnostics as a table or
//! JSON; `salam-core` gates standalone/cluster runs on `verify = true`;
//! `salam-dse` rejects invalid sweep points as `invalid:<code>` rows
//! without simulating them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod ir;
pub mod memdep;
pub mod sarif;
pub mod schedule;

pub use diag::{
    codes, error_count, errors_only, explain, to_json, warning_count, Diagnostic, Severity, Span,
};
pub use ir::{verify_ir, verify_module};
pub use memdep::{
    check_bounds, check_shared_spm, profile_memdeps, static_memdeps, DepEdge, DepKind, MemDeps,
    MemRegion, StaticDeps,
};
pub use sarif::to_sarif;
pub use schedule::{
    check_schedule, flow_lower_bound, static_lower_bound, BlockBound, BoundConfig, BoundReport,
    FlowBoundReport, LoopBound, OpSlack,
};

use salam_ir::Function;

/// Parses textual IR and verifies every function in it. A parse failure
/// surfaces as the single `P001` diagnostic in `Err`; a parseable module
/// returns alongside whatever the verifier found.
///
/// # Errors
///
/// The `P001` diagnostic wrapping the parse error.
pub fn parse_and_verify(text: &str) -> Result<(salam_ir::Module, Vec<Diagnostic>), Diagnostic> {
    let m = salam_ir::parse_module(text).map_err(Diagnostic::from)?;
    let diags = verify_module(&m);
    Ok((m, diags))
}

/// The pre-run gate used by `salam-core`: verifies the IR and returns the
/// error-severity findings, if any. Warnings and infos never block a run.
pub fn gate(f: &Function) -> Result<(), Vec<Diagnostic>> {
    let errors = errors_only(verify_ir(f));
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_ir::{FunctionBuilder, Type};

    #[test]
    fn gate_accepts_well_formed_ir() {
        let mut fb = FunctionBuilder::new("ok", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let v = fb.load(Type::I64, p, "v");
        fb.store(v, p);
        fb.ret();
        assert!(gate(&fb.finish()).is_ok());
    }
}
