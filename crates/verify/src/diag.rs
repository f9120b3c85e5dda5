//! The one diagnostic currency every salam-verify pass reports through.
//!
//! A [`Diagnostic`] is a severity, a **stable code**, a source location
//! ([`Span`]) and a message. Codes never change meaning once shipped — CI
//! scripts, the DSE `invalid:<code>` rows and the `salam_lint` exit logic
//! all key on them. The full registry lives in [`codes`].

use std::fmt;

use salam_ir::{BuildError, ParseError};
use salam_obs::json::escape;

/// How bad a finding is. Ordering is `Info < Warning < Error`, so
/// `diags.iter().map(|d| d.severity).max()` yields the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy structure (e.g. a loop-carried recurrence that bounds II).
    Info,
    /// Suspicious but not certainly wrong; `--deny warnings` promotes these.
    Warning,
    /// A definite violation; gated runs refuse to start.
    Error,
}

impl Severity {
    /// Lowercase stable name (`info` / `warning` / `error`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a diagnostic points: the function and, when known, the block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Function name (empty for module- or config-level findings).
    pub function: String,
    /// Block name, when the finding is block-local.
    pub block: Option<String>,
}

impl Span {
    /// A function-level span.
    pub fn func(function: impl Into<String>) -> Self {
        Span {
            function: function.into(),
            block: None,
        }
    }

    /// A block-level span.
    pub fn block(function: impl Into<String>, block: impl Into<String>) -> Self {
        Span {
            function: function.into(),
            block: Some(block.into()),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            return f.write_str("<config>");
        }
        write!(f, "@{}", self.function)?;
        if let Some(b) = &self.block {
            write!(f, " %{b}")?;
        }
        Ok(())
    }
}

/// One finding from a static pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable code from [`codes`] (e.g. `V001`).
    pub code: &'static str,
    /// Where it points.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        severity: Severity,
        code: &'static str,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            code,
            span,
            message: message.into(),
        }
    }

    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, span, message)
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, span, message)
    }

    /// An [`Severity::Info`] diagnostic.
    pub fn info(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Info, code, span, message)
    }

    /// One JSON object (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"severity\":\"{}\",\"code\":\"{}\",\"function\":\"{}\",\"block\":{},\"message\":\"{}\"}}",
            self.severity,
            self.code,
            escape(&self.span.function),
            match &self.span.block {
                Some(b) => format!("\"{}\"", escape(b)),
                None => "null".to_string(),
            },
            escape(&self.message),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// Number of [`Severity::Error`] diagnostics.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Number of [`Severity::Warning`] diagnostics.
pub fn warning_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count()
}

/// Keeps only the errors (the set a pre-run gate rejects on).
pub fn errors_only(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// A JSON array of diagnostics.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Parse failures surface as `P001` errors at module scope.
impl From<ParseError> for Diagnostic {
    fn from(e: ParseError) -> Self {
        Diagnostic::error(
            codes::P001,
            Span::default(),
            format!("parse error at line {}: {}", e.line, e.message),
        )
    }
}

/// Builder misuse surfaces as `B001` errors.
impl From<BuildError> for Diagnostic {
    fn from(e: BuildError) -> Self {
        Diagnostic::error(codes::B001, Span::default(), e.message)
    }
}

/// The stable code registry. A code is never reused for a different
/// meaning; new checks get new codes.
pub mod codes {
    /// SSA violation: use before def / use not dominated by definition.
    pub const V001: &str = "V001";
    /// Operand or result type mismatch for an opcode.
    pub const V002: &str = "V002";
    /// CFG structure: terminator placement, empty block, phi not at block
    /// head, phi in entry.
    pub const V003: &str = "V003";
    /// Phi incoming blocks do not match CFG predecessors (or arity broken).
    pub const V004: &str = "V004";
    /// Unreachable block (lint).
    pub const V005: &str = "V005";
    /// Dead value: an instruction result never used (lint).
    pub const V006: &str = "V006";
    /// Integer cast does not change width in the required direction.
    pub const V007: &str = "V007";
    /// Loop-carried RAW memory dependence (recurrence; bounds the II).
    pub const M001: &str = "M001";
    /// Same-address WAW: two stores statically hit one location.
    pub const M002: &str = "M002";
    /// Out-of-bounds: a statically-resolved access escapes its region.
    pub const M003: &str = "M003";
    /// Shared-SPM race: two accelerators statically write overlapping
    /// ranges of the cluster's shared scratchpad.
    pub const M004: &str = "M004";
    /// Static schedule bound conflicts with the watchdog threshold.
    pub const S001: &str = "S001";
    /// Textual IR parse error.
    pub const P001: &str = "P001";
    /// FunctionBuilder misuse.
    pub const B001: &str = "B001";
    /// Invalid configuration knob (pre-run validation).
    pub const C001: &str = "C001";
    /// Provably out-of-bounds: the access's *entire* range-proven address
    /// interval lies outside every declared region.
    pub const F001: &str = "F001";
    // F002 and F003 (scratchpad liveness lints, never emitted) are retired.
    /// Static deadlock prediction for an armed drop-hazard fault plan.
    pub const F004: &str = "F004";
    /// DSE sweep point provably dominated (pruned without simulation).
    pub const F005: &str = "F005";

    /// `(code, one-line description)` for every registered code, in order.
    pub const ALL: &[(&str, &str)] = &[
        (V001, "use before def / definition does not dominate use"),
        (V002, "operand or result type mismatch"),
        (V003, "terminator/CFG structure violation"),
        (V004, "phi incoming blocks do not match predecessors"),
        (V005, "unreachable block"),
        (V006, "dead value (result never used)"),
        (V007, "bad integer cast width"),
        (M001, "loop-carried RAW memory dependence"),
        (M002, "same-address WAW between stores"),
        (M003, "statically out-of-bounds memory access"),
        (M004, "shared-SPM write race between accelerators"),
        (S001, "static schedule bound vs watchdog threshold"),
        (P001, "textual IR parse error"),
        (B001, "builder misuse"),
        (C001, "invalid configuration knob"),
        (
            F001,
            "provably out-of-bounds memory access (range analysis)",
        ),
        (F004, "static deadlock prediction for a fault plan"),
        (F005, "DSE sweep point provably dominated"),
    ];
}

/// Stable long-form documentation for a diagnostic code, rendered by
/// `salam_lint --explain <CODE>`. Every code in [`codes::ALL`] has an
/// entry (a test pins this), so emitted findings are always explainable.
pub fn explain(code: &str) -> Option<&'static str> {
    let text = match code {
        "V001" => {
            "V001 · SSA dominance violation (error)\n\n\
             An instruction uses a value whose definition does not dominate \
             the use: on some CFG path the value is read before it is \
             written. Well-formed SSA requires every use to be reached by \
             its unique definition; the runtime would read garbage. Fix the \
             producing pass or builder code — values that merge control flow \
             must go through a phi in the join block."
        }
        "V002" => {
            "V002 · type mismatch (error)\n\n\
             An opcode's operand or result types are inconsistent (e.g. an \
             integer add over floats, a load whose result type differs from \
             the accessed element). The elaborated datapath would wire a \
             functional unit to the wrong width. Align the IR types with the \
             operation's signature."
        }
        "V003" => {
            "V003 · CFG structure violation (error)\n\n\
             A block breaks basic-block discipline: it is empty, lacks a \
             terminator, has a terminator before the end, hosts a phi after \
             a non-phi, or puts a phi in the entry block. Downstream passes \
             iterate `block.insts` assuming the canonical layout."
        }
        "V004" => {
            "V004 · phi/predecessor mismatch (error)\n\n\
             A phi's incoming blocks do not match the block's actual CFG \
             predecessors (missing, extra, or duplicated). The interpreter \
             and the engine resolve phis by looking up the taken edge; an \
             unmatched edge would make that lookup fail at runtime."
        }
        "V005" => {
            "V005 · unreachable block (warning)\n\n\
             No path from the entry reaches this block, so it can never \
             execute. Usually dead scaffolding left by hand-built IR; it \
             inflates datapath area estimates because elaboration still \
             allocates units for it. Delete it or wire it in."
        }
        "V006" => {
            "V006 · dead value (warning)\n\n\
             An instruction computes a result no one reads. Harmless to \
             correctness but it occupies a functional unit and a reservation \
             slot every execution — free latency and area savings if \
             removed."
        }
        "V007" => {
            "V007 · bad cast width (error)\n\n\
             An integer cast does not change width in the required \
             direction: a trunc that widens, or an ext that narrows. The \
             engine's value encoding relies on casts moving monotonically \
             between widths."
        }
        "M001" => {
            "M001 · loop-carried RAW dependence (info)\n\n\
             A store in one iteration feeds a load in a later iteration \
             (distance d). This recurrence bounds the loop's achievable \
             initiation interval: no amount of unrolling or extra ports \
             pipelines past it. Reported as structure, not as a defect — \
             use it to set expectations for the II and to pick unroll \
             factors."
        }
        "M002" => {
            "M002 · same-address WAW (warning)\n\n\
             Two stores statically hit the same address. With reordering \
             hazards disabled (`strict_register_hazards = false`) the final \
             value depends on commit order; even when ordered it wastes a \
             write port. Usually an indexing bug — check the subscripts."
        }
        "M003" => {
            "M003 · statically out-of-bounds access (error)\n\n\
             An access whose affine address interval is fully resolved \
             escapes every declared memory region. The physical scratchpad \
             would alias the access somewhere else or the bus would fault. \
             The interval is exact (affine over counted induction \
             variables), so this is a proof. See also F001, the \
             range-analysis generalisation that covers non-affine \
             addresses."
        }
        "M004" => {
            "M004 · shared-SPM write race (warning)\n\n\
             Two accelerators in one cluster statically write overlapping \
             byte ranges of the shared scratchpad. With both enabled, the \
             result depends on scheduling order. Range-proven disjoint \
             writes are filtered out before this fires; partition the \
             shared buffer or serialise the writers to clear it."
        }
        "S001" => {
            "S001 · bound vs watchdog conflict (warning)\n\n\
             The static lower bound on dynamic cycles meets or exceeds the \
             configured watchdog deadlock threshold: the watchdog would \
             kill a run that is provably still making progress. Raise \
             `deadlock_cycles` above the bound or shrink the workload."
        }
        "P001" => {
            "P001 · parse error (error)\n\n\
             The textual IR failed to parse; the diagnostic message carries \
             the line and reason. Nothing downstream ran."
        }
        "B001" => {
            "B001 · builder misuse (error)\n\n\
             A FunctionBuilder sequence violated its contract (terminating \
             an already-terminated block, adding incomings to a non-phi, \
             …). Raised while *constructing* IR, before verification."
        }
        "C001" => {
            "C001 · invalid configuration (error)\n\n\
             A run configuration knob is out of range (zero ports, zero \
             clock, empty FU pool with constraints enabled, …). Rejected \
             before elaboration; fix the sweep axis or config file."
        }
        "F001" => {
            "F001 · provably out-of-bounds access (error)\n\n\
             Interval range analysis bounded the access's byte addresses \
             and the entire interval lies outside every declared region — \
             every execution of the access is out of bounds, even when the \
             index is not affine (the case M003 cannot see). Because ranges \
             over-approximate, partial overlap only warns (M003 path); full \
             disjointness is required to prove the violation."
        }
        "F004" => {
            "F004 · static deadlock prediction (warning)\n\n\
             The armed fault plan can drop memory responses. A dropped \
             response closes the resource-wait cycle op → port → response \
             (never arrives), the reservation window fills behind the \
             waiting op, and the watchdog fires. Verdicts: `deadlock` \
             (drop certain and an access provably executes — the watchdog \
             WILL fire), `possible` (fractional drop rate; reported with \
             the expected number of drops), `no-deadlock` (no drop hazard \
             or no reachable access — the watchdog stays quiet). Verdicts \
             are cross-checked against watchdog outcomes in CI."
        }
        "F005" => {
            "F005 · dominated sweep point (info)\n\n\
             Design-space exploration skipped this point without simulating \
             it: its flow-tightened static lower bound is at least the \
             measured cycle count of an already-simulated point, so it can \
             never win the sweep (bound ≤ its cycles, and the reference is \
             already better-or-equal). Rows appear as `pruned:F005` with \
             the summary's `pruned=` count; CI re-simulates pruned points \
             to assert dominance."
        }
        _ => return None,
    };
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_names() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn display_and_json_are_stable() {
        let d = Diagnostic::error(codes::V001, Span::block("f", "b"), "msg \"x\"");
        assert_eq!(d.to_string(), "error[V001] @f %b: msg \"x\"");
        assert_eq!(
            d.to_json(),
            "{\"severity\":\"error\",\"code\":\"V001\",\"function\":\"f\",\"block\":\"b\",\"message\":\"msg \\\"x\\\"\"}"
        );
        assert!(to_json(&[d.clone(), d]).starts_with("[{"));
    }

    #[test]
    fn counts_filter_by_severity() {
        let ds = vec![
            Diagnostic::info(codes::M001, Span::default(), "i"),
            Diagnostic::warning(codes::V005, Span::default(), "w"),
            Diagnostic::error(codes::V001, Span::default(), "e"),
        ];
        assert_eq!(error_count(&ds), 1);
        assert_eq!(warning_count(&ds), 1);
        assert_eq!(errors_only(ds).len(), 1);
    }

    #[test]
    fn code_registry_is_unique() {
        let mut seen: Vec<&str> = codes::ALL.iter().map(|&(c, _)| c).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), codes::ALL.len());
    }

    #[test]
    fn every_registered_code_has_an_explain_entry() {
        for &(code, _) in codes::ALL {
            let doc = explain(code).unwrap_or_else(|| panic!("no explain entry for {code}"));
            assert!(
                doc.starts_with(code),
                "explain({code}) must lead with the code"
            );
            assert!(doc.len() > 80, "explain({code}) is too thin to be useful");
        }
        assert!(explain("Z999").is_none());
    }
}
