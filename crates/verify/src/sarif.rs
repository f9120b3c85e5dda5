//! SARIF 2.1.0 export for [`Diagnostic`]s.
//!
//! One run, one tool (`salam_lint`), one result per diagnostic. The
//! reporting descriptors (`rules`) list exactly the codes that appear in
//! the results, in code order, each with its registry one-liner; results
//! keep their input order. Severity maps onto SARIF levels as
//! `Error → error`, `Warning → warning`, `Info → note`. Locations are
//! logical (`function` / `function.block`) — the IR has no source files.
//!
//! The output is hand-rolled JSON (the workspace is dependency-free)
//! with fully deterministic field and element order, so goldens can be
//! byte-pinned.

use std::collections::BTreeSet;

use salam_obs::json::escape;

use crate::diag::{codes, Diagnostic, Severity};

/// The SARIF level string for a severity.
fn level(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Renders `diags` as a complete SARIF 2.1.0 log (pretty-printed, two-
/// space indent, trailing newline).
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let used: BTreeSet<&str> = diags.iter().map(|d| d.code).collect();
    let mut rules = Vec::new();
    for &(code, desc) in codes::ALL {
        if !used.contains(code) {
            continue;
        }
        rules.push(format!(
            "            {{\n              \"id\": \"{}\",\n              \
             \"shortDescription\": {{ \"text\": \"{}\" }}\n            }}",
            escape(code),
            escape(desc)
        ));
    }
    let mut results = Vec::new();
    for d in diags {
        let fqn = match (&d.span.function[..], &d.span.block) {
            ("", _) => "<config>".to_string(),
            (f, None) => f.to_string(),
            (f, Some(b)) => format!("{f}.{b}"),
        };
        results.push(format!(
            "        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"{}\",\n          \
             \"message\": {{ \"text\": \"{}\" }},\n          \"locations\": [\n            \
             {{\n              \"logicalLocations\": [\n                \
             {{ \"fullyQualifiedName\": \"{}\", \"kind\": \"function\" }}\n              \
             ]\n            }}\n          ]\n        }}",
            escape(d.code),
            level(d.severity),
            escape(&d.message),
            escape(&fqn)
        ));
    }
    format!(
        "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {{\n      \"tool\": {{\n        \
         \"driver\": {{\n          \"name\": \"salam_lint\",\n          \
         \"informationUri\": \"https://example.invalid/gem5-salam-rs\",\n          \
         \"rules\": [\n{}\n          ]\n        }}\n      }},\n      \"results\": [\n{}\n      ]\n    \
         }}\n  ]\n}}\n",
        rules.join(",\n"),
        results.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Span;

    #[test]
    fn sarif_levels_map_severities() {
        assert_eq!(level(Severity::Error), "error");
        assert_eq!(level(Severity::Info), "note");
    }

    #[test]
    fn rules_cover_exactly_the_emitted_codes() {
        let diags = vec![
            Diagnostic::error(codes::F001, Span::block("k", "b"), "oob"),
            Diagnostic::warning(codes::M004, Span::func("k"), "race"),
            Diagnostic::error(codes::F001, Span::func("k2"), "oob again"),
        ];
        let s = to_sarif(&diags);
        assert_eq!(s.matches("\"id\": \"F001\"").count(), 1);
        assert_eq!(s.matches("\"id\": \"M004\"").count(), 1);
        assert_eq!(s.matches("\"ruleId\"").count(), 3);
        assert!(s.contains("\"fullyQualifiedName\": \"k.b\""));
        assert!(s.ends_with("}\n"));
    }
}
