//! `salam_lint` — the static-verification front end.
//!
//! Runs every `salam-verify` pass over its targets and renders the
//! diagnostics as a table (default) or JSON. Targets are MachSuite kernel
//! names (`gemm`, `spmv`, …), `all` for the paper's nine-kernel suite, or
//! paths to textual IR files (`*.ll`); with no targets, `all` is assumed.
//!
//! ```text
//! salam_lint [TARGET...] [--json] [--out FILE] [--deny warnings] [--bounds]
//!            [--flow] [--sarif FILE] [--explain CODE]
//! ```
//!
//! * `--json`          — print the report as one JSON object instead of a table
//! * `--out FILE`      — additionally write the JSON report to `FILE` (the CI
//!   artifact)
//! * `--deny warnings` — exit nonzero on warnings, not just errors
//! * `--bounds`        — also print each kernel's static schedule bound
//! * `--flow`          — print the dataflow facts per kernel: proven value
//!   ranges, per-loop trip counts, and the flow-tightened bound
//!   decomposition with its delta over the per-block floors
//! * `--sarif FILE`    — additionally write the diagnostics as a SARIF
//!   2.1.0 log to `FILE` (code-scanning upload format)
//! * `--explain CODE`  — print the stable documentation for a diagnostic
//!   code (e.g. `M003`, `F001`) and exit
//!
//! Built kernels get the full stack: IR verification, static memory
//! dependences, footprint bounds, and the schedule/watchdog cross-check.
//! `.ll` files are parsed (a parse failure is itself a `P001` diagnostic)
//! and IR-verified; without arguments or a memory image the address-level
//! passes have nothing to resolve, so they are skipped.
//!
//! Ends with the stable marker `lint: targets=N diagnostics=D errors=E
//! warnings=W` that CI asserts on.

use std::collections::HashMap;

use machsuite::{Bench, BuiltKernel};
use salam::standalone::StandaloneConfig;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_dse::SweepTable;
use salam_flow::FlowFacts;
use salam_verify::{
    check_bounds, check_schedule, explain, flow_lower_bound, parse_and_verify, profile_memdeps,
    static_lower_bound, static_memdeps, to_sarif, verify_ir, BoundConfig, Diagnostic, MemRegion,
    Severity,
};

const USAGE: &str = "[TARGET...] [--json] [--out FILE] [--deny warnings] [--bounds]\n\
     [--flow] [--sarif FILE] [--explain CODE]\n\
     TARGET: a MachSuite kernel (bfs, fft, gemm, md-grid, md-knn, nw, spmv,\n\
     stencil2d, stencil3d), 'all' for the full suite, or a path to a .ll file";

/// Every pass over one built kernel, in severity-stable order; `facts`
/// come from the kernel's real arguments.
fn lint_kernel(
    k: &BuiltKernel,
    facts: &FlowFacts,
    bounds: bool,
) -> (Vec<Diagnostic>, Option<String>) {
    let mut diags = verify_ir(&k.func);

    // Address-level passes.
    diags.extend(static_memdeps(&k.func, facts).diags);
    let (lo, hi) = k.footprint;
    let region = MemRegion {
        lo,
        hi,
        label: "footprint".into(),
    };
    diags.extend(check_bounds(&k.func, facts, &[region]));

    // Schedule bound under the same resources a default standalone run
    // would get, cross-checked against its watchdog horizon.
    let cfg = StandaloneConfig::default();
    let profile = hw_profile::HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
    let (prof, _) = profile_memdeps(&k.func, &k.args, &k.init);
    let trips: HashMap<_, _> = prof.block_entries.clone();
    let report = static_lower_bound(&k.func, &cdfg, &trips, &BoundConfig::default());
    diags.extend(check_schedule(&report, cfg.engine.deadlock_cycles));

    let bound_line = bounds.then(|| {
        format!(
            "bounds: {} lower_bound={} chain={} fu={} mem=({},{})",
            k.name,
            report.lower_bound,
            report.chain_floor,
            report
                .fu_floor
                .as_ref()
                .map(|(kind, c)| format!("{kind}:{c}"))
                .unwrap_or_else(|| "-".into()),
            report.mem_floor.0,
            report.mem_floor.1,
        )
    });
    (diags, bound_line)
}

/// The dataflow report for one kernel: proven ranges, loop trips, and the
/// flow-tightened bound decomposition on *inferred* (not profiled) trips.
fn flow_lines(k: &BuiltKernel, facts: &FlowFacts) -> Vec<String> {
    let mut lines = Vec::new();
    let bounded = facts
        .ranges
        .values
        .iter()
        .filter(|(_, i)| i.is_bounded())
        .count();
    let resolved = facts
        .accesses
        .iter()
        .filter(|a| a.interval.is_some())
        .count();
    lines.push(format!(
        "flow: {} ranges={}/{} accesses-resolved={}/{}",
        k.name,
        bounded,
        facts.ranges.values.len(),
        resolved,
        facts.accesses.len(),
    ));
    // Per-op ranges for named instruction results, bounded ones only.
    for (bid, b) in k.func.blocks() {
        for &id in &b.insts {
            let inst = k.func.inst(id);
            if inst.name.is_empty() {
                continue;
            }
            let Some(v) = k.func.inst_result(id) else {
                continue;
            };
            let Some(i) = facts.ranges.of(v).filter(salam_flow::Interval::is_bounded) else {
                continue;
            };
            lines.push(format!(
                "flow: {} range {}.{} = [{}, {}]",
                k.name,
                k.func.block(bid).name,
                inst.name,
                i.lo,
                i.hi
            ));
        }
    }
    for l in &facts.trips.loops {
        lines.push(format!(
            "flow: {} loop {} iterations={} entries={} total={}",
            k.name,
            k.func.block(l.header).name,
            opt(l.iterations),
            opt(l.entries),
            opt(l.total_iterations),
        ));
    }
    // Flow-tightened bound over the inferred trips, with the delta each
    // new floor adds over the PR-5 per-block floors.
    let profile = hw_profile::HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
    let trips: HashMap<_, _> = facts
        .trips
        .block_trips
        .iter()
        .map(|(&b, &t)| (b, t))
        .collect();
    let deps = static_memdeps(&k.func, facts);
    let r = flow_lower_bound(&k.func, &cdfg, &trips, &BoundConfig::default(), &deps.edges);
    for lb in &r.loops {
        lines.push(format!(
            "flow: {} bound-loop {} latches={} entries={} adv_chain={} adv_rec={} adv_mem={} value={}",
            k.name,
            lb.name,
            lb.latch_traversals,
            lb.entries,
            lb.adv_chain,
            lb.adv_recurrence,
            lb.adv_mem,
            lb.value,
        ));
    }
    if let Some(rv) = &r.resv {
        lines.push(format!(
            "flow: {} bound-resv {} trips={} advance={}",
            k.name, rv.name, rv.trips, rv.advance
        ));
    }
    lines.push(format!(
        "flow: {} bound base={} flow={} recur_floor={} resv_floor={} delta=+{}",
        k.name,
        r.base.lower_bound,
        r.lower_bound,
        r.recur_floor,
        r.resv_floor,
        r.tightening(),
    ));
    lines
}

fn opt(v: Option<u64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "?".into())
}

fn main() {
    let mut args = salam_bench::cli::Args::parse("salam_lint", USAGE);
    let json = args.flag("--json");
    let bounds = args.flag("--bounds");
    let flow = args.flag("--flow");
    let sarif_out: Option<String> = args.opt("--sarif");
    if let Some(code) = args.opt("--explain") {
        match explain(&code.to_ascii_uppercase()) {
            Some(text) => {
                println!("{}: {text}", code.to_ascii_uppercase());
                return;
            }
            None => args.fail(&format!("--explain: unknown diagnostic code '{code}'")),
        }
    }
    let deny_warnings = match args.opt("--deny").as_deref() {
        None => false,
        Some("warnings") => true,
        Some(other) => args.fail(&format!("--deny supports 'warnings', got '{other}'")),
    };
    let out: Option<String> = args.opt("--out");
    let mut targets: Vec<String> = args.finish();
    if targets.is_empty() {
        targets.push("all".into());
    }
    if targets.iter().any(|t| t == "all") {
        targets.retain(|t| t != "all");
        for b in Bench::ALL {
            targets.push(b.label().to_ascii_lowercase());
        }
    }

    // (target name, diagnostics) in target order.
    let mut results: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    let mut bound_lines: Vec<String> = Vec::new();
    for t in &targets {
        let diags = if let Some(b) = Bench::from_label(t) {
            let k = b.build_standard();
            let facts = salam_flow::analyze(&k.func, &k.args);
            let (diags, bound) = lint_kernel(&k, &facts, bounds);
            bound_lines.extend(bound);
            if flow {
                bound_lines.extend(flow_lines(&k, &facts));
            }
            diags
        } else if t.ends_with(".ll") {
            match std::fs::read_to_string(t) {
                Ok(text) => match parse_and_verify(&text) {
                    Ok((_, diags)) => diags,
                    Err(d) => vec![d],
                },
                Err(e) => {
                    eprintln!("salam_lint: cannot read {t}: {e}");
                    std::process::exit(salam_bench::cli::EXIT_USAGE)
                }
            }
        } else {
            eprintln!("salam_lint: unknown target '{t}' (not a kernel name or .ll file)");
            eprintln!("usage: salam_lint {USAGE}");
            std::process::exit(salam_bench::cli::EXIT_USAGE)
        };
        results.push((t.clone(), diags));
    }

    let all: Vec<&Diagnostic> = results.iter().flat_map(|(_, d)| d).collect();
    let errors = all.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = all
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();

    let json_report = {
        let items: Vec<String> = results
            .iter()
            .map(|(t, diags)| {
                format!(
                    "{{\"target\":\"{t}\",\"diagnostics\":{}}}",
                    salam_verify::to_json(diags)
                )
            })
            .collect();
        format!(
            "{{\"targets\":{},\"errors\":{},\"warnings\":{},\"results\":[{}]}}",
            results.len(),
            errors,
            warnings,
            items.join(",")
        )
    };
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &json_report) {
            eprintln!("salam_lint: cannot write {path}: {e}");
            std::process::exit(salam_bench::cli::EXIT_USAGE)
        }
    }
    if let Some(path) = &sarif_out {
        let owned: Vec<Diagnostic> = all.iter().map(|d| (*d).clone()).collect();
        if let Err(e) = std::fs::write(path, to_sarif(&owned)) {
            eprintln!("salam_lint: cannot write {path}: {e}");
            std::process::exit(salam_bench::cli::EXIT_USAGE)
        }
    }

    if json {
        println!("{json_report}");
    } else {
        let mut t = SweepTable::new(
            "static verification",
            &["target", "severity", "code", "span", "message"],
        );
        for (target, diags) in &results {
            for d in diags {
                t.row(vec![
                    target.clone(),
                    d.severity.name().into(),
                    d.code.into(),
                    d.span.to_string(),
                    d.message.clone(),
                ]);
            }
        }
        println!("{}", t.render());
    }
    for line in &bound_lines {
        println!("{line}");
    }
    println!(
        "lint: targets={} diagnostics={} errors={} warnings={}",
        results.len(),
        all.len(),
        errors,
        warnings
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(salam_bench::cli::EXIT_FINDINGS)
    }
}
