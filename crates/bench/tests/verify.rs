//! Cross-crate locks for the static-verification stack (PR 5):
//!
//! 1. every MachSuite kernel passes every `salam-verify` pass with zero
//!    errors — the suite is the verifier's "known-good" corpus;
//! 2. the static schedule lower bound is *sound*: for every kernel, under
//!    both unconstrained and FU-starved configurations, the bound never
//!    exceeds the cycles the dynamic engine actually reports;
//! 3. every stable diagnostic code has a deliberately-broken fixture that
//!    triggers it — the codes are load-bearing API (CI greps, DSE
//!    `invalid:<code>` rows), so each one is pinned to a reproducer.

use std::collections::HashMap;

use hw_profile::FuKind;
use machsuite::{Bench, BuiltKernel};
use salam::standalone::{try_run_kernel, StandaloneConfig};
use salam_cdfg::StaticCdfg;
use salam_ir::interp::RtVal;
use salam_ir::{FunctionBuilder, Type};
use salam_verify::{
    check_bounds, check_schedule, codes, flow_lower_bound, parse_and_verify, profile_memdeps,
    static_lower_bound, static_memdeps, verify_ir, BoundConfig, Diagnostic, FlowBoundReport,
    MemRegion, Severity,
};

/// The static bound for `k` under exactly the resources `cfg` gives the
/// dynamic engine: same FU constraints, same SPM ports, same pipelining.
fn bound_under(k: &BuiltKernel, cfg: &StandaloneConfig) -> u64 {
    let cdfg = StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints);
    let (prof, _) = profile_memdeps(&k.func, &k.args, &k.init);
    let trips: HashMap<_, _> = prof.block_entries.clone();
    let bc = BoundConfig {
        read_ports: cfg.spm_read_ports,
        write_ports: cfg.spm_write_ports,
        pipelined_fus: cfg.engine.pipelined_fus,
        reservation_entries: cfg.engine.reservation_entries,
    };
    static_lower_bound(&k.func, &cdfg, &trips, &bc).lower_bound
}

fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[test]
fn all_nine_kernels_verify_clean() {
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let ir = verify_ir(&k.func);
        assert!(errors(&ir).is_empty(), "{}: {:?}", k.name, errors(&ir));
        let facts = salam_flow::analyze(&k.func, &k.args);
        let deps = static_memdeps(&k.func, &facts);
        assert!(
            errors(&deps.diags).is_empty(),
            "{}: {:?}",
            k.name,
            errors(&deps.diags)
        );
        let (lo, hi) = k.footprint;
        let oob = check_bounds(&k.func, &facts, &[MemRegion::new(lo, hi, "footprint")]);
        assert!(oob.is_empty(), "{}: {oob:?}", k.name);
    }
}

#[test]
fn static_bound_never_exceeds_dynamic_cycles_unconstrained() {
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let cfg = StandaloneConfig::default();
        let bound = bound_under(&k, &cfg);
        let dynamic = try_run_kernel(&k, &cfg).unwrap().cycles;
        assert!(bound > 0, "{}: a vacuous bound proves nothing", k.name);
        assert!(
            bound <= dynamic,
            "{}: static lower bound {bound} > dynamic {dynamic}",
            k.name
        );
    }
}

#[test]
fn static_bound_never_exceeds_dynamic_cycles_fu_limited() {
    // Starve the compute units down to one of each: the bound's FU floor
    // rises with the constraint and must still stay under the (now much
    // slower) dynamic run.
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let mut cfg = StandaloneConfig::default();
        for kind in [
            FuKind::FpAddF64,
            FuKind::FpMulF64,
            FuKind::FpDivF64,
            FuKind::FpAddF32,
            FuKind::FpMulF32,
            FuKind::IntMultiplier,
        ] {
            cfg.constraints = cfg.constraints.clone().with_limit(kind, 1);
        }
        let unconstrained = bound_under(&k, &StandaloneConfig::default());
        let bound = bound_under(&k, &cfg);
        let dynamic = try_run_kernel(&k, &cfg).unwrap().cycles;
        assert!(
            bound >= unconstrained,
            "{}: starving FUs cannot loosen the bound",
            k.name
        );
        assert!(
            bound <= dynamic,
            "{}: static lower bound {bound} > dynamic {dynamic} under FU limits",
            k.name
        );
    }
}

/// The flow-tightened bound for `k` under exactly the resources `cfg`
/// gives the dynamic engine, fed by the statically-proven dependence
/// edges.
fn flow_bound_under(k: &BuiltKernel, cfg: &StandaloneConfig) -> FlowBoundReport {
    let cdfg = StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints);
    let (prof, _) = profile_memdeps(&k.func, &k.args, &k.init);
    let trips: HashMap<_, _> = prof.block_entries.clone();
    let bc = BoundConfig {
        read_ports: cfg.spm_read_ports,
        write_ports: cfg.spm_write_ports,
        pipelined_fus: cfg.engine.pipelined_fus,
        reservation_entries: cfg.engine.reservation_entries,
    };
    let deps = static_memdeps(&k.func, &salam_flow::analyze(&k.func, &k.args));
    flow_lower_bound(&k.func, &cdfg, &trips, &bc, &deps.edges)
}

/// PR-10 soundness gate: on every kernel and every configuration the
/// flow-tightened bound must sit between the PR-5 bound and the dynamic
/// cycle count. Asserts per-config minimums on how many kernels tighten
/// *strictly*, so a refactor that silently neuters the new floors fails
/// here rather than shipping a vacuous analysis.
#[test]
fn flow_bound_is_sound_and_strictly_tightens() {
    let default_cfg = StandaloneConfig::default();
    // A 48-entry reservation queue: large bodies stop double-buffering,
    // so the reservation-pressure floor binds on most kernels.
    let mut pressure = StandaloneConfig::default();
    pressure.engine.reservation_entries = 48;
    let mut starved = StandaloneConfig::default();
    for kind in [
        FuKind::FpAddF64,
        FuKind::FpMulF64,
        FuKind::FpDivF64,
        FuKind::FpAddF32,
        FuKind::FpMulF32,
        FuKind::IntMultiplier,
    ] {
        starved.constraints = starved.constraints.clone().with_limit(kind, 1);
    }
    for (cfg_name, cfg, want_tighter) in [
        ("default", &default_cfg, 1),
        ("pressure", &pressure, 3),
        ("fu-starved", &starved, 0),
    ] {
        let mut tighter = 0usize;
        for bench in Bench::ALL {
            let k = bench.build_standard();
            let r = flow_bound_under(&k, cfg);
            let dynamic = try_run_kernel(&k, cfg).unwrap().cycles;
            assert!(
                r.lower_bound >= r.base.lower_bound,
                "{} [{cfg_name}]: flow bound {} dropped below PR-5 bound {}",
                k.name,
                r.lower_bound,
                r.base.lower_bound
            );
            assert!(
                r.lower_bound <= dynamic,
                "{} [{cfg_name}]: flow bound {} > dynamic {dynamic} — UNSOUND",
                k.name,
                r.lower_bound
            );
            if r.lower_bound > r.base.lower_bound {
                tighter += 1;
            }
        }
        assert!(
            tighter >= want_tighter,
            "[{cfg_name}]: only {tighter} kernels tightened strictly, wanted ≥ {want_tighter}"
        );
    }
}

// ---- one deliberately-broken fixture per diagnostic code -----------------

/// Error-severity codes reported by `verify_ir` for a fixture built to
/// violate exactly one invariant: the expected code must be present and no
/// *other* error code may fire (warnings like a dead result are fine).
fn assert_only_error(f: &salam_ir::Function, expected: &'static str) {
    let diags = verify_ir(f);
    let errs = errors(&diags);
    assert!(
        errs.iter().any(|d| d.code == expected),
        "expected {expected}: {diags:?}"
    );
    assert!(
        errs.iter().all(|d| d.code == expected),
        "fixture for {expected} trips other errors: {errs:?}"
    );
}

#[test]
fn v001_use_not_dominated_by_definition() {
    let mut fb = FunctionBuilder::new("v001", &[("x", Type::I64), ("c", Type::I1)]);
    let x = fb.arg(0);
    let c = fb.arg(1);
    let then_b = fb.add_block("then");
    let join = fb.add_block("join");
    fb.cond_br(c, then_b, join);
    fb.position_at(then_b);
    let a = fb.add(x, x, "a");
    fb.br(join);
    fb.position_at(join);
    let s = fb.add(a, x, "s"); // `a` defined only on the then-path
    fb.ret_value(s);
    assert_only_error(&fb.finish(), codes::V001);
}

#[test]
fn v002_float_operands_on_integer_add() {
    let mut fb = FunctionBuilder::new("v002", &[]);
    let a = fb.f64c(1.0);
    let b = fb.f64c(2.0);
    let s = fb.add(a, b, "s"); // integer add over doubles
    fb.ret_value(s);
    assert_only_error(&fb.finish(), codes::V002);
}

#[test]
fn v003_reachable_block_left_empty() {
    let mut fb = FunctionBuilder::new("v003", &[]);
    let hole = fb.add_block("hole");
    fb.br(hole); // `hole` is reachable but never filled or terminated
    assert_only_error(&fb.finish(), codes::V003);
}

#[test]
fn v004_phi_missing_a_predecessor_edge() {
    let mut fb = FunctionBuilder::new("v004", &[("c", Type::I1)]);
    let c = fb.arg(0);
    let then_b = fb.add_block("then");
    let else_b = fb.add_block("else");
    let join = fb.add_block("join");
    fb.cond_br(c, then_b, else_b);
    fb.position_at(then_b);
    let one = fb.i64c(1);
    fb.br(join);
    fb.position_at(else_b);
    fb.br(join);
    fb.position_at(join);
    let (phi, v) = fb.phi(Type::I64, "v");
    fb.add_incoming(phi, one, then_b); // no edge for the `else` predecessor
    fb.ret_value(v);
    assert_only_error(&fb.finish(), codes::V004);
}

#[test]
fn v005_unreachable_block_is_linted() {
    let mut fb = FunctionBuilder::new("v005", &[]);
    fb.ret();
    let orphan = fb.add_block("orphan");
    fb.position_at(orphan);
    fb.ret(); // well-formed in isolation, but nothing branches here
    let diags = verify_ir(&fb.finish());
    assert!(diags.iter().any(|d| d.code == codes::V005), "{diags:?}");
    assert!(errors(&diags).is_empty(), "V005 is a lint: {diags:?}");
}

#[test]
fn v006_dead_value_is_linted() {
    let mut fb = FunctionBuilder::new("v006", &[("x", Type::I64)]);
    let x = fb.arg(0);
    let _dead = fb.add(x, x, "dead");
    fb.ret();
    let diags = verify_ir(&fb.finish());
    assert!(diags.iter().any(|d| d.code == codes::V006), "{diags:?}");
    assert!(errors(&diags).is_empty(), "V006 is a lint: {diags:?}");
}

#[test]
fn v007_widthless_zext() {
    let mut fb = FunctionBuilder::new("v007", &[("x", Type::I64)]);
    let x = fb.arg(0);
    let z = fb.zext(x, Type::I32, "z"); // "extension" that narrows
    fb.ret_value(z);
    assert_only_error(&fb.finish(), codes::V007);
}

/// `for i in 0..n { a[i+1] = a[i] }` — the canonical distance-1 recurrence.
fn shift_kernel() -> salam_ir::Function {
    let mut fb = FunctionBuilder::new("shift", &[("a", Type::Ptr), ("n", Type::I64)]);
    let a = fb.arg(0);
    let n = fb.arg(1);
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let src = fb.gep1(Type::I64, a, iv, "src");
        let x = fb.load(Type::I64, src, "x");
        let one = fb.i64c(1);
        let i1 = fb.add(iv, one, "i1");
        let dst = fb.gep1(Type::I64, a, i1, "dst");
        fb.store(x, dst);
    });
    fb.ret();
    fb.finish()
}

#[test]
fn m001_loop_carried_raw_recurrence() {
    let f = shift_kernel();
    let deps = static_memdeps(
        &f,
        &salam_flow::analyze(&f, &[RtVal::P(0x1000), RtVal::I(8)]),
    );
    assert!(
        deps.diags.iter().any(|d| d.code == codes::M001),
        "{:?}",
        deps.diags
    );
}

#[test]
fn m002_waw_between_stores() {
    let mut fb = FunctionBuilder::new("m002", &[("a", Type::Ptr)]);
    let a = fb.arg(0);
    let zero = fb.i64c(0);
    let n = fb.i64c(8);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let p = fb.gep1(Type::I64, a, iv, "p");
        let one = fb.i64c(1);
        let two = fb.i64c(2);
        fb.store(one, p);
        fb.store(two, p); // the first store is dead every iteration
    });
    fb.ret();
    let f = fb.finish();
    let deps = static_memdeps(&f, &salam_flow::analyze(&f, &[RtVal::P(0x2000)]));
    assert!(
        deps.diags.iter().any(|d| d.code == codes::M002),
        "{:?}",
        deps.diags
    );
}

#[test]
fn m003_out_of_bounds_store() {
    // a[n] is written by the last iteration; a region of n slots is one
    // slot short.
    let f = shift_kernel();
    let args = [RtVal::P(0x1000), RtVal::I(8)];
    let facts = salam_flow::analyze(&f, &args);
    let oob = check_bounds(&f, &facts, &[MemRegion::new(0x1000, 0x1000 + 8 * 8, "spm")]);
    assert_eq!(oob.len(), 1, "{oob:?}");
    assert_eq!(oob[0].code, codes::M003);
}

#[test]
fn m004_shared_spm_write_race() {
    let writer = |name: &str, base: i64| {
        let mut fb = FunctionBuilder::new(name, &[]);
        let addr = fb.i64c(base);
        let p = fb.inttoptr(addr, "p");
        let zero = fb.i64c(0);
        let n = fb.i64c(16);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let dst = fb.gep1(Type::I64, p, iv, "dst");
            fb.store(iv, dst);
        });
        fb.ret();
        fb.finish()
    };
    let a = salam_flow::analyze(&writer("wr_a", 0x2000_0000), &[]);
    // Overlaps wr_a's [0x..00, 0x..80).
    let b = salam_flow::analyze(&writer("wr_b", 0x2000_0040), &[]);
    let diags =
        salam_verify::check_shared_spm(&[("wr_a", &a), ("wr_b", &b)], 0x2000_0000, 0x2001_0000);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, codes::M004);
}

#[test]
fn s001_bound_exceeding_the_watchdog() {
    // Any kernel's real bound against an absurdly short watchdog fuse.
    let k = Bench::GemmNcubed.build_standard();
    let cfg = StandaloneConfig::default();
    let cdfg = StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints);
    let (prof, _) = profile_memdeps(&k.func, &k.args, &k.init);
    let trips: HashMap<_, _> = prof.block_entries.clone();
    let report = static_lower_bound(&k.func, &cdfg, &trips, &BoundConfig::default());
    let diags = check_schedule(&report, 10);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, codes::S001);
    // A sane horizon stays silent.
    assert!(check_schedule(&report, cfg.engine.deadlock_cycles).is_empty());
}

#[test]
fn p001_parse_error_is_a_diagnostic() {
    let d = parse_and_verify("define @broken( this is not IR").unwrap_err();
    assert_eq!(d.code, codes::P001);
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn b001_builder_misuse_is_a_diagnostic() {
    let fb = FunctionBuilder::new("b001", &[("x", Type::I64)]);
    let err = fb.try_arg(7).unwrap_err(); // only one parameter exists
    let d = Diagnostic::from(err);
    assert_eq!(d.code, codes::B001);
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn c001_invalid_config_rejects_a_sweep_point() {
    use salam_dse::{KernelSpec, StandalonePoint, SweepJob};
    let point = StandalonePoint {
        kernel: KernelSpec::bench(Bench::GemmNcubed),
        config: StandaloneConfig::default().with_ports(0),
        coords: vec![("ports".into(), "0".into())],
    };
    let d = point.validate().unwrap_err();
    assert_eq!(d.code, codes::C001);
    assert!(d.message.contains("spm_read_ports"), "{}", d.message);
}

/// The `F004` verdict contract against the live watchdog, over a fixture
/// matrix of kernels × drop rates: a `Deadlock` verdict implies the
/// watchdog fires; a `NoDeadlock` verdict implies it stays quiet;
/// `Possible` is consistent with either outcome.
#[test]
fn f004_predictions_agree_with_the_watchdog_on_every_fixture() {
    use salam::standalone::{run, RunOptions};
    use salam_flow::{DeadlockVerdict, HazardSpec};

    let kernels = [
        machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 }),
        machsuite::spmv::build(&machsuite::spmv::Params::default()),
    ];
    let mut cfg = StandaloneConfig::default();
    // A short fuse keeps the doomed runs fast; clean runs make progress
    // every few cycles, so they never come near it.
    cfg.engine.deadlock_cycles = 2_000;
    for k in &kernels {
        let facts = salam_flow::analyze(&k.func, &k.args);
        for rate in [0.0, 0.5, 1.0] {
            let pred = facts.predict_deadlock(
                &k.func,
                &HazardSpec {
                    mem_drop_rate: rate,
                },
            );
            let mut plan = salam_fault::FaultPlan::seeded(11);
            plan.mem_drop_rate = rate;
            let opts = RunOptions {
                fault: Some(plan),
                ..RunOptions::default()
            };
            let outcome = run(k, &cfg, &opts);
            let dynamic_deadlock = matches!(&outcome, Err(e) if e.is_deadlock());
            match pred.verdict {
                DeadlockVerdict::Deadlock => assert!(
                    dynamic_deadlock,
                    "{} rate={rate}: static verdict Deadlock but the run finished ({:?})",
                    k.name,
                    outcome.map(|r| r.cycles),
                ),
                DeadlockVerdict::NoDeadlock => assert!(
                    !dynamic_deadlock,
                    "{} rate={rate}: static verdict NoDeadlock but the watchdog fired",
                    k.name,
                ),
                DeadlockVerdict::Possible { expected_drops } => assert!(
                    expected_drops > 0.0,
                    "{} rate={rate}: Possible verdict must carry a positive risk measure",
                    k.name,
                ),
            }
        }
    }
}

/// Flow facts are a pure function of the kernel: repeated analyses of the
/// same IR render byte-identically, so cached DSE rows and CI transcripts
/// never churn across runs or worker counts.
#[test]
fn flow_facts_are_deterministic_across_repeated_analyses() {
    for bench in [Bench::GemmNcubed, Bench::Nw, Bench::MdGrid] {
        let k = bench.build_standard();
        let first = format!("{:?}", salam_flow::analyze(&k.func, &k.args));
        for _ in 0..3 {
            let again = format!("{:?}", salam_flow::analyze(&k.func, &k.args));
            assert_eq!(
                first, again,
                "{}: flow facts drifted between analyses",
                k.name
            );
        }
    }
}
