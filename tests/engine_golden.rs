//! Byte-identity oracle for the runtime engine's scheduler.
//!
//! The digest tables under `tests/fixtures/engine_golden/` were generated
//! by the full-window-scan engine (the parent of the wakeup-scheduler
//! rewrite) and pin everything a run can be observed through: the report
//! JSON, the whole `EngineStats` (`{:?}`, so every map key and every energy
//! bit), the recorded `DepStream`, the per-cycle timeline and the Chrome
//! trace. A scheduler change that moves a single issue by one cycle, issues
//! two ops of a cycle in another order or offers the memory port one access
//! more or less shows up here as a digest mismatch naming the case.
//!
//! Regenerate — only for a deliberate change of simulated behaviour — with
//! `SALAM_UPDATE_GOLDENS=1 cargo test --test engine_golden`.

use std::fmt::Write as _;

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::{run, run_kernel_cached, try_run_kernel, RunOptions, StandaloneConfig};
use salam_bench::runners::tuned_standalone;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_dse::fnv::fnv1a64;
use salam_fault::FaultPlan;
use salam_runtime::{Engine, FaultyPort, SimpleMem};

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/engine_golden");

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Compares `table` with the committed fixture `name`, or rewrites the
/// fixture under `SALAM_UPDATE_GOLDENS`.
fn check_table(name: &str, table: &str) {
    let path = format!("{FIXTURE_DIR}/{name}.txt");
    if std::env::var_os("SALAM_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(FIXTURE_DIR).expect("fixture dir");
        std::fs::write(&path, table).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} — regenerate with SALAM_UPDATE_GOLDENS=1"));
    for (got, want) in table.lines().zip(want.lines()) {
        assert_eq!(got, want, "engine behaviour moved ({name})");
    }
    assert_eq!(table.lines().count(), want.lines().count(), "{name}: rows");
}

/// One row per kernel: digests of the plain run's report JSON and stats,
/// and of a recording run's depstream and timeline.
fn kernel_table(tune: impl Fn(&mut StandaloneConfig)) -> String {
    let mut table =
        String::from("# kernel report_json stats_debug depstream_json timeline_debug\n");
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let mut cfg = tuned_standalone(bench);
        tune(&mut cfg);
        let plain = try_run_kernel(&kernel, &cfg).expect("plain run");
        assert!(plain.verified, "{}: output mismatch", kernel.name);
        cfg.engine.record_depstream = true;
        cfg.engine.record_timeline = true;
        let rec = try_run_kernel(&kernel, &cfg).expect("recording run");
        let stream = rec.stats.depstream.as_ref().expect("depstream recorded");
        writeln!(
            table,
            "{} {} {} {} {}",
            bench.label(),
            digest(&plain.to_json()),
            digest(&format!("{:?}", plain.stats)),
            digest(&stream.to_json()),
            digest(&format!("{:?}", rec.stats.timeline)),
        )
        .expect("write to string");
    }
    table
}

#[test]
fn tuned_standalone_is_pinned() {
    check_table("tuned", &kernel_table(|_| {}));
}

#[test]
fn oversized_block_admission_is_pinned() {
    check_table(
        "reservation8",
        &kernel_table(|c| c.engine.reservation_entries = 8),
    );
}

#[test]
fn pipelined_fus_are_pinned() {
    check_table(
        "pipelined",
        &kernel_table(|c| c.engine.pipelined_fus = true),
    );
}

#[test]
fn strict_register_hazards_are_pinned() {
    check_table(
        "strict_hazards",
        &kernel_table(|c| c.engine.strict_register_hazards = true),
    );
}

#[test]
fn single_spm_ports_are_pinned() {
    check_table(
        "ports1",
        &kernel_table(|c| {
            c.spm_read_ports = 1;
            c.spm_write_ports = 1;
        }),
    );
}

#[test]
fn single_outstanding_access_is_pinned() {
    check_table(
        "outstanding1",
        &kernel_table(|c| {
            c.engine.max_outstanding_reads = 1;
            c.engine.max_outstanding_writes = 1;
        }),
    );
}

#[test]
fn spm_latency_1_is_pinned() {
    check_table("spm_latency1", &kernel_table(|c| c.spm_latency = 1));
}

#[test]
fn spm_latency_8_is_pinned() {
    check_table("spm_latency8", &kernel_table(|c| c.spm_latency = 8));
}

/// One unit of every FU kind: nearly every ready compute op meets a
/// saturated pool, once unpipelined and once pipelined.
#[test]
fn saturated_fu_pools_are_pinned() {
    let one_each = || {
        FuKind::ALL
            .into_iter()
            .fold(FuConstraints::unconstrained(), |c, k| c.with_limit(k, 1))
    };
    check_table("fu1", &kernel_table(|c| c.constraints = one_each()));
    check_table(
        "fu1_pipelined",
        &kernel_table(|c| {
            c.constraints = one_each();
            c.engine.pipelined_fus = true;
        }),
    );
}

/// Fault hooks, `FaultyPort` (one RNG draw per offered access), the error
/// path's stats, the lockstep hierarchy port and the trace event order.
#[test]
fn fault_cache_and_trace_paths_are_pinned() {
    let mut table =
        String::from("# case report_json-or-error stats_debug | trace-case chrome_json\n");
    let gemm = Bench::GemmNcubed.build_standard();
    let cfg = tuned_standalone(Bench::GemmNcubed);

    let plan = FaultPlan {
        fu_bitflip_rate: 0.01,
        fu_jitter_rate: 0.05,
        fu_jitter_cycles: 3,
        mem_bitflip_rate: 0.01,
        mem_delay_rate: 0.05,
        mem_delay_cycles: 4,
        port_busy_rate: 0.2,
        ..FaultPlan::seeded(0x5A1A)
    };
    let opts = RunOptions {
        fault: Some(plan),
        ..RunOptions::default()
    };
    let faulted = run(&gemm, &cfg, &opts).expect("no drops, so it finishes");
    writeln!(
        table,
        "faulted-gemm {} {}",
        digest(&faulted.to_json()),
        digest(&format!("{:?}", faulted.stats)),
    )
    .expect("write to string");

    // Dropped completions wedge the run: the error and the stats the engine
    // is left with are both part of the contract.
    let drop_plan = FaultPlan {
        mem_drop_rate: 0.02,
        port_busy_rate: 0.1,
        ..FaultPlan::seeded(7)
    };
    let mut ecfg = cfg.engine;
    ecfg.deadlock_cycles = 500;
    let cdfg = StaticCdfg::elaborate(&gemm.func, &cfg.profile, &cfg.constraints);
    let mut mem = SimpleMem::new(cfg.spm_latency, cfg.spm_read_ports, cfg.spm_write_ports);
    gemm.load_into(mem.memory_mut());
    let mut engine = Engine::new(
        gemm.func.clone(),
        cdfg,
        cfg.profile.clone(),
        ecfg,
        gemm.args.clone(),
    );
    engine.set_fault(&drop_plan);
    let mut port = FaultyPort::new(mem, &drop_plan);
    let err = engine
        .try_run_to_completion(&mut port)
        .expect_err("a dropped completion deadlocks");
    engine.merge_fault_counts(port.fault_counts());
    writeln!(
        table,
        "dropped-gemm {} {}",
        digest(&err.to_string()),
        digest(&format!("{:?}", engine.stats())),
    )
    .expect("write to string");

    let cached = run_kernel_cached(&gemm, &cfg, memsys::CacheConfig::default());
    assert!(cached.verified);
    writeln!(
        table,
        "cached-gemm {} {}",
        digest(&cached.to_json()),
        digest(&format!("{:?}", cached.stats)),
    )
    .expect("write to string");

    for bench in [Bench::SpmvCrs, Bench::Nw] {
        let opts = RunOptions {
            trace: salam_obs::SharedTrace::enabled(),
            ..RunOptions::default()
        };
        run(&bench.build_standard(), &tuned_standalone(bench), &opts).expect("traced run");
        let json = opts
            .trace
            .with_recorder(salam_obs::export_chrome_json)
            .expect("enabled handle");
        writeln!(table, "trace-{} {}", bench.label(), digest(&json)).expect("write to string");
    }
    check_table("fault_cache_trace", &table);
}
