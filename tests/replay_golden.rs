//! Differential oracle for the replay scheduler.
//!
//! The digest tables under `tests/fixtures/replay_golden/` were generated
//! by the per-cycle list scheduler (the parent of the event-driven rewrite
//! of `salam_replay::run`) and pin everything a replay can be observed
//! through: the synthesized `RunReport` JSON, every field of the
//! `ReplayOutcome` and the retimed stream. A scheduler change that moves
//! one issue by one cycle, charges one cycle to another class or commits
//! two ops of a cycle in another order shows up here as a digest mismatch
//! naming the case and the kernel.
//!
//! Regenerate — only for a deliberate change of replayed behaviour — with
//! `SALAM_UPDATE_GOLDENS=1 cargo test --test replay_golden`.

use std::fmt::Write as _;

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::StandaloneConfig;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_dse::fnv::fnv1a64;
use salam_dse::{replay_config, replay_one};
use salam_obs::{DepMeta, DepStream, OpKind};
use salam_replay::{replay, ReplayConfig, ReplayError, ReplayOutcome};

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/replay_golden");

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
        assert_eq!(got, want, "replay behaviour moved ({name})");
    }
    assert_eq!(table.lines().count(), want.lines().count(), "{name}: rows");
}

/// `{:?}` of the outcome without the retimed stream, the FU map in
/// `FuKind` order (a `HashMap` prints in a per-process order).
fn outcome_text(out: &ReplayOutcome) -> String {
    let mut busy: Vec<(FuKind, u64)> = out
        .fu_busy_cycle_sum
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    busy.sort_by_key(|&(k, _)| k as usize);
    format!(
        "cycles={} {:?} fu_busy={busy:?} stall={} new_exec={} port_reject={}",
        out.cycles, out.attribution, out.stall_cycles, out.new_exec_cycles, out.port_reject_cycles
    )
}

/// One row per kernel: the kernel is recorded at `tune`'s baseline
/// projection and replayed at `tune`'s configuration.
fn kernel_table(tune: impl Fn(&mut StandaloneConfig)) -> String {
    let mut table = String::from("# kernel cycles report_json outcome_debug retimed_json\n");
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let mut cfg = StandaloneConfig::default();
        tune(&mut cfg);
        let (report, trace) = replay_one(&kernel, &cfg).expect("replays above the static bound");
        let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
        let rcfg = ReplayConfig {
            want_retimed: true,
            ..replay_config(&cfg, &cdfg)
        };
        let out = replay(&trace, &rcfg).expect("replays");
        assert_eq!(out.cycles, report.cycles, "{}", kernel.name);
        let retimed = out.retimed.as_ref().expect("asked for");
        writeln!(
            table,
            "{} {} {} {} {}",
            bench.label(),
            out.cycles,
            digest(&report.to_json()),
            digest(&outcome_text(&out)),
            digest(&retimed.to_json()),
        )
        .expect("write to string");
    }
    table
}

#[test]
fn default_config_is_pinned() {
    check_table("default", &kernel_table(|_| {}));
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
fn eight_spm_ports_are_pinned() {
    check_table(
        "ports8",
        &kernel_table(|c| {
            c.spm_read_ports = 8;
            c.spm_write_ports = 8;
        }),
    );
}

#[test]
fn spm_latency_1_is_pinned() {
    check_table("spm_latency1", &kernel_table(|c| c.spm_latency = 1));
}

#[test]
fn spm_latency_4_is_pinned() {
    check_table("spm_latency4", &kernel_table(|c| c.spm_latency = 4));
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

fn adders(n: u32) -> FuConstraints {
    FuConstraints::unconstrained().with_limit(FuKind::IntAdder, n)
}

#[test]
fn one_int_adder_is_pinned() {
    check_table("int_adder1", &kernel_table(|c| c.constraints = adders(1)));
}

#[test]
fn two_int_adders_are_pinned() {
    check_table("int_adder2", &kernel_table(|c| c.constraints = adders(2)));
}

#[test]
fn pipelined_fus_are_pinned() {
    check_table(
        "pipelined",
        &kernel_table(|c| c.engine.pipelined_fus = true),
    );
}

#[test]
fn oversized_block_admission_is_pinned() {
    check_table(
        "reservation8",
        &kernel_table(|c| c.engine.reservation_entries = 8),
    );
}

fn compute(latency: u32) -> DepMeta {
    DepMeta {
        kind: OpKind::Compute,
        latency,
        ..DepMeta::default()
    }
}

/// The two error exits carry exact values: where the schedule wedged and
/// how far it got, and the budget that ran out.
#[test]
fn deadlock_and_cycle_limit_are_pinned() {
    let pool: std::collections::HashMap<FuKind, u32> =
        [(FuKind::IntAdder, 1)].into_iter().collect();

    // uid 1 commits at cycle 2; uids 2 and 3 wait on each other forever.
    let mut wedged = DepStream::new();
    wedged.record_meta(1, "add", "int_adder", 0, 0, vec![], compute(2));
    wedged.record_meta(2, "add", "int_adder", 0, 0, vec![1, 3], compute(1));
    wedged.record_meta(3, "ret", "other", 0, 0, vec![2], compute(0));
    let cfg = ReplayConfig {
        fu_pool: pool.clone(),
        ..ReplayConfig::default()
    };
    assert_eq!(
        replay(&wedged, &cfg).unwrap_err(),
        ReplayError::Deadlock {
            cycle: 3,
            committed: 1,
            total: 3
        }
    );

    // A five-cycle add against a three-cycle budget.
    let mut slow = DepStream::new();
    slow.record_meta(1, "add", "int_adder", 0, 0, vec![], compute(5));
    slow.record_meta(2, "ret", "other", 0, 0, vec![1], compute(0));
    let cfg = ReplayConfig {
        fu_pool: pool,
        max_cycles: 3,
        ..ReplayConfig::default()
    };
    assert_eq!(
        replay(&slow, &cfg).unwrap_err(),
        ReplayError::CycleLimit { limit: 3 }
    );
}
