//! Scheduling behaviour of `salam_replay::replay` on hand-built streams.

use hw_profile::FuKind;
use salam_obs::{CycleClass, DepMeta, DepStream, OpKind};
use salam_replay::{replay, ReplayConfig, ReplayError};

/// Appends a compute op of `class` to group `group`, fetched by `ctrl`.
fn alu(s: &mut DepStream, uid: u64, class: &str, latency: u32, deps: &[u64], group: (u32, u64)) {
    let meta = DepMeta {
        latency,
        group: group.0,
        ctrl: group.1,
        ..DepMeta::default()
    };
    s.record_meta(uid, class, class, 0, 0, deps.to_vec(), meta);
}

/// Appends an 8-byte access to `addr` in the entry group.
fn access(s: &mut DepStream, uid: u64, kind: OpKind, addr: u64, addr_dep: u64) {
    let class = if kind == OpKind::Store {
        "store"
    } else {
        "load"
    };
    let meta = DepMeta {
        kind,
        latency: 1,
        addr,
        size: 8,
        addr_dep,
        ..DepMeta::default()
    };
    s.record_meta(uid, class, class, 0, 0, vec![], meta);
}

fn adders(n: u32) -> ReplayConfig {
    ReplayConfig {
        fu_pool: [(FuKind::IntAdder, n)].into_iter().collect(),
        ..ReplayConfig::default()
    }
}

/// add(1) → add(2) → ret, one-cycle adder each.
#[test]
fn serial_chain_takes_latency_sum_plus_drain() {
    let mut s = DepStream::new();
    alu(&mut s, 1, "int_adder", 1, &[], (0, 0));
    alu(&mut s, 2, "int_adder", 1, &[1], (0, 0));
    alu(&mut s, 3, "other", 0, &[2], (0, 0));
    let out = replay(&s, &adders(4)).unwrap();
    // c0: issue add1; c1: add1 commits, issue add2; c2: add2 commits,
    // ret issues+chains. Total = 3 cycles.
    assert_eq!(out.cycles, 3);
    assert_eq!(out.attribution.total(), out.cycles);
    assert_eq!(out.attribution.get(CycleClass::Compute), 3);
}

/// Two independent adds on a single adder serialize; two adders don't.
#[test]
fn fu_pool_limit_serializes_and_charges_fu_limit() {
    let mut s = DepStream::new();
    alu(&mut s, 1, "int_adder", 3, &[], (0, 0));
    alu(&mut s, 2, "int_adder", 3, &[], (0, 0));
    alu(&mut s, 3, "other", 0, &[1, 2], (0, 0));
    let wide = replay(&s, &adders(2)).unwrap();
    let narrow = replay(&s, &adders(1)).unwrap();
    assert!(narrow.cycles > wide.cycles);
    assert!(narrow.attribution.get(CycleClass::FuLimit) > 0);
    assert_eq!(wide.attribution.get(CycleClass::FuLimit), 0);
    assert_eq!(narrow.attribution.total(), narrow.cycles);
    assert_eq!(narrow.fu_busy_cycle_sum[&FuKind::IntAdder], 6);
}

/// Four independent loads: 2 read ports take 2 issue cycles, 1 port 4.
#[test]
fn read_port_width_gates_parallel_loads() {
    let mut s = DepStream::new();
    for uid in 1..=4 {
        access(&mut s, uid, OpKind::Load, uid * 8, 0);
    }
    alu(&mut s, 5, "other", 0, &[1, 2, 3, 4], (0, 0));
    let ports = |spm_read_ports| ReplayConfig {
        spm_read_ports,
        ..ReplayConfig::default()
    };
    let two = replay(&s, &ports(2)).unwrap();
    let one = replay(&s, &ports(1)).unwrap();
    assert!(one.cycles > two.cycles);
    assert!(one.port_reject_cycles > 0);
}

/// One outstanding read at a time: the second load waits a full memory
/// round-trip charged to MemPort.
#[test]
fn outstanding_cap_charges_mem_port() {
    let mut s = DepStream::new();
    access(&mut s, 1, OpKind::Load, 8, 0);
    access(&mut s, 2, OpKind::Load, 16, 0);
    alu(&mut s, 3, "other", 0, &[1, 2], (0, 0));
    let cfg = ReplayConfig {
        max_outstanding_reads: 1,
        mem_latency: 3,
        ..ReplayConfig::default()
    };
    let out = replay(&s, &cfg).unwrap();
    assert!(out.attribution.get(CycleClass::MemPort) > 0);
    assert_eq!(out.port_reject_cycles, 0);
    assert_eq!(out.attribution.total(), out.cycles);
}

/// Store→load to the same address must respect memory ordering.
#[test]
fn store_load_conflict_orders_and_mem_latency_retimes() {
    let mut s = DepStream::new();
    access(&mut s, 1, OpKind::Store, 64, 0);
    access(&mut s, 2, OpKind::Load, 64, 0);
    alu(&mut s, 3, "other", 0, &[2], (0, 0));
    let latency = |mem_latency| ReplayConfig {
        mem_latency,
        ..ReplayConfig::default()
    };
    let lat1 = replay(&s, &latency(1)).unwrap();
    let lat4 = replay(&s, &latency(4)).unwrap();
    // Load cannot issue until the store commits: latency on the
    // serialized pair is paid twice.
    assert_eq!(lat4.cycles - lat1.cycles, 2 * 3);
    assert!(lat4.attribution.get(CycleClass::DmaWait) > 0);
}

/// Spans that end past `u64::MAX` still order against each other; the
/// comparison must not overflow.
#[test]
fn spans_at_the_top_of_the_address_space_conflict_without_overflow() {
    let mut s = DepStream::new();
    access(&mut s, 1, OpKind::Store, u64::MAX - 3, 0);
    access(&mut s, 2, OpKind::Load, u64::MAX, 0);
    access(&mut s, 3, OpKind::Load, 0, 0);
    alu(&mut s, 4, "other", 0, &[1, 2, 3], (0, 0));
    let out = replay(&s, &ReplayConfig::default()).unwrap();
    let issue = |uid| {
        let retimed = out.retimed.as_ref().unwrap();
        retimed.ops().iter().find(|o| o.uid == uid).unwrap().issue
    };
    assert_eq!((issue(1), issue(3)), (0, 0));
    assert_eq!(issue(2), 1, "waits for the overlapping store to commit");
}

/// Block-import gating: group 1 cannot start before its terminator.
#[test]
fn group_import_waits_for_its_terminator() {
    let mut s = DepStream::new();
    alu(&mut s, 1, "int_adder", 5, &[], (0, 0));
    alu(&mut s, 2, "other", 0, &[1], (0, 0));
    alu(&mut s, 3, "int_adder", 1, &[], (1, 2));
    alu(&mut s, 4, "other", 0, &[3], (1, 2));
    let out = replay(&s, &adders(4)).unwrap();
    // c0: add1 issues (5 cycles); c1–c4 frozen (fast-forwarded);
    // c5: add1 commits, br issues+chains, group 1 imports inline,
    // add3 issues; c6: add3 commits, ret chains. Total 7.
    assert_eq!(out.cycles, 7);
    let retimed = out.retimed.expect("retimed is on by default");
    let issued: Vec<(u64, u64)> = retimed.ops().iter().map(|o| (o.uid, o.issue)).collect();
    assert!(issued.contains(&(3, 5)), "{issued:?}");
}

#[test]
fn missing_metadata_is_rejected_loudly() {
    let mut s = DepStream::new();
    s.record(1, "load", "load", 0, 2, vec![]); // legacy record(): no meta
    let err = replay(&s, &ReplayConfig::default()).unwrap_err();
    assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
    assert!(err.to_string().contains("metadata"), "{err}");
}

/// An address producer must be an earlier op — `addr_dep` used to index
/// the commit table unchecked.
#[test]
fn addr_dep_outside_the_earlier_uids_is_a_bad_stream() {
    for addr_dep in [1, 99] {
        let mut s = DepStream::new();
        access(&mut s, 1, OpKind::Load, 64, addr_dep);
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
        assert!(err.to_string().contains("addr_dep"), "{err}");
    }
}

#[test]
fn impossible_constraints_are_rejected_up_front() {
    let mut s = DepStream::new();
    // An FU class with no pool entry could never issue; replay refuses
    // before scheduling instead of deadlocking mid-run.
    alu(&mut s, 1, "fp_mul_dp", 4, &[], (0, 0));
    let err = replay(&s, &ReplayConfig::default()).unwrap_err();
    assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
    assert!(err.to_string().contains("fp_mul_dp"), "{err}");
}

#[test]
fn retimed_stream_keeps_ops_and_attribution_totals_match() {
    let mut s = DepStream::new();
    alu(&mut s, 1, "int_adder", 1, &[], (0, 0));
    alu(&mut s, 2, "other", 0, &[1], (0, 0));
    let out = replay(&s, &adders(1)).unwrap();
    assert_eq!(out.retimed.as_ref().expect("on by default").len(), s.len());
    assert_eq!(out.attribution.total(), out.cycles);

    // Sweeps that only need cycles can skip building the stream.
    let lean_cfg = ReplayConfig {
        want_retimed: false,
        ..adders(1)
    };
    let lean = replay(&s, &lean_cfg).unwrap();
    assert_eq!(lean.cycles, out.cycles);
    assert!(lean.retimed.is_none());
}
