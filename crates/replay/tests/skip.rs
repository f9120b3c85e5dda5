//! The period skip on hand-built loop streams, against the same streams
//! made aperiodic as the oracle.
//!
//! A loop's iterations repeat op for op, up to their addresses, so the
//! replay advances over whole periods once the schedule repeats. Giving
//! every iteration's load a size that follows the Thue–Morse sequence
//! (8 or 7 bytes) changes no overlap of these loops, hence no scheduling
//! decision, but no three consecutive blocks of that sequence are equal,
//! so no stretch of the stream repeats three times and nothing is skipped:
//! the aperiodic replay is the plain step, cycle by cycle.

use hw_profile::FuKind;
use salam_obs::{DepMeta, DepStream, OpKind};
use salam_replay::{replay, ReplayConfig, ReplayError, ReplayOutcome};

/// How a generated loop touches memory in iteration `i`: the load's and
/// the store's addresses.
type Addrs = fn(u64) -> (u64, u64);

/// `trips` iterations of: load → multiply (`mul_latency`) → add with the
/// previous iteration's sum → store of the sum, then the branch that
/// fetches the next iteration; after the loop, one op that reads the sums
/// of the middle and the last iteration (an edge out of the skipped
/// periods). `thue_morse` gives the loads sizes that never repeat three
/// times in a row.
fn loop_stream(trips: u64, mul_latency: u32, addrs: Addrs, thue_morse: bool) -> DepStream {
    let mut s = DepStream::new();
    let mut uid = 0;
    let mut next = |s: &mut DepStream, kind: OpKind, class: &str, meta: DepMeta, deps: Vec<u64>| {
        uid += 1;
        let meta = DepMeta { kind, ..meta };
        s.record_meta(uid, class, class, 0, 0, &deps, meta);
        uid
    };
    let entry = DepMeta::default();
    let base = next(
        &mut s,
        OpKind::Compute,
        "int_adder",
        DepMeta {
            latency: 1,
            ..entry
        },
        vec![],
    );
    let mut branch = next(&mut s, OpKind::Compute, "other", entry, vec![base]);
    let mut sum = base;
    let mut middle = base;
    for i in 0..trips {
        let group = DepMeta {
            group: i as u32 + 1,
            ctrl: branch,
            ..DepMeta::default()
        };
        let (load_at, store_at) = addrs(i);
        let size = if thue_morse && i.count_ones() % 2 == 1 {
            7
        } else {
            8
        };
        let load = DepMeta {
            latency: 1,
            addr: load_at,
            size,
            ..group
        };
        let x = next(&mut s, OpKind::Load, "load", load, vec![]);
        let mul = DepMeta {
            latency: mul_latency,
            ..group
        };
        let y = next(
            &mut s,
            OpKind::Compute,
            "int_multiplier",
            mul,
            vec![x, base],
        );
        let add = DepMeta {
            latency: 1,
            ..group
        };
        sum = next(&mut s, OpKind::Compute, "int_adder", add, vec![y, sum]);
        let store = DepMeta {
            latency: 1,
            addr: store_at,
            size: 8,
            ..group
        };
        next(&mut s, OpKind::Store, "store", store, vec![sum]);
        branch = next(&mut s, OpKind::Compute, "other", group, vec![sum]);
        if i == trips / 2 {
            middle = sum;
        }
    }
    let exit = DepMeta {
        latency: 1,
        group: trips as u32 + 1,
        ctrl: branch,
        ..DepMeta::default()
    };
    next(
        &mut s,
        OpKind::Compute,
        "int_adder",
        exit,
        vec![middle, sum],
    );
    s
}

fn config(ports: u32, latency: u64, window: usize) -> ReplayConfig {
    ReplayConfig {
        reservation_entries: window,
        mem_latency: latency,
        spm_read_ports: ports,
        spm_write_ports: ports,
        fu_pool: [(FuKind::IntAdder, 2), (FuKind::IntMultiplier, 1)]
            .into_iter()
            .collect(),
        ..ReplayConfig::default()
    }
}

/// Everything an outcome reports but the skip count, the retimed stream
/// as its (uid, issue, commit) rows.
fn observed(out: &ReplayOutcome) -> String {
    let mut busy: Vec<_> = out.fu_busy_cycle_sum.iter().collect();
    busy.sort_by_key(|&(&k, _)| k as usize);
    let times: Vec<_> = out
        .retimed
        .iter()
        .flat_map(|s| s.ops().iter().map(|op| (op.uid, op.issue, op.commit)))
        .collect();
    format!(
        "{} {:?} {busy:?} {} {} {} {times:?}",
        out.cycles, out.attribution, out.stall_cycles, out.new_exec_cycles, out.port_reject_cycles
    )
}

/// Replays the loop both ways under `cfg`; returns the cycles skipped.
fn skip_matches_step(trips: u64, mul_latency: u32, addrs: Addrs, cfg: &ReplayConfig) -> u64 {
    let skipped = replay(&loop_stream(trips, mul_latency, addrs, false), cfg).unwrap();
    let stepped = replay(&loop_stream(trips, mul_latency, addrs, true), cfg).unwrap();
    assert_eq!(stepped.skipped_cycles, 0, "the aperiodic stream repeats");
    assert_eq!(observed(&skipped), observed(&stepped), "{cfg:?}");
    let lean = replay(
        &loop_stream(trips, mul_latency, addrs, false),
        &ReplayConfig {
            want_retimed: false,
            ..cfg.clone()
        },
    )
    .unwrap();
    assert_eq!(lean.cycles, skipped.cycles);
    assert_eq!(lean.skipped_cycles, skipped.skipped_cycles);
    skipped.skipped_cycles
}

/// Reads `a[i]`, writes `b[i]`, far apart.
fn disjoint(i: u64) -> (u64, u64) {
    (0x1000 + 8 * i, 0x9000 + 8 * i)
}

/// Reads `a[i]`, writes `a[i + 1]`: each load waits for the store before it.
fn recurrence(i: u64) -> (u64, u64) {
    (0x1000 + 8 * i, 0x1008 + 8 * i)
}

/// Reads `a[40 + i]`, writes `a[2i]`: the stores catch up with the loads
/// near iteration 40, and from then on overlap loads of nearby iterations.
fn late_overlap(i: u64) -> (u64, u64) {
    (0x1000 + 8 * (40 + i), 0x1000 + 16 * i)
}

#[test]
fn skipping_a_long_loop_equals_stepping_it() {
    for (ports, latency, window) in [(2, 1, 128), (1, 3, 128), (1, 1, 16), (4, 2, 40)] {
        let cfg = config(ports, latency, window);
        assert!(skip_matches_step(200, 3, disjoint, &cfg) > 0, "{cfg:?}");
        assert!(skip_matches_step(200, 3, recurrence, &cfg) > 0, "{cfg:?}");
    }
}

/// A 24-cycle multiply leaves every period with a quiet stretch that the
/// driver fast-forwards; the skip lands on period boundaries around them.
#[test]
fn quiet_stretches_inside_a_period_are_skipped_exactly() {
    for window in [8, 64] {
        let cfg = config(1, 2, window);
        assert!(skip_matches_step(150, 24, recurrence, &cfg) > 0);
    }
}

/// Accesses that start to overlap only after some iteration change the
/// order checks from one period to the next: replay must stay exact.
#[test]
fn accesses_that_start_to_overlap_late_replay_exactly() {
    for (ports, latency, window) in [(2, 1, 128), (1, 3, 32)] {
        skip_matches_step(120, 3, late_overlap, &config(ports, latency, window));
    }
}

/// A skip lands on a cycle the step would reach too: a cycle limit inside
/// the skipped stretch still fails the replay.
#[test]
fn a_skip_never_jumps_past_the_cycle_limit() {
    let stream = loop_stream(200, 3, disjoint, false);
    let cfg = config(2, 1, 128);
    let out = replay(&stream, &cfg).unwrap();
    assert!(out.skipped_cycles > out.cycles / 2);
    for limit in [out.cycles / 2, out.cycles - 2] {
        let capped = ReplayConfig {
            max_cycles: limit,
            ..cfg.clone()
        };
        assert_eq!(
            replay(&stream, &capped).unwrap_err(),
            ReplayError::CycleLimit { limit }
        );
    }
    let last_top = ReplayConfig {
        max_cycles: out.cycles - 1,
        ..cfg
    };
    assert_eq!(replay(&stream, &last_top).unwrap().cycles, out.cycles);
}
