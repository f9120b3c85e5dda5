//! Property-based cross-model tests: the reference interpreter, the
//! optimization passes, the textual round-trip, and the cycle-accurate
//! runtime engine must all agree on randomly generated kernels.
//!
//! Randomness comes from the in-tree seeded-case harness
//! (`salam_obs::det`), so the cases are identical on every platform and
//! the suite needs no crates.io dependencies.

use std::collections::{BTreeMap, HashMap};

use salam_obs::det::{check_cases, SplitMix64};

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::{run_function, NullObserver, RtVal, SparseMemory};
use salam_ir::{
    parse_module, FloatPredicate, Function, FunctionBuilder, IntPredicate, Module, Type,
};
use salam_replay::ReplayConfig;
use salam_runtime::{
    Engine, EngineConfig, EngineStats, MemAccess, MemCompletion, MemPort, RefusalScope,
    RejectCause, Rejection, SimpleMem,
};

/// One step of a random straight-line computation over two value pools.
#[derive(Debug, Clone)]
enum Op {
    IAdd(usize, usize),
    ISub(usize, usize),
    IMul(usize, usize),
    IMin(usize, usize),
    Shl(usize, u8),
    FAdd(usize, usize),
    FSub(usize, usize),
    FMul(usize, usize),
    FMax(usize, usize),
}

fn gen_op(g: &mut SplitMix64) -> Op {
    let a = g.range_usize(0, 64);
    let b = g.range_usize(0, 64);
    match g.range_usize(0, 9) {
        0 => Op::IAdd(a, b),
        1 => Op::ISub(a, b),
        2 => Op::IMul(a, b),
        3 => Op::IMin(a, b),
        4 => Op::Shl(a, g.range_u64(0, 6) as u8),
        5 => Op::FAdd(a, b),
        6 => Op::FSub(a, b),
        7 => Op::FMul(a, b),
        _ => Op::FMax(a, b),
    }
}

fn gen_ops(g: &mut SplitMix64, lo: usize, hi: usize) -> Vec<Op> {
    let n = g.range_usize(lo, hi);
    (0..n).map(|_| gen_op(g)).collect()
}

fn gen_ints(g: &mut SplitMix64) -> [i64; 4] {
    std::array::from_fn(|_| g.range_i64(-1000, 1000))
}

fn gen_floats(g: &mut SplitMix64) -> [f64; 4] {
    std::array::from_fn(|_| g.range_f64(-100.0, 100.0))
}

/// Builds a kernel that loads 4 ints and 4 floats, applies `ops`, and
/// stores the final pools back.
fn build_kernel(ops: &[Op]) -> Function {
    let mut fb = FunctionBuilder::new("rand_kernel", &[("iv", Type::Ptr), ("fv", Type::Ptr)]);
    let ivp = fb.arg(0);
    let fvp = fb.arg(1);
    let mut ints = Vec::new();
    let mut floats = Vec::new();
    for i in 0..4i64 {
        let idx = fb.i64c(i);
        let p = fb.gep1(Type::I64, ivp, idx, "pi");
        ints.push(fb.load(Type::I64, p, "iv"));
        let pf = fb.gep1(Type::F64, fvp, idx, "pf");
        floats.push(fb.load(Type::F64, pf, "fvv"));
    }
    for op in ops {
        match *op {
            Op::IAdd(a, b) => {
                let (x, y) = (ints[a % ints.len()], ints[b % ints.len()]);
                let v = fb.add(x, y, "v");
                ints.push(v);
            }
            Op::ISub(a, b) => {
                let (x, y) = (ints[a % ints.len()], ints[b % ints.len()]);
                let v = fb.sub(x, y, "v");
                ints.push(v);
            }
            Op::IMul(a, b) => {
                let (x, y) = (ints[a % ints.len()], ints[b % ints.len()]);
                let v = fb.mul(x, y, "v");
                ints.push(v);
            }
            Op::IMin(a, b) => {
                let (x, y) = (ints[a % ints.len()], ints[b % ints.len()]);
                let c = fb.icmp(IntPredicate::Slt, x, y, "c");
                let v = fb.select(c, x, y, "v");
                ints.push(v);
            }
            Op::Shl(a, s) => {
                let x = ints[a % ints.len()];
                let sh = fb.i64c(s as i64);
                let v = fb.shl(x, sh, "v");
                ints.push(v);
            }
            Op::FAdd(a, b) => {
                let (x, y) = (floats[a % floats.len()], floats[b % floats.len()]);
                let v = fb.fadd(x, y, "v");
                floats.push(v);
            }
            Op::FSub(a, b) => {
                let (x, y) = (floats[a % floats.len()], floats[b % floats.len()]);
                let v = fb.fsub(x, y, "v");
                floats.push(v);
            }
            Op::FMul(a, b) => {
                let (x, y) = (floats[a % floats.len()], floats[b % floats.len()]);
                let v = fb.fmul(x, y, "v");
                floats.push(v);
            }
            Op::FMax(a, b) => {
                let (x, y) = (floats[a % floats.len()], floats[b % floats.len()]);
                let c = fb.fcmp(FloatPredicate::Ogt, x, y, "c");
                let v = fb.select(c, x, y, "v");
                floats.push(v);
            }
        }
    }
    // Store the last 4 of each pool.
    for i in 0..4usize {
        let idx = fb.i64c((4 + i) as i64);
        let p = fb.gep1(Type::I64, ivp, idx, "po");
        let v = ints[ints.len() - 1 - i];
        fb.store(v, p);
        let pf = fb.gep1(Type::F64, fvp, idx, "pfo");
        let fvv = floats[floats.len() - 1 - i];
        fb.store(fvv, pf);
    }
    fb.ret();
    fb.finish()
}

fn interp_outputs(f: &Function, ints: &[i64; 4], floats: &[f64; 4]) -> (Vec<i64>, Vec<f64>) {
    let mut mem = SparseMemory::new();
    mem.write_i64_slice(0x1000, ints);
    mem.write_f64_slice(0x2000, floats);
    run_function(
        f,
        &[RtVal::P(0x1000), RtVal::P(0x2000)],
        &mut mem,
        &mut NullObserver,
        1_000_000,
    )
    .expect("interpreter run");
    (mem.read_i64_slice(0x1020, 4), mem.read_f64_slice(0x2020, 4))
}

fn engine_outputs(f: &Function, ints: &[i64; 4], floats: &[f64; 4]) -> (Vec<i64>, Vec<f64>, u64) {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(f, &profile, &FuConstraints::unconstrained());
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut().write_i64_slice(0x1000, ints);
    mem.memory_mut().write_f64_slice(0x2000, floats);
    let mut e = Engine::new(
        f.clone(),
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::P(0x2000)],
    );
    let cycles = e.run_to_completion(&mut mem);
    (
        mem.memory_mut().read_i64_slice(0x1020, 4),
        mem.memory_mut().read_f64_slice(0x2020, 4),
        cycles,
    )
}

fn floats_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x == y) || (x.is_nan() && y.is_nan()))
}

/// The cycle-accurate engine computes exactly what the interpreter does.
#[test]
fn engine_matches_interpreter() {
    check_cases("engine_matches_interpreter", 48, 0xE1, |g| {
        let ops = gen_ops(g, 1, 40);
        let ints = gen_ints(g);
        let floats = gen_floats(g);
        let f = build_kernel(&ops);
        salam_ir::verify_function(&f).unwrap();
        let (wi, wf) = interp_outputs(&f, &ints, &floats);
        let (gi, gf, cycles) = engine_outputs(&f, &ints, &floats);
        assert_eq!(wi, gi);
        assert!(floats_eq(&wf, &gf));
        assert!(cycles > 0);
    });
}

/// Constant folding + DCE never change observable behaviour.
#[test]
fn passes_preserve_semantics() {
    check_cases("passes_preserve_semantics", 48, 0xE2, |g| {
        let ops = gen_ops(g, 1, 40);
        let ints = gen_ints(g);
        let floats = gen_floats(g);
        let f = build_kernel(&ops);
        let (wi, wf) = interp_outputs(&f, &ints, &floats);
        let mut opt = f.clone();
        salam_ir::passes::run_default_pipeline(&mut opt);
        salam_ir::verify_function(&opt).unwrap();
        let (oi, of) = interp_outputs(&opt, &ints, &floats);
        assert_eq!(wi, oi);
        assert!(floats_eq(&wf, &of));
    });
}

/// Textual printing and parsing round-trip to a fixed point.
#[test]
fn print_parse_roundtrip() {
    check_cases("print_parse_roundtrip", 48, 0xE3, |g| {
        let ops = gen_ops(g, 1, 30);
        let f = build_kernel(&ops);
        let mut m = Module::new("m");
        m.add_function(f);
        let text = m.to_string();
        let parsed = parse_module(&text).unwrap();
        assert_eq!(parsed.to_string(), text);
    });
}

/// The engine is deterministic: identical inputs give identical cycle
/// counts and results.
#[test]
fn engine_is_deterministic() {
    check_cases("engine_is_deterministic", 48, 0xE4, |g| {
        let ops = gen_ops(g, 1, 25);
        let ints = gen_ints(g);
        let floats = gen_floats(g);
        let f = build_kernel(&ops);
        let a = engine_outputs(&f, &ints, &floats);
        let b = engine_outputs(&f, &ints, &floats);
        assert_eq!(a.0, b.0);
        assert!(floats_eq(&a.1, &b.1));
        assert_eq!(a.2, b.2);
    });
}

// ---- engine vs replay on generated looped kernels ----------------------------

/// One statement of a generated loop body: `a|b[(iv·k+c) mod 16]` → an
/// integer op against the running value → optional float detour →
/// `a[(iv·k'+c') mod 16]`, the store optionally behind a data-dependent
/// branch. Loads and stores alias across statements and iterations.
#[derive(Debug, Clone)]
struct Stmt {
    load_b: bool,
    load_at: (i64, i64),
    op: usize,
    float_detour: bool,
    store_at: (i64, i64),
    guarded: bool,
}

/// An outer loop of `outer` trips, optionally around an inner one.
#[derive(Debug, Clone)]
struct LoopKernel {
    outer: i64,
    inner: Option<i64>,
    stmts: Vec<Stmt>,
}

fn gen_loop_kernel(g: &mut SplitMix64) -> LoopKernel {
    let at = |g: &mut SplitMix64| (g.range_i64(0, 4), g.range_i64(0, 16));
    LoopKernel {
        outer: g.range_i64(2, 7),
        inner: g.gen_bool(0.5).then(|| g.range_i64(1, 5)),
        stmts: (0..g.range_usize(1, 6))
            .map(|_| Stmt {
                load_b: g.gen_bool(0.5),
                load_at: at(g),
                op: g.range_usize(0, 5),
                float_detour: g.gen_bool(0.3),
                store_at: at(g),
                guarded: g.gen_bool(0.3),
            })
            .collect(),
    }
}

/// `base[(iv·k+c) mod 16]` as an `i64` element pointer.
fn elem_ptr(
    fb: &mut FunctionBuilder,
    base: salam_ir::ValueId,
    iv: salam_ir::ValueId,
    (k, c): (i64, i64),
) -> salam_ir::ValueId {
    let (k, c, mask) = (fb.i64c(k), fb.i64c(c), fb.i64c(15));
    let scaled = fb.mul(iv, k, "scaled");
    let off = fb.add(scaled, c, "off");
    let idx = fb.and(off, mask, "idx");
    fb.gep1(Type::I64, base, idx, "p")
}

fn emit_stmts(
    fb: &mut FunctionBuilder,
    stmts: &[Stmt],
    a: salam_ir::ValueId,
    b: salam_ir::ValueId,
    iv: salam_ir::ValueId,
) {
    let mut acc = iv;
    for s in stmts {
        let p = elem_ptr(fb, if s.load_b { b } else { a }, iv, s.load_at);
        let x = fb.load(Type::I64, p, "x");
        let mut y = match s.op {
            0 => fb.add(x, acc, "y"),
            1 => fb.mul(x, acc, "y"),
            2 => fb.sub(x, acc, "y"),
            3 => fb.xor(x, acc, "y"),
            _ => {
                let c = fb.icmp(IntPredicate::Slt, x, acc, "c");
                fb.select(c, x, acc, "y")
            }
        };
        if s.float_detour {
            // Keep the detour exact: small magnitudes survive the round trip.
            let mask = fb.i64c(0xFFFF);
            let small = fb.and(y, mask, "small");
            let f = fb.sitofp(small, Type::F64, "f");
            let half = fb.f64c(0.5);
            let m = fb.fmul(f, half, "m");
            y = fb.fptosi(m, Type::I64, "yi");
        }
        acc = y;
        let q = elem_ptr(fb, a, iv, s.store_at);
        if s.guarded {
            let then_b = fb.add_block("guard.then");
            let join = fb.add_block("guard.join");
            let one = fb.i64c(1);
            let low = fb.and(y, one, "low");
            let zero = fb.i64c(0);
            let odd = fb.icmp(IntPredicate::Ne, low, zero, "odd");
            fb.cond_br(odd, then_b, join);
            fb.position_at(then_b);
            fb.store(y, q);
            fb.br(join);
            fb.position_at(join);
        } else {
            fb.store(y, q);
        }
    }
}

fn build_loop_kernel(k: &LoopKernel) -> Function {
    let mut fb = FunctionBuilder::new("rand_loops", &[("a", Type::Ptr), ("b", Type::Ptr)]);
    let (a, b) = (fb.arg(0), fb.arg(1));
    let zero = fb.i64c(0);
    let outer = fb.i64c(k.outer);
    fb.counted_loop("i", zero, outer, |fb, i| match k.inner {
        None => emit_stmts(fb, &k.stmts, a, b, i),
        Some(trips) => {
            let inner = fb.i64c(trips);
            fb.counted_loop("j", zero, inner, |fb, j| {
                let iv = fb.add(i, j, "ij");
                emit_stmts(fb, &k.stmts, a, b, iv);
            });
        }
    });
    fb.ret();
    fb.finish()
}

/// One design point over the knobs replay re-models.
#[derive(Debug, Clone)]
struct Point {
    read_ports: u32,
    write_ports: u32,
    spm_latency: u64,
    engine: EngineConfig,
    caps: Vec<(FuKind, u32)>,
}

impl Default for Point {
    /// The recording configuration.
    fn default() -> Self {
        Point {
            read_ports: 2,
            write_ports: 2,
            spm_latency: 1,
            engine: EngineConfig::default(),
            caps: Vec::new(),
        }
    }
}

/// A random point; the two FU caps fall on kinds the kernel uses.
fn gen_point(g: &mut SplitMix64, used: &[FuKind]) -> Point {
    Point {
        read_ports: g.range_u64(1, 4) as u32,
        write_ports: g.range_u64(1, 4) as u32,
        spm_latency: g.range_u64(1, 6),
        engine: EngineConfig {
            max_outstanding_reads: g.range_usize(1, 6),
            max_outstanding_writes: g.range_usize(1, 6),
            reservation_entries: g.range_usize(4, 201),
            pipelined_fus: g.gen_bool(0.5),
            ..EngineConfig::default()
        },
        caps: (0..2)
            .map(|_| (*g.choose(used), g.range_u64(1, 3) as u32))
            .collect(),
    }
}

/// Runs `f` on the engine at `point` (arrays of 16 `i64` behind the first
/// two arguments, when they are in range); returns the stats and the FU
/// pool the point elaborated to.
fn engine_run_at(
    f: &Function,
    args: &[RtVal],
    point: &Point,
    record: bool,
) -> (EngineStats, HashMap<FuKind, u32>) {
    let mut mem = loaded_mem(args, point, point.read_ports, point.write_ports);
    engine_run_on(f, args, point, record, &mut mem)
}

/// A `SimpleMem` at `point`'s latency with the given port counts, holding
/// the arrays `engine_run_at` describes.
fn loaded_mem(args: &[RtVal], point: &Point, read_ports: u32, write_ports: u32) -> SimpleMem {
    let mut mem = SimpleMem::new(point.spm_latency, read_ports, write_ports);
    for (i, arg) in args.iter().enumerate() {
        if let RtVal::P(base @ 0..=0xFFFF_FFFF) = *arg {
            let data: Vec<i64> = (0..16).map(|v| v * 37 + i as i64 * 11 - 100).collect();
            mem.memory_mut().write_i64_slice(base, &data);
        }
    }
    mem
}

/// Runs `f` on the engine at `point` against `port`.
fn engine_run_on(
    f: &Function,
    args: &[RtVal],
    point: &Point,
    record: bool,
    port: &mut dyn MemPort,
) -> (EngineStats, HashMap<FuKind, u32>) {
    let profile = HardwareProfile::default_40nm();
    let mut constraints = FuConstraints::unconstrained();
    for &(kind, n) in &point.caps {
        constraints = constraints.with_limit(kind, n);
    }
    let cdfg = StaticCdfg::elaborate(f, &profile, &constraints);
    let fu_pool = cdfg.fu_counts().collect();
    let cfg = EngineConfig {
        record_depstream: record,
        ..point.engine
    };
    let mut e = Engine::new(f.clone(), cdfg, profile, cfg, args.to_vec());
    e.run_to_completion(port);
    (e.stats().clone(), fu_pool)
}

/// Records `f`'s stream at the default point, then requires replaying it
/// at each of `points` to agree with the engine's own run there on cycles,
/// attribution, the stall counters and the FU busy integrals. Returns the
/// cycles each replay skipped over in whole repeating periods.
fn assert_replay_matches_engine(f: &Function, args: &[RtVal], points: &[Point]) -> Vec<u64> {
    let (recorded, _) = engine_run_at(f, args, &Point::default(), true);
    let stream = recorded.depstream.expect("recorded under record_depstream");
    let mut skipped = Vec::new();
    for point in points {
        let (sim, fu_pool) = engine_run_at(f, args, point, false);
        let cfg = ReplayConfig {
            reservation_entries: point.engine.reservation_entries,
            max_outstanding_reads: point.engine.max_outstanding_reads,
            max_outstanding_writes: point.engine.max_outstanding_writes,
            pipelined_fus: point.engine.pipelined_fus,
            mem_latency: point.spm_latency,
            spm_read_ports: point.read_ports,
            spm_write_ports: point.write_ports,
            fu_pool,
            want_retimed: false,
            ..ReplayConfig::default()
        };
        let out = salam_replay::replay(&stream, &cfg).expect("replayable");
        skipped.push(out.skipped_cycles);
        assert_eq!(out.cycles, sim.cycles, "cycles at {point:?}");
        assert_eq!(out.attribution, sim.attribution, "attribution at {point:?}");
        assert_eq!(out.stall_cycles, sim.stall_cycles, "stalls at {point:?}");
        assert_eq!(out.new_exec_cycles, sim.new_exec_cycles, "{point:?}");
        assert_eq!(out.port_reject_cycles, sim.port_reject_cycles, "{point:?}");
        let busy: BTreeMap<FuKind, u64> = out.fu_busy_cycle_sum.into_iter().collect();
        assert_eq!(busy, sim.fu_busy_cycle_sum, "FU busy sums at {point:?}");
    }
    skipped
}

/// `store p; load p; store q`, the kernel whose first two accesses end
/// past `u64::MAX` when `p = u64::MAX - 7`.
fn store_load_store_kernel() -> Function {
    let mut fb = FunctionBuilder::new("st_ld_st", &[("p", Type::Ptr), ("q", Type::Ptr)]);
    let (p, q) = (fb.arg(0), fb.arg(1));
    let c = fb.i64c(7);
    fb.store(c, p);
    let x = fb.load(Type::I64, p, "x");
    fb.store(x, q);
    fb.ret();
    fb.finish()
}

/// The second oracle for the scheduler (next to the nine-kernel goldens):
/// on generated looped kernels with aliasing accesses, float detours and
/// data-dependent branches, re-scheduling the recorded stream gives
/// exactly what the engine computes at the same design point.
#[test]
fn replay_matches_engine_on_generated_kernels() {
    check_cases(
        "replay_matches_engine_on_generated_kernels",
        300,
        0xE5,
        |g| {
            let f = build_loop_kernel(&gen_loop_kernel(g));
            salam_ir::verify_function(&f).unwrap();
            let profile = HardwareProfile::default_40nm();
            let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
            let used: Vec<FuKind> = cdfg.fu_counts().map(|(k, _)| k).collect();
            let points: Vec<Point> = (0..4).map(|_| gen_point(g, &used)).collect();
            assert_replay_matches_engine(&f, &[RtVal::P(0x1000), RtVal::P(0x2000)], &points);
        },
    );
    // One fixed case: spans at the top of the address space order the same
    // way in the engine and in the replay of its own stream (the engine's
    // overlap test used to overflow there).
    let slow_spm = Point {
        spm_latency: 3,
        ..Point::default()
    };
    let top = [RtVal::P(u64::MAX - 7), RtVal::P(0x1000)];
    assert_replay_matches_engine(&store_load_store_kernel(), &top, &[slow_spm]);
}

// ---- the period skip on long counted loops --------------------------------

/// How the accesses of a generated steady loop relate across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// `b[i] = f(a[i])`, the arrays disjoint.
    Affine,
    /// `a[i + 1] = f(a[i])`: a recurrence through memory.
    Recurrence,
    /// `a[2i] = f(a[offset + i])`: the stores start below the loads and
    /// catch up with them only after some iteration.
    LateOverlap,
}

/// A counted loop of `trips` iterations whose body is a chain of integer
/// ops (and optionally a float detour) between one load and one store.
#[derive(Debug, Clone)]
struct SteadyLoop {
    pattern: Pattern,
    trips: i64,
    offset: i64,
    ops: Vec<usize>,
    float_detour: bool,
}

fn gen_steady_loop(g: &mut SplitMix64, pattern: Pattern) -> SteadyLoop {
    SteadyLoop {
        pattern,
        trips: g.range_i64(64, 257),
        offset: g.range_i64(8, 48),
        ops: (0..g.range_usize(1, 5))
            .map(|_| g.range_usize(0, 4))
            .collect(),
        float_detour: g.gen_bool(0.3),
    }
}

fn build_steady_loop(l: &SteadyLoop) -> Function {
    let mut fb = FunctionBuilder::new("steady", &[("a", Type::Ptr), ("b", Type::Ptr)]);
    let (a, b) = (fb.arg(0), fb.arg(1));
    let (zero, trips) = (fb.i64c(0), fb.i64c(l.trips));
    fb.counted_loop("i", zero, trips, |fb, i| {
        let (from, to) = match l.pattern {
            Pattern::Affine => (
                fb.gep1(Type::I64, a, i, "src"),
                fb.gep1(Type::I64, b, i, "dst"),
            ),
            Pattern::Recurrence => {
                let one = fb.i64c(1);
                let next = fb.add(i, one, "next");
                (
                    fb.gep1(Type::I64, a, i, "src"),
                    fb.gep1(Type::I64, a, next, "dst"),
                )
            }
            Pattern::LateOverlap => {
                let offset = fb.i64c(l.offset);
                let ahead = fb.add(i, offset, "ahead");
                let two = fb.i64c(2);
                let twice = fb.mul(i, two, "twice");
                (
                    fb.gep1(Type::I64, a, ahead, "src"),
                    fb.gep1(Type::I64, a, twice, "dst"),
                )
            }
        };
        let mut y = fb.load(Type::I64, from, "x");
        for &op in &l.ops {
            y = match op {
                0 => fb.add(y, i, "y"),
                1 => fb.mul(y, i, "y"),
                2 => fb.xor(y, i, "y"),
                _ => fb.sub(y, i, "y"),
            };
        }
        if l.float_detour {
            let mask = fb.i64c(0xFFFF);
            let small = fb.and(y, mask, "small");
            let f = fb.sitofp(small, Type::F64, "f");
            let half = fb.f64c(0.5);
            let m = fb.fmul(f, half, "m");
            y = fb.fptosi(m, Type::I64, "yi");
        }
        fb.store(y, to);
    });
    fb.ret();
    fb.finish()
}

/// The replay's period skip against the engine as the oracle: on long
/// counted loops of three access patterns, replaying the recorded stream
/// at random design points gives exactly the engine's cycles, attribution,
/// stall counters and FU busy sums, skip or no skip — and the skip fires
/// on the loops whose accesses keep their overlaps from period to period.
#[test]
fn replay_skips_steady_loops_exactly() {
    for (pattern, seed) in [
        (Pattern::Affine, 0x5E1),
        (Pattern::Recurrence, 0x5E2),
        (Pattern::LateOverlap, 0x5E3),
    ] {
        check_cases(&format!("replay_skips_{pattern:?}"), 24, seed, |g| {
            let l = gen_steady_loop(g, pattern);
            let f = build_steady_loop(&l);
            salam_ir::verify_function(&f).unwrap();
            let profile = HardwareProfile::default_40nm();
            let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
            let used: Vec<FuKind> = cdfg.fu_counts().map(|(k, _)| k).collect();
            let mut points = vec![Point::default()];
            points.extend((0..3).map(|_| gen_point(g, &used)));
            let args = [RtVal::P(0x1000), RtVal::P(0x8000)];
            let skipped = assert_replay_matches_engine(&f, &args, &points);
            if pattern != Pattern::LateOverlap {
                assert!(skipped[0] > 0, "no skip at the recording point of {l:?}");
            }
        });
    }
}

// ---- refusal scopes ------------------------------------------------------------

/// Forwards every call to the port it wraps but keeps the default
/// `Access` refusal scope: one `try_issue` per attempt.
struct PerAttempt<P>(P);

impl<P: MemPort> MemPort for PerAttempt<P> {
    fn begin_cycle(&mut self) {
        self.0.begin_cycle();
    }
    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        self.0.try_issue(access)
    }
    fn poll(&mut self, out: &mut Vec<MemCompletion>) {
        self.0.poll(out)
    }
}

/// Accesses below this are local, the rest global.
const LOCAL_END: u64 = 0x1800;

/// Two master ports with per-cycle budgets of their own — local and
/// global, reads and writes — in front of a `SimpleMem` wide enough never
/// to refuse; a refusal reaches what `BufferPort`'s does. Counts its
/// `try_issue` calls.
struct TwoRegion {
    mem: SimpleMem,
    budgets: [(u32, u32); 2],
    left: [(u32, u32); 2],
    calls: u64,
}

impl TwoRegion {
    fn new(mem: SimpleMem, local: (u32, u32), global: (u32, u32)) -> Self {
        TwoRegion {
            mem,
            budgets: [local, global],
            left: [local, global],
            calls: 0,
        }
    }
}

impl MemPort for TwoRegion {
    fn begin_cycle(&mut self) {
        self.mem.begin_cycle();
        self.left = self.budgets;
    }
    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        self.calls += 1;
        let (reads, writes) = &mut self.left[(access.addr >= LOCAL_END) as usize];
        let (budget, cause) = match access.is_write {
            true => (writes, RejectCause::WritePorts),
            false => (reads, RejectCause::ReadPorts),
        };
        if *budget == 0 {
            return Err(Rejection::new(access, cause));
        }
        *budget -= 1;
        self.mem.try_issue(access)
    }
    fn poll(&mut self, out: &mut Vec<MemCompletion>) {
        self.mem.poll(out)
    }
    fn refusal_scope(&self, rejected: &Rejection) -> RefusalScope {
        let spent = |(reads, writes): (u32, u32)| match rejected.access.is_write {
            true => writes == 0,
            false => reads == 0,
        };
        let (lo, hi) = (0, LOCAL_END);
        match (spent(self.left[0]), spent(self.left[1])) {
            (true, true) => RefusalScope::Kind,
            (true, false) => RefusalScope::Within { lo, hi },
            (false, true) => RefusalScope::Outside { lo, hi },
            (false, false) => RefusalScope::Access,
        }
    }
}

/// The engine's stats against `port` — `reject_causes`,
/// `port_reject_cycles`, the stall mix and the dependence stream among
/// them — next to the same run against `port` answering access by access,
/// and the `try_issue` calls the declared scopes spared.
fn stats_scoped_and_per_attempt<P: MemPort>(
    f: &Function,
    args: &[RtVal],
    point: &Point,
    port: impl Fn() -> P,
    calls: impl Fn(&P) -> u64,
) -> (String, String, u64) {
    let stats =
        |port: &mut dyn MemPort| format!("{:?}", engine_run_on(f, args, point, true, port).0);
    let (mut scoped, mut per_attempt) = (port(), PerAttempt(port()));
    let (a, b) = (stats(&mut scoped), stats(&mut per_attempt));
    (a, b, calls(&per_attempt.0) - calls(&scoped))
}

/// A port that declares how far its refusals reach changes host time
/// only: on generated looped kernels the engine's stats are identical
/// against the port and against the same port answering access by access.
/// `SimpleMem` answers `Kind`; the two-region port, with `a` at `0x1000`
/// local and `b` at `0x2000` global, answers `Within` and `Outside` too.
#[test]
fn refusal_scope_changes_host_time_only() {
    let args = [RtVal::P(0x1000), RtVal::P(0x2000)];
    let two_region = |point: &Point, local, global| {
        TwoRegion::new(loaded_mem(&args, point, 64, 64), local, global)
    };
    check_cases("refusal_scope_changes_host_time_only", 300, 0xE6, |g| {
        let f = build_loop_kernel(&gen_loop_kernel(g));
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let used: Vec<FuKind> = cdfg.fu_counts().map(|(k, _)| k).collect();
        let point = gen_point(g, &used);
        let (r, w) = (point.read_ports, point.write_ports);
        let simple = || loaded_mem(&args, &point, r, w);
        let (scoped, per_attempt, _) =
            stats_scoped_and_per_attempt(&f, &args, &point, simple, |_| 0);
        assert_eq!(scoped, per_attempt, "SimpleMem at {point:?}");
        let port = || two_region(&point, (r, w), (w, r));
        let (scoped, per_attempt, _) =
            stats_scoped_and_per_attempt(&f, &args, &point, port, |p| p.calls);
        assert_eq!(scoped, per_attempt, "two regions at {point:?}");
    });
    // One fixed case where the scopes carry weight: five statements with
    // independent loads from both regions, 24 trips in a 200-entry window,
    // one port per region and direction.
    let stmt = |k: i64| Stmt {
        load_b: k % 2 == 1,
        load_at: (k, 3 * k),
        op: k as usize,
        float_detour: false,
        store_at: (1, k),
        guarded: false,
    };
    let kernel = LoopKernel {
        outer: 6,
        inner: Some(4),
        stmts: (0..5).map(stmt).collect(),
    };
    let point = Point {
        engine: EngineConfig {
            reservation_entries: 200,
            ..EngineConfig::default()
        },
        ..Point::default()
    };
    let port = || two_region(&point, (1, 1), (1, 1));
    let (scoped, per_attempt, spared) =
        stats_scoped_and_per_attempt(&build_loop_kernel(&kernel), &args, &point, port, |p| {
            p.calls
        });
    assert_eq!(scoped, per_attempt);
    assert!(spared > 300, "only {spared} calls spared");
}

// ---- cap reuse -------------------------------------------------------------------

/// A generated kernel as a sweep kernel: `arrays` of `i64`s (base, length)
/// behind its two pointer arguments, filled as `loaded_mem` fills them,
/// and no output check.
fn sweep_kernel(case: &str, f: Function, arrays: [(u64, i64); 2]) -> salam_dse::KernelSpec {
    salam_dse::KernelSpec::custom(format!("props-reuse/{case}"), move || {
        let init = arrays
            .iter()
            .zip(0i64..)
            .map(|(&(base, len), i)| {
                let data = (0..len).flat_map(|v| (v * 37 + i * 11 - 100).to_le_bytes());
                (base, data.collect())
            })
            .collect();
        let args = arrays.iter().map(|&(base, _)| RtVal::P(base)).collect();
        machsuite::BuiltKernel::new("generated", f.clone(), args, init, Box::new(|_| Ok(())))
    })
}

/// A random replay-safe sweep point: SPM ports, SPM latency, outstanding
/// caps and limits on two FU kinds the kernel uses.
fn gen_sweep_point(g: &mut SplitMix64, used: &[FuKind]) -> salam::standalone::StandaloneConfig {
    let mut cfg = salam::standalone::StandaloneConfig {
        spm_read_ports: g.range_u64(1, 3) as u32,
        spm_write_ports: g.range_u64(1, 3) as u32,
        spm_latency: g.range_u64(1, 6),
        ..Default::default()
    };
    cfg.engine.max_outstanding_reads = g.range_usize(1, 17);
    cfg.engine.max_outstanding_writes = g.range_usize(1, 17);
    for _ in 0..2 {
        let kind = *g.choose(used);
        cfg.constraints = cfg.constraints.with_limit(kind, g.range_u64(1, 5) as u32);
    }
    cfg
}

/// A random point inside `q`'s reuse box, given what `q`'s run asked of
/// its caps: a side that never refused takes any port count from its
/// peak up; an FU kind no op waited on takes any limit from its peak up;
/// every other knob is `q`'s.
fn gen_point_in_box(
    g: &mut SplitMix64,
    q: &salam::standalone::StandaloneConfig,
    used_kinds: &[FuKind],
    cap_use: &salam_runtime::sched::CapUse,
) -> salam::standalone::StandaloneConfig {
    let mut p = q.clone();
    let ports = |g: &mut SplitMix64, side: usize, own: u32| match cap_use.mem_refused[side] {
        true => own,
        false => {
            let peak = cap_use.mem_peak[side].max(1) as u64;
            g.range_u64(peak, peak + 4) as u32
        }
    };
    p.spm_read_ports = ports(g, 0, q.spm_read_ports);
    p.spm_write_ports = ports(g, 1, q.spm_write_ports);
    for &kind in used_kinds {
        if cap_use.fu_held & 1 << kind as u32 == 0 {
            let peak = cap_use.fu_peak[kind as usize].max(1) as u64;
            p.constraints = p
                .constraints
                .with_limit(kind, g.range_u64(peak, peak + 3) as u32);
        }
    }
    p
}

/// Cap reuse against rescheduling: on generated loop kernels, the steady
/// loops that period-skip among them, a random point Q is replayed and a
/// random point P is drawn inside Q's reuse box. Q's outcome answers P,
/// P's own replay is Q's outcome field for field (so is the replay of P
/// with one cap moved anywhere, whenever Q's outcome claims to answer
/// it), and in a sweep of Q and P the point answered by the other's
/// replay has the report bytes, engine and bound of the same point swept
/// alone.
#[test]
fn reuse_matches_rescheduling() {
    use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
    use salam_dse::{
        baseline_config, replay_config, run_replay_sweep, DseOptions, ReplayOptions,
        StandalonePoint,
    };

    let check = |g: &mut SplitMix64, kernel: salam_dse::KernelSpec| {
        let built = kernel.build();
        let base = baseline_config(&StandaloneConfig::default());
        let (_, stream) = try_run_kernel_profiled(&built, &base).expect("records");
        let profile = HardwareProfile::default_40nm();
        let elaborate =
            |cfg: &StandaloneConfig| StaticCdfg::elaborate(&built.func, &profile, &cfg.constraints);
        let used: Vec<FuKind> = elaborate(&base).fu_counts().map(|(k, _)| k).collect();
        let q = gen_sweep_point(g, &used);
        let q_knobs = replay_config(&q, &elaborate(&q));
        let q_out = salam_replay::replay(&stream, &q_knobs).expect("replayable");
        let p = gen_point_in_box(g, &q, &used, &q_out.cap_use);
        let p_knobs = replay_config(&p, &elaborate(&p));
        assert!(
            q_out.answers(&q_knobs, &p_knobs),
            "{p_knobs:?} outside the box"
        );
        let p_out = salam_replay::replay(&stream, &p_knobs).expect("replayable");
        let schedule = |o: &salam_replay::ReplayOutcome| {
            let busy: BTreeMap<FuKind, u64> = o.fu_busy_cycle_sum.clone().into_iter().collect();
            let counts = (o.stall_cycles, o.new_exec_cycles, o.port_reject_cycles);
            (
                o.cycles,
                o.attribution,
                counts,
                busy,
                o.skipped_cycles,
                o.cap_use,
            )
        };
        assert_eq!(
            schedule(&p_out),
            schedule(&q_out),
            "{p_knobs:?} vs {q_knobs:?}"
        );
        // And the other way: P's knobs with one cap moved anywhere around
        // the run's peak (below it, to zero, past a held pool or a refusing
        // side) reschedule to Q's outcome whenever Q's outcome claims to
        // answer them.
        let mut r_knobs = p_knobs.clone();
        let used_caps = q_out.cap_use;
        if g.gen_bool(0.5) {
            let kind = *g.choose(&used);
            let peak = used_caps.fu_peak[kind as usize] as u64;
            r_knobs
                .fu_pool
                .insert(kind, g.range_u64(0, peak + 3) as u32);
        } else {
            let side = g.range_usize(0, 2);
            let ports = g.range_u64(1, used_caps.mem_peak[side] as u64 + 3) as u32;
            *[&mut r_knobs.spm_read_ports, &mut r_knobs.spm_write_ports][side] = ports;
        }
        if q_out.answers(&q_knobs, &r_knobs) {
            let r_out = salam_replay::replay(&stream, &r_knobs).expect("replayable");
            assert_eq!(
                schedule(&r_out),
                schedule(&q_out),
                "{r_knobs:?} vs {q_knobs:?}"
            );
        }

        let opts = ReplayOptions {
            inner: DseOptions::default().without_cache().with_workers(1),
            check: false,
        };
        let point = |config: &StandaloneConfig| StandalonePoint {
            kernel: kernel.clone(),
            config: config.clone(),
            coords: Vec::new(),
        };
        let points = [point(&q), point(&p)];
        let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
        assert_eq!(run.reused, 1, "{}", run.summary());
        for (i, prov) in run.provenance.iter().enumerate() {
            if prov.reused_from.is_none() {
                continue;
            }
            let solo = run_replay_sweep(&points[i..=i], &StandaloneConfig::default(), &opts);
            let row = |r: &salam_dse::ReplayRun, j: usize| {
                let report = r.outcomes[j].payload().expect("point ran").to_json();
                (report, r.provenance[j].engine, r.provenance[j].bound)
            };
            assert_eq!(row(&run, i), row(&solo, 0));
        }
    };
    check_cases("reuse_matches_rescheduling", 120, 0xE7, |g| {
        let f = build_loop_kernel(&gen_loop_kernel(g));
        check(g, sweep_kernel("loops", f, [(0x1000, 16), (0x2000, 16)]));
    });
    for (pattern, seed) in [
        (Pattern::Affine, 0x5E4),
        (Pattern::Recurrence, 0x5E5),
        (Pattern::LateOverlap, 0x5E6),
    ] {
        check_cases(
            &format!("reuse_matches_rescheduling_{pattern:?}"),
            8,
            seed,
            |g| {
                let f = build_steady_loop(&gen_steady_loop(g, pattern));
                check(g, sweep_kernel("steady", f, [(0x1000, 512), (0x8000, 256)]));
            },
        );
    }
}

/// A one-block kernel whose multiplies can wait on a full pool only in
/// cycles whose issue pass hands over to the refusal-scoped walk: `x =
/// a[0]`, `muls` products of `x`, `loads` address computations on `b`
/// (adders), then their loads, all past the 64th op. The products wait
/// on `x`, so at an SPM latency of two or more none is ready before the
/// read port has refused a load of `b` (at more adders than read ports);
/// from then on each pass meets those refused loads a word of ops behind
/// the waiting products.
fn build_held_behind_refusals(muls: usize, loads: usize) -> Function {
    let mut fb = FunctionBuilder::new("held", &[("a", Type::Ptr), ("b", Type::Ptr)]);
    let (a, b) = (fb.arg(0), fb.arg(1));
    let x = fb.load(Type::I64, a, "x");
    for m in 0..muls {
        let c = fb.i64c(3 + m as i64);
        fb.mul(x, c, "m");
    }
    let ptrs: Vec<_> = (0..loads)
        .map(|j| {
            let j = fb.i64c(j as i64);
            fb.gep1(Type::I64, b, j, "p")
        })
        .collect();
    for p in ptrs {
        fb.load(Type::I64, p, "y");
    }
    fb.ret();
    fb.finish()
}

/// Cap reuse where pools wait only behind a refusing port. In every cycle
/// a product waits on the multiplier pool, the issue walk has handed over
/// to its scoped walk at the word of the refused loads, so the record
/// must keep what the words before the hand-over found. A replay at a
/// random point Q records the multiplier as held; every point that
/// differs from Q in its multiplier and adder pools, and that Q's outcome
/// claims to answer, reschedules every op to the cycle it had at Q.
#[test]
fn reuse_keeps_pools_held_before_a_refusal() {
    use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
    use salam_dse::{baseline_config, replay_config};

    check_cases("reuse_keeps_pools_held_before_a_refusal", 12, 0xE8, |g| {
        let muls = g.range_usize(4, 10);
        let loads = g.range_usize(64 - muls, (126 - muls) / 2 + 1);
        let f = build_held_behind_refusals(muls, loads);
        let built = sweep_kernel("held", f, [(0x1000, 1), (0x2000, loads as i64)]).build();
        let base = baseline_config(&StandaloneConfig::default());
        let (_, stream) = try_run_kernel_profiled(&built, &base).expect("records");
        let profile = HardwareProfile::default_40nm();
        let knobs = |cfg: &StandaloneConfig| {
            let cdfg = StaticCdfg::elaborate(&built.func, &profile, &cfg.constraints);
            let knobs = replay_config(cfg, &cdfg);
            ReplayConfig {
                want_retimed: true,
                ..knobs
            }
        };
        let limits = |cfg: &StandaloneConfig, mul: u64, add: u64| {
            let mut cfg = cfg.clone();
            cfg.constraints = (cfg.constraints)
                .with_limit(FuKind::IntMultiplier, mul as u32)
                .with_limit(FuKind::IntAdder, add as u32);
            cfg
        };
        let q = StandaloneConfig {
            spm_read_ports: g.range_u64(1, 3) as u32,
            spm_latency: g.range_u64(2, 5),
            ..Default::default()
        };
        let q = limits(&q, g.range_u64(1, 3), g.range_u64(3, 9));
        let q_knobs = knobs(&q);
        let q_out = salam_replay::replay(&stream, &q_knobs).expect("replayable");
        let used = q_out.cap_use;
        assert!(used.mem_refused[0], "the read port never refused");
        let mul = 1 << FuKind::IntMultiplier as u32;
        assert!(
            used.fu_held & mul != 0,
            "{used:?}: the multiplier never held"
        );
        let peak = |k: FuKind| used.fu_peak[k as usize] as u64;
        for m in 1..=peak(FuKind::IntMultiplier) + 2 {
            for a in 1..=peak(FuKind::IntAdder) + 2 {
                let p_knobs = knobs(&limits(&q, m, a));
                if q_out.answers(&q_knobs, &p_knobs) {
                    let p_out = salam_replay::replay(&stream, &p_knobs).expect("replayable");
                    // Op for op: the products' issue cycles are not in
                    // the counters, since nothing waits on them.
                    assert!(
                        p_out.retimed == q_out.retimed,
                        "{p_knobs:?} answered by {q_knobs:?}"
                    );
                }
            }
        }
    });
}
