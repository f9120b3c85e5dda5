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
use salam_runtime::{Engine, EngineConfig, EngineStats, SimpleMem};

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
    let profile = HardwareProfile::default_40nm();
    let mut constraints = FuConstraints::unconstrained();
    for &(kind, n) in &point.caps {
        constraints = constraints.with_limit(kind, n);
    }
    let cdfg = StaticCdfg::elaborate(f, &profile, &constraints);
    let fu_pool = cdfg.fu_counts().collect();
    let mut mem = SimpleMem::new(point.spm_latency, point.read_ports, point.write_ports);
    for (i, arg) in args.iter().enumerate() {
        if let RtVal::P(base @ 0..=0xFFFF_FFFF) = *arg {
            let data: Vec<i64> = (0..16).map(|v| v * 37 + i as i64 * 11 - 100).collect();
            mem.memory_mut().write_i64_slice(base, &data);
        }
    }
    let cfg = EngineConfig {
        record_depstream: record,
        ..point.engine
    };
    let mut e = Engine::new(f.clone(), cdfg, profile, cfg, args.to_vec());
    e.run_to_completion(&mut mem);
    (e.stats().clone(), fu_pool)
}

/// Records `f`'s stream at the default point, then requires replaying it
/// at each of `points` to agree with the engine's own run there on cycles,
/// attribution, the stall counters and the FU busy integrals.
fn assert_replay_matches_engine(f: &Function, args: &[RtVal], points: &[Point]) {
    let (recorded, _) = engine_run_at(f, args, &Point::default(), true);
    let stream = recorded.depstream.expect("recorded under record_depstream");
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
        assert_eq!(out.cycles, sim.cycles, "cycles at {point:?}");
        assert_eq!(out.attribution, sim.attribution, "attribution at {point:?}");
        assert_eq!(out.stall_cycles, sim.stall_cycles, "stalls at {point:?}");
        assert_eq!(out.new_exec_cycles, sim.new_exec_cycles, "{point:?}");
        assert_eq!(out.port_reject_cycles, sim.port_reject_cycles, "{point:?}");
        let busy: BTreeMap<FuKind, u64> = out.fu_busy_cycle_sum.into_iter().collect();
        assert_eq!(busy, sim.fu_busy_cycle_sum, "FU busy sums at {point:?}");
    }
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
