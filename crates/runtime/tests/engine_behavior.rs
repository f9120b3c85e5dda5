//! Behavioral tests for the dynamic runtime engine.

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{FloatPredicate, Function, FunctionBuilder, IntPredicate, Type};
use salam_runtime::{Engine, EngineConfig, SimpleMem};

fn engine_for(f: &Function, constraints: FuConstraints, args: Vec<RtVal>) -> Engine {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(f, &profile, &constraints);
    Engine::new(f.clone(), cdfg, profile, EngineConfig::default(), args)
}

fn run(engine: &mut Engine, mem: &mut SimpleMem) -> u64 {
    engine.run_to_completion(mem)
}

/// `out[i] = a[i] * b[i] + c` with a loop.
fn fma_kernel() -> Function {
    let mut fb = FunctionBuilder::new(
        "fma",
        &[
            ("a", Type::Ptr),
            ("b", Type::Ptr),
            ("out", Type::Ptr),
            ("n", Type::I64),
        ],
    );
    let (a, b, out, n) = (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3));
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let pa = fb.gep1(Type::F64, a, iv, "pa");
        let pb = fb.gep1(Type::F64, b, iv, "pb");
        let po = fb.gep1(Type::F64, out, iv, "po");
        let x = fb.load(Type::F64, pa, "x");
        let y = fb.load(Type::F64, pb, "y");
        let m = fb.fmul(x, y, "m");
        let one = fb.f64c(1.0);
        let s = fb.fadd(m, one, "s");
        fb.store(s, po);
    });
    fb.ret();
    fb.finish()
}

#[test]
fn computes_correct_results_through_memory() {
    let f = fma_kernel();
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut()
        .write_f64_slice(0x1000, &[1.0, 2.0, 3.0, 4.0]);
    mem.memory_mut()
        .write_f64_slice(0x2000, &[10.0, 20.0, 30.0, 40.0]);
    let mut e = engine_for(
        &f,
        FuConstraints::unconstrained(),
        vec![
            RtVal::P(0x1000),
            RtVal::P(0x2000),
            RtVal::P(0x3000),
            RtVal::I(4),
        ],
    );
    run(&mut e, &mut mem);
    assert_eq!(
        mem.memory_mut().read_f64_slice(0x3000, 4),
        vec![11.0, 41.0, 91.0, 161.0]
    );
    assert!(e.is_done());
    let st = e.stats();
    assert_eq!(st.loads, 8);
    assert_eq!(st.stores, 4);
    assert!(st.cycles > 0);
    assert!(st.new_exec_cycles + st.stall_cycles <= st.cycles);
}

#[test]
fn fu_constraints_slow_execution_down() {
    // 8 independent double multiplies: 1 multiplier must serialize them.
    let build = || {
        let mut fb = FunctionBuilder::new("mul8", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        for i in 0..8i64 {
            let idx = fb.i64c(i);
            let gep = fb.gep1(Type::F64, p, idx, "g");
            let x = fb.load(Type::F64, gep, "x");
            let y = fb.fmul(x, x, "y");
            fb.store(y, gep);
        }
        fb.ret();
        fb.finish()
    };
    let data: Vec<f64> = (1..=8).map(|v| v as f64).collect();

    let cycles_with = |constraints: FuConstraints| {
        let f = build();
        let mut mem = SimpleMem::new(1, 8, 8);
        mem.memory_mut().write_f64_slice(0, &data);
        let mut e = engine_for(&f, constraints, vec![RtVal::P(0)]);
        let c = run(&mut e, &mut mem);
        assert_eq!(
            mem.memory_mut().read_f64_slice(0, 8),
            data.iter().map(|v| v * v).collect::<Vec<_>>()
        );
        c
    };

    let unconstrained = cycles_with(FuConstraints::unconstrained());
    let constrained = cycles_with(FuConstraints::unconstrained().with_limit(FuKind::FpMulF64, 1));
    assert!(
        constrained > unconstrained,
        "1 multiplier ({constrained} cyc) must be slower than 8 ({unconstrained} cyc)"
    );
    // 8 serialized 3-cycle multiplies need at least 8 issue slots.
    assert!(constrained >= unconstrained + 7);
}

#[test]
fn data_dependent_branch_takes_data_path() {
    // if (x > 0) out = x else out = -x  — classic data-dependent control.
    let build = || {
        let mut fb = FunctionBuilder::new("absval", &[("pin", Type::Ptr), ("pout", Type::Ptr)]);
        let neg_b = fb.add_block("neg");
        let pos_b = fb.add_block("pos");
        let join = fb.add_block("join");
        let pin = fb.arg(0);
        let pout = fb.arg(1);
        let x = fb.load(Type::F64, pin, "x");
        let zero = fb.f64c(0.0);
        let c = fb.fcmp(FloatPredicate::Ogt, x, zero, "c");
        fb.cond_br(c, pos_b, neg_b);
        fb.position_at(pos_b);
        fb.br(join);
        fb.position_at(neg_b);
        let nx = fb.fneg(x, "nx");
        fb.br(join);
        fb.position_at(join);
        let (phi, v) = fb.phi(Type::F64, "v");
        fb.add_incoming(phi, x, pos_b);
        fb.add_incoming(phi, nx, neg_b);
        fb.store(v, pout);
        fb.ret();
        fb.finish()
    };

    for (input, expected) in [(5.0f64, 5.0f64), (-7.0, 7.0)] {
        let f = build();
        let mut mem = SimpleMem::new(1, 2, 2);
        mem.memory_mut().write_f64_slice(0x10, &[input]);
        let mut e = engine_for(
            &f,
            FuConstraints::unconstrained(),
            vec![RtVal::P(0x10), RtVal::P(0x20)],
        );
        run(&mut e, &mut mem);
        assert_eq!(mem.memory_mut().read_f64_slice(0x20, 1), vec![expected]);
    }
}

#[test]
fn store_to_load_ordering_respected() {
    // p[0] = 1.5; x = p[0]; p[1] = x * 2  — the load must see the store.
    let mut fb = FunctionBuilder::new("st_ld", &[("p", Type::Ptr)]);
    let p = fb.arg(0);
    let c = fb.f64c(1.5);
    fb.store(c, p);
    let x = fb.load(Type::F64, p, "x");
    let two = fb.f64c(2.0);
    let y = fb.fmul(x, two, "y");
    let one = fb.i64c(1);
    let p1 = fb.gep1(Type::F64, p, one, "p1");
    fb.store(y, p1);
    fb.ret();
    let f = fb.finish();

    let mut mem = SimpleMem::new(2, 4, 4);
    let mut e = engine_for(&f, FuConstraints::unconstrained(), vec![RtVal::P(0x100)]);
    run(&mut e, &mut mem);
    assert_eq!(mem.memory_mut().read_f64_slice(0x100, 2), vec![1.5, 3.0]);
}

/// `store p; load p; store q`: the load waits for the store it overlaps
/// wherever `p` lies — a span that ends past `u64::MAX` must still order
/// (the overlap test used to overflow there: a debug panic, a dropped
/// store→load order in release).
#[test]
fn ordering_holds_at_the_top_of_the_address_space() {
    let mut fb = FunctionBuilder::new("st_ld_st", &[("p", Type::Ptr), ("q", Type::Ptr)]);
    let (p, q) = (fb.arg(0), fb.arg(1));
    let c = fb.i64c(7);
    fb.store(c, p);
    let x = fb.load(Type::I64, p, "x");
    fb.store(x, q);
    fb.ret();
    let f = fb.finish();

    let cycles_at = |p: u64| {
        let mut mem = SimpleMem::new(3, 2, 2);
        let args = vec![RtVal::P(p), RtVal::P(0x1000)];
        let mut e = engine_for(&f, FuConstraints::unconstrained(), args);
        let cycles = run(&mut e, &mut mem);
        assert_eq!(mem.memory_mut().read_i64_slice(0x1000, 1), vec![7]);
        cycles
    };
    assert_eq!(cycles_at(0x2000), 10);
    assert_eq!(cycles_at(u64::MAX - 7), 10);
}

#[test]
fn fewer_memory_ports_cause_stalls() {
    let f = fma_kernel();
    let run_ports = |ports: u32| {
        let mut mem = SimpleMem::new(1, ports, ports);
        mem.memory_mut().write_f64_slice(0x1000, &[1.0; 64]);
        mem.memory_mut().write_f64_slice(0x2000, &[2.0; 64]);
        let mut e = engine_for(
            &f,
            FuConstraints::unconstrained(),
            vec![
                RtVal::P(0x1000),
                RtVal::P(0x2000),
                RtVal::P(0x3000),
                RtVal::I(64),
            ],
        );
        let cycles = run(&mut e, &mut mem);
        (cycles, e.stats().clone())
    };
    let (fast_cycles, _) = run_ports(16);
    let (slow_cycles, slow_stats) = run_ports(1);
    assert!(slow_cycles > fast_cycles);
    assert!(
        slow_stats.port_reject_cycles > 0,
        "narrow port must saturate"
    );
}

#[test]
fn loop_iterations_pipeline() {
    // With plentiful resources, a 16-iteration loop with a 3-cycle FP op per
    // iteration must overlap iterations: total cycles well under the serial
    // bound of 16 * (latency chain).
    let f = fma_kernel();
    let mut mem = SimpleMem::new(1, 8, 8);
    mem.memory_mut().write_f64_slice(0x1000, &[1.0; 16]);
    mem.memory_mut().write_f64_slice(0x2000, &[2.0; 16]);
    let mut e = engine_for(
        &f,
        FuConstraints::unconstrained(),
        vec![
            RtVal::P(0x1000),
            RtVal::P(0x2000),
            RtVal::P(0x3000),
            RtVal::I(16),
        ],
    );
    let cycles = run(&mut e, &mut mem);
    // Fully serial execution is ~12 cycles per iteration (phi, compare,
    // branch, address, load, 3-cycle multiply, 3-cycle add, store). The
    // rolled datapath has a single multiplier/adder (1:1 static mapping), so
    // the steady state is bounded by the FP pipeline, ~5 cycles/iteration —
    // overlap must beat the serial bound by at least ~1.5x.
    assert!(cycles < 16 * 8, "no pipelining observed: {cycles} cycles");
    assert!(cycles > 16 * 3, "model too optimistic: {cycles} cycles");
}

#[test]
fn occupancy_and_issue_classes_tracked() {
    let f = fma_kernel();
    let mut mem = SimpleMem::new(1, 4, 4);
    mem.memory_mut().write_f64_slice(0x1000, &[1.0; 8]);
    mem.memory_mut().write_f64_slice(0x2000, &[2.0; 8]);
    let mut e = engine_for(
        &f,
        FuConstraints::unconstrained().with_limit(FuKind::FpMulF64, 1),
        vec![
            RtVal::P(0x1000),
            RtVal::P(0x2000),
            RtVal::P(0x3000),
            RtVal::I(8),
        ],
    );
    run(&mut e, &mut mem);
    let st = e.stats();
    assert!(st.fu_occupancy(FuKind::FpMulF64) > 0.0);
    assert!(st.fu_occupancy(FuKind::FpMulF64) <= 1.0);
    assert_eq!(st.issued_class(salam_runtime::IssueClass::Load), 16);
    assert_eq!(st.issued_class(salam_runtime::IssueClass::Store), 8);
    assert!(st.issued_class(salam_runtime::IssueClass::Float) >= 16);
    assert!(st.dynamic_datapath_pj() > 0.0);
}

#[test]
fn returns_scalar_result() {
    let mut fb = FunctionBuilder::new("pick", &[("x", Type::I64)]);
    let x = fb.arg(0);
    let ten = fb.i64c(10);
    let c = fb.icmp(IntPredicate::Slt, x, ten, "c");
    let r = fb.select(c, x, ten, "r");
    fb.ret_value(r);
    let f = fb.finish();
    let mut mem = SimpleMem::new(1, 1, 1);
    let mut e = engine_for(&f, FuConstraints::unconstrained(), vec![RtVal::I(3)]);
    run(&mut e, &mut mem);
    assert_eq!(e.result(), Some(RtVal::I(3)));
}

#[test]
fn engine_cycle_count_matches_interpreter_result() {
    // The engine and the reference interpreter must agree functionally on a
    // reduction with loop-carried dependences.
    let mut fb = FunctionBuilder::new(
        "dot",
        &[
            ("a", Type::Ptr),
            ("b", Type::Ptr),
            ("out", Type::Ptr),
            ("n", Type::I64),
        ],
    );
    let (a, b, out, n) = (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3));
    let header = fb.add_block("header");
    let body = fb.add_block("body");
    let exit = fb.add_block("exit");
    let zero = fb.i64c(0);
    let fzero = fb.f64c(0.0);
    let entry = fb.entry();
    fb.br(header);
    fb.position_at(header);
    let (iv_phi, iv) = fb.phi(Type::I64, "iv");
    let (acc_phi, acc) = fb.phi(Type::F64, "acc");
    fb.add_incoming(iv_phi, zero, entry);
    fb.add_incoming(acc_phi, fzero, entry);
    let c = fb.icmp(IntPredicate::Slt, iv, n, "c");
    fb.cond_br(c, body, exit);
    fb.position_at(body);
    let pa = fb.gep1(Type::F64, a, iv, "pa");
    let pb = fb.gep1(Type::F64, b, iv, "pb");
    let x = fb.load(Type::F64, pa, "x");
    let y = fb.load(Type::F64, pb, "y");
    let m = fb.fmul(x, y, "m");
    let acc2 = fb.fadd(acc, m, "acc2");
    let one = fb.i64c(1);
    let iv2 = fb.add(iv, one, "iv2");
    fb.br(header);
    fb.add_incoming(iv_phi, iv2, body);
    fb.add_incoming(acc_phi, acc2, body);
    fb.position_at(exit);
    fb.store(acc, out);
    fb.ret();
    let f = fb.finish();
    salam_ir::verify_function(&f).unwrap();

    let av = [1.0, 2.0, 3.0, 4.0];
    let bv = [5.0, 6.0, 7.0, 8.0];
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut().write_f64_slice(0x100, &av);
    mem.memory_mut().write_f64_slice(0x200, &bv);
    let mut e = engine_for(
        &f,
        FuConstraints::unconstrained(),
        vec![
            RtVal::P(0x100),
            RtVal::P(0x200),
            RtVal::P(0x300),
            RtVal::I(4),
        ],
    );
    run(&mut e, &mut mem);
    let expected: f64 = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
    assert_eq!(mem.memory_mut().read_f64_slice(0x300, 1), vec![expected]);
}
