//! Direct tests of the engine's modeling knobs (ablation switches).

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{Function, FunctionBuilder, Type};
use salam_runtime::{Engine, EngineConfig, SimpleMem};

/// A chain of dependent double multiplies per iteration, 16 iterations.
fn serial_fmul_loop() -> Function {
    let mut fb = FunctionBuilder::new("serial", &[("a", Type::Ptr), ("n", Type::I64)]);
    let a = fb.arg(0);
    let n = fb.arg(1);
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let p = fb.gep1(Type::F64, a, iv, "p");
        let x = fb.load(Type::F64, p, "x");
        let y = fb.fmul(x, x, "y");
        fb.store(y, p);
    });
    fb.ret();
    fb.finish()
}

fn run_cycles(f: &Function, cfg: EngineConfig, n: i64) -> u64 {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(f, &profile, &FuConstraints::unconstrained());
    let mut mem = SimpleMem::new(1, 4, 4);
    mem.memory_mut()
        .write_f64_slice(0x1000, &vec![1.5; n as usize]);
    let mut e = Engine::new(
        f.clone(),
        cdfg,
        profile,
        cfg,
        vec![RtVal::P(0x1000), RtVal::I(n)],
    );
    let cycles = e.run_to_completion(&mut mem);
    // Correctness regardless of the knob settings.
    let got = mem.memory_mut().read_f64_slice(0x1000, n as usize);
    assert!(got.iter().all(|&v| v == 2.25));
    cycles
}

#[test]
fn pipelined_fus_speed_up_fu_bound_loops() {
    let f = serial_fmul_loop();
    let unpiped = run_cycles(&f, EngineConfig::default(), 32);
    let piped = run_cycles(
        &f,
        EngineConfig {
            pipelined_fus: true,
            ..EngineConfig::default()
        },
        32,
    );
    // One shared multiplier (1:1 static map → 1 unit) at 3 cycles: the
    // unpipelined engine serializes at ~3/iter; II=1 pipelining beats it.
    assert!(
        piped < unpiped,
        "pipelined {piped} vs unpipelined {unpiped}"
    );
}

#[test]
fn strict_hazards_never_faster_and_always_correct() {
    let f = serial_fmul_loop();
    let relaxed = run_cycles(&f, EngineConfig::default(), 32);
    let strict = run_cycles(
        &f,
        EngineConfig {
            strict_register_hazards: true,
            ..EngineConfig::default()
        },
        32,
    );
    assert!(strict >= relaxed);
}

#[test]
fn window_size_monotonically_helps_until_saturation() {
    let f = serial_fmul_loop();
    let mut last = u64::MAX;
    for window in [16usize, 64, 256] {
        let c = run_cycles(
            &f,
            EngineConfig {
                reservation_entries: window,
                ..EngineConfig::default()
            },
            64,
        );
        assert!(c <= last, "window {window} regressed: {c} > {last}");
        last = c;
    }
}

#[test]
fn outstanding_memory_limits_throttle() {
    let f = serial_fmul_loop();
    let wide = run_cycles(
        &f,
        EngineConfig {
            max_outstanding_reads: 64,
            ..EngineConfig::default()
        },
        64,
    );
    let narrow = run_cycles(
        &f,
        EngineConfig {
            max_outstanding_reads: 1,
            ..EngineConfig::default()
        },
        64,
    );
    assert!(narrow >= wide);
}

#[test]
fn fu_pool_stats_report_allocation() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(
        &f,
        &profile,
        &FuConstraints::unconstrained().with_limit(FuKind::FpMulF64, 1),
    );
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut().write_f64_slice(0x1000, &[1.5; 8]);
    let mut e = Engine::new(
        f,
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::I(8)],
    );
    e.run_to_completion(&mut mem);
    assert_eq!(e.stats().fu_pool[&FuKind::FpMulF64], 1);
    assert!(e.stats().fu_occupancy(FuKind::FpMulF64) > 0.0);
}

#[test]
fn timeline_records_every_cycle() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
    let mut e = Engine::new(
        f,
        cdfg,
        profile,
        EngineConfig {
            record_timeline: true,
            ..EngineConfig::default()
        },
        vec![RtVal::P(0x1000), RtVal::I(16)],
    );
    let cycles = e.run_to_completion(&mut mem);
    let st = e.stats();
    assert_eq!(st.timeline.len(), cycles as usize);
    // Every issued load appears somewhere in the log.
    let logged_loads: u32 = st
        .timeline
        .iter()
        .filter(|r| r.issued.contains_key("load"))
        .count() as u32;
    assert!(logged_loads > 0);
    // Multiplier busyness shows up in the middle of the run.
    assert!(st
        .timeline
        .iter()
        .any(|r| r.fu_busy.get(&FuKind::FpMulF64).copied().unwrap_or(0) > 0));
    // Off by default: a second run records nothing.
    let f2 = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f2, &profile, &FuConstraints::unconstrained());
    let mut mem2 = SimpleMem::new(1, 2, 2);
    mem2.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
    let mut e2 = Engine::new(
        f2,
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::I(16)],
    );
    e2.run_to_completion(&mut mem2);
    assert!(e2.stats().timeline.is_empty());
}

/// `Engine::new` cannot fail (its signature is pinned), so a wrong
/// argument count is a typed fault from the first step — and the panic
/// `step` documents.
#[test]
fn wrong_arity_is_a_kernel_fault_at_the_first_step() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let mut e = Engine::new(f, cdfg, profile, EngineConfig::default(), vec![RtVal::I(1)]);
    let mut mem = SimpleMem::new(1, 2, 2);
    for err in [
        e.try_step(&mut mem).unwrap_err(),
        e.try_run_to_completion(&mut mem).unwrap_err(),
    ] {
        assert!(
            matches!(err, salam_runtime::SimError::KernelFault { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("argument count mismatch"), "{err}");
    }
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.step(&mut mem)));
    assert!(stepped.is_err(), "step() panics on a kernel fault");
}

#[test]
fn deadlock_detection_returns_a_populated_snapshot() {
    // A port that never completes anything wedges the engine; the watchdog
    // must report it as a typed error carrying its queue snapshot instead
    // of spinning forever (or panicking).
    struct BlackHole;
    impl salam_runtime::MemPort for BlackHole {
        fn begin_cycle(&mut self) {}
        fn try_issue(
            &mut self,
            _a: salam_runtime::MemAccess,
        ) -> Result<(), salam_runtime::Rejection> {
            Ok(()) // accepted, never completed
        }
        fn poll(&mut self) -> Vec<salam_runtime::MemCompletion> {
            Vec::new()
        }
    }
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let cfg = EngineConfig {
        deadlock_cycles: 2_000,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(f, cdfg, profile, cfg, vec![RtVal::P(0), RtVal::I(4)]);
    let mut hole = BlackHole;
    let err = e
        .try_run_to_completion(&mut hole)
        .expect_err("a black-hole port must deadlock");
    let salam_runtime::SimError::Deadlock(snap) = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(snap.kernel, "serial");
    assert!(snap.mem_outstanding > 0, "reads are stuck in flight");
    assert!(
        snap.cycle - snap.last_progress_cycle > cfg.deadlock_cycles,
        "watchdog fired at cycle {} with last progress at {}",
        snap.cycle,
        snap.last_progress_cycle
    );
    assert!(
        snap.reservation_occupancy > 0 || snap.compute_occupancy > 0 || snap.pending_blocks > 0,
        "a wedged engine still holds work"
    );
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("@serial"), "{msg}");
}

#[test]
fn nonsense_configs_are_rejected_before_the_run() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    for (label, cfg) in [
        (
            "deadlock_cycles",
            EngineConfig {
                deadlock_cycles: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "reservation_entries",
            EngineConfig {
                reservation_entries: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "max_outstanding_reads",
            EngineConfig {
                max_outstanding_reads: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "clock_period_ps",
            EngineConfig {
                clock_period_ps: 0,
                ..EngineConfig::default()
            },
        ),
    ] {
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile.clone(),
            cfg,
            vec![RtVal::P(0x1000), RtVal::I(4)],
        );
        let err = e
            .try_run_to_completion(&mut mem)
            .expect_err("invalid config must be rejected");
        let salam_runtime::SimError::Config(c) = &err else {
            panic!("expected Config error for {label}, got {err:?}");
        };
        assert_eq!(c.field, label);
    }
}

#[test]
fn zero_rate_fault_plan_changes_nothing() {
    let f = serial_fmul_loop();
    let run = |with_plan: bool| -> (u64, u64) {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(16)],
        );
        if with_plan {
            e.set_fault(&salam_runtime::FaultPlan::seeded(99));
        }
        let cycles = e.run_to_completion(&mut mem);
        (cycles, e.stats().total_faults())
    };
    let (clean_cycles, clean_faults) = run(false);
    let (planned_cycles, planned_faults) = run(true);
    assert_eq!(clean_cycles, planned_cycles);
    assert_eq!(clean_faults, 0);
    assert_eq!(planned_faults, 0);
}

#[test]
fn fu_bitflips_fire_deterministically_and_are_counted() {
    let f = serial_fmul_loop();
    let run = |seed: u64| -> (u64, Vec<f64>) {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(16)],
        );
        e.set_fault(&salam_runtime::FaultPlan {
            fu_bitflip_rate: 0.5,
            ..salam_runtime::FaultPlan::seeded(seed)
        });
        e.run_to_completion(&mut mem);
        let flips = e
            .stats()
            .fault_counts
            .get("fu_bitflip")
            .copied()
            .unwrap_or(0);
        (flips, mem.memory_mut().read_f64_slice(0x1000, 16))
    };
    let (flips_a, data_a) = run(7);
    let (flips_b, data_b) = run(7);
    assert!(flips_a > 0, "a 50% rate over 16 fmuls must fire");
    assert_eq!(flips_a, flips_b, "same seed, same schedule");
    assert_eq!(data_a, data_b, "same seed, same corrupted output");
    let (_, data_c) = run(8);
    assert_ne!(data_a, data_c, "a different seed flips different bits");
}

#[test]
fn fu_jitter_slows_the_run_but_keeps_it_correct() {
    let f = serial_fmul_loop();
    let run = |rate: f64| -> u64 {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 32]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(32)],
        );
        e.set_fault(&salam_runtime::FaultPlan {
            fu_jitter_rate: rate,
            fu_jitter_cycles: 8,
            ..salam_runtime::FaultPlan::seeded(3)
        });
        let cycles = e.run_to_completion(&mut mem);
        let got = mem.memory_mut().read_f64_slice(0x1000, 32);
        assert!(got.iter().all(|&v| v == 2.25), "jitter is timing-only");
        cycles
    };
    assert!(run(1.0) > run(0.0));
}

/// Seven stores through pointer arguments contend for one write port, one
/// a cycle; an eighth, whose value the caller passed with the wrong kind,
/// becomes ready behind a multiply and an address computation while they
/// still queue.
#[test]
fn a_store_that_cannot_be_encoded_faults_at_its_first_meeting_with_the_port() {
    let mut params: Vec<(String, Type)> = (0..7).map(|k| (format!("p{k}"), Type::Ptr)).collect();
    params.push(("bad".into(), Type::I64));
    let params: Vec<(&str, Type)> = params
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    let mut fb = FunctionBuilder::new("late_bad_store", &params);
    let bad = fb.arg(7);
    let seven = fb.i64c(7);
    for k in 0..7 {
        let p = fb.arg(k);
        fb.store(seven, p);
    }
    let (p0, two) = (fb.arg(0), fb.i64c(2));
    let idx = fb.mul(two, two, "idx");
    let q = fb.gep1(Type::I64, p0, idx, "q");
    fb.store(bad, q);
    fb.ret();
    let f = fb.finish();

    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let mut args: Vec<RtVal> = (0..7).map(|k| RtVal::P(0x1000 + 0x100 * k)).collect();
    args.push(RtVal::F(0.5));
    let mut e = Engine::new(f, cdfg, profile, EngineConfig::default(), args);
    let err = e
        .try_run_to_completion(&mut SimpleMem::new(1, 1, 1))
        .expect_err("the bad store must fault");
    let salam_runtime::SimError::KernelFault { cycle, detail, .. } = &err else {
        panic!("expected KernelFault, got {err:?}");
    };
    assert!(detail.contains("cannot store"), "{detail}");
    // Its address resolves at cycle 4, its first offer. By then one older
    // store has taken the port and the next one's refusal has declared the
    // write side spent for the cycle (the one after it is counted, not
    // offered) — the bad store must meet the port anyway.
    assert_eq!(*cycle, 4);
    // One store issued per cycle, the rest refused once each per cycle:
    // 6 + 5 + 4 + 3 + 2 attempts.
    assert_eq!(e.stats().stores, 5);
    assert_eq!(e.stats().reject_causes["write_ports"], 20);
}

/// A port wrapper that breaks the completion contract in one of two ways.
struct LyingPort {
    inner: SimpleMem,
    /// Complete a token the engine never issued (once, on the first poll).
    fabricate: Option<u64>,
    /// Strip the payload from load completions.
    drop_load_data: bool,
}

impl salam_runtime::MemPort for LyingPort {
    fn begin_cycle(&mut self) {
        self.inner.begin_cycle();
    }
    fn try_issue(&mut self, a: salam_runtime::MemAccess) -> Result<(), salam_runtime::Rejection> {
        self.inner.try_issue(a)
    }
    fn poll(&mut self) -> Vec<salam_runtime::MemCompletion> {
        let mut out = self.inner.poll();
        if self.drop_load_data {
            for c in &mut out {
                c.data = None;
            }
        }
        if let Some(token) = self.fabricate.take() {
            out.push(salam_runtime::MemCompletion { token, data: None });
        }
        out
    }
}

fn run_against(port: &mut LyingPort) -> salam_runtime::SimError {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    port.inner.memory_mut().write_f64_slice(0x1000, &[1.5; 4]);
    let mut e = Engine::new(
        f,
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::I(4)],
    );
    e.try_run_to_completion(port)
        .expect_err("a port that breaks the contract must fail the run")
}

#[test]
fn a_fabricated_completion_token_is_a_typed_error() {
    for token in [0, 7_000, u64::MAX] {
        let err = run_against(&mut LyingPort {
            inner: SimpleMem::new(1, 4, 4),
            fabricate: Some(token),
            drop_load_data: false,
        });
        let salam_runtime::SimError::KernelFault { kernel, detail, .. } = &err else {
            panic!("expected KernelFault, got {err:?}");
        };
        assert_eq!(kernel, "serial");
        assert!(detail.contains(&format!("token {token}")), "{detail}");
    }
}

#[test]
fn a_load_completion_without_data_is_a_typed_error() {
    let err = run_against(&mut LyingPort {
        inner: SimpleMem::new(1, 4, 4),
        fabricate: None,
        drop_load_data: true,
    });
    let salam_runtime::SimError::KernelFault { detail, .. } = &err else {
        panic!("expected KernelFault, got {err:?}");
    };
    assert!(
        detail.contains("token 1") && detail.contains("no data"),
        "{detail}"
    );
}
