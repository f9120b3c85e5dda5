//! Microbenchmarks of the dynamic runtime engine itself, including the
//! guard that a disabled trace sink adds no measurable cost to the hot
//! loop.

use std::hint::black_box;

use hw_profile::HardwareProfile;
use salam_bench::microbench;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{FunctionBuilder, Type};
use salam_obs::SharedTrace;
use salam_runtime::{
    Engine, EngineConfig, MemAccess, MemCompletion, MemPort, RefusalScope, Rejection, SimpleMem,
};

fn vadd_kernel() -> salam_ir::Function {
    let mut fb = FunctionBuilder::new(
        "vadd",
        &[
            ("a", Type::Ptr),
            ("b", Type::Ptr),
            ("c", Type::Ptr),
            ("n", Type::I64),
        ],
    );
    let (a, b, c, n) = (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3));
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, i| {
        let pa = fb.gep1(Type::F64, a, i, "pa");
        let pb = fb.gep1(Type::F64, b, i, "pb");
        let pc = fb.gep1(Type::F64, c, i, "pc");
        let x = fb.load(Type::F64, pa, "x");
        let y = fb.load(Type::F64, pb, "y");
        let s = fb.fadd(x, y, "s");
        fb.store(s, pc);
    });
    fb.ret();
    fb.finish()
}

struct VaddRig {
    f: salam_ir::Function,
    cdfg: StaticCdfg,
    profile: HardwareProfile,
    n: u64,
}

impl VaddRig {
    fn new(n: u64) -> Self {
        let f = vadd_kernel();
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        VaddRig {
            f,
            cdfg,
            profile,
            n,
        }
    }

    /// One full run; returns the dynamic instructions it issued.
    fn run_once(&self, trace: Option<&SharedTrace>) -> u64 {
        let mut mem = self.memory(4);
        let mut e = self.engine(EngineConfig::default());
        if let Some(t) = trace {
            e.set_trace(t.clone());
        }
        e.run_to_completion(&mut mem);
        e.stats().total_issued()
    }

    /// One full run with a 512-entry window on a one-read, one-write port:
    /// far more ready loads than the port takes a cycle. Returns the
    /// dynamic instructions it issued and the port's call counts.
    fn run_port_bound(&self) -> (u64, Calls<SimpleMem>) {
        let mut port = Calls::new(self.memory(1));
        let mut e = self.engine(EngineConfig {
            reservation_entries: 512,
            ..EngineConfig::default()
        });
        e.run_to_completion(&mut port);
        (e.stats().total_issued(), port)
    }

    fn memory(&self, ports: u32) -> SimpleMem {
        let mut mem = SimpleMem::new(1, ports, ports);
        mem.memory_mut()
            .write_f64_slice(0x1000, &vec![1.0; self.n as usize]);
        mem.memory_mut()
            .write_f64_slice(0x9000, &vec![2.0; self.n as usize]);
        mem
    }

    fn engine(&self, cfg: EngineConfig) -> Engine {
        Engine::new(
            self.f.clone(),
            self.cdfg.clone(),
            self.profile.clone(),
            cfg,
            vec![
                RtVal::P(0x1000),
                RtVal::P(0x9000),
                RtVal::P(0x11000),
                RtVal::I(self.n as i64),
            ],
        )
    }
}

/// Forwards every call to the port it wraps — `refusal_scope` included —
/// counting `try_issue` calls and accepted accesses.
struct Calls<P> {
    port: P,
    calls: u64,
    accepted: u64,
}

impl<P> Calls<P> {
    fn new(port: P) -> Self {
        Calls {
            port,
            calls: 0,
            accepted: 0,
        }
    }
}

impl<P: MemPort> MemPort for Calls<P> {
    fn begin_cycle(&mut self) {
        self.port.begin_cycle();
    }

    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        self.calls += 1;
        self.port.try_issue(access)?;
        self.accepted += 1;
        Ok(())
    }

    fn poll(&mut self) -> Vec<MemCompletion> {
        self.port.poll()
    }

    fn refusal_scope(&self, rejected: &Rejection) -> RefusalScope {
        self.port.refusal_scope(rejected)
    }
}

/// Dynamic-instruction throughput of the engine on a streaming kernel.
fn bench_engine_throughput(rig: &VaddRig) {
    let mut dyn_insts = 0;
    let m = microbench::run("engine/vadd_256_elements", || {
        dyn_insts = rig.run_once(None);
        black_box(dyn_insts)
    });
    println!(
        "{:<44} {:>12.0} dyn-inst/s   ({:.1} host ns / dyn-inst)",
        "engine/vadd_256_elements (throughput)",
        m.per_sec() * dyn_insts as f64,
        m.ns_per_iter() / dyn_insts as f64
    );
}

/// The engine where the port is the bottleneck: the regime in which a
/// refusal that speaks for its whole kind saves the retries behind it.
fn bench_port_bound(rig: &VaddRig) {
    let mut run = (0, Calls::new(SimpleMem::new(1, 1, 1)));
    let m = microbench::run("engine/vadd_port_bound", || {
        run = rig.run_port_bound();
        black_box(run.0)
    });
    let (dyn_insts, port) = run;
    println!(
        "{:<44} {:>8.1} host ns / dyn-inst   {:.2} port calls / accepted access",
        "engine/vadd_port_bound (1R/1W, 512 entries)",
        m.ns_per_iter() / dyn_insts as f64,
        port.calls as f64 / port.accepted as f64
    );
}

/// The acceptance guard for the observability subsystem: an engine holding
/// the default (disabled) trace handle must run as fast as one with the
/// handle explicitly attached — the disabled path is a single branch.
fn bench_tracing_overhead(rig: &VaddRig) {
    let baseline = microbench::run("engine/vadd_trace_off_baseline", || {
        black_box(rig.run_once(None))
    });
    let disabled = SharedTrace::disabled();
    let with_noop = microbench::run("engine/vadd_trace_noop_sink", || {
        black_box(rig.run_once(Some(&disabled)))
    });
    let enabled = SharedTrace::enabled();
    let with_recording = microbench::run("engine/vadd_trace_recording", || {
        black_box(rig.run_once(Some(&enabled)))
    });
    let ratio = with_noop.ns_per_iter() / baseline.ns_per_iter();
    println!(
        "{:<44} {ratio:>11.3}x (recording: {:.3}x)",
        "engine/noop_sink_overhead_ratio",
        with_recording.ns_per_iter() / baseline.ns_per_iter()
    );
    // Guard, not a hard assert: timing noise on shared machines is real,
    // but anything past 10% means the disabled path grew a real cost.
    if ratio > 1.10 {
        eprintln!("WARNING: no-op trace sink shows {ratio:.3}x overhead (expected ~1.0x)");
    }
}

/// Static-elaboration (compile) latency — the preprocessing step of Table IV.
fn bench_elaboration() {
    let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 16, unroll: 16 });
    let profile = HardwareProfile::default_40nm();
    microbench::run("static_elaboration_gemm_unroll16", || {
        black_box(StaticCdfg::elaborate(
            &k.func,
            &profile,
            &FuConstraints::unconstrained(),
        ))
    });
}

/// Reference-interpreter throughput (trace-generation cost driver).
fn bench_interpreter() {
    let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
    microbench::run("interpreter_gemm8", || {
        let mut mem = salam_ir::interp::SparseMemory::new();
        k.load_into(&mut mem);
        salam_ir::interp::run_function(
            &k.func,
            &k.args,
            &mut mem,
            &mut salam_ir::interp::NullObserver,
            100_000_000,
        )
        .unwrap();
    });
}

fn main() {
    let rig = VaddRig::new(256);
    bench_engine_throughput(&rig);
    bench_port_bound(&rig);
    bench_tracing_overhead(&rig);
    bench_elaboration();
    bench_interpreter();
}
