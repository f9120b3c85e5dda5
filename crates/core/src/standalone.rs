//! One-call harness for datapath + private-SPM simulations.
//!
//! This is the configuration the paper validates against HLS (Fig. 10) and
//! sweeps in its GEMM design-space exploration (Figs. 13–15): the runtime
//! engine backed by a private multi-ported scratchpad, no wider system.
//!
//! [`run`] is the one entry point: it takes the kernel, the configuration
//! and a [`RunOptions`] of observation and control handles, all disabled by
//! default. The other functions here are short delegations to it (or, for
//! [`run_kernel_cached`], to the same engine driver behind a cache port).

use hw_profile::{HardwareProfile, SramSpec};
use machsuite::BuiltKernel;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_fault::{FaultPlan, SimError};
use salam_runtime::{Engine, EngineConfig, FaultyPort, MemPort, SimpleMem};

use crate::report::RunReport;

/// Configuration of a standalone run.
#[derive(Debug, Clone)]
pub struct StandaloneConfig {
    /// Datapath constraints.
    pub constraints: FuConstraints,
    /// Engine tunables.
    pub engine: EngineConfig,
    /// Hardware profile.
    pub profile: HardwareProfile,
    /// SPM latency in cycles.
    pub spm_latency: u64,
    /// SPM read ports per cycle.
    pub spm_read_ports: u32,
    /// SPM write ports per cycle.
    pub spm_write_ports: u32,
    /// SPM word width in bytes (for the Cacti-style power model).
    pub spm_word_bytes: u32,
    /// Run the static verifier as a pre-run gate: error-severity
    /// diagnostics abort the run with [`SimError::Verify`] before any
    /// cycle is simulated. Excluded from [`StandaloneConfig::canonical_repr`] —
    /// gating changes whether a run starts, never its result.
    pub verify: bool,
}

impl Default for StandaloneConfig {
    /// 1-cycle SPM with 2R/2W ports, unconstrained datapath.
    fn default() -> Self {
        StandaloneConfig {
            constraints: FuConstraints::unconstrained(),
            engine: EngineConfig::default(),
            profile: HardwareProfile::default_40nm(),
            spm_latency: 1,
            spm_read_ports: 2,
            spm_write_ports: 2,
            spm_word_bytes: 8,
            verify: false,
        }
    }
}

impl StandaloneConfig {
    /// Sets symmetric SPM read/write ports (the Fig. 14 sweep knob).
    pub fn with_ports(mut self, ports: u32) -> Self {
        self.spm_read_ports = ports;
        self.spm_write_ports = ports;
        self
    }

    /// Enables the static-verification pre-run gate.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets datapath constraints.
    pub fn with_constraints(mut self, constraints: FuConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// A canonical multi-line text form covering every knob that can change
    /// a run's result: the datapath constraints, engine tunables, SPM
    /// timing/ports, and the full hardware profile. Equal configs always
    /// produce equal strings; the design-space-exploration cache hashes
    /// this (together with the kernel identity) into its content address.
    /// The `verify` gate is deliberately excluded: it decides whether a
    /// run *starts*, never what it computes, so it must not split cache
    /// entries.
    pub fn canonical_repr(&self) -> String {
        format!(
            "constraints: {}\nengine: {}\nspm: latency={};read_ports={};write_ports={};word_bytes={}\nprofile:\n{}",
            self.constraints.canonical_repr(),
            self.engine.canonical_repr(),
            self.spm_latency,
            self.spm_read_ports,
            self.spm_write_ports,
            self.spm_word_bytes,
            self.profile.to_text(),
        )
    }

    /// Rejects nonsense knob settings — zero SPM ports can never service a
    /// memory op, a zero word width breaks the power model — before they
    /// turn into deep-in-the-run hangs. Includes [`EngineConfig::validate`].
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        self.engine.validate()?;
        let bad = |field: &str, detail: &str| Err(SimError::config("standalone", field, detail));
        if self.spm_latency == 0 {
            return bad("spm_latency", "must be nonzero");
        }
        if self.spm_read_ports == 0 {
            return bad("spm_read_ports", "must be nonzero");
        }
        if self.spm_write_ports == 0 {
            return bad("spm_write_ports", "must be nonzero");
        }
        if self.spm_word_bytes == 0 {
            return bad("spm_word_bytes", "must be nonzero");
        }
        Ok(())
    }

    /// The private SPM a run of `kernel` is costed against: the kernel's
    /// initialized span rounded up to a power of two (at least 1 KiB), with
    /// this config's word width and ports. Simulation, trace replay and the
    /// sweep pruner all size the SPM here, so their area and power agree.
    pub fn spm_spec(&self, kernel: &BuiltKernel) -> SramSpec {
        let (lo, hi) = kernel.init_span();
        let footprint = hi.saturating_sub(lo).next_power_of_two().max(1024);
        SramSpec::new(footprint, self.spm_word_bytes)
            .with_ports(self.spm_read_ports, self.spm_write_ports)
    }
}

/// The observation and control handles of one [`run`]. Each field's
/// `Default` is its disabled value, so `RunOptions::default()` is a plain
/// run. Only the fault plan feeds back into simulated state: an enabled
/// trace, recorder or token that never fires leaves the report
/// byte-identical, and so does a zero-rate plan.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Trace sink: op spans and scheduler events land on `engine.{kernel}`
    /// tracks, ready for [`salam_obs::write_chrome_trace`].
    pub trace: salam_obs::SharedTrace,
    /// Fault injection: engine FU hooks plus a [`FaultyPort`] around the
    /// memory, attached even when every rate is zero so the zero-rate
    /// equivalence property exercises the injection path. Port-side fault
    /// counters are merged into the report's `fault_counts`.
    pub fault: Option<FaultPlan>,
    /// Serving-layer flight recorder: receives engine run-start, run-end
    /// and error events and liveness heartbeats tagged with `trace_id`.
    pub flight: salam_telemetry::FlightRecorder,
    /// The request id stamped on flight-recorder events.
    pub trace_id: u64,
    /// Cooperative cancellation, polled at cycle-batch boundaries
    /// ([`salam_runtime::CANCEL_BATCH`] cycles): an explicit cancel or an
    /// expired deadline stops the run within one batch.
    pub cancel: salam_resilience::CancelToken,
}

/// Runs `kernel` on the runtime engine with a private SPM and returns the
/// full report (cycles, power breakdown, area, verification), with the
/// hooks `opts` switches on attached.
///
/// # Errors
///
/// [`SimError::Config`] for rejected knobs, [`SimError::Verify`] when the
/// `verify` gate rejects the kernel, [`SimError::Deadlock`] with a
/// populated watchdog snapshot, [`SimError::KernelFault`] for runtime
/// evaluation failures, or [`SimError::Cancelled`] when `opts.cancel`
/// fires. Injected faults surface as an unverified report, a longer run,
/// or one of these errors.
pub fn run(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
    opts: &RunOptions,
) -> Result<RunReport, SimError> {
    let spm = || {
        let mut mem = SimpleMem::new(cfg.spm_latency, cfg.spm_read_ports, cfg.spm_write_ports);
        kernel.load_into(mem.memory_mut());
        mem
    };
    drive(kernel, cfg, opts, spm, |mut mem: SimpleMem| {
        (kernel.check(mem.memory_mut()).is_ok(), cfg.spm_spec(kernel))
    })
}

/// [`run`] with every option off, panicking on any [`SimError`].
/// `benchmark/src` pins this name.
pub fn run_kernel(kernel: &BuiltKernel, cfg: &StandaloneConfig) -> RunReport {
    try_run_kernel(kernel, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run`] with every option off. `benchmark/src` pins this name.
///
/// # Errors
///
/// As [`run`].
pub fn try_run_kernel(kernel: &BuiltKernel, cfg: &StandaloneConfig) -> Result<RunReport, SimError> {
    run(kernel, cfg, &RunOptions::default())
}

/// [`try_run_kernel`] with dependency-stream recording forced on. Returns
/// the report together with the captured [`salam_obs::DepStream`], ready
/// for [`salam_obs::analyze`] (critical path, slack, headroom); the stream
/// is moved out of the report so the report stays serialization-sized.
/// `benchmark/src` pins this name.
///
/// # Errors
///
/// As [`run`].
pub fn try_run_kernel_profiled(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
) -> Result<(RunReport, salam_obs::DepStream), SimError> {
    let mut cfg = cfg.clone();
    cfg.engine.record_depstream = true;
    let mut report = try_run_kernel(kernel, &cfg)?;
    // Infallible once the run succeeded: recording was forced on above, so
    // the stats always carry a stream.
    let depstream = report
        .stats
        .depstream
        .take()
        .expect("record_depstream was set");
    Ok((report, depstream))
}

/// The one place an engine is built and driven: validates `cfg`, runs the
/// `verify` gate if asked, attaches the hooks `opts` switches on and runs
/// the engine against the memory `port` builds — behind a [`FaultyPort`]
/// when a fault plan is set. `finish` reads the verification verdict and
/// the SRAM costing spec off the drained memory.
fn drive<P: MemPort>(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
    opts: &RunOptions,
    port: impl FnOnce() -> P,
    finish: impl FnOnce(P) -> (bool, SramSpec),
) -> Result<RunReport, SimError> {
    cfg.validate()?;
    if cfg.verify {
        salam_verify::gate(&kernel.func).map_err(SimError::Verify)?;
    }
    let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
    let mut port = port();
    let mut engine = Engine::new(
        kernel.func.clone(),
        cdfg.clone(),
        cfg.profile.clone(),
        cfg.engine,
        kernel.args.clone(),
    );
    if opts.trace.is_enabled() {
        engine.set_trace(opts.trace.clone());
    }
    if opts.flight.is_enabled() {
        engine.set_flight(opts.flight.clone(), opts.trace_id);
    }
    if opts.cancel.is_enabled() {
        engine.set_cancel(opts.cancel.clone());
    }
    let port = if let Some(plan) = &opts.fault {
        engine.set_fault(plan);
        let mut faulty = FaultyPort::new(port, plan);
        let run = engine.try_run_to_completion(&mut faulty);
        engine.merge_fault_counts(faulty.fault_counts());
        run?;
        faulty.into_inner()
    } else {
        engine.try_run_to_completion(&mut port)?;
        port
    };
    let (verified, spm) = finish(port);
    Ok(RunReport::assemble(
        &kernel.name,
        engine.stats(),
        &cdfg,
        &cfg.profile,
        Some(&spm),
        cfg.engine.clock_period_ps,
        verified,
    ))
}

/// A [`salam_runtime::MemPort`] backed by a real `memsys` hierarchy,
/// advanced in lockstep with the engine clock. This is how a standalone
/// datapath runs against a cache + DRAM instead of a private SPM.
pub struct HierarchyPort {
    sim: sim_core::Simulation<memsys::MemMsg>,
    target: sim_core::CompId,
    sink: sim_core::CompId,
    clock_period_ps: u64,
    cycle: u64,
    reads_left: u32,
    writes_left: u32,
    read_budget: u32,
    write_budget: u32,
}

impl std::fmt::Debug for HierarchyPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchyPort")
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl HierarchyPort {
    /// Wraps a prepared simulation: requests go to `target`, responses must
    /// be addressed to `sink` (a [`memsys::test_util::Collector`]).
    pub fn new(
        sim: sim_core::Simulation<memsys::MemMsg>,
        target: sim_core::CompId,
        sink: sim_core::CompId,
        clock_period_ps: u64,
        read_budget: u32,
        write_budget: u32,
    ) -> Self {
        HierarchyPort {
            sim,
            target,
            sink,
            clock_period_ps,
            cycle: 0,
            reads_left: read_budget,
            writes_left: write_budget,
            read_budget,
            write_budget,
        }
    }

    /// Builds the common hierarchy for one kernel: an L1 cache in front of
    /// DRAM, with the kernel's data staged in DRAM.
    pub fn cache_hierarchy(
        kernel: &BuiltKernel,
        cache: memsys::CacheConfig,
        clock_period_ps: u64,
        ports: u32,
    ) -> Self {
        let mut sim: sim_core::Simulation<memsys::MemMsg> = sim_core::Simulation::new();
        // Cover the kernel's whole footprint with one DRAM.
        let (lo, hi) = kernel.footprint;
        let base = lo & !0xFFF;
        let size = (hi - base + 0xFFF) & !0xFFF;
        let dram = sim.add_component(memsys::Dram::new(
            "dram",
            memsys::DramConfig::default(),
            base,
            size,
        ));
        kernel.load_with(|addr, bytes| {
            sim.component_as_mut::<memsys::Dram>(dram)
                .unwrap()
                .poke(addr, bytes);
        });
        let l1 = sim.add_component(memsys::Cache::new("l1", cache, dram));
        let sink = sim.add_component(memsys::test_util::Collector::new());
        HierarchyPort::new(sim, l1, sink, clock_period_ps, ports, ports)
    }

    /// The component requests are routed to (cache front, for verification
    /// reads through the hierarchy).
    pub fn target(&self) -> sim_core::CompId {
        self.target
    }

    /// Consumes the port, returning the underlying simulation for
    /// post-run inspection.
    pub fn into_simulation(self) -> sim_core::Simulation<memsys::MemMsg> {
        self.sim
    }

    /// Checks `kernel`'s output by draining the hierarchy: functional reads
    /// issued through the cache front, so dirty lines are observed.
    fn check(self, kernel: &BuiltKernel) -> bool {
        let l1 = self.target;
        let mut sim = self.sim;
        let (lo, hi) = kernel.footprint;
        let sink = sim.add_component(memsys::test_util::Collector::new());
        let now = sim.now();
        let mut id = 1u64 << 40;
        let mut addr = lo;
        while addr < hi {
            let chunk = 64.min(hi - addr) as u32;
            sim.post(
                l1,
                now + 1,
                memsys::MemMsg::Req(memsys::MemReq::read(id, addr, chunk, sink)),
            );
            id += 1;
            addr += chunk as u64;
        }
        sim.run();
        let mut mem = salam_ir::interp::SparseMemory::new();
        {
            use salam_ir::interp::Memory as _;
            let col = sim
                .component_as::<memsys::test_util::Collector>(sink)
                .unwrap();
            for r in &col.resps {
                if let Some(d) = &r.data {
                    mem.write(r.addr, d);
                }
            }
        }
        kernel.check(&mut mem).is_ok()
    }
}

impl salam_runtime::MemPort for HierarchyPort {
    fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.reads_left = self.read_budget;
        self.writes_left = self.write_budget;
        // Deliver everything due strictly before this engine edge.
        self.sim.run_until(self.cycle * self.clock_period_ps);
    }

    fn try_issue(
        &mut self,
        access: salam_runtime::MemAccess,
    ) -> Result<(), salam_runtime::Rejection> {
        let (budget, cause) = if access.is_write {
            (
                &mut self.writes_left,
                salam_runtime::RejectCause::WritePorts,
            )
        } else {
            (&mut self.reads_left, salam_runtime::RejectCause::ReadPorts)
        };
        if *budget == 0 {
            return Err(salam_runtime::Rejection::new(access, cause));
        }
        *budget -= 1;
        let req = if access.is_write {
            memsys::MemReq::write(
                access.token,
                access.addr,
                access.data.unwrap_or_default().to_vec(),
                self.sink,
            )
        } else {
            memsys::MemReq::read(access.token, access.addr, access.size, self.sink)
        };
        self.sim.post(
            self.target,
            self.cycle * self.clock_period_ps,
            memsys::MemMsg::Req(req),
        );
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<salam_runtime::MemCompletion>) {
        let sink = self.sink;
        let col = self
            .sim
            .component_as_mut::<memsys::test_util::Collector>(sink)
            .expect("sink is a collector");
        out.extend(col.resps.drain(..).map(|r| {
            salam_runtime::MemCompletion {
                token: r.id,
                data: r
                    .data
                    .as_deref()
                    .and_then(salam_runtime::Payload::from_slice),
            }
        }));
    }

    /// A spent budget refuses every access of its kind until the next
    /// cycle.
    fn refusal_scope(&self, rejected: &salam_runtime::Rejection) -> salam_runtime::RefusalScope {
        let left = match rejected.access.is_write {
            true => self.writes_left,
            false => self.reads_left,
        };
        match left {
            0 => salam_runtime::RefusalScope::Kind,
            _ => salam_runtime::RefusalScope::Access,
        }
    }
}

/// Runs `kernel` against a cache + DRAM hierarchy instead of a private SPM,
/// through the same validated engine driver as [`run`], panicking on any
/// [`SimError`]. `benchmark/src` pins this name.
///
/// The returned report's SPM fields describe the cache's SRAM array; output
/// verification reads the memory hierarchy functionally (cache contents win
/// over stale DRAM lines).
pub fn run_kernel_cached(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
    cache: memsys::CacheConfig,
) -> RunReport {
    let port = || {
        HierarchyPort::cache_hierarchy(
            kernel,
            cache,
            cfg.engine.clock_period_ps,
            cfg.spm_read_ports,
        )
    };
    let finish = |port: HierarchyPort| {
        let spm = SramSpec::new(cache.size_bytes.max(1024), 8).with_ports(1, 1);
        (port.check(kernel), spm)
    };
    drive(kernel, cfg, &RunOptions::default(), port, finish).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_profile::FuKind;

    #[test]
    fn gemm_runs_verified_with_power_and_area() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
        let r = run_kernel(&k, &StandaloneConfig::default());
        assert!(r.verified, "kernel output must match golden");
        assert!(r.cycles > 0);
        assert!(r.power.total_mw() > 0.0);
        assert!(r.power.static_spm_mw > 0.0);
        assert!(r.datapath_area_um2 > 0.0);
        assert!(r.spm_area_um2 > 0.0);
    }

    #[test]
    fn more_ports_never_slower() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 4 });
        let slow = run_kernel(&k, &StandaloneConfig::default().with_ports(1));
        let fast = run_kernel(&k, &StandaloneConfig::default().with_ports(16));
        assert!(fast.cycles <= slow.cycles);
        assert!(slow.verified && fast.verified);
    }

    #[test]
    fn constraining_fus_trades_time_for_power() {
        let k = machsuite::md_knn::build(&machsuite::md_knn::Params::default());
        let free = run_kernel(&k, &StandaloneConfig::default());
        let tight = run_kernel(
            &k,
            &StandaloneConfig::default().with_constraints(
                FuConstraints::unconstrained()
                    .with_limit(FuKind::FpMulF64, 2)
                    .with_limit(FuKind::FpAddF64, 2),
            ),
        );
        assert!(tight.cycles >= free.cycles);
        assert!(
            tight.power.static_fu_mw < free.power.static_fu_mw,
            "fewer units leak less"
        );
        assert!(tight.verified);
    }

    #[test]
    fn cached_run_verifies_and_larger_cache_is_faster() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
        let big = run_kernel_cached(
            &k,
            &StandaloneConfig::default(),
            memsys::CacheConfig::default().with_size(16 * 1024),
        );
        assert!(big.verified, "cached run produced wrong results");
        let small = run_kernel_cached(
            &k,
            &StandaloneConfig::default(),
            memsys::CacheConfig::default().with_size(256),
        );
        assert!(small.verified);
        assert!(
            big.cycles < small.cycles,
            "16kB cache ({}) should beat 256B ({})",
            big.cycles,
            small.cycles
        );
    }

    #[test]
    fn cache_is_slower_than_spm_but_correct() {
        let k = machsuite::stencil2d::build(&machsuite::stencil2d::Params::default());
        let spm = run_kernel(&k, &StandaloneConfig::default());
        let cached = run_kernel_cached(
            &k,
            &StandaloneConfig::default(),
            memsys::CacheConfig::default(),
        );
        assert!(cached.verified);
        assert!(cached.cycles > spm.cycles, "cache path has longer latency");
    }

    #[test]
    fn every_benchmark_verifies_on_the_engine() {
        // The full-stack correctness sweep: every MachSuite kernel computes
        // bit-correct results through the cycle-accurate engine.
        for bench in machsuite::Bench::ALL {
            let k = bench.build_standard();
            let r = run_kernel(&k, &StandaloneConfig::default());
            assert!(r.verified, "{} failed verification", k.name);
            assert!(r.cycles > 0, "{} reported zero cycles", k.name);
        }
    }

    #[test]
    fn nonsense_standalone_configs_are_rejected() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        for (cfg, field) in [
            (
                StandaloneConfig {
                    spm_read_ports: 0,
                    ..StandaloneConfig::default()
                },
                "spm_read_ports",
            ),
            (
                StandaloneConfig {
                    spm_word_bytes: 0,
                    ..StandaloneConfig::default()
                },
                "spm_word_bytes",
            ),
        ] {
            match try_run_kernel(&k, &cfg) {
                Err(SimError::Config(c)) => assert_eq!(c.field, field),
                other => panic!("expected config error for {field}, got {other:?}"),
            }
        }
        // Engine-level knobs are validated through the same entry point.
        let cfg = StandaloneConfig {
            engine: EngineConfig {
                deadlock_cycles: 0,
                ..EngineConfig::default()
            },
            ..StandaloneConfig::default()
        };
        assert!(matches!(try_run_kernel(&k, &cfg), Err(SimError::Config(_))));
    }

    /// `BuiltKernel::args` is a public field nothing checks against the
    /// function's parameters; the fallible entry points promise a typed
    /// error, not the engine's old construction panic.
    #[test]
    fn argument_count_mismatch_is_a_kernel_fault() {
        let mut k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        k.args.pop();
        match try_run_kernel(&k, &StandaloneConfig::default()) {
            Err(SimError::KernelFault { detail, .. }) => {
                assert!(detail.contains("argument count mismatch"), "{detail}")
            }
            other => panic!("expected a kernel fault, got {other:?}"),
        }
    }

    #[test]
    fn verify_gate_passes_clean_kernels_and_rejects_broken_ir() {
        use salam_ir::{FunctionBuilder, IntPredicate, Type};

        // Clean kernel with the gate on: runs and verifies as usual, and
        // the knob does not perturb the cache key.
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let gated = StandaloneConfig::default().with_verify(true);
        let r = try_run_kernel(&k, &gated).unwrap();
        assert!(r.verified);
        assert_eq!(
            gated.canonical_repr(),
            StandaloneConfig::default().canonical_repr(),
            "verify gate must not split cache entries"
        );

        // A non-dominated use (value defined only on one branch arm, used
        // at the join) must be rejected before the engine starts.
        let mut fb = FunctionBuilder::new("broken", &[("p", Type::Ptr), ("n", Type::I64)]);
        let p = fb.arg(0);
        let n = fb.arg(1);
        let then_b = fb.add_block("then");
        let join = fb.add_block("join");
        let zero = fb.i64c(0);
        let c = fb.icmp(IntPredicate::Slt, n, zero, "c");
        fb.cond_br(c, then_b, join);
        fb.position_at(then_b);
        let a = fb.load(Type::I64, p, "a");
        fb.br(join);
        fb.position_at(join);
        fb.store(a, p); // `a` does not dominate this use
        fb.ret();
        let broken = machsuite::BuiltKernel::new(
            "broken",
            fb.finish(),
            vec![
                salam_ir::interp::RtVal::P(0x1000),
                salam_ir::interp::RtVal::I(4),
            ],
            vec![(0x1000, vec![0u8; 8])],
            Box::new(|_| Ok(())),
        );
        match try_run_kernel(&broken, &gated) {
            Err(SimError::Verify(diags)) => {
                assert!(diags.iter().any(|d| d.code == salam_verify::codes::V001));
            }
            other => panic!("expected a verify rejection, got {other:?}"),
        }
    }

    /// Every disabled-by-default option, switched on with nothing to act
    /// on, leaves the report byte-identical: tracing and the flight
    /// recorder never feed back into simulated state, a token that never
    /// fires costs one branch per batch, and a zero-rate fault plan runs
    /// the injection path without injecting.
    #[test]
    fn idle_options_are_observationally_free() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 2 });
        let cfg = StandaloneConfig::default();
        let clean = run_kernel(&k, &cfg).to_json();
        let off = RunOptions::default;
        for (what, opts) in [
            (
                "trace",
                RunOptions {
                    trace: salam_obs::SharedTrace::enabled(),
                    ..off()
                },
            ),
            (
                "flight",
                RunOptions {
                    flight: salam_telemetry::FlightRecorder::enabled(64),
                    trace_id: 7,
                    ..off()
                },
            ),
            (
                "cancel",
                RunOptions {
                    cancel: salam_resilience::CancelToken::new(),
                    ..off()
                },
            ),
            (
                "fault",
                RunOptions {
                    fault: Some(FaultPlan::seeded(42)),
                    ..off()
                },
            ),
        ] {
            let report = run(&k, &cfg, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(report.to_json(), clean, "{what} perturbed the report");
        }
    }

    #[test]
    fn expired_deadline_cancels_within_one_cycle_batch() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let opts = RunOptions {
            cancel: salam_resilience::CancelToken::with_deadline_ms(0),
            ..RunOptions::default()
        };
        match run(&k, &StandaloneConfig::default(), &opts) {
            Err(SimError::Cancelled {
                kernel,
                cycle,
                timeout,
            }) => {
                assert_eq!(kernel, "gemm_ncubed");
                assert!(timeout, "an expired deadline must classify as timeout");
                assert_eq!(
                    cycle % salam_runtime::CANCEL_BATCH,
                    0,
                    "stops land exactly on cycle-batch boundaries"
                );
                assert_eq!(cycle, 0, "an already-expired deadline stops at cycle 0");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_responses_surface_as_a_deadlock_error() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let mut cfg = StandaloneConfig::default();
        cfg.engine.deadlock_cycles = 200;
        let opts = RunOptions {
            fault: Some(FaultPlan {
                mem_drop_rate: 1.0,
                ..FaultPlan::seeded(3)
            }),
            ..RunOptions::default()
        };
        match run(&k, &cfg, &opts) {
            Err(SimError::Deadlock(snap)) => {
                assert_eq!(snap.kernel, "gemm_ncubed");
                assert!(snap.mem_outstanding > 0, "reads must be stuck in flight");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
