//! Timed runs of the three execution models on MachSuite kernels.

use std::path::Path;
use std::time::{Duration, Instant};

use hw_profile::HardwareProfile;
use machsuite::BuiltKernel;
use salam::RunReport;
use salam_aladdin::{derive_datapath, generate_trace, simulate_trace, AladdinMemModel, Trace};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_hls::{estimate_cycles, BlockTrips, HlsConfig, HlsReport};
use salam_ir::interp::{run_function, ProfileObserver, SparseMemory};
use salam_obs::{MetricsRegistry, SharedTrace};
use salam_runtime::{Engine, SimpleMem};

pub use salam::standalone::{run_kernel, StandaloneConfig};

/// A standalone run with the observability subsystem attached: the engine's
/// op spans and scheduler events are recorded and, if `trace_path` is set,
/// exported as a Chrome `trace_event` JSON file (open it in Perfetto or
/// `chrome://tracing`). The returned registry holds the full metric rollup
/// under `accel.{kernel}`.
pub fn run_kernel_observed(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
    trace_path: Option<&Path>,
) -> (RunReport, MetricsRegistry) {
    let opts = salam::RunOptions {
        trace: SharedTrace::enabled(),
        ..Default::default()
    };
    let report = salam::standalone::run(kernel, cfg, &opts).unwrap_or_else(|e| panic!("{e}"));
    let trace = opts.trace;
    if let Some(path) = trace_path {
        trace
            .with_recorder(|rec| salam_obs::write_chrome_trace(rec, path))
            .expect("trace handle is enabled")
            .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
    }
    let mut reg = MetricsRegistry::new();
    report.export_metrics(&mut reg, &format!("accel.{}", kernel.name));
    (report, reg)
}

/// A 512-entry reservation window on top of any standalone config — deep
/// enough that every co-design sweep (Figs. 13–15, the ablations) measures
/// memory and FU limits rather than the fetch window. One definition here
/// instead of a copy per experiment binary.
pub fn wide_window(mut cfg: StandaloneConfig) -> StandaloneConfig {
    cfg.engine.reservation_entries = 512;
    cfg
}

/// Per-benchmark tuned standalone configuration — the analogue of the
/// paper's "input LLVM IR was tuned to reflect the same levels of ILP as
/// the datapaths generated by HLS": the reservation-window (lookahead)
/// device-config knob is sized to each kernel's pipeline needs.
pub fn tuned_standalone(bench: machsuite::Bench) -> StandaloneConfig {
    use machsuite::Bench;
    let mut cfg = StandaloneConfig {
        spm_latency: 2,
        ..StandaloneConfig::default()
    };
    cfg.engine.reservation_entries = match bench {
        // NW's wavefront would otherwise outrun the HLS row-pipeline.
        Bench::Nw => 48,
        // Deep FP bodies need several iterations in flight to cover the
        // 16-cycle divider.
        Bench::MdGrid => 512,
        Bench::MdKnn => 256,
        _ => 192,
    };
    cfg
}

/// Cycle estimate from the HLS static scheduler (the Fig. 10 reference),
/// including profiled loop-carried memory recurrences (HLS co-simulation
/// style).
pub fn hls_cycles(kernel: &BuiltKernel, constraints: &FuConstraints, cfg: &HlsConfig) -> HlsReport {
    hls_cycles_with(kernel, constraints, cfg)
}

/// Like [`hls_cycles`], named for call sites that build a custom config.
pub fn hls_cycles_with(
    kernel: &BuiltKernel,
    constraints: &FuConstraints,
    cfg: &HlsConfig,
) -> HlsReport {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&kernel.func, &profile, constraints);
    let (obs, deps) = salam_verify::profile_memdeps(&kernel.func, &kernel.args, &kernel.init);
    estimate_cycles(
        &kernel.func,
        &cdfg,
        cfg,
        &BlockTrips::from_profile(&obs),
        Some(&deps),
    )
}

/// A profiled interpreter run, reused by power/area validation.
pub fn profile_kernel(kernel: &BuiltKernel) -> (StaticCdfg, ProfileObserver) {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&kernel.func, &profile, &FuConstraints::unconstrained());
    let mut mem = SparseMemory::new();
    kernel.load_into(&mut mem);
    let mut obs = ProfileObserver::default();
    run_function(&kernel.func, &kernel.args, &mut mem, &mut obs, 500_000_000)
        .expect("profiling run");
    (cdfg, obs)
}

/// The Aladdin flow with stage timings (Table IV's left half).
#[derive(Debug)]
pub struct AladdinRun {
    /// Trace generation + serialization wall-clock (the preprocessing the
    /// paper times against SALAM's compilation).
    pub trace_gen: Duration,
    /// Trace load + datapath derivation + constrained schedule wall-clock.
    pub simulation: Duration,
    /// Resulting cycle estimate.
    pub cycles: u64,
    /// The derived datapath.
    pub datapath: salam_aladdin::DatapathReport,
    /// Dynamic trace length.
    pub trace_len: usize,
}

/// Runs the complete Aladdin flow on a kernel.
pub fn aladdin_run(kernel: &BuiltKernel, mem_model: &AladdinMemModel) -> AladdinRun {
    let profile = HardwareProfile::default_40nm();

    let t0 = Instant::now();
    let mut mem = SparseMemory::new();
    kernel.load_into(&mut mem);
    let trace = generate_trace(&kernel.func, &kernel.args, &mut mem);
    let text = trace.to_text();
    let trace_gen = t0.elapsed();

    let t1 = Instant::now();
    let loaded = Trace::parse(&text);
    let datapath = derive_datapath(&kernel.func, &loaded, &profile, mem_model);
    let cycles = simulate_trace(&kernel.func, &loaded, &datapath, &profile, mem_model);
    let simulation = t1.elapsed();

    AladdinRun {
        trace_gen,
        simulation,
        cycles,
        datapath,
        trace_len: loaded.len(),
    }
}

/// The SALAM flow with stage timings (Table IV's right half).
#[derive(Debug)]
pub struct SalamRun {
    /// Static setup: elaboration of the static CDFG ("compilation").
    pub preprocess: Duration,
    /// Engine execution wall-clock.
    pub simulation: Duration,
    /// Resulting cycle count.
    pub cycles: u64,
}

/// Runs the SALAM flow (standalone engine + SPM) with timings.
pub fn salam_timed(kernel: &BuiltKernel, cfg: &StandaloneConfig) -> SalamRun {
    let t0 = Instant::now();
    let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
    let preprocess = t0.elapsed();

    let t1 = Instant::now();
    let mut mem = SimpleMem::new(cfg.spm_latency, cfg.spm_read_ports, cfg.spm_write_ports);
    kernel.load_into(mem.memory_mut());
    let mut engine = Engine::new(
        kernel.func.clone(),
        cdfg,
        cfg.profile.clone(),
        cfg.engine,
        kernel.args.clone(),
    );
    let cycles = engine.run_to_completion(&mut mem);
    let simulation = t1.elapsed();
    SalamRun {
        preprocess,
        simulation,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machsuite::Bench;

    #[test]
    fn hls_and_salam_agree_on_order_of_magnitude() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
        let hls = hls_cycles(&k, &FuConstraints::unconstrained(), &HlsConfig::default());
        let cfg = StandaloneConfig {
            spm_latency: 2,
            ..StandaloneConfig::default()
        };
        let salam = run_kernel(&k, &cfg);
        let ratio = salam.cycles as f64 / hls.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "SALAM {} vs HLS {} cycles (ratio {ratio:.2})",
            salam.cycles,
            hls.cycles
        );
    }

    #[test]
    fn aladdin_flow_produces_cycles() {
        let k = Bench::SpmvCrs.build_standard();
        let run = aladdin_run(&k, &AladdinMemModel::default_spm());
        assert!(run.cycles > 0);
        assert!(run.trace_len > 100);
    }

    #[test]
    fn salam_timed_matches_run_kernel_cycles() {
        let gemm = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        // NW's tuned 48-entry reservation window changes its cycle count
        // against the default 128, so this case pins that `cfg.engine`
        // reaches the timed engine.
        let nw = Bench::Nw.build_standard();
        for (k, cfg) in [
            (&gemm, StandaloneConfig::default()),
            (&nw, tuned_standalone(Bench::Nw)),
        ] {
            let timed = salam_timed(k, &cfg);
            let report = run_kernel(k, &cfg);
            assert_eq!(timed.cycles, report.cycles, "{}", k.name);
        }
    }
}
