//! `sim_spm`: one full standalone simulation, from IR text to report JSON,
//! of each MachSuite kernel at standard size.
//!
//! Why it exists: the `runtime` engine does nearly all of the work here
//! (md-grid and gemm alone are about three quarters of a pass) while
//! memsys, dse and serve do none — so this is the workload on which a
//! faster engine (ROADMAP item 6) has to show.

use std::hint::black_box;
use std::time::{Duration, Instant};

use machsuite::{Bench, BuiltKernel};
use salam::standalone::{try_run_kernel, StandaloneConfig};
use salam_bench::runners::tuned_standalone;
use salam_cdfg::StaticCdfg;
use salam_ir::interp::{run_function, ProfileObserver, SparseMemory};
use salam_obs::{CycleClass, SharedTrace};
use salam_runtime::{Engine, SimpleMem};
use salam_telemetry::FlightRecorder;

use crate::golden::{Entry, Golden};
use crate::harness::{ms_since, Metrics, Tally, Workload};
use crate::stats;
use crate::trace::{chrome_json, Recorder};
use crate::workloads::{kernel_id, shuffled};

/// One kernel, ready to be simulated from its IR text.
pub struct Case {
    /// Lower-case kernel id (`gemm`, `md-grid`, …).
    pub id: String,
    /// The built kernel; `func` is replaced by the freshly parsed function
    /// on every op.
    pub kernel: BuiltKernel,
    /// The kernel's IR as printed text — the op's input.
    pub text: String,
    /// The per-kernel tuned configuration of the Fig. 10 validation.
    pub cfg: StandaloneConfig,
}

/// What [`build_cases`] produces.
pub struct Built {
    /// One case per kernel, in `Bench::ALL` order.
    pub cases: Vec<Case>,
    /// Instructions the functional oracle interpreted.
    pub interp_insts: u64,
    /// Time the oracle's interpreter runs took.
    pub interp_time: Duration,
    /// Wall time of building each case, milliseconds.
    pub phases_ms: Vec<f64>,
}

/// Builds every kernel, prints its IR and runs the functional oracle (the
/// reference interpreter must reproduce the kernel's expected output).
pub fn build_cases() -> Result<Built, String> {
    let mut cases = Vec::new();
    let mut interp_insts = 0u64;
    let mut interp_time = Duration::ZERO;
    let mut phases_ms = Vec::new();
    for bench in Bench::ALL {
        let phase = Instant::now();
        let kernel = bench.build_standard();
        let mut module = salam_ir::Module::new(&kernel.name);
        module.add_function(kernel.func.clone());
        let text = module.to_string();

        let mut mem = SparseMemory::new();
        kernel.load_into(&mut mem);
        let mut obs = ProfileObserver::default();
        let t = Instant::now();
        run_function(&kernel.func, &kernel.args, &mut mem, &mut obs, 500_000_000)
            .map_err(|e| format!("{}: interpreter: {e}", kernel.name))?;
        interp_time += t.elapsed();
        interp_insts += obs.insts;
        kernel
            .check(&mut mem)
            .map_err(|e| format!("{}: functional oracle: {e}", kernel.name))?;

        cases.push(Case {
            id: kernel_id(bench),
            kernel,
            text,
            cfg: tuned_standalone(bench),
        });
        phases_ms.push(ms_since(phase));
    }
    Ok(Built {
        cases,
        interp_insts,
        interp_time,
        phases_ms,
    })
}

/// Runs one op — IR text in, report JSON out — and returns the golden
/// entry of what it produced.
fn run_op(case: &mut Case, rec: &mut Recorder, op: u64) -> Result<Entry, String> {
    let mut module = rec
        .span("llvm_ir.parse", op, || salam_ir::parse_module(&case.text))
        .map_err(|e| e.to_string())?;
    let parsed = module
        .functions_mut()
        .first_mut()
        .ok_or("module without a function")?;
    std::mem::swap(&mut case.kernel.func, parsed);
    rec.span("verify.gate", op, || salam_verify::gate(&case.kernel.func))
        .map_err(|d| format!("{} verifier error(s)", d.len()))?;
    rec.span("cdfg.elaborate", op, || {
        black_box(StaticCdfg::elaborate(
            &case.kernel.func,
            &case.cfg.profile,
            &case.cfg.constraints,
        ));
    });
    let report = rec
        .span(&format!("core.run.{}", case.id), op, || {
            try_run_kernel(&case.kernel, &case.cfg)
        })
        .map_err(|e| e.to_string())?;
    let json = rec.span("core.report", op, || report.to_json());
    Ok(Entry::of_report(&report, &json))
}

/// The `sim_spm` workload.
pub struct SimSpm {
    cases: Vec<Case>,
    order: Vec<usize>,
    golden: Golden,
    rec: Recorder,
    next_op: u64,
    interp_insts: u64,
    interp_time: Duration,
    setup_phases_ms: Vec<f64>,
}

impl SimSpm {
    /// Set-up: golden load, then per kernel its build, IR print and
    /// functional oracle.
    pub fn setup(seed: u64) -> Result<SimSpm, String> {
        let t = Instant::now();
        let golden = Golden::load()?;
        let mut setup_phases_ms = vec![ms_since(t)];
        let built = build_cases()?;
        setup_phases_ms.extend(&built.phases_ms);
        Ok(SimSpm {
            order: shuffled(built.cases.len(), seed),
            cases: built.cases,
            golden,
            rec: Recorder::new(Instant::now(), 0),
            next_op: 0,
            interp_insts: built.interp_insts,
            interp_time: built.interp_time,
            setup_phases_ms,
        })
    }

    /// The seed-fixed op list, as kernel ids.
    #[cfg(test)]
    pub fn op_list(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&i| self.cases[i].id.clone())
            .collect()
    }

    /// Golden entries of every kernel (`--bless`).
    pub fn bless(golden: &mut Golden) -> Result<(), String> {
        let mut cases = build_cases()?.cases;
        let mut rec = Recorder::new(Instant::now(), 0);
        for case in &mut cases {
            let entry = run_op(case, &mut rec, 0)?;
            golden.entries.insert(format!("sim_spm/{}", case.id), entry);
        }
        Ok(())
    }
}

/// Host time of one decomposed engine run of `case`: `Engine::new` and the
/// cycle loop timed apart, which `try_run_kernel` does not allow.
struct EngineSplit {
    new: Duration,
    run: Duration,
    cycles: u64,
    dyn_insts: u64,
    stall_cycles: u64,
}

/// What an engine run is observed with in [`engine_split`].
enum Sink {
    None,
    Noop,
    Recording,
    Flight,
}

fn engine_split(case: &Case, sink: &Sink) -> EngineSplit {
    let cfg = &case.cfg;
    let k = &case.kernel;
    let cdfg = StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints);
    let mut mem = SimpleMem::new(cfg.spm_latency, cfg.spm_read_ports, cfg.spm_write_ports);
    k.load_into(mem.memory_mut());
    let t = Instant::now();
    let mut engine = Engine::new(
        k.func.clone(),
        cdfg,
        cfg.profile.clone(),
        cfg.engine,
        k.args.clone(),
    );
    let new = t.elapsed();
    match sink {
        Sink::None => {}
        Sink::Noop => engine.set_trace(SharedTrace::disabled()),
        Sink::Recording => engine.set_trace(SharedTrace::enabled()),
        Sink::Flight => engine.set_flight(FlightRecorder::enabled(4096), 1),
    }
    let t = Instant::now();
    engine.run_to_completion(&mut mem);
    let run = t.elapsed();
    let stats = engine.stats();
    EngineSplit {
        new,
        run,
        cycles: stats.cycles,
        dyn_insts: stats.issued.values().sum(),
        stall_cycles: stats.cycles - stats.attribution.get(CycleClass::Compute),
    }
}

impl Workload for SimSpm {
    fn ops_per_pass(&self) -> u64 {
        self.cases.len() as u64
    }

    fn setup_phases_ms(&self) -> &[f64] {
        &self.setup_phases_ms
    }

    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64> {
        let mut steps = Vec::with_capacity(self.order.len());
        self.rec.set_enabled(traced);
        for &i in &self.order {
            let op = self.next_op;
            self.next_op += 1;
            let case = &mut self.cases[i];
            let t = Instant::now();
            let open = self.rec.begin("op", op);
            let got = run_op(case, &mut self.rec, op);
            self.rec.end(open);
            let ms = ms_since(t);
            let ok = match got {
                Ok(entry) => self.golden.matches(&format!("sim_spm/{}", case.id), &entry),
                Err(_) => false,
            };
            tally.op(ok, ms);
            steps.push(ms);
        }
        self.rec.set_enabled(false);
        steps
    }

    fn layer_metrics(&mut self, budget: Duration, out: &mut Metrics) {
        let ops = self.ops_per_pass();
        // Fastest traced pass, per op: the same estimator as the headline.
        let per_op =
            |name: &str| stats::quantile(&self.rec.per_pass_sum_us(name, ops), 0.0) / ops as f64;
        let parse_us = per_op("llvm_ir.parse");
        out.insert("llvm_ir.parse_us".into(), parse_us);
        let text_bytes: usize = self.cases.iter().map(|c| c.text.len()).sum();
        out.insert(
            "llvm_ir.parse_mb_per_s".into(),
            stats::ratio(text_bytes as f64, parse_us * ops as f64),
        );
        out.insert("verify.gate_us".into(), per_op("verify.gate"));
        out.insert("cdfg.elaborate_us".into(), per_op("cdfg.elaborate"));
        out.insert("core.report_us".into(), per_op("core.report"));
        for case in &self.cases {
            let name = format!("core.run.{}", case.id);
            out.insert(
                format!("core.run_ms.{}", case.id),
                stats::quantile(&self.rec.durations_us(&name), 0.0) / 1e3,
            );
        }
        out.insert(
            "llvm_ir.interp_minst_per_s".into(),
            stats::ratio(
                self.interp_insts as f64 / 1e6,
                self.interp_time.as_secs_f64(),
            ),
        );

        // Probe: the engine taken apart, and the same run under each kind
        // of observer. Variants are interleaved kernel by kernel so drift
        // hits all of them alike; each keeps its fastest repetition.
        let sinks = [Sink::None, Sink::Noop, Sink::Recording, Sink::Flight];
        let started = Instant::now();
        let mut best_run = vec![[f64::INFINITY; 4]; self.cases.len()];
        let mut best_new = vec![f64::INFINITY; self.cases.len()];
        let (mut cycles, mut dyn_insts, mut stalls) = (0u64, 0u64, 0u64);
        let mut rep = 0;
        while rep == 0 || (rep < 5 && started.elapsed() < budget) {
            (cycles, dyn_insts, stalls) = (0, 0, 0);
            for (k, case) in self.cases.iter().enumerate() {
                for (s, sink) in sinks.iter().enumerate() {
                    let split = engine_split(case, sink);
                    best_run[k][s] = best_run[k][s].min(split.run.as_secs_f64());
                    if s == 0 {
                        best_new[k] = best_new[k].min(split.new.as_secs_f64());
                        cycles += split.cycles;
                        dyn_insts += split.dyn_insts;
                        stalls += split.stall_cycles;
                    }
                }
            }
            rep += 1;
        }
        let total = |s: usize| best_run.iter().map(|r| r[s]).sum::<f64>();
        let engine_s = total(0);
        out.insert("runtime.engine_ms".into(), engine_s * 1e3);
        out.insert("runtime.new_us".into(), stats::mean(&best_new) * 1e6);
        out.insert(
            "runtime.minst_per_s".into(),
            stats::ratio(dyn_insts as f64 / 1e6, engine_s),
        );
        out.insert(
            "runtime.host_ns_per_inst".into(),
            stats::ratio(engine_s * 1e9, dyn_insts as f64),
        );
        out.insert(
            "runtime.host_ns_per_cycle".into(),
            stats::ratio(engine_s * 1e9, cycles as f64),
        );
        out.insert("runtime.cycles".into(), cycles as f64);
        out.insert("runtime.dyn_insts".into(), dyn_insts as f64);
        out.insert(
            "runtime.stall_cycle_share".into(),
            stats::ratio(stalls as f64, cycles as f64),
        );
        out.insert(
            "obs.noop_sink_ratio".into(),
            stats::ratio(total(1), engine_s),
        );
        out.insert(
            "obs.recording_ratio".into(),
            stats::ratio(total(2), engine_s),
        );
        out.insert(
            "telemetry.flight_ratio".into(),
            stats::ratio(total(3), engine_s),
        );

        out.insert("accuracy.sim_vs_hls_err_pct".into(), self.hls_error_pct());
    }

    fn chrome_trace(&self) -> String {
        chrome_json(&[&self.rec])
    }
}

impl SimSpm {
    /// Mean |engine − HLS estimate| over the eight kernels Fig. 10
    /// validates (BFS's dynamic work queue has no static schedule), in
    /// percent. Exact: both sides are deterministic.
    fn hls_error_pct(&self) -> f64 {
        let errors: Vec<f64> = Bench::ALL
            .into_iter()
            .zip(&self.cases)
            .filter(|(b, _)| *b != Bench::Bfs)
            .map(|(_, case)| {
                let hls_cfg = salam_hls::HlsConfig {
                    engine_window: case.cfg.engine.reservation_entries,
                    ..salam_hls::HlsConfig::default()
                };
                let hls = salam_bench::runners::hls_cycles_with(
                    &case.kernel,
                    &case.cfg.constraints,
                    &hls_cfg,
                );
                let sim = self.golden.entries[&format!("sim_spm/{}", case.id)].cycles;
                salam_bench::table::pct_err(sim as f64, hls.cycles as f64)
            })
            .collect();
        salam_bench::table::mean_abs_pct(&errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_and_every_kernel_once() {
        let a = SimSpm::setup(11).unwrap();
        let b = SimSpm::setup(11).unwrap();
        assert_eq!(a.op_list(), b.op_list());
        let mut ids = a.op_list();
        ids.sort();
        let mut all: Vec<String> = Bench::ALL.into_iter().map(kernel_id).collect();
        all.sort();
        assert_eq!(ids, all);
        assert!((12..20).any(|s| SimSpm::setup(s).unwrap().op_list() != a.op_list()));
    }
}
