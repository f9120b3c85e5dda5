//! The trace-replay fast path for sweeps: simulate once, re-schedule in
//! milliseconds.
//!
//! A sweep over *replay-safe* axes — FU pool limits, SPM port counts, SPM
//! latency, outstanding-access caps — never changes *which* dynamic
//! operations a kernel executes or *what* they depend on; it only changes
//! when the scheduler can issue them. So instead of re-simulating every
//! point, this module records each kernel's dependence stream **once** at a
//! normalized baseline configuration ([`baseline_config`]) and re-schedules
//! the recorded DAG analytically with [`salam_replay::replay`] for every
//! point that differs from the sweep base only along safe axes. Points that
//! touch an unsafe knob (reservation window, clock, hazard model, hardware
//! profile, …) fall back to the full event engine, so a mixed sweep is
//! byte-identical to a full-sim sweep for exactly those points.
//!
//! Every replayed cycle count is cross-checked against the static
//! scheduling lower bound ([`salam_verify::static_lower_bound`], PR 5): a
//! replay below the provable floor is a hard modeling error, and the point
//! silently falls back to full simulation (`engine = sim-fallback`) rather
//! than reporting an impossible number.
//!
//! Results are cached like any other sweep, but in replay-specific domains
//! (`replay/<kernel>` for points, `replay-baseline/<kernel>` for the
//! recorded bundles), so a replay row can never shadow — or be shadowed by
//! — a full-simulation entry for the same configuration.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use machsuite::BuiltKernel;
use salam::standalone::{run_kernel, try_run_kernel_profiled, StandaloneConfig};
use salam::RunReport;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_obs::json::{Reader, Value};
use salam_obs::DepStream;
use salam_replay::{ReplayConfig, ReplayOutcome};
use salam_verify::{static_lower_bound, BoundConfig};

use crate::cache::{CacheId, CachePayload};
use crate::spec::{config_diagnostic, KernelSpec, StandalonePoint};
use crate::{run_sweep, DseOptions, PointOutcome, SweepJob};

/// Which execution model produced a point's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Full event-engine simulation (unsafe-axis point, or the baseline
    /// itself).
    Sim,
    /// Analytic re-schedule of the recorded dependence stream.
    Replay,
    /// Replay was attempted but rejected — it errored or undercut the
    /// static lower bound — and the point re-ran on the event engine.
    SimFallback,
}

impl EngineKind {
    /// Stable row label (`sim` / `replay` / `sim-fallback`).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Replay => "replay",
            EngineKind::SimFallback => "sim-fallback",
        }
    }
}

/// Options for a replay-accelerated sweep.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// The underlying sweep engine options (workers, cache, retries).
    pub inner: DseOptions,
    /// Accuracy-check mode: every replayed point *also* runs the full
    /// event engine, and the row records the measured cycle error and the
    /// wall-clock speedup. Replay results are not cached in this mode —
    /// the timings would be meaningless on a warm cache.
    pub check: bool,
}

/// Per-point provenance of a replay-accelerated sweep.
#[derive(Debug, Clone, Copy)]
pub struct PointProvenance {
    /// Which engine produced the report.
    pub engine: EngineKind,
    /// The static lower bound the replayed count was checked against
    /// (`None` for plain-sim points).
    pub bound: Option<u64>,
    /// Measured cycle error vs the event engine, in percent (check mode).
    pub err_pct: Option<f64>,
    /// Measured wall-clock speedup vs the event engine (check mode).
    pub speedup: Option<f64>,
}

/// A completed replay-accelerated sweep: one outcome per point in the
/// submitted order, plus per-point provenance and rollup counts.
#[derive(Debug)]
pub struct ReplayRun {
    /// One outcome per point, in submission order.
    pub outcomes: Vec<PointOutcome<RunReport>>,
    /// Per-point engine/bound/error provenance, parallel to `outcomes`.
    pub provenance: Vec<PointProvenance>,
    /// Points answered by analytic replay.
    pub replayed: usize,
    /// Points answered by full simulation (unsafe axes or baseline reuse).
    pub simulated: usize,
    /// Points where replay was rejected and simulation took over.
    pub fallbacks: usize,
    /// Baseline recordings that actually simulated (the rest were cached).
    pub baseline_misses: usize,
    /// Cache hits across baseline, replay and sim sub-sweeps.
    pub hits: usize,
    /// Cache misses across baseline, replay and sim sub-sweeps.
    pub misses: usize,
    /// Failed points (panicked out of the retry budget).
    pub failed: usize,
    /// Statically rejected points.
    pub invalid: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl ReplayRun {
    /// `replayed=… simulated=… fallbacks=…` plus cache telemetry — one
    /// stable line for logs.
    pub fn summary(&self) -> String {
        format!(
            "points={} replayed={} simulated={} fallbacks={} failed={} invalid={} \
             hits={} misses={} baseline_misses={} wall={:.3}s",
            self.outcomes.len(),
            self.replayed,
            self.simulated,
            self.fallbacks,
            self.failed,
            self.invalid,
            self.hits,
            self.misses,
            self.baseline_misses,
            self.wall.as_secs_f64()
        )
    }
}

/// Projects a configuration onto its *recording baseline*: every
/// replay-safe knob is normalized to the [`StandaloneConfig::default`]
/// value, every unsafe knob is kept. Two configurations with equal
/// baselines differ only along replay-safe axes — the recorded dependence
/// stream of one is valid for re-scheduling the other.
///
/// Replay-safe knobs (normalized away): FU constraints, SPM read/write
/// ports, SPM latency, outstanding read/write caps. Everything else —
/// reservation window, clock, pipelining, hazard model, hardware profile,
/// SPM word width — stays, conservatively splitting the baseline.
pub fn baseline_config(cfg: &StandaloneConfig) -> StandaloneConfig {
    let defaults = StandaloneConfig::default();
    let mut base = cfg.clone();
    base.constraints = FuConstraints::unconstrained();
    base.spm_latency = defaults.spm_latency;
    base.spm_read_ports = defaults.spm_read_ports;
    base.spm_write_ports = defaults.spm_write_ports;
    base.engine.max_outstanding_reads = defaults.engine.max_outstanding_reads;
    base.engine.max_outstanding_writes = defaults.engine.max_outstanding_writes;
    base
}

/// Whether `point` differs from `base` only along replay-safe axes — i.e.
/// whether a stream recorded at `base`'s baseline re-schedules `point`
/// exactly.
pub fn replay_safe(point: &StandaloneConfig, base: &StandaloneConfig) -> bool {
    baseline_config(point).canonical_repr() == baseline_config(base).canonical_repr()
}

/// Lowers a standalone configuration to the analytic scheduler's knobs.
/// The FU pool comes from the point's own CDFG elaboration, so constraint
/// axes bind exactly as they would in the event engine.
pub fn replay_config(cfg: &StandaloneConfig, cdfg: &StaticCdfg) -> ReplayConfig {
    ReplayConfig {
        reservation_entries: cfg.engine.reservation_entries,
        max_outstanding_reads: cfg.engine.max_outstanding_reads,
        max_outstanding_writes: cfg.engine.max_outstanding_writes,
        pipelined_fus: cfg.engine.pipelined_fus,
        mem_latency: cfg.spm_latency,
        spm_read_ports: cfg.spm_read_ports,
        spm_write_ports: cfg.spm_write_ports,
        fu_pool: cdfg.fu_counts().collect(),
        // The DSE layer only consumes cycles + attribution; skip the
        // retimed-stream rebuild (it costs more than the schedule).
        want_retimed: false,
        ..ReplayConfig::default()
    }
}

/// Derives per-block dynamic trip counts from a recorded stream: every
/// instruction executes exactly once per execution of its block, so a
/// block's trip count is the execution count of its most-recorded
/// instruction (phis and terminators never enter the stream, hence the
/// max rather than "first instruction").
pub fn trips_from_trace(
    f: &salam_ir::Function,
    stream: &DepStream,
) -> HashMap<salam_ir::BlockId, u64> {
    let mut per_inst: HashMap<u32, u64> = HashMap::new();
    for op in stream.ops() {
        *per_inst.entry(op.meta.inst).or_insert(0) += 1;
    }
    let mut trips = HashMap::new();
    for (bid, block) in f.blocks() {
        let t = block
            .insts
            .iter()
            .map(|id| per_inst.get(&(id.index() as u32)).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        if t > 0 {
            trips.insert(bid, t);
        }
    }
    trips
}

/// The recorded bundle for one kernel: the baseline report (energies,
/// verification, schedule-independent counters) plus the dependence
/// stream that replay re-schedules.
#[derive(Debug, Clone)]
pub struct ReplayBaseline {
    /// The baseline configuration's full report.
    pub report: RunReport,
    /// The recorded dependence stream (with replay metadata).
    pub trace: DepStream,
}

impl CachePayload for ReplayBaseline {
    fn payload_to_json(&self) -> String {
        format!(
            "{{\"report\": {}, \"trace\": {}}}",
            self.report.to_json().trim_end(),
            self.trace.to_json().trim_end()
        )
    }

    fn payload_from_json(r: &mut Reader<'_>) -> Result<Self, String> {
        let (mut report, mut trace) = (None, None);
        r.object(|r, key| {
            match key.as_str() {
                "report" => report = Some(RunReport::from_json_value(&r.value()?)?),
                "trace" => trace = Some(DepStream::read_json(r)?),
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        Ok(ReplayBaseline {
            report: report.ok_or("missing 'report'")?,
            trace: trace.ok_or("missing 'trace'")?,
        })
    }
}

/// One replayed point's cached result: the synthesized report plus the
/// engine provenance, so a cache hit still knows how the row was produced.
#[derive(Debug, Clone)]
pub struct ReplayedPoint {
    /// `Replay` or `SimFallback`.
    pub engine: EngineKind,
    /// The point's report (synthesized from replay, or full-sim fallback).
    pub report: RunReport,
    /// The static lower bound the replayed count was checked against.
    pub bound: u64,
    /// Measured cycle error in percent (check mode only).
    pub err_pct: Option<f64>,
    /// Measured wall-clock speedup (check mode only).
    pub speedup: Option<f64>,
}

impl CachePayload for ReplayedPoint {
    fn payload_to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
        format!(
            "{{\"engine\": \"{}\", \"bound\": {}, \"err_pct\": {}, \"speedup\": {}, \"report\": {}}}",
            self.engine.label(),
            self.bound,
            opt(self.err_pct),
            opt(self.speedup),
            self.report.to_json().trim_end()
        )
    }

    fn payload_from_json(r: &mut Reader<'_>) -> Result<Self, String> {
        let v = &r.value()?;
        let engine = match v.get("engine").and_then(Value::as_str) {
            Some("replay") => EngineKind::Replay,
            Some("sim-fallback") => EngineKind::SimFallback,
            Some(other) => return Err(format!("unknown engine kind '{other}'")),
            None => return Err("missing 'engine'".to_string()),
        };
        let bound = v
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("missing 'bound'")? as u64;
        let opt = |key: &str| match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("non-numeric '{key}'")),
        };
        Ok(ReplayedPoint {
            engine,
            report: RunReport::from_json_value(v.get("report").ok_or("missing 'report'")?)?,
            bound,
            err_pct: opt("err_pct")?,
            speedup: opt("speedup")?,
        })
    }
}

/// Records one kernel's baseline bundle (full simulation with dependence
/// recording on), cached under `replay-baseline/<kernel>`.
struct BaselineJob {
    kernel: KernelSpec,
    config: StandaloneConfig,
}

impl SweepJob for BaselineJob {
    type Output = ReplayBaseline;

    fn cache_id(&self) -> CacheId {
        CacheId::new(
            format!("replay-baseline/{}", self.kernel.id),
            self.config.canonical_repr(),
        )
    }

    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        config_diagnostic(&self.config)
    }

    fn run(&self) -> ReplayBaseline {
        match try_run_kernel_profiled(&self.kernel.build(), &self.config) {
            Ok((report, trace)) => ReplayBaseline { report, trace },
            // The panic is caught by the sweep engine's isolation layer and
            // becomes this point's `failed:<cause>` row.
            Err(e) => panic!("{e}"),
        }
    }
}

/// One kernel's sweep-wide replay state, built once after the baseline is
/// recorded (or cache-loaded) and shared by every point of that kernel:
/// the built kernel, the resolved scheduler form of the trace and the
/// dynamic trip counts — none depends on the point's configuration.
struct PreparedBaseline {
    kernel: BuiltKernel,
    report: RunReport,
    prepared: salam_replay::Prepared,
    trips: HashMap<salam_ir::BlockId, u64>,
    /// Memoized static lower bounds, keyed by the knobs the bound
    /// actually reads (SPM ports, FU pipelining, FU constraints); every
    /// other replay-safe axis leaves the floor unchanged, so points
    /// sharing those knobs share one computation.
    bounds: Mutex<HashMap<String, u64>>,
}

/// Re-schedules one point against its kernel's recorded baseline, cached
/// under `replay/<kernel>`.
struct ReplayPointJob {
    kernel: KernelSpec,
    config: StandaloneConfig,
    baseline: Arc<PreparedBaseline>,
    check: bool,
}

impl SweepJob for ReplayPointJob {
    type Output = ReplayedPoint;

    fn cache_id(&self) -> CacheId {
        CacheId::new(
            format!("replay/{}", self.kernel.id),
            self.config.canonical_repr(),
        )
    }

    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        config_diagnostic(&self.config)
    }

    fn run(&self) -> ReplayedPoint {
        let kernel = &self.baseline.kernel;
        let cfg = &self.config;
        let t_replay = Instant::now();
        let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
        let attempt =
            salam_replay::replay_prepared(&self.baseline.prepared, &replay_config(cfg, &cdfg));
        // Cross-check against the provable static floor — derived from the
        // point's own elaboration and ports, with dynamic trip counts read
        // off the recorded trace. Memoized across the kernel's points on
        // the knobs the bound reads.
        let bound_key = format!(
            "r{}/w{}/p{}/{}",
            cfg.spm_read_ports,
            cfg.spm_write_ports,
            cfg.engine.pipelined_fus,
            cfg.constraints.canonical_repr()
        );
        let memoized = self
            .baseline
            .bounds
            .lock()
            .ok()
            .and_then(|m| m.get(&bound_key).copied());
        let bound = match memoized {
            Some(b) => b,
            None => {
                let b = static_lower_bound(
                    &kernel.func,
                    &cdfg,
                    &self.baseline.trips,
                    &BoundConfig {
                        read_ports: cfg.spm_read_ports,
                        write_ports: cfg.spm_write_ports,
                        pipelined_fus: cfg.engine.pipelined_fus,
                        reservation_entries: cfg.engine.reservation_entries,
                    },
                )
                .lower_bound;
                if let Ok(mut m) = self.baseline.bounds.lock() {
                    m.insert(bound_key, b);
                }
                b
            }
        };
        let outcome = match attempt {
            Ok(out) if out.cycles >= bound => out,
            // Replay error or a cycle count below the provable floor: the
            // analytic model is wrong for this point — full sim takes over.
            _ => {
                let report = run_kernel(kernel, cfg);
                return ReplayedPoint {
                    engine: EngineKind::SimFallback,
                    report,
                    bound,
                    err_pct: None,
                    speedup: None,
                };
            }
        };
        let report = synthesize_report(kernel, cfg, &cdfg, &self.baseline.report, outcome);
        let replay_wall = t_replay.elapsed();
        let (err_pct, speedup) = if self.check {
            let t_sim = Instant::now();
            let sim = run_kernel(kernel, cfg);
            let sim_wall = t_sim.elapsed();
            let err =
                (report.cycles as f64 - sim.cycles as f64).abs() / sim.cycles.max(1) as f64 * 100.0;
            let ratio = sim_wall.as_secs_f64() / replay_wall.as_secs_f64().max(1e-9);
            (Some(err), Some(ratio))
        } else {
            (None, None)
        };
        ReplayedPoint {
            engine: EngineKind::Replay,
            report,
            bound,
            err_pct,
            speedup,
        }
    }
}

/// Assembles a full [`RunReport`] for a replayed schedule. Schedule-shaped
/// counters (cycles, attribution, FU occupancy, stall/port-reject cycles)
/// come from the replay; everything schedule-*independent* — op counts,
/// energies, byte traffic, verification — is inherited from the baseline
/// run, because a resource re-schedule executes exactly the same dynamic
/// operations on exactly the same data. Power rolls up from those energies
/// over the replayed runtime, area from the point's own elaboration.
fn synthesize_report(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
    cdfg: &StaticCdfg,
    baseline: &RunReport,
    out: ReplayOutcome,
) -> RunReport {
    let mut stats = baseline.stats.clone();
    stats.cycles = out.cycles;
    stats.new_exec_cycles = out.new_exec_cycles;
    stats.stall_cycles = out.stall_cycles;
    stats.port_reject_cycles = out.port_reject_cycles;
    stats.attribution = out.attribution;
    stats.fu_busy_cycle_sum = out.fu_busy_cycle_sum.into_iter().collect();
    stats.fu_pool = cdfg.fu_counts().collect();
    stats.depstream = None;
    stats.timeline = Vec::new();
    RunReport::assemble(
        &kernel.name,
        &stats,
        cdfg,
        &cfg.profile,
        Some(&cfg.spm_spec(kernel)),
        cfg.engine.clock_period_ps,
        baseline.verified,
    )
}

/// Records one kernel at `cfg`'s baseline projection and re-schedules it
/// analytically at `cfg` — the single-kernel entry point behind
/// `salam_report --diff replay`. Returns the synthesized report plus the
/// recorded baseline stream (for critical-path analysis on the replayed
/// side).
///
/// # Errors
///
/// A message when the baseline recording fails, the replay is rejected,
/// or the replayed cycle count undercuts the static lower bound (the
/// sweep path falls back to full simulation on these; a debugging CLI
/// wants the reason instead).
pub fn replay_one(
    kernel: &BuiltKernel,
    cfg: &StandaloneConfig,
) -> Result<(RunReport, DepStream), String> {
    let base = baseline_config(cfg);
    let (base_report, trace) =
        try_run_kernel_profiled(kernel, &base).map_err(|e| format!("baseline recording: {e}"))?;
    let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
    let out = salam_replay::replay(&trace, &replay_config(cfg, &cdfg))
        .map_err(|e| format!("replay rejected: {e}"))?;
    let trips = trips_from_trace(&kernel.func, &trace);
    let bound = static_lower_bound(
        &kernel.func,
        &cdfg,
        &trips,
        &BoundConfig {
            read_ports: cfg.spm_read_ports,
            write_ports: cfg.spm_write_ports,
            pipelined_fus: cfg.engine.pipelined_fus,
            reservation_entries: cfg.engine.reservation_entries,
        },
    )
    .lower_bound;
    if out.cycles < bound {
        return Err(format!(
            "replayed {} cycles undercuts the static lower bound {bound}",
            out.cycles
        ));
    }
    Ok((
        synthesize_report(kernel, cfg, &cdfg, &base_report, out),
        trace,
    ))
}

/// Runs a sweep with the replay fast path: points that differ from `base`
/// only along replay-safe axes are re-scheduled from a per-kernel recorded
/// baseline; everything else runs the full event engine. Outcomes come
/// back in the submitted point order, each tagged with its engine.
///
/// The `base` configuration anchors eligibility — it is the configuration
/// the sweep's axes perturb (usually [`SweepSpec::new`]'s base). Pass the
/// same base that produced the points, or every point degenerates to full
/// simulation.
///
/// [`SweepSpec::new`]: crate::SweepSpec::new
pub fn run_replay_sweep(
    points: &[StandalonePoint],
    base: &StandaloneConfig,
    opts: &ReplayOptions,
) -> ReplayRun {
    let t0 = Instant::now();
    let base_key = baseline_config(base).canonical_repr();

    // Partition: replay-eligible vs full-sim, preserving submitted order.
    let mut eligible: Vec<usize> = Vec::new();
    let mut plain: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if baseline_config(&p.config).canonical_repr() == base_key {
            eligible.push(i);
        } else {
            plain.push(i);
        }
    }

    // Record (or cache-load) one baseline bundle per kernel with eligible
    // points. Baselines run at the *normalized* configuration so every
    // sweep over the same unsafe knobs shares them.
    let baseline_cfg = baseline_config(base);
    let mut baseline_jobs: Vec<BaselineJob> = Vec::new();
    for &i in &eligible {
        let id = &points[i].kernel.id;
        if !baseline_jobs.iter().any(|j| &j.kernel.id == id) {
            baseline_jobs.push(BaselineJob {
                kernel: points[i].kernel.clone(),
                config: baseline_cfg.clone(),
            });
        }
    }
    let baseline_run = run_sweep(&baseline_jobs, &opts.inner);
    // Resolve each usable baseline into its sweep-wide shared form once:
    // the prepared scheduler stream and the trace's trip counts are the
    // same for every point of the kernel. A trace the scheduler rejects
    // outright demotes the kernel to plain simulation below.
    let mut baselines: HashMap<String, (Arc<PreparedBaseline>, bool)> = HashMap::new();
    for (job, outcome) in baseline_jobs.iter().zip(&baseline_run.outcomes) {
        if let Some(b) = outcome.payload() {
            if let Ok(prepared) = salam_replay::Prepared::new(&b.trace) {
                let kernel = job.kernel.build();
                let trips = trips_from_trace(&kernel.func, &b.trace);
                baselines.insert(
                    job.kernel.id.clone(),
                    (
                        Arc::new(PreparedBaseline {
                            kernel,
                            report: b.report.clone(),
                            prepared,
                            trips,
                            bounds: Mutex::new(HashMap::new()),
                        }),
                        outcome.from_cache,
                    ),
                );
            }
        }
    }

    // Eligible points whose kernel has no usable baseline (recording
    // failed) demote to plain simulation; points *equal* to the baseline
    // reuse its report outright — recording never changes report fields,
    // so the row is byte-identical to a full-sim row.
    let baseline_canon = baseline_cfg.canonical_repr();
    let mut replay_idx: Vec<usize> = Vec::new();
    let mut reuse: HashMap<usize, (Arc<PreparedBaseline>, bool)> = HashMap::new();
    for &i in &eligible {
        match baselines.get(&points[i].kernel.id) {
            Some(b) if points[i].config.canonical_repr() == baseline_canon => {
                reuse.insert(i, b.clone());
            }
            Some(_) => replay_idx.push(i),
            None => plain.push(i),
        }
    }
    plain.sort_unstable();

    let replay_jobs: Vec<ReplayPointJob> = replay_idx
        .iter()
        .map(|&i| ReplayPointJob {
            kernel: points[i].kernel.clone(),
            config: points[i].config.clone(),
            baseline: baselines[&points[i].kernel.id].0.clone(),
            check: opts.check,
        })
        .collect();
    let replay_opts = if opts.check {
        // Timings are only honest when every replayed point actually runs.
        opts.inner.clone().without_cache()
    } else {
        opts.inner.clone()
    };
    let replay_run = run_sweep(&replay_jobs, &replay_opts);

    let plain_points: Vec<StandalonePoint> = plain.iter().map(|&i| points[i].clone()).collect();
    let plain_run = run_sweep(&plain_points, &opts.inner);

    // Reassemble in submitted order.
    let mut slots: Vec<Option<(PointOutcome<RunReport>, PointProvenance)>> =
        (0..points.len()).map(|_| None).collect();
    for (&i, outcome) in replay_idx.iter().zip(replay_run.outcomes) {
        let provenance = match outcome.payload() {
            Some(p) => PointProvenance {
                engine: p.engine,
                bound: Some(p.bound),
                err_pct: p.err_pct,
                speedup: p.speedup,
            },
            None => PointProvenance {
                engine: EngineKind::Replay,
                bound: None,
                err_pct: None,
                speedup: None,
            },
        };
        let from_cache = outcome.from_cache;
        let result = outcome.result.map(|p| p.report);
        slots[i] = Some((PointOutcome { result, from_cache }, provenance));
    }
    // A baseline-equal point inherits the baseline's result *and* its
    // cache provenance: on a cold run it was simulated, not hit.
    for (&i, (b, from_cache)) in &reuse {
        slots[i] = Some((
            PointOutcome {
                result: Ok(b.report.clone()),
                from_cache: *from_cache,
            },
            PointProvenance {
                engine: EngineKind::Sim,
                bound: None,
                err_pct: None,
                speedup: None,
            },
        ));
    }
    for (&i, outcome) in plain.iter().zip(plain_run.outcomes) {
        slots[i] = Some((
            outcome,
            PointProvenance {
                engine: EngineKind::Sim,
                bound: None,
                err_pct: None,
                speedup: None,
            },
        ));
    }

    let mut run = ReplayRun {
        outcomes: Vec::with_capacity(points.len()),
        provenance: Vec::with_capacity(points.len()),
        replayed: 0,
        simulated: 0,
        fallbacks: 0,
        baseline_misses: baseline_run.misses + baseline_run.corrupt,
        hits: baseline_run.hits
            + replay_run.hits
            + plain_run.hits
            + reuse.values().filter(|(_, hit)| *hit).count(),
        misses: replay_run.misses + replay_run.corrupt + plain_run.misses + plain_run.corrupt,
        failed: baseline_run.failed + replay_run.failed + plain_run.failed,
        invalid: replay_run.invalid + plain_run.invalid,
        wall: Duration::default(),
    };
    for slot in slots {
        let (outcome, provenance) = slot.expect("every point assigned exactly once");
        if outcome.payload().is_some() {
            match provenance.engine {
                EngineKind::Replay => run.replayed += 1,
                EngineKind::Sim => run.simulated += 1,
                EngineKind::SimFallback => run.fallbacks += 1,
            }
        }
        run.outcomes.push(outcome);
        run.provenance.push(provenance);
    }
    run.wall = t0.elapsed();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SweepSpec};

    fn tiny_gemm() -> KernelSpec {
        KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        })
    }

    fn no_cache() -> ReplayOptions {
        ReplayOptions {
            inner: DseOptions::default().without_cache().with_workers(2),
            check: false,
        }
    }

    #[test]
    fn baseline_projection_normalizes_safe_axes_only() {
        let a = StandaloneConfig {
            spm_read_ports: 7,
            spm_latency: 9,
            constraints: FuConstraints::unconstrained().with_limit(hw_profile::FuKind::IntAdder, 1),
            ..StandaloneConfig::default()
        };
        assert!(replay_safe(&a, &StandaloneConfig::default()));

        let mut b = StandaloneConfig::default();
        b.engine.reservation_entries = 5;
        assert!(!replay_safe(&b, &StandaloneConfig::default()));
        b.spm_read_ports = 3;
        // Still the same unsafe projection as plain `reservation_entries=5`.
        let mut c = StandaloneConfig::default();
        c.engine.reservation_entries = 5;
        assert!(replay_safe(&b, &c));
    }

    #[test]
    fn replayed_points_match_the_event_engine_exactly_on_safe_axes() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .axis(Axis::spm_ports(&[1, 2]))
            .axis(Axis::spm_latency(&[1, 3]));
        let points = spec.points();
        let run = run_replay_sweep(&points, &StandaloneConfig::default(), &no_cache());
        assert_eq!(run.outcomes.len(), 4);
        assert_eq!(run.fallbacks, 0, "no point may undercut the bound");
        for (point, (outcome, prov)) in points.iter().zip(run.outcomes.iter().zip(&run.provenance))
        {
            let sim = run_kernel(&point.kernel.build(), &point.config);
            let got = outcome.payload().expect("point succeeded");
            assert_eq!(
                got.cycles,
                sim.cycles,
                "replay must be cycle-exact for safe axes at {}",
                point.label()
            );
            if prov.engine == EngineKind::Replay {
                let bound = prov.bound.expect("replayed points carry a bound");
                assert!(got.cycles >= bound);
                assert_eq!(got.stats.attribution.total(), got.cycles);
            }
        }
        // The default-config point reuses the baseline simulation; the
        // others replay.
        assert_eq!(run.simulated, 1);
        assert_eq!(run.replayed, 3);
    }

    #[test]
    fn unsafe_axis_points_are_byte_identical_to_full_sim() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .axis(Axis::reservation_entries(&[8, 128]))
            .axis(Axis::spm_ports(&[1, 2]));
        let points = spec.points();
        let run = run_replay_sweep(&points, &StandaloneConfig::default(), &no_cache());
        for (i, point) in points.iter().enumerate() {
            // Unsafe-axis points simulate; so does the point equal to its
            // own baseline (it reuses the baseline's simulation).
            let expected_engine = if point.config.engine.reservation_entries == 8
                || point.config.canonical_repr() == baseline_config(&point.config).canonical_repr()
            {
                EngineKind::Sim
            } else {
                EngineKind::Replay
            };
            assert_eq!(
                run.provenance[i].engine,
                expected_engine,
                "engine choice at {}",
                point.label()
            );
            if run.provenance[i].engine == EngineKind::Sim {
                let sim = run_kernel(&point.kernel.build(), &point.config);
                assert_eq!(
                    run.outcomes[i].payload().expect("sim point ok").to_json(),
                    sim.to_json(),
                    "unsafe-axis point must be byte-identical to full sim at {}",
                    point.label()
                );
            }
        }
    }

    #[test]
    fn check_mode_measures_zero_error_for_exact_points() {
        let spec = SweepSpec::new("t", StandaloneConfig::default())
            .kernel(tiny_gemm())
            .axis(Axis::spm_ports(&[1]));
        let points = spec.points();
        let mut opts = no_cache();
        opts.check = true;
        let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
        let prov = run.provenance[0];
        assert_eq!(prov.engine, EngineKind::Replay);
        assert_eq!(prov.err_pct, Some(0.0));
        assert!(prov.speedup.is_some());
    }

    #[test]
    fn payloads_roundtrip_through_cache_json() {
        let kernel = tiny_gemm().build();
        let cfg = StandaloneConfig::default();
        let (report, trace) = try_run_kernel_profiled(&kernel, &cfg).expect("baseline runs");
        let b = ReplayBaseline {
            report: report.clone(),
            trace,
        };
        let text = b.payload_to_json();
        let back = ReplayBaseline::payload_from_json(&mut Reader::new(&text)).expect("parses back");
        assert_eq!(back.report.to_json(), b.report.to_json());
        assert_eq!(back.trace, b.trace);

        let p = ReplayedPoint {
            engine: EngineKind::Replay,
            report,
            bound: 42,
            err_pct: Some(1.5),
            speedup: None,
        };
        let text = p.payload_to_json();
        let back = ReplayedPoint::payload_from_json(&mut Reader::new(&text)).expect("parses back");
        assert_eq!(back.engine, EngineKind::Replay);
        assert_eq!(back.bound, 42);
        assert_eq!(back.err_pct, Some(1.5));
        assert_eq!(back.speedup, None);
        assert_eq!(back.report.to_json(), p.report.to_json());
    }
}
