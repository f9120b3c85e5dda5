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
//!
//! Each schedule is computed once. A point whose caps a looser point's
//! replay never met takes that replay's outcome without scheduling (cap
//! reuse, [`ReplayOutcome::answers`]), and each kernel's prepared baseline
//! is held once per process while its cache entry file is unchanged.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use hw_profile::FuKind;
use machsuite::BuiltKernel;
use salam::standalone::{run_kernel, try_run_kernel_profiled, StandaloneConfig};
use salam::RunReport;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_obs::json::{Reader, Value};
use salam_obs::DepStream;
use salam_replay::{ReplayConfig, ReplayOutcome};
use salam_verify::{static_lower_bound, BoundConfig, Diagnostic};

use crate::cache::{CacheId, CachePayload, Lookup};
use crate::spec::{config_diagnostic, KernelSpec, StandalonePoint};
use crate::{run_parallel, run_sweep, sweep, DseOptions, PointError, PointOutcome, SweepJob};

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
    /// The index of the point whose replay answered this one (cap reuse:
    /// this point's caps were never met in that run, so its schedule is
    /// that run's). Its engine is still [`EngineKind::Replay`].
    pub reused_from: Option<usize>,
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
    /// Of those, points another point's replay answered (cap reuse).
    pub reused: usize,
    /// Points answered by full simulation (unsafe axes, or equal to the
    /// baseline).
    pub simulated: usize,
    /// Points where replay was rejected and simulation took over.
    pub fallbacks: usize,
    /// Baseline recordings that actually simulated (the rest were cached).
    pub baseline_misses: usize,
    /// Baselines taken from the process-wide prepared map, their entry
    /// files unchanged: each is also one of `hits`.
    pub baseline_memo_hits: usize,
    /// Cache lookups that hit: one per point answered from the cache and
    /// one per baseline loaded from it or found in the prepared map. A
    /// point equal to its kernel's baseline makes no lookup of its own, so
    /// a warm sweep without such a point reports one hit per point and no
    /// baseline hit.
    pub hits: usize,
    /// Replayed or simulated points that found no cache entry (baselines
    /// count in `baseline_misses`).
    pub misses: usize,
    /// Replayed or simulated points whose cache entry failed validation.
    pub corrupt: usize,
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
            "points={} replayed={} reused={} simulated={} fallbacks={} failed={} invalid={} \
             hits={} misses={} corrupt={} baseline_misses={} baseline_memo_hits={} wall={:.3}s",
            self.outcomes.len(),
            self.replayed,
            self.reused,
            self.simulated,
            self.fallbacks,
            self.failed,
            self.invalid,
            self.hits,
            self.misses,
            self.corrupt,
            self.baseline_misses,
            self.baseline_memo_hits,
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
    // Counted by instruction index; an index outside `f` names no block.
    let mut per_inst = vec![0u64; f.num_insts()];
    for op in stream.ops() {
        if let Some(n) = per_inst.get_mut(op.meta.inst as usize) {
            *n += 1;
        }
    }
    let mut trips = HashMap::new();
    for (bid, block) in f.blocks() {
        let t = block
            .insts
            .iter()
            .map(|id| per_inst[id.index()])
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
        let mut out = Vec::new();
        self.write_payload(&mut out)
            .expect("writing into memory cannot fail");
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// `{"report": …, "trace": …}`, the stream written row by row rather
    /// than formatted into one string first.
    fn write_payload(&self, mut out: &mut dyn std::io::Write) -> std::io::Result<()> {
        out.write_all(b"{\"report\": ")?;
        out.write_all(self.report.to_json().trim_end().as_bytes())?;
        out.write_all(b", \"trace\": ")?;
        self.trace.write_json(&mut out)?;
        out.write_all(b"}")
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
    /// `replay-baseline/<kernel>` plus the baseline's canonical text.
    id: CacheId,
    kernel: KernelSpec,
    config: StandaloneConfig,
}

impl SweepJob for BaselineJob {
    type Output = ReplayBaseline;

    fn cache_id(&self) -> CacheId {
        self.id.clone()
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

/// One kernel's replay state, built once after the baseline is recorded
/// (or cache-loaded) and shared by every point of that kernel, across
/// sweep calls through [`BASELINES`]: the built kernel, the resolved
/// scheduler form of the trace and the dynamic trip counts — none depends
/// on the point's configuration.
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

/// One kernel's baseline as a sweep call holds it.
enum Baseline {
    /// Resolved for replay.
    Prepared(Arc<PreparedBaseline>),
    /// The scheduler rejects the recorded trace: only a baseline-equal
    /// point can use it.
    Unprepared(Box<RunReport>),
}

impl Baseline {
    /// Resolves a recorded bundle into its shared form.
    fn new(kernel: &KernelSpec, b: ReplayBaseline) -> Self {
        let Ok(prepared) = salam_replay::Prepared::new(&b.trace) else {
            return Baseline::Unprepared(Box::new(b.report));
        };
        let kernel = kernel.build();
        let trips = trips_from_trace(&kernel.func, &b.trace);
        Baseline::Prepared(Arc::new(PreparedBaseline {
            kernel,
            report: b.report,
            prepared,
            trips,
            bounds: Mutex::new(HashMap::new()),
        }))
    }

    fn report(&self) -> &RunReport {
        match self {
            Baseline::Prepared(b) => &b.report,
            Baseline::Unprepared(report) => report,
        }
    }
}

/// Most kernels [`BASELINES`] holds (the nine MachSuite kernels, with room
/// to spare); past it, the least recently used goes.
const BASELINE_MAP_CAP: usize = 16;

/// The process-wide prepared-baseline map: each kernel's
/// [`PreparedBaseline`] by the path and identity of its cache entry, kept
/// for as long as the entry file is the one it was read from or stored
/// as. A sweep call that finds its entry unchanged skips the read, the
/// decode, `Prepared::new`, the kernel build and the trip count.
static BASELINES: Mutex<Vec<MappedBaseline>> = Mutex::new(Vec::new());

/// One [`BASELINES`] entry; the most recently used is last.
struct MappedBaseline {
    path: PathBuf,
    id: CacheId,
    file: FileId,
    baseline: Arc<PreparedBaseline>,
}

/// What tells an entry file's contents apart without reading them: a
/// store renames a new file over the entry (a new inode), and a write in
/// place changes the length or the modification time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: Option<SystemTime>,
}

impl FileId {
    fn of(path: &Path) -> Option<FileId> {
        let md = std::fs::metadata(path).ok()?;
        #[cfg(unix)]
        let (dev, ino) = {
            use std::os::unix::fs::MetadataExt;
            (md.dev(), md.ino())
        };
        #[cfg(not(unix))]
        let (dev, ino) = (0, 0);
        Some(FileId {
            dev,
            ino,
            len: md.len(),
            mtime: md.modified().ok(),
        })
    }
}

fn baselines() -> MutexGuard<'static, Vec<MappedBaseline>> {
    BASELINES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The baseline mapped to entry `path` of `id`, while the file is still
/// the one it was mapped as; a stale mapping is dropped.
fn mapped_baseline(path: &Path, id: &CacheId) -> Option<Arc<PreparedBaseline>> {
    let file = FileId::of(path);
    let mut map = baselines();
    let at = map.iter().position(|e| e.path == path && e.id == *id)?;
    let entry = map.remove(at);
    if Some(entry.file) != file {
        return None;
    }
    let baseline = entry.baseline.clone();
    map.push(entry);
    Some(baseline)
}

/// Maps entry `path` of `id`, as the file is now, to `baseline`.
fn map_baseline(path: PathBuf, id: CacheId, baseline: Arc<PreparedBaseline>) {
    let Some(file) = FileId::of(&path) else {
        return;
    };
    let mut map = baselines();
    map.retain(|e| e.path != path);
    if map.len() == BASELINE_MAP_CAP {
        map.remove(0);
    }
    map.push(MappedBaseline {
        path,
        id,
        file,
        baseline,
    });
}

/// Re-schedules one point against its kernel's recorded baseline, cached
/// under `replay/<kernel>`.
struct ReplayPointJob {
    /// `replay/<kernel>` plus the point's canonical text, rendered once.
    id: CacheId,
    config: StandaloneConfig,
    baseline: Arc<PreparedBaseline>,
    check: bool,
    /// The point's elaboration, the scheduler knobs it lowers to and what
    /// elaborating took (check mode counts it as replay time).
    cdfg: StaticCdfg,
    knobs: ReplayConfig,
    elaborate: Duration,
    /// A looser point's replay that [answers](ReplayOutcome::answers) this
    /// one; the job then schedules nothing.
    answer: Option<Arc<ReplayOutcome>>,
    /// The job's own replay, once it ran and cleared the bound: what
    /// answers the tighter points of its group.
    replayed: OnceLock<Arc<ReplayOutcome>>,
}

impl ReplayPointJob {
    /// Whether `other` is a point of this one's cap-reuse group: the same
    /// baseline, and every knob but the caps the same.
    fn shares_group(&self, other: &ReplayPointJob) -> bool {
        Arc::ptr_eq(&self.baseline, &other.baseline)
            && self.knobs.differs_in_caps_only(&other.knobs)
    }

    /// The point's static lower bound: derived from its own elaboration
    /// and ports, with dynamic trip counts read off the recorded trace,
    /// and memoized across the kernel's points on the knobs it reads.
    fn bound(&self) -> u64 {
        let cfg = &self.config;
        let key = format!(
            "r{}/w{}/p{}/{}",
            cfg.spm_read_ports,
            cfg.spm_write_ports,
            cfg.engine.pipelined_fus,
            cfg.constraints.canonical_repr()
        );
        let bounds = &self.baseline.bounds;
        if let Some(b) = bounds.lock().ok().and_then(|m| m.get(&key).copied()) {
            return b;
        }
        let b = static_lower_bound(
            &self.baseline.kernel.func,
            &self.cdfg,
            &self.baseline.trips,
            &BoundConfig {
                read_ports: cfg.spm_read_ports,
                write_ports: cfg.spm_write_ports,
                pipelined_fus: cfg.engine.pipelined_fus,
                reservation_entries: cfg.engine.reservation_entries,
            },
        )
        .lower_bound;
        if let Ok(mut m) = bounds.lock() {
            m.insert(key, b);
        }
        b
    }
}

impl SweepJob for ReplayPointJob {
    type Output = ReplayedPoint;

    fn cache_id(&self) -> CacheId {
        self.id.clone()
    }

    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        config_diagnostic(&self.config)
    }

    fn run(&self) -> ReplayedPoint {
        let kernel = &self.baseline.kernel;
        let cfg = &self.config;
        let t_replay = Instant::now();
        let own = match self.answer {
            Some(_) => None,
            None => salam_replay::replay_prepared(&self.baseline.prepared, &self.knobs).ok(),
        };
        let bound = self.bound();
        // Replay error or a cycle count below the provable floor: the
        // analytic model is wrong for this point — full sim takes over.
        let Some(outcome) = self
            .answer
            .as_deref()
            .or(own.as_ref())
            .filter(|out| out.cycles >= bound)
        else {
            return ReplayedPoint {
                engine: EngineKind::SimFallback,
                report: run_kernel(kernel, cfg),
                bound,
                err_pct: None,
                speedup: None,
            };
        };
        let report = synthesize_report(kernel, cfg, &self.cdfg, &self.baseline.report, outcome);
        let replay_wall = self.elaborate + t_replay.elapsed();
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
        if let Some(own) = own {
            let _ = self.replayed.set(Arc::new(own));
        }
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
    out: &ReplayOutcome,
) -> RunReport {
    let mut stats = baseline.stats.clone();
    stats.cycles = out.cycles;
    stats.new_exec_cycles = out.new_exec_cycles;
    stats.stall_cycles = out.stall_cycles;
    stats.port_reject_cycles = out.port_reject_cycles;
    stats.attribution = out.attribution;
    stats.fu_busy_cycle_sum = out
        .fu_busy_cycle_sum
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    stats.fu_pool = cdfg.fu_counts().collect();
    stats.depstream = None;
    stats.timeline = Vec::new();
    RunReport::assemble(
        &kernel.name,
        stats,
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
        synthesize_report(kernel, cfg, &cdfg, &base_report, &out),
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
/// Replay points are looked up first, once each, so a sweep pays only for
/// what it misses: a baseline is fetched only for kernels with a missed
/// point or a point equal to the baseline, from the process-wide prepared
/// map while its entry file is unchanged. Of the missed points, the
/// loosest of each group that differs only in caps replays first, and its
/// run answers every point of the group whose caps it never met (cap
/// reuse, outside check mode); the loosest point left replays next.
///
/// [`SweepSpec::new`]: crate::SweepSpec::new
pub fn run_replay_sweep(
    points: &[StandalonePoint],
    base: &StandaloneConfig,
    opts: &ReplayOptions,
) -> ReplayRun {
    let t0 = Instant::now();
    let baseline_cfg = baseline_config(base);
    let base_key = baseline_cfg.canonical_repr();
    let replay_opts = if opts.check {
        // Timings are only honest when every replayed point actually runs.
        opts.inner.clone().without_cache()
    } else {
        opts.inner.clone()
    };

    // Partition, preserving submitted order: points off the baseline's
    // unsafe axes simulate, points equal to the baseline take its report,
    // the rest are replay candidates. A baseline that cannot run leaves
    // nothing to replay. Each point's profile text — the costly part of
    // its canonical text — is rendered once.
    let replayable = config_diagnostic(&baseline_cfg).is_ok();
    let mut plain: Vec<usize> = Vec::new();
    let mut at_baseline: Vec<usize> = Vec::new();
    let mut candidates: Vec<(usize, CacheId)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let profile = p.config.profile.to_text();
        if !replayable
            || baseline_config(&p.config).canonical_repr_with_profile(&profile) != base_key
        {
            plain.push(i);
            continue;
        }
        let canon = p.config.canonical_repr_with_profile(&profile);
        if canon == base_key {
            at_baseline.push(i);
        } else {
            candidates.push((i, CacheId::new(format!("replay/{}", p.kernel.id), canon)));
        }
    }

    // Look every candidate up once. As in `run_sweep`, an invalid point
    // reaches neither the cache nor a baseline.
    let workers = replay_opts.resolve_workers();
    let cache = replay_opts.resolve_cache();
    let probes: Vec<Result<Lookup<ReplayedPoint>, Diagnostic>> =
        run_parallel(candidates.len(), workers, |k| {
            let (i, id) = &candidates[k];
            config_diagnostic(&points[*i].config)?;
            Ok(cache.as_ref().map_or(Lookup::Miss, |c| c.lookup(id)))
        });

    // Fetch one baseline per kernel that still needs one — for a missed
    // candidate or a baseline-equal point: from the prepared map while its
    // entry file is unchanged, else loaded or recorded as one parallel
    // sub-sweep. Baselines run at the *normalized* configuration so every
    // sweep over the same unsafe knobs shares them.
    let mut needy: Vec<usize> = candidates
        .iter()
        .zip(&probes)
        .filter(|(_, probe)| matches!(probe, Ok(Lookup::Miss | Lookup::Corrupt)))
        .map(|((i, _), _)| *i)
        .chain(at_baseline.iter().copied())
        .collect();
    needy.sort_unstable();
    let baseline_cache = opts.inner.resolve_cache();
    let mut baselines: HashMap<String, (Baseline, bool)> = HashMap::new();
    let mut baseline_jobs: Vec<BaselineJob> = Vec::new();
    for i in needy {
        let kernel = &points[i].kernel;
        if baselines.contains_key(&kernel.id)
            || baseline_jobs.iter().any(|j| j.kernel.id == kernel.id)
        {
            continue;
        }
        let id = CacheId::new(format!("replay-baseline/{}", kernel.id), base_key.clone());
        match baseline_cache
            .as_ref()
            .and_then(|c| mapped_baseline(&c.entry_path(&id), &id))
        {
            Some(b) => drop(baselines.insert(kernel.id.clone(), (Baseline::Prepared(b), true))),
            None => baseline_jobs.push(BaselineJob {
                id,
                kernel: kernel.clone(),
                config: baseline_cfg.clone(),
            }),
        }
    }
    let baseline_memo_hits = baselines.len();
    let baseline_run = run_sweep(&baseline_jobs, &opts.inner);
    for (job, outcome) in baseline_jobs.iter().zip(baseline_run.outcomes) {
        let Ok(recorded) = outcome.result else {
            continue;
        };
        let baseline = Baseline::new(&job.kernel, recorded);
        if let (Some(c), Baseline::Prepared(b)) = (&baseline_cache, &baseline) {
            map_baseline(c.entry_path(&job.id), job.id.clone(), b.clone());
        }
        baselines.insert(job.kernel.id.clone(), (baseline, outcome.from_cache));
    }

    // Answer hits and invalid points now; queue misses for replay against
    // their kernel's prepared baseline. A kernel whose baseline failed, or
    // whose trace the scheduler rejects, demotes its missed points to
    // plain simulation.
    let mut slots: Vec<Option<(PointOutcome<RunReport>, PointProvenance)>> =
        (0..points.len()).map(|_| None).collect();
    let mut hits = baseline_memo_hits;
    let mut invalid = 0;
    let mut missed: Vec<(usize, CacheId, Arc<PreparedBaseline>, bool)> = Vec::new();
    for ((i, id), probe) in candidates.into_iter().zip(probes) {
        let corrupt = match probe {
            Err(d) => {
                invalid += 1;
                slots[i] = Some(replayed_row(Err(PointError::Invalid(d)), false));
                continue;
            }
            Ok(Lookup::Hit(p)) => {
                hits += 1;
                slots[i] = Some(replayed_row(Ok(p), true));
                continue;
            }
            Ok(lookup) => matches!(lookup, Lookup::Corrupt),
        };
        match baselines.get(&points[i].kernel.id) {
            Some((Baseline::Prepared(b), _)) => missed.push((i, id, b.clone(), corrupt)),
            _ => plain.push(i),
        }
    }

    // Elaborate each missed point once, in parallel: its FU pool is a cap
    // that reuse compares, and its run reads the elaboration again.
    let elaborated = run_parallel(missed.len(), workers, |k| {
        let (i, _, b, _) = &missed[k];
        let cfg = &points[*i].config;
        let t = Instant::now();
        let cdfg = StaticCdfg::elaborate(&b.kernel.func, &cfg.profile, &cfg.constraints);
        let knobs = replay_config(cfg, &cdfg);
        (cdfg, knobs, t.elapsed())
    });
    let mut point_of = Vec::with_capacity(missed.len());
    let mut corrupt = Vec::with_capacity(missed.len());
    let mut jobs: Vec<ReplayPointJob> = Vec::with_capacity(missed.len());
    for ((i, id, baseline, was_corrupt), (cdfg, knobs, elaborate)) in
        missed.into_iter().zip(elaborated)
    {
        point_of.push(i);
        corrupt.push(was_corrupt);
        jobs.push(ReplayPointJob {
            id,
            config: points[i].config.clone(),
            baseline,
            check: opts.check,
            cdfg,
            knobs,
            elaborate,
            answer: None,
            replayed: OnceLock::new(),
        });
    }

    // Cap reuse, in rounds. Each round replays the loosest point left of
    // every group — one baseline, every knob but the caps equal — and
    // spare workers take the tightest points left, which a looser run is
    // least likely to answer (without them, a sweep of fewer groups than
    // workers would leave workers idle in every round). Each replay
    // answers the points of its group whose caps it never met. Check mode
    // must time every point, so it replays all of them in one round.
    let caps: Vec<([u32; 2], [u32; FuKind::ALL.len()])> = jobs
        .iter()
        .map(|j| {
            let k = &j.knobs;
            let pool = FuKind::ALL.map(|f| k.fu_pool.get(&f).copied().unwrap_or(0));
            ([k.spm_read_ports, k.spm_write_ports], pool)
        })
        .collect();
    let mut left: Vec<usize> = (0..jobs.len()).collect();
    left.sort_by(|&a, &b| caps[b].cmp(&caps[a]));
    let mut donor: Vec<Option<usize>> = vec![None; jobs.len()];
    let (mut misses, mut corrupted, mut failed) = (0, 0, 0);
    let mut run_round = |jobs: &[ReplayPointJob], round: &[usize], slots: &mut Vec<_>| {
        let round_jobs: Vec<&ReplayPointJob> = round.iter().map(|&k| &jobs[k]).collect();
        let round_corrupt: Vec<bool> = round.iter().map(|&k| corrupt[k]).collect();
        let run = sweep(&round_jobs, &replay_opts, Some(&round_corrupt));
        (misses, corrupted, failed, invalid) = (
            misses + run.misses,
            corrupted + run.corrupt,
            failed + run.failed,
            invalid + run.invalid,
        );
        for (&k, outcome) in round.iter().zip(run.outcomes) {
            slots[point_of[k]] = Some(replayed_row(outcome.result, outcome.from_cache));
        }
    };
    while !left.is_empty() {
        let mut round: Vec<usize> = Vec::new();
        for &k in &left {
            if opts.check || !round.iter().any(|&d| jobs[d].shares_group(&jobs[k])) {
                round.push(k);
            }
        }
        for &k in left.iter().rev() {
            if round.len() >= workers {
                break;
            }
            if !round.contains(&k) {
                round.push(k);
            }
        }
        run_round(&jobs, &round, &mut slots);
        left.retain(|k| !round.contains(k));
        for &d in &round {
            let Some(out) = jobs[d].replayed.get().cloned() else {
                continue;
            };
            for &k in &left {
                let (by, to) = (&jobs[d], &jobs[k]);
                if donor[k].is_none() && by.shares_group(to) && out.answers(&by.knobs, &to.knobs) {
                    donor[k] = Some(d);
                    jobs[k].answer = Some(out.clone());
                }
            }
        }
        left.retain(|&k| donor[k].is_none());
    }
    let answered: Vec<usize> = (0..jobs.len()).filter(|&k| donor[k].is_some()).collect();
    run_round(&jobs, &answered, &mut slots);
    let mut reused = 0;
    for &k in &answered {
        if let Some((outcome, prov)) = &mut slots[point_of[k]] {
            if prov.engine == EngineKind::Replay && outcome.payload().is_some() {
                prov.reused_from = donor[k].map(|d| point_of[d]);
                reused += 1;
            }
        }
    }

    // A baseline-equal point inherits the baseline's result *and* its
    // cache provenance: on a cold run it was simulated, not hit. Recording
    // never changes report fields, so the row is byte-identical to a
    // full-sim row.
    for i in at_baseline {
        match baselines.get(&points[i].kernel.id) {
            Some((b, from_cache)) => {
                let outcome = PointOutcome {
                    result: Ok(b.report().clone()),
                    from_cache: *from_cache,
                };
                slots[i] = Some((outcome, provenance(EngineKind::Sim)));
            }
            None => plain.push(i),
        }
    }

    plain.sort_unstable();
    let plain_points: Vec<StandalonePoint> = plain.iter().map(|&i| points[i].clone()).collect();
    let plain_run = run_sweep(&plain_points, &opts.inner);
    for (&i, outcome) in plain.iter().zip(plain_run.outcomes) {
        slots[i] = Some((outcome, provenance(EngineKind::Sim)));
    }

    let mut run = ReplayRun {
        outcomes: Vec::with_capacity(points.len()),
        provenance: Vec::with_capacity(points.len()),
        replayed: 0,
        reused,
        simulated: 0,
        fallbacks: 0,
        baseline_misses: baseline_run.misses + baseline_run.corrupt,
        baseline_memo_hits,
        hits: hits + baseline_run.hits + plain_run.hits,
        misses: misses + plain_run.misses,
        corrupt: corrupted + plain_run.corrupt,
        failed: baseline_run.failed + failed + plain_run.failed,
        invalid: invalid + plain_run.invalid,
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

/// Provenance of a point that carries no bound or check-mode figures.
fn provenance(engine: EngineKind) -> PointProvenance {
    PointProvenance {
        engine,
        bound: None,
        err_pct: None,
        speedup: None,
        reused_from: None,
    }
}

/// A replay candidate's row, from the cache or a fresh replay: the
/// provenance comes from the replayed payload, and a point without one
/// (invalid or failed) keeps the `replay` engine label.
fn replayed_row(
    result: Result<ReplayedPoint, PointError>,
    from_cache: bool,
) -> (PointOutcome<RunReport>, PointProvenance) {
    let provenance = match &result {
        Ok(p) => PointProvenance {
            engine: p.engine,
            bound: Some(p.bound),
            err_pct: p.err_pct,
            speedup: p.speedup,
            reused_from: None,
        },
        Err(_) => provenance(EngineKind::Replay),
    };
    let result = result.map(|p| p.report);
    (PointOutcome { result, from_cache }, provenance)
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
        // The default-config point takes the baseline simulation; the
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
            // own baseline (it takes the baseline's simulation).
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

    /// The prepared-baseline map holds at most [`BASELINE_MAP_CAP`]
    /// kernels: storing one more drops the least recently used, whose next
    /// sweep loads it from its entry file again.
    #[test]
    fn the_prepared_baseline_map_holds_its_cap() {
        let dir = std::env::temp_dir().join(format!("salam-dse-map-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ReplayOptions {
            inner: DseOptions::default().with_cache_dir(&dir).with_workers(1),
            check: false,
        };
        let kernel = |i: usize| {
            KernelSpec::custom(format!("gemm[n=4,u=1]#{i}"), || {
                machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
            })
        };
        let sweep_of = |i: usize, ports: u32| {
            let points = SweepSpec::new("t", StandaloneConfig::default())
                .kernel(kernel(i))
                .axis(Axis::spm_ports(&[ports]))
                .points();
            run_replay_sweep(&points, &StandaloneConfig::default(), &opts)
        };
        for i in 0..=BASELINE_MAP_CAP {
            assert_eq!(sweep_of(i, 1).baseline_misses, 1);
        }
        let mapped = |i: usize| {
            let id = CacheId::new(
                format!("replay-baseline/{}", kernel(i).id),
                baseline_config(&StandaloneConfig::default()).canonical_repr(),
            );
            let path = crate::ResultCache::at(&dir).entry_path(&id);
            baselines().iter().any(|e| e.path == path)
        };
        assert!(baselines().len() <= BASELINE_MAP_CAP);
        assert!(!mapped(0), "the least recently used kernel was dropped");
        assert!(mapped(BASELINE_MAP_CAP));
        // A point not yet cached, so the sweep needs the baseline.
        let reloaded = sweep_of(0, 4);
        assert_eq!(
            (reloaded.baseline_memo_hits, reloaded.hits, reloaded.misses),
            (0, 1, 1)
        );
        assert!(mapped(0));
        assert!(baselines().len() <= BASELINE_MAP_CAP);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each import group of a recorded stream is one execution of one
    /// block, so a block's trip count is the number of groups its ops fall
    /// in — counted here without going through per-instruction counts.
    #[test]
    fn trips_equal_a_direct_count_of_block_executions() {
        for kernel in [
            tiny_gemm().build(),
            machsuite::bfs::build(&machsuite::bfs::Params::default()),
        ] {
            let (_, trace) = try_run_kernel_profiled(&kernel, &StandaloneConfig::default())
                .expect("baseline runs");
            let mut block_of = HashMap::new();
            for (bid, block) in kernel.func.blocks() {
                for id in &block.insts {
                    block_of.insert(id.index() as u32, bid);
                }
            }
            let mut groups: HashMap<salam_ir::BlockId, std::collections::BTreeSet<u32>> =
                HashMap::new();
            for op in trace.ops() {
                groups
                    .entry(block_of[&op.meta.inst])
                    .or_default()
                    .insert(op.meta.group);
            }
            let direct: HashMap<_, _> = groups
                .into_iter()
                .map(|(bid, g)| (bid, g.len() as u64))
                .collect();
            assert!(direct.len() > 1, "{}", kernel.name);
            assert_eq!(
                trips_from_trace(&kernel.func, &trace),
                direct,
                "{}",
                kernel.name
            );
        }
    }
}
