//! `salam-dse` — the parallel design-space-exploration engine.
//!
//! The paper's headline results are parameter sweeps: FU constraints, SPM
//! ports and latency, DMA burst, crossbar width. This crate turns those
//! sweeps from serial, from-scratch loops into an engine that is
//!
//! * **parallel** — a `std::thread` worker pool ([`pool`]) fed by a
//!   channel job queue; worker count from `SALAM_JOBS`, default the
//!   machine's available parallelism;
//! * **incremental** — a persistent, content-addressed result cache
//!   ([`cache`]): FNV-1a over the kernel identity and the canonical
//!   configuration text maps each design point to a JSON entry under
//!   `target/dse-cache/`, so re-runs and resumed sweeps skip completed
//!   points, and corrupted entries are detected and re-simulated;
//! * **deterministic** — a [`SweepSpec`] enumerates its grid in a fixed
//!   order and results are reassembled in that order, so the report is
//!   byte-identical whether it ran on one worker or sixteen, from the
//!   cache or from scratch;
//! * **reportable** — [`report`] renders CSV/JSON/text tables, rolls every
//!   point's metrics into one [`salam_obs::MetricsRegistry`], and extracts
//!   the Pareto frontier over (cycles, area, power);
//! * **panic-isolated** — each job runs under `catch_unwind` with a bounded
//!   retry, so one diverging design point becomes a `failed:<cause>` row
//!   instead of killing a thousand-point campaign;
//! * **statically screened** — [`SweepJob::validate`] runs before the cache
//!   probe, so a point `salam-verify` rejects becomes an `invalid:<code>`
//!   row without consuming a simulation slot or a cache entry;
//! * **flow-pruned** — [`run_sweep_pruned`] simulates a small reference set
//!   first, then drops every point whose `salam-flow`-tightened static
//!   cycle bound proves it cannot beat a no-costlier reference: a
//!   `pruned:F005` row and a `pruned=` summary count instead of a
//!   simulation.
//!
//! Everything is std-only: the workspace stays offline-buildable.
//!
//! ```no_run
//! use salam_dse::{run_sweep, Axis, DseOptions, KernelSpec, SweepSpec};
//! use salam::standalone::StandaloneConfig;
//!
//! let spec = SweepSpec::new("ports", StandaloneConfig::default())
//!     .kernel(KernelSpec::bench(machsuite::Bench::GemmNcubed))
//!     .axis(Axis::spm_ports(&[1, 2, 4, 8]));
//! let run = run_sweep(&spec.points(), &DseOptions::default());
//! for (point, outcome) in spec.points().iter().zip(&run.outcomes) {
//!     match outcome.payload() {
//!         Some(r) => println!("{}: {} cycles", point.label(), r.cycles),
//!         None => println!("{}: {}", point.label(), outcome.failure_label().unwrap()),
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fnv;
pub mod pool;
pub mod prune;
pub mod replay;
pub mod report;
pub mod spec;
#[cfg(test)]
pub(crate) mod test_env;

pub use cache::{
    env_max_bytes, plan_evictions, CacheId, CachePayload, EntryMeta, Lookup, ResultCache,
    CACHE_FORMAT_VERSION,
};
pub use pool::{run_parallel, run_parallel_with, worker_count};
pub use prune::{run_sweep_pruned, PrunableJob, StaticProfile};
pub use replay::{
    baseline_config, replay_config, replay_one, replay_safe, run_replay_sweep, trips_from_trace,
    EngineKind, PointProvenance, ReplayBaseline, ReplayOptions, ReplayRun, ReplayedPoint,
};
pub use report::{metrics_rollup, objectives, pareto_frontier, SweepTable};
pub use spec::{Axis, KernelSpec, StandalonePoint, SweepSpec};

use std::path::PathBuf;
use std::time::{Duration, Instant};

use salam_obs::MetricsRegistry;

/// One unit of sweep work: an identity for the cache and a way to produce
/// the result. Implemented by [`StandalonePoint`] for datapath+SPM runs;
/// experiment crates implement it for their own scenario types (the Fig. 16
/// cluster sweep does).
pub trait SweepJob: Sync {
    /// The cached result type.
    type Output: CachePayload + Send;

    /// The point's content identity. Equal ids ⇒ interchangeable results.
    fn cache_id(&self) -> CacheId;

    /// Static pre-flight check. A rejected point becomes an
    /// `invalid:<code>` row without consuming a simulation slot or a cache
    /// entry — the sweep engine never calls [`SweepJob::run`] (or even
    /// probes the cache) for it. The default accepts everything.
    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        Ok(())
    }

    /// Simulates the point from scratch.
    fn run(&self) -> Self::Output;

    /// Records per-point telemetry (histograms, counters) into the
    /// sweep-wide registry. Called for every successful outcome — cache
    /// hits included — so whatever is recorded here is a pure function of
    /// the point set, independent of cache state and worker count. The
    /// default records nothing.
    fn record_telemetry(&self, _output: &Self::Output, _tel: &mut MetricsRegistry) {}
}

/// References delegate, so sweep drivers can run arbitrary sub-slices
/// (e.g. [`run_sweep_pruned`]'s reference and survivor phases) without
/// cloning jobs.
impl<J: SweepJob> SweepJob for &J {
    type Output = J::Output;

    fn cache_id(&self) -> CacheId {
        (**self).cache_id()
    }

    fn validate(&self) -> Result<(), salam_verify::Diagnostic> {
        (**self).validate()
    }

    fn run(&self) -> Self::Output {
        (**self).run()
    }

    fn record_telemetry(&self, output: &Self::Output, tel: &mut MetricsRegistry) {
        (**self).record_telemetry(output, tel)
    }
}

/// Engine options; the default reads everything from the environment.
#[derive(Debug, Clone)]
pub struct DseOptions {
    /// Worker threads; `None` uses [`worker_count`] (`SALAM_JOBS` / cores).
    pub workers: Option<usize>,
    /// Cache directory; `None` uses [`ResultCache::default_dir`]
    /// (`SALAM_DSE_CACHE` / `target/dse-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Disables the result cache entirely (every point simulates).
    pub no_cache: bool,
    /// Cache size cap in bytes; `None` uses `SALAM_DSE_CACHE_MAX_BYTES`
    /// ([`cache::env_max_bytes`]; absent means unbounded).
    pub cache_max_bytes: Option<u64>,
    /// Extra attempts after a job panics before recording it as failed.
    /// A panic can be an artifact of thread-local or timing state, so one
    /// retry is cheap insurance; a deterministic panic fails again and is
    /// reported with `attempts = retries + 1`.
    pub retries: u32,
    /// Spacing between retry attempts: seeded exponential backoff with
    /// full jitter, keyed by the job's cache identity so the schedule is a
    /// pure function of the point — identical across worker counts.
    /// `None` retries immediately (the historical behaviour).
    pub backoff: Option<salam_resilience::BackoffPolicy>,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            workers: None,
            cache_dir: None,
            no_cache: false,
            cache_max_bytes: None,
            retries: 1,
            backoff: None,
        }
    }
}

impl DseOptions {
    /// Explicit worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Explicit cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Cache disabled.
    pub fn without_cache(mut self) -> Self {
        self.no_cache = true;
        self
    }

    /// Explicit cache size cap in bytes.
    pub fn with_cache_max_bytes(mut self, bytes: u64) -> Self {
        self.cache_max_bytes = Some(bytes);
        self
    }

    /// Explicit retry budget for panicking jobs (0 disables retries).
    pub fn with_retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Deterministic backoff between retry attempts.
    pub fn with_backoff(mut self, policy: salam_resilience::BackoffPolicy) -> Self {
        self.backoff = Some(policy);
        self
    }

    fn resolve_workers(&self) -> usize {
        self.workers.unwrap_or_else(worker_count).max(1)
    }

    fn resolve_cache(&self) -> Option<ResultCache> {
        if self.no_cache || std::env::var_os("SALAM_DSE_NO_CACHE").is_some_and(|v| v == "1") {
            return None;
        }
        Some(
            ResultCache::at(
                self.cache_dir
                    .clone()
                    .unwrap_or_else(ResultCache::default_dir),
            )
            .with_max_bytes(self.cache_max_bytes.or_else(cache::env_max_bytes)),
        )
    }
}

/// Why a design point produced no result: its job panicked on every
/// attempt. The cause is the panic payload (first line, truncated), the
/// attempt count includes the retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// First line of the panic message.
    pub cause: String,
    /// Total attempts made (1 + retries).
    pub attempts: u32,
}

impl JobFailure {
    /// The stable `failed:<cause>` row label used in sweep tables and CI
    /// output.
    pub fn label(&self) -> String {
        format!("failed:{}", self.cause)
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job failed after {} attempt{}: {}",
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.cause
        )
    }
}

/// Why a design point has no payload: its job panicked out of the retry
/// budget, a static pre-flight check rejected it before any simulation, or
/// flow-based pruning proved it can never win the sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The job panicked on every attempt.
    Failed(JobFailure),
    /// [`SweepJob::validate`] rejected the point; it never simulated.
    Invalid(salam_verify::Diagnostic),
    /// [`run_sweep_pruned`] proved the point dominated by an
    /// already-simulated reference; it never simulated.
    Pruned(salam_verify::Diagnostic),
}

impl PointError {
    /// The stable row label: `failed:<cause>`, `invalid:<code>` or
    /// `pruned:<code>`.
    pub fn label(&self) -> String {
        match self {
            PointError::Failed(f) => f.label(),
            PointError::Invalid(d) => format!("invalid:{}", d.code),
            PointError::Pruned(d) => format!("pruned:{}", d.code),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Failed(j) => j.fmt(f),
            PointError::Invalid(d) => write!(f, "invalid design point: {d}"),
            PointError::Pruned(d) => write!(f, "pruned design point: {d}"),
        }
    }
}

/// One point's result plus its provenance.
#[derive(Debug, Clone)]
pub struct PointOutcome<T> {
    /// The simulation result (fresh or from the cache — byte-equivalent),
    /// the failure that exhausted the retry budget, or the diagnostic that
    /// invalidated the point before it ran.
    pub result: Result<T, PointError>,
    /// Served from the result cache without simulating.
    pub from_cache: bool,
}

impl<T> PointOutcome<T> {
    /// The payload, if the point succeeded.
    pub fn payload(&self) -> Option<&T> {
        self.result.as_ref().ok()
    }

    /// The failure, if the point's job panicked out.
    pub fn failure(&self) -> Option<&JobFailure> {
        match &self.result {
            Err(PointError::Failed(f)) => Some(f),
            _ => None,
        }
    }

    /// The diagnostic, if the point was statically rejected.
    pub fn invalid(&self) -> Option<&salam_verify::Diagnostic> {
        match &self.result {
            Err(PointError::Invalid(d)) => Some(d),
            _ => None,
        }
    }

    /// The diagnostic, if the point was pruned as provably dominated.
    pub fn pruned(&self) -> Option<&salam_verify::Diagnostic> {
        match &self.result {
            Err(PointError::Pruned(d)) => Some(d),
            _ => None,
        }
    }

    /// `failed:<cause>` / `invalid:<code>` / `pruned:<code>` for pointless
    /// points, `None` otherwise.
    pub fn failure_label(&self) -> Option<String> {
        self.result.as_ref().err().map(PointError::label)
    }

    /// The payload, panicking with the failure cause when the point failed.
    /// For tools that treat any failed point as fatal.
    pub fn expect_payload(&self) -> &T {
        match &self.result {
            Ok(p) => p,
            Err(f) => panic!("design point failed: {f}"),
        }
    }
}

/// A completed sweep: outcomes in canonical point order plus cache and
/// timing telemetry.
#[derive(Debug)]
pub struct SweepRun<T> {
    /// One outcome per job, in submission order.
    pub outcomes: Vec<PointOutcome<T>>,
    /// Points served from the cache.
    pub hits: usize,
    /// Points simulated because no entry existed.
    pub misses: usize,
    /// Points re-simulated because their entry failed validation.
    pub corrupt: usize,
    /// Points whose job panicked on every attempt.
    pub failed: usize,
    /// Points statically rejected by [`SweepJob::validate`] — never
    /// simulated, never cached.
    pub invalid: usize,
    /// Points [`run_sweep_pruned`] proved dominated — never simulated,
    /// never cached. Always 0 for plain [`run_sweep`].
    pub pruned: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Typed metrics accumulated across workers: `dse.points.*`
    /// counters plus whatever [`SweepJob::record_telemetry`] contributed.
    /// Per-worker shards merge commutatively, so counters and histogram
    /// buckets (and therefore quantiles) are identical for any
    /// `SALAM_JOBS` value.
    pub telemetry: MetricsRegistry,
}

impl<T> SweepRun<T> {
    /// `hits=h misses=m corrupt=c failed=f invalid=i pruned=p workers=w
    /// points=n wall=…` — one stable line for logs and CI assertions.
    pub fn summary(&self) -> String {
        format!(
            "hits={} misses={} corrupt={} failed={} invalid={} pruned={} workers={} points={} \
             wall={:.3}s",
            self.hits,
            self.misses,
            self.corrupt,
            self.failed,
            self.invalid,
            self.pruned,
            self.workers,
            self.outcomes.len(),
            self.wall.as_secs_f64()
        )
    }
}

/// Runs one job under `catch_unwind`, retrying up to `retries` extra times.
/// The panic payload's first line (capped) becomes the failure cause.
/// With a backoff policy, attempts are spaced by the policy's full-jitter
/// delays keyed on the job's cache identity — a pure function of the
/// point, so the retry schedule replays across worker counts.
fn run_isolated<J: SweepJob>(
    job: &J,
    retries: u32,
    backoff: Option<&salam_resilience::BackoffPolicy>,
) -> Result<J::Output, JobFailure> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run())) {
            Ok(out) => return Ok(out),
            Err(payload) if attempts > retries => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                let mut cause: String = msg.lines().next().unwrap_or("panic").to_string();
                if cause.len() > 120 {
                    let mut end = 120;
                    while !cause.is_char_boundary(end) {
                        end -= 1;
                    }
                    cause.truncate(end);
                }
                return Err(JobFailure { cause, attempts });
            }
            Err(_) => {
                if let Some(policy) = backoff {
                    let id = job.cache_id();
                    let site = format!("{}/{}", id.domain, id.canon);
                    let delay = policy.delay_ms(&site, attempts);
                    if delay > 0 {
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                }
            }
        }
    }
}

/// Runs every job — cache probe, simulate on miss, store — across the
/// worker pool and reassembles results in job order. Cache writes are
/// best-effort: an I/O failure costs a warning and a future re-simulation,
/// never the sweep. A job that panics out of its retry budget becomes a
/// failed outcome (never cached); the rest of the sweep is unaffected.
pub fn run_sweep<J: SweepJob>(jobs: &[J], opts: &DseOptions) -> SweepRun<J::Output> {
    sweep(jobs, opts, None)
}

/// [`run_sweep`], or with `missed = Some(corrupt)` the same for jobs whose
/// cache entries an earlier lookup already missed: `corrupt[i]` says job
/// `i`'s entry was there but failed validation. Such jobs run and store
/// without a second lookup and count as the miss or corrupt entry they
/// were.
pub(crate) fn sweep<J: SweepJob>(
    jobs: &[J],
    opts: &DseOptions,
    missed: Option<&[bool]>,
) -> SweepRun<J::Output> {
    let workers = opts.resolve_workers();
    let cache = opts.resolve_cache();
    let retries = opts.retries;
    let backoff = opts.backoff.clone();
    let t0 = Instant::now();

    enum Provenance {
        Hit,
        Miss,
        Corrupt,
        Invalid,
    }

    type Isolated<T> = (Provenance, Result<T, PointError>);
    let (results, shards): (Vec<Isolated<J::Output>>, Vec<MetricsRegistry>) = run_parallel_with(
        jobs.len(),
        workers,
        MetricsRegistry::new,
        |i, tel: &mut MetricsRegistry| {
            let job = &jobs[i];
            // Pre-flight before the cache probe: an invalid point must not
            // consume a simulation slot, and caching it would make a later
            // fix of the validator invisible.
            if let Err(d) = job.validate() {
                tel.counter_add("dse.points.invalid", 1);
                return (Provenance::Invalid, Err(PointError::Invalid(d)));
            }
            let finish = |provenance: Provenance,
                          result: Result<J::Output, JobFailure>,
                          tel: &mut MetricsRegistry| {
                match &result {
                    Ok(out) => {
                        tel.counter_add(
                            match provenance {
                                Provenance::Hit => "dse.points.cache_hits",
                                _ => "dse.points.simulated",
                            },
                            1,
                        );
                        // Hits and fresh runs both record, so per-point
                        // telemetry is independent of cache state.
                        job.record_telemetry(out, tel);
                    }
                    Err(_) => tel.counter_add("dse.points.failed", 1),
                }
                (provenance, result.map_err(PointError::Failed))
            };
            let Some(cache) = &cache else {
                return finish(
                    Provenance::Miss,
                    run_isolated(job, retries, backoff.as_ref()),
                    tel,
                );
            };
            let id = job.cache_id();
            let lookup = match missed {
                None => cache.lookup::<J::Output>(&id),
                Some(corrupt) if corrupt[i] => Lookup::Corrupt,
                Some(_) => Lookup::Miss,
            };
            let (provenance, result) = match lookup {
                Lookup::Hit(p) => return finish(Provenance::Hit, Ok(p), tel),
                Lookup::Miss => (
                    Provenance::Miss,
                    run_isolated(job, retries, backoff.as_ref()),
                ),
                Lookup::Corrupt => (
                    Provenance::Corrupt,
                    run_isolated(job, retries, backoff.as_ref()),
                ),
            };
            if let Ok(payload) = &result {
                if let Err(e) = cache.store(&id, payload) {
                    eprintln!(
                        "salam-dse: warning: could not write cache entry {}: {e}",
                        cache.entry_path(&id).display()
                    );
                }
            }
            finish(provenance, result, tel)
        },
    );
    let mut telemetry = MetricsRegistry::new();
    for shard in &shards {
        telemetry.merge_from(shard);
    }

    let wall = t0.elapsed();
    let mut run = SweepRun {
        outcomes: Vec::with_capacity(results.len()),
        hits: 0,
        misses: 0,
        corrupt: 0,
        failed: 0,
        invalid: 0,
        pruned: 0,
        workers,
        wall,
        telemetry,
    };
    for (provenance, result) in results {
        let from_cache = match provenance {
            Provenance::Hit => {
                run.hits += 1;
                true
            }
            Provenance::Miss => {
                run.misses += 1;
                false
            }
            Provenance::Corrupt => {
                run.corrupt += 1;
                false
            }
            Provenance::Invalid => {
                run.invalid += 1;
                false
            }
        };
        if matches!(result, Err(PointError::Failed(_))) {
            run.failed += 1;
        }
        run.outcomes.push(PointOutcome { result, from_cache });
    }
    run
}
