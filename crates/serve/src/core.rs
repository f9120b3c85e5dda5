//! The running server: worker threads over the pure scheduler, admission
//! control, fingerprint coalescing, the shared result cache, and metrics.
//! This file holds the configuration, the shared state and the public
//! [`ServeCore`] API; admission lives in `admit`, everything after it —
//! workers, runs, sweep chunks, terminal handling — in `lifecycle`.
//!
//! [`ServeCore`] is deliberately transport-free — the TCP/HTTP layer in
//! [`crate::server`] is a thin shell around it, and the integration tests
//! drive it directly. Every mutable thing lives in one `Mutex<State>` with
//! a `Condvar`; workers hold the lock only to pick up and record work, and
//! simulate unlocked.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use salam::standalone::{RunOptions, StandaloneConfig};
use salam_dse::{
    run_replay_sweep, run_sweep, CacheId, DseOptions, EngineKind, KernelSpec, Lookup,
    ReplayOptions, ResultCache, StandalonePoint, SweepJob, SweepSpec, SweepTable,
};
use salam_fault::FaultPlan;
use salam_obs::det::SplitMix64;
use salam_obs::{
    export_chrome_json, json, labeled, MetricsRegistry, SharedTrace, SpanId, TraceRecorder,
    TraceSink, TrackId,
};
use salam_resilience::{
    BackoffPolicy, BreakerConfig, BreakerDecision, BreakerSet, CancelToken, Journal, StopReason,
};
use salam_telemetry::{flight, FlightRecorder};
use salam_verify::{errors_only, to_json as diags_to_json, verify_ir, warning_count};

use crate::job::{
    config_from_knobs, JobId, JobLookupError, JobOutcome, JobRequest, JobState, JobStatus,
    Rejection,
};
use crate::quota::TenantQuota;
use crate::sched::{Class, Dispatched, Scheduler, Task};

mod admit;
mod lifecycle;

use lifecycle::{finish_job, promote_follower, worker_loop, SingleExtras};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total concurrent simulation slots (worker threads).
    pub slots: usize,
    /// Points per sweep chunk — the scheduling granularity of batch work.
    /// Smaller chunks mean interactive jobs wait less behind a sweep.
    pub sweep_chunk: usize,
    /// The quota applied to every tenant.
    pub quota: TenantQuota,
    /// Result-cache directory; `None` uses the `salam-dse` default
    /// (`SALAM_DSE_CACHE` / `target/dse-cache`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Disables the shared result cache.
    pub no_cache: bool,
    /// Cache size cap; `None` reads `SALAM_DSE_CACHE_MAX_BYTES`.
    pub cache_max_bytes: Option<u64>,
    /// Run `salam-verify` as a pre-admission gate (IR errors reject the
    /// job; warnings become its lint artifact).
    pub verify: bool,
    /// Terminal job records (and their report/trace/CSV artifacts) kept
    /// per tenant. Older terminal jobs are evicted oldest-completed-first,
    /// after which their status/artifacts read as "no such job" — without
    /// a cap a long-running server grows memory without bound.
    pub retain_terminal: usize,
    /// Re-runs after a worker panic before the job fails for good. The
    /// panic is already contained by `catch_unwind`; a retry buys through
    /// transient environmental failures at the cost of one more run.
    pub retries: u32,
    /// Backoff between panic retries: seeded full-jitter exponential
    /// delays, a pure function of `(seed, site, attempt)` so schedules are
    /// identical across worker counts.
    pub backoff: BackoffPolicy,
    /// Per-fingerprint circuit breaker: after repeated deadlocks/panics on
    /// the same configuration, submissions of that configuration fast-fail
    /// (`circuit-open`) until a half-open probe succeeds. `None` disables.
    pub breaker: Option<BreakerConfig>,
    /// Scheduler-queue depth above which new submissions are shed with an
    /// `overloaded` rejection and a retry hint. Sweeps shed at half this
    /// depth (batch work yields to interactive work first). `0` disables.
    pub max_pending: usize,
    /// Queue depth above which newly admitted sweeps are downgraded to the
    /// trace-replay fast path — graceful degradation: cheaper,
    /// slightly coarser answers instead of refusals. `0` disables.
    pub degrade_pressure: usize,
    /// Append-only job journal path. When set, every admission and
    /// terminal transition is journaled so a restarted server re-admits
    /// interrupted jobs exactly once. `None` disables crash recovery.
    pub journal: Option<std::path::PathBuf>,
    /// Socket read/write timeout for the wire layer, milliseconds
    /// (`0` disables). A stalled client cannot pin a connection thread
    /// forever.
    pub io_timeout_ms: u64,
    /// Longest accepted request line / HTTP header line, bytes. Overflow
    /// is answered with a typed `bad-request` instead of buffering an
    /// unbounded line in memory.
    pub max_line_bytes: usize,
    /// Enables the chaos hooks (the `__chaos-panic` benchmark and the
    /// injected-panic budget) used by the resilience tests. Off in
    /// production configurations.
    pub chaos: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slots: 2,
            sweep_chunk: 16,
            quota: TenantQuota::default(),
            cache_dir: None,
            no_cache: false,
            cache_max_bytes: None,
            verify: true,
            retain_terminal: 256,
            retries: 1,
            backoff: BackoffPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            max_pending: 512,
            degrade_pressure: 128,
            journal: None,
            io_timeout_ms: 30_000,
            max_line_bytes: 1 << 20,
            chaos: false,
        }
    }
}

/// Per-submission options beyond the request payload itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// End-to-end deadline, milliseconds from admission. Queue wait
    /// counts; an expired deadline cancels the job cooperatively at the
    /// next engine cycle-batch (or chunk) boundary with a `timeout`
    /// outcome.
    pub deadline_ms: Option<u64>,
}

/// What a job actually executes. Shared immutably with workers.
#[derive(Debug)]
enum Work {
    Single(SingleWork),
    Sweep {
        name: String,
        points: Vec<StandalonePoint>,
        /// `[start, end)` point ranges, one per chunk task.
        chunks: Vec<(usize, usize)>,
        /// Route chunks through the trace-replay fast path; rows gain an
        /// `engine` column.
        replay: bool,
    },
}

/// One kernel or faulted run.
#[derive(Debug)]
struct SingleWork {
    point: Box<StandalonePoint>,
    plan: Option<FaultPlan>,
    trace: bool,
    /// Chaos-mode job: the worker panics instead of simulating while
    /// the injected-panic budget lasts (see [`ServeCore::inject_panics`]).
    chaos: bool,
}

#[derive(Debug)]
struct JobRecord {
    tenant: String,
    kind: &'static str,
    state: JobState,
    submit_seq: u64,
    complete_seq: Option<u64>,
    work: Arc<Work>,
    outcome: Option<JobOutcome>,
    lint_json: Option<String>,
    /// Sweep bookkeeping: chunks not yet finished, and each point's table
    /// row (see [`point_row`]) once its chunk lands.
    pending_chunks: usize,
    rows: Vec<Option<Vec<String>>>,
    /// Single-run fingerprint (for coalescing bookkeeping).
    fingerprint: Option<String>,
    /// Jobs coalesced onto this one; completed together with it.
    followers: Vec<JobId>,
    /// The lifecycle span tree, exported as the job's `trace` artifact.
    trace: SharedTrace,
    tracks: Tracks,
    /// The end-to-end request span, open from submit to terminal.
    job_span: SpanId,
    /// The scheduler-queue span, open from admission to first dispatch.
    queued_span: SpanId,
    /// The worker-slot span, open from first dispatch to terminal.
    run_span: SpanId,
    /// Server-epoch-relative submit time (picoseconds, the trace's unit).
    submitted_ps: u64,
    /// Server-epoch-relative first dispatch time, once scheduled.
    first_dispatch_ps: Option<u64>,
    /// Post-mortem artifact JSON, composed when the job fails.
    postmortem: Option<String>,
    /// The job's cooperative cancel token (deadline-armed when the
    /// submission set one); cloned into the engine at dispatch.
    cancel: CancelToken,
}

/// The three tracks of a job's span tree.
#[derive(Debug, Clone, Copy)]
struct Tracks {
    /// The end-to-end job span and the admission instants.
    request: TrackId,
    /// Queue wait.
    sched: TrackId,
    /// Worker-slot occupancy.
    run: TrackId,
}

/// A job's request-scoped identity, printed in post-mortems, flight events
/// and its trace. SplitMix64 of the id: stable, and job 1 and job 2 do not
/// read as neighbours.
fn trace_id(job: JobId) -> u64 {
    SplitMix64::new(job).next_u64()
}

/// A tenant's admission state; its counters live in [`State::metrics`]
/// under `serve.tenant.<tenant>.*`.
#[derive(Debug, Default, Clone)]
struct TenantStats {
    /// Non-terminal jobs right now — kept incrementally so admission never
    /// scans the whole job table.
    active: u64,
    /// Terminal job ids in completion order, the retention/eviction queue.
    terminal: std::collections::VecDeque<JobId>,
}

#[derive(Debug)]
struct State {
    jobs: BTreeMap<JobId, JobRecord>,
    sched: Scheduler,
    next_id: JobId,
    submit_seq: u64,
    complete_seq: u64,
    shutdown: bool,
    /// Fingerprint → leader job, for in-flight coalescing of identical
    /// single runs.
    inflight: HashMap<String, JobId>,
    tenants: BTreeMap<String, TenantStats>,
    /// The per-fingerprint circuit breakers (`None` when disabled).
    breaker: Option<BreakerSet>,
    retain_terminal: usize,
    /// Every counter and histogram the server keeps: the lifetime
    /// [`SERVER_COUNTERS`], per-tenant `serve.tenant.<t>.*` counters,
    /// latency histograms (queue/run/e2e, per class and per tenant) and
    /// the counters/histograms merged in from sweep chunks. Lifetime
    /// counts outlive the job table, which only retains the last
    /// [`ServeConfig::retain_terminal`] terminal records per tenant.
    metrics: MetricsRegistry,
}

/// Server-wide lifetime counters, declared at zero on start so a scrape
/// lists them before anything has happened.
const SERVER_COUNTERS: [&str; 13] = [
    "serve.jobs.submitted",
    "serve.jobs.done",
    "serve.jobs.failed",
    "serve.jobs.rejected",
    "serve.jobs.coalesced",
    "serve.jobs.shed",
    "serve.jobs.cancelled",
    "serve.jobs.timeout",
    "serve.jobs.degraded",
    "serve.jobs.recovered",
    "serve.breaker.fastfail",
    "serve.cache_hits",
    "serve.sim_runs",
];

/// Per-tenant counters (`serve.tenant.<t>.<name>`), declared at zero when
/// the tenant first submits.
const TENANT_COUNTERS: [&str; 6] = [
    "submitted",
    "completed",
    "failed",
    "rejected",
    "coalesced",
    "cache_hits",
];

/// The metric key of one per-tenant counter.
fn tenant_key(tenant: &str, name: &str) -> String {
    format!("serve.tenant.{tenant}.{name}")
}

struct Inner {
    state: Mutex<State>,
    cvar: Condvar,
    cache: Option<ResultCache>,
    cfg: ServeConfig,
    /// The server's time zero; every span/histogram timestamp is
    /// measured from this instant.
    epoch: Instant,
    /// The always-on bounded ring of recent lifecycle/engine events,
    /// dumped into post-mortem artifacts.
    flight: FlightRecorder,
    /// The append-only crash-recovery journal (`None` when disabled).
    journal: Option<Journal>,
    /// Chaos mode: worker panics left to inject (decremented per panic).
    chaos_budget: AtomicU64,
}

/// Epoch-relative now, in picoseconds.
fn now_ps(inner: &Inner) -> u64 {
    (inner.epoch.elapsed().as_nanos() as u64).saturating_mul(1000)
}

/// The in-process server. Dropping it without [`ServeCore::shutdown`]
/// leaves worker threads parked; always shut down.
pub struct ServeCore {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServeCore {
    /// Starts the worker pool and returns the running server.
    ///
    /// # Panics
    ///
    /// When the journal cannot be opened; [`crate::Server::bind`] returns
    /// that as an error instead.
    pub fn start(cfg: ServeConfig) -> Self {
        Self::try_start(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ServeCore::start`], with an unopenable journal as an error.
    pub(crate) fn try_start(cfg: ServeConfig) -> std::io::Result<Self> {
        let cache = if cfg.no_cache {
            None
        } else {
            Some(
                ResultCache::at(
                    cfg.cache_dir
                        .clone()
                        .unwrap_or_else(ResultCache::default_dir),
                )
                .with_max_bytes(cfg.cache_max_bytes.or_else(salam_dse::env_max_bytes)),
            )
        };
        let slots = cfg.slots.max(1);
        let journal = match &cfg.journal {
            Some(p) => Some(Journal::open(p).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot open journal {}: {e}", p.display()),
                )
            })?),
            None => None,
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                sched: Scheduler::new(slots),
                next_id: 1,
                submit_seq: 0,
                complete_seq: 0,
                shutdown: false,
                inflight: HashMap::new(),
                tenants: BTreeMap::new(),
                breaker: cfg.breaker.clone().map(BreakerSet::new),
                retain_terminal: cfg.retain_terminal.max(1),
                metrics: {
                    let mut m = MetricsRegistry::new();
                    for key in SERVER_COUNTERS {
                        m.counter_add(key, 0);
                    }
                    m
                },
            }),
            cvar: Condvar::new(),
            cache,
            epoch: Instant::now(),
            flight: FlightRecorder::enabled(flight::DEFAULT_CAPACITY),
            journal,
            chaos_budget: AtomicU64::new(0),
            cfg,
        });
        let core = ServeCore {
            inner,
            workers: Mutex::new(Vec::new()),
        };
        // Recover interrupted jobs from the journal *before* the workers
        // exist: re-admission must see the pre-crash job ids unclaimed.
        core.recover_from_journal();
        let workers = (0..slots)
            .map(|_| {
                let inner = core.inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        *core.workers.lock().unwrap() = workers;
        Ok(core)
    }

    /// Admits (or rejects) one job for `tenant`.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`]; rejected submissions never become jobs.
    pub fn submit(&self, tenant: &str, req: JobRequest) -> Result<JobId, Rejection> {
        self.submit_with(tenant, req, SubmitOpts::default())
    }

    /// [`ServeCore::submit`] with per-submission options (deadline).
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`]; rejected submissions never become jobs.
    pub fn submit_with(
        &self,
        tenant: &str,
        req: JobRequest,
        opts: SubmitOpts,
    ) -> Result<JobId, Rejection> {
        self.admit(tenant, req, opts, None)
    }

    fn snapshot(st: &State, id: JobId) -> Option<JobStatus> {
        st.jobs.get(&id).map(|j| JobStatus {
            id,
            tenant: j.tenant.clone(),
            kind: j.kind,
            state: j.state,
            submit_seq: j.submit_seq,
            complete_seq: j.complete_seq,
            detail: j.outcome.as_ref().map(JobOutcome::detail),
        })
    }

    /// Why `id` is missing from the job table: ids below the allocation
    /// watermark were real jobs whose terminal record has been evicted;
    /// anything else was never allocated.
    fn lookup_err(st: &State, id: JobId) -> JobLookupError {
        if id > 0 && id < st.next_id {
            JobLookupError::Evicted
        } else {
            JobLookupError::NotFound
        }
    }

    /// The job's current status.
    ///
    /// # Errors
    ///
    /// [`JobLookupError::Evicted`] for a completed job whose record aged
    /// out of retention, [`JobLookupError::NotFound`] for an unknown id.
    pub fn status(&self, id: JobId) -> Result<JobStatus, JobLookupError> {
        let st = self.inner.state.lock().unwrap();
        Self::snapshot(&st, id).ok_or_else(|| Self::lookup_err(&st, id))
    }

    /// Blocks until the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// As [`ServeCore::status`] — an evicted id returns immediately with
    /// [`JobLookupError::Evicted`] instead of parking the caller forever
    /// (the record can be evicted *while* waiting; the wake-up after its
    /// completion observes the eviction and reports it).
    pub fn wait(&self, id: JobId) -> Result<JobStatus, JobLookupError> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return Err(Self::lookup_err(&st, id)),
                Some(j) if j.state.is_terminal() => {
                    return Self::snapshot(&st, id).ok_or(JobLookupError::NotFound)
                }
                Some(_) => st = self.inner.cvar.wait(st).unwrap(),
            }
        }
    }

    /// Requests cooperative cancellation of a job. Terminal jobs return
    /// their status unchanged (idempotent). Queued work is failed
    /// immediately with a `cancelled` outcome; running work is stopped at
    /// the engine's next cycle-batch (or the sweep's next chunk) boundary.
    /// Cancelling a coalesced leader first promotes a follower so the
    /// other tenants' identical jobs still complete.
    ///
    /// # Errors
    ///
    /// As [`ServeCore::status`].
    pub fn cancel(&self, id: JobId) -> Result<JobStatus, JobLookupError> {
        let mut st = self.inner.state.lock().unwrap();
        let (state, work, fp, token) = {
            let Some(j) = st.jobs.get(&id) else {
                return Err(Self::lookup_err(&st, id));
            };
            if j.state.is_terminal() {
                return Self::snapshot(&st, id).ok_or(JobLookupError::NotFound);
            }
            (
                j.state,
                j.work.clone(),
                j.fingerprint.clone(),
                j.cancel.clone(),
            )
        };
        self.inner.flight.record(
            trace_id(id),
            "job",
            format!("cancel id={id} state={}", state.name()),
        );
        // A job stops now when nothing of it holds a slot; running work
        // stops at the engine's next cycle batch or the sweep's next chunk.
        let stop_now = match work.as_ref() {
            Work::Sweep { .. } => state == JobState::Queued,
            Work::Single(_) => {
                let leader = fp.as_ref().and_then(|f| st.inflight.get(f).copied());
                // Uncoalescable (traced) singles own their task.
                if fp.is_some() && leader != Some(id) {
                    // A follower: detach from its leader and finish alone.
                    if let Some(l) = leader.and_then(|l| st.jobs.get_mut(&l)) {
                        l.followers.retain(|f| *f != id);
                    }
                    true
                } else {
                    // Followers re-run under a promoted leader rather than
                    // inherit this job's cancellation.
                    promote_follower(&mut st, &self.inner, id);
                    state == JobState::Queued
                }
            }
        };
        if stop_now {
            st.sched.remove_job(id);
            let outcome = stop_outcome(StopReason::Cancelled, "before the run started");
            finish_job(
                &mut st,
                &self.inner,
                id,
                outcome,
                false,
                &SingleExtras::NONE,
            );
        } else {
            token.cancel();
        }
        let snap = Self::snapshot(&st, id).ok_or(JobLookupError::NotFound);
        drop(st);
        self.inner.cvar.notify_all();
        snap
    }

    /// `true` while the server accepts work — the `/readyz` signal. Flips
    /// false permanently once shutdown begins.
    pub fn ready(&self) -> bool {
        !self.inner.state.lock().unwrap().shutdown
    }

    /// The configuration this core was started with (the transport layer
    /// reads its socket limits from here).
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Arms the chaos panic budget: the next `n` chaos-job runs panic in
    /// the worker (contained by `catch_unwind`, subject to retry and the
    /// circuit breaker like any real panic). No-op jobs unless
    /// [`ServeConfig::chaos`] is set.
    pub fn inject_panics(&self, n: u64) {
        self.inner.chaos_budget.store(n, Ordering::SeqCst);
    }

    /// The circuit breaker's transition log (`<fp8>: from->to` lines, in
    /// order) — deterministic for a fixed submission sequence, which the
    /// resilience tests assert across worker counts.
    pub fn breaker_log(&self) -> Vec<String> {
        let st = self.inner.state.lock().unwrap();
        st.breaker
            .as_ref()
            .map_or_else(Vec::new, |b| b.log().to_vec())
    }

    /// Fetches one artifact of a terminal job: `report`, `trace`, `csv`,
    /// `table`, `error`, `lint`, or `postmortem`.
    ///
    /// # Errors
    ///
    /// A message when the job/artifact combination does not exist (yet);
    /// an evicted job's message says so rather than "no job".
    pub fn artifact(&self, id: JobId, kind: &str) -> Result<String, String> {
        let st = self.inner.state.lock().unwrap();
        let j = st
            .jobs
            .get(&id)
            .ok_or_else(|| Self::lookup_err(&st, id).message(id))?;
        if kind == "lint" {
            return Ok(j.lint_json.clone().unwrap_or_else(|| "[]".to_string()));
        }
        if kind == "postmortem" {
            return j
                .postmortem
                .clone()
                .ok_or_else(|| format!("job {id} has no post-mortem"));
        }
        let outcome = j
            .outcome
            .as_ref()
            .ok_or_else(|| format!("job {id} is {}", j.state.name()))?;
        match (kind, outcome) {
            ("report", JobOutcome::Report { json, .. }) => Ok(json.clone()),
            ("trace", JobOutcome::Report { trace_json, .. }) => trace_json
                .clone()
                .ok_or_else(|| format!("job {id} was not traced")),
            ("csv", JobOutcome::Sweep { csv, .. }) => Ok(csv.clone()),
            ("table", JobOutcome::Sweep { json, .. }) => Ok(json.clone()),
            ("error", JobOutcome::Error { label, message }) => Ok(format!(
                "{{\"label\": \"{}\", \"message\": \"{}\"}}",
                json::escape(label),
                json::escape(message)
            )),
            _ => Err(format!("job {id} ({}) has no '{kind}' artifact", j.kind)),
        }
    }

    /// A full metrics dump: job/tenant counters, latency histograms (which
    /// the JSON view expands to `.count/.p50/…`), cache occupancy and the
    /// point-in-time job gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        let st = self.inner.state.lock().unwrap();
        let mut reg = st.metrics.clone();
        // queued/running are never evicted, so counting states is exact.
        let (queued, running) = st.jobs.values().fold((0u64, 0u64), |acc, j| match j.state {
            JobState::Queued => (acc.0 + 1, acc.1),
            JobState::Running => (acc.0, acc.1 + 1),
            _ => acc,
        });
        drop(st);
        reg.set("serve.jobs.queued", queued as f64);
        reg.set("serve.jobs.running", running as f64);
        if let Some(cache) = &self.inner.cache {
            cache.export_metrics(&mut reg, "serve.cache");
        }
        reg.set("serve.flight.dropped", self.inner.flight.dropped() as f64);
        reg
    }

    /// The Prometheus text exposition of the same snapshot: counters and
    /// gauges as scalar samples, latency histograms as cumulative
    /// `_bucket`/`_sum`/`_count` series. Served as
    /// `GET /metrics?format=prom` and the `{"op":"metrics","format":"prom"}`
    /// wire request.
    pub fn metrics_prom(&self) -> String {
        self.metrics().to_prom()
    }

    /// The stable one-line summary CI asserts on. The leading counters are
    /// frozen (scripts key on them); end-to-end latency percentiles and
    /// the resilience counters ride at the end (zeros until a job
    /// completes). Format, documented in DESIGN.md
    /// §11: `jobs=N done=N failed=N rejected=N coalesced=N cache_hits=N
    /// sim_runs=N e2e_p50_ms=F e2e_p99_ms=F shed=N cancelled=N`.
    pub fn stats_line(&self) -> String {
        let st = self.inner.state.lock().unwrap();
        let m = &st.metrics;
        let (p50, p99) = m
            .hist("serve.latency.e2e_us")
            .map_or((0, 0), |h| (h.p50(), h.p99()));
        format!(
            "jobs={} done={} failed={} rejected={} coalesced={} cache_hits={} sim_runs={} \
             e2e_p50_ms={:.3} e2e_p99_ms={:.3} shed={} cancelled={}",
            m.counter("serve.jobs.submitted"),
            m.counter("serve.jobs.done"),
            m.counter("serve.jobs.failed"),
            m.counter("serve.jobs.rejected"),
            m.counter("serve.jobs.coalesced"),
            m.counter("serve.cache_hits"),
            m.counter("serve.sim_runs"),
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0,
            m.counter("serve.jobs.shed"),
            m.counter("serve.jobs.cancelled") + m.counter("serve.jobs.timeout"),
        )
    }

    /// Stops accepting jobs, lets in-flight tasks finish, and joins the
    /// workers. Jobs whose queued tasks never ran are failed with a
    /// `shutdown` outcome — so every job is terminal afterwards and no
    /// [`ServeCore::wait`] caller parks forever. Idempotent; later calls
    /// are no-ops.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.cvar.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Workers are gone; whatever is still queued can never run.
        let mut st = self.inner.state.lock().unwrap();
        let abandoned: Vec<JobId> = st
            .jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        for id in abandoned {
            if let Some(j) = st.jobs.get_mut(&id) {
                if let Some(fp) = j.fingerprint.take() {
                    st.inflight.remove(&fp);
                }
            }
            finish_job(
                &mut st,
                &self.inner,
                id,
                JobOutcome::Error {
                    label: "shutdown".to_string(),
                    message: "server shut down before the job ran".to_string(),
                },
                false,
                &SingleExtras::NONE,
            );
        }
        drop(st);
        self.inner.cvar.notify_all();
    }
}

/// Short hex digest of a fingerprint for breaker log / flight lines.
fn fp8(fp: &str) -> String {
    format!(
        "{:08x}",
        (salam_resilience::fnv1a64(fp.as_bytes()) >> 32) as u32
    )
}

/// A typed outcome for a run stopped before/without simulating.
fn stop_outcome(reason: StopReason, when: &str) -> JobOutcome {
    JobOutcome::Error {
        label: reason.label().to_string(),
        message: match reason {
            StopReason::Cancelled => format!("cancelled {when}"),
            StopReason::DeadlineExceeded => format!("deadline exceeded {when}"),
        },
    }
}
