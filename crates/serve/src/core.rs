//! The running server: worker threads over the pure scheduler, admission
//! control, fingerprint coalescing, the shared result cache, and metrics.
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
    run_replay_sweep, run_sweep, CacheId, DseOptions, EngineKind, KernelSpec, Lookup, PointOutcome,
    ReplayOptions, ResultCache, StandalonePoint, SweepJob, SweepSpec, SweepTable,
};
use salam_fault::FaultPlan;
use salam_obs::{json, labeled, Histogram, Metric, MetricsRegistry, SpanId, TraceRecorder};
use salam_resilience::{
    BackoffPolicy, BreakerConfig, BreakerDecision, BreakerSet, CancelToken, Journal, StopReason,
};
use salam_telemetry::{flight, FlightRecorder, JobTrace, TraceCtx};
use salam_verify::{errors_only, to_json as diags_to_json, verify_ir, warning_count};

use crate::job::{
    config_from_knobs, JobId, JobLookupError, JobOutcome, JobRequest, JobState, JobStatus,
    Rejection,
};
use crate::quota::TenantQuota;
use crate::sched::{Class, Dispatched, Scheduler, Task};

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
    /// Request-scoped telemetry: per-job span trees, latency histograms,
    /// and the always-on flight recorder feeding post-mortem artifacts.
    /// On by default; disabling it removes every per-job recorder (the
    /// non-perturbation baseline the bench suite compares against).
    pub telemetry: bool,
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
    /// trace-replay fast path (PR 7) — graceful degradation: cheaper,
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
    /// injected-panic budget) used by `chaos_smoke` and the resilience
    /// tests. Off in production configurations.
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
            telemetry: true,
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

/// One sweep point's finished row.
#[derive(Debug, Clone)]
struct PointRow {
    label: String,
    cycles: String,
    status: String,
    /// Engine label (`sim` / `replay` / `sim-fallback`); empty for
    /// non-replay sweeps.
    engine: String,
    ok: bool,
    invalid: bool,
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
    /// Sweep bookkeeping: chunks not yet finished, per-point rows.
    pending_chunks: usize,
    rows: Vec<Option<PointRow>>,
    /// Single-run fingerprint (for coalescing bookkeeping).
    fingerprint: Option<String>,
    /// Jobs coalesced onto this one; completed together with it.
    followers: Vec<JobId>,
    /// Lifecycle span tree (`None` when telemetry is off).
    trace: Option<JobTrace>,
    /// The end-to-end request span, open from submit to terminal.
    job_span: SpanId,
    /// The scheduler-queue span, open from admission to first dispatch.
    queued_span: SpanId,
    /// The worker-slot span, open from first dispatch to terminal.
    run_span: SpanId,
    /// Server-epoch-relative submit time (nanoseconds).
    submitted_ns: u64,
    /// Server-epoch-relative first dispatch time, once scheduled.
    first_dispatch_ns: Option<u64>,
    /// Post-mortem artifact JSON, composed when the job fails.
    postmortem: Option<String>,
    /// The job's cooperative cancel token (deadline-armed when the
    /// submission set one); cloned into the engine at dispatch.
    cancel: CancelToken,
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

/// Tenant names become metric keys and label values, so they are held to
/// `[A-Za-z0-9_-]{1,64}`: nothing that could close a label or split a key.
fn valid_tenant(tenant: &str) -> bool {
    (1..=64).contains(&tenant.len())
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

struct Inner {
    state: Mutex<State>,
    cvar: Condvar,
    cache: Option<ResultCache>,
    cfg: ServeConfig,
    /// The server's time zero; every span/histogram timestamp is
    /// nanoseconds since this instant.
    epoch: Instant,
    /// The always-on bounded ring of recent lifecycle/engine events,
    /// dumped into post-mortem artifacts. Disabled iff telemetry is off.
    flight: FlightRecorder,
    /// The append-only crash-recovery journal (`None` when disabled).
    journal: Option<Journal>,
    /// Chaos mode: worker panics left to inject (decremented per panic).
    chaos_budget: AtomicU64,
}

/// Epoch-relative now, in nanoseconds.
fn now_ns(inner: &Inner) -> u64 {
    inner.epoch.elapsed().as_nanos() as u64
}

/// The in-process server. Dropping it without [`ServeCore::shutdown`]
/// leaves worker threads parked; always shut down.
pub struct ServeCore {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Resolves a MachSuite benchmark id.
fn bench_by_id(id: &str) -> Option<machsuite::Bench> {
    machsuite::Bench::ALL
        .into_iter()
        .find(|b| b.label().eq_ignore_ascii_case(id))
}

impl ServeCore {
    /// Starts the worker pool and returns the running server.
    pub fn start(cfg: ServeConfig) -> Self {
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
        let journal = cfg.journal.as_ref().map(|p| {
            Journal::open(p).unwrap_or_else(|e| panic!("cannot open journal {}: {e}", p.display()))
        });
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
            flight: if cfg.telemetry {
                FlightRecorder::enabled(flight::DEFAULT_CAPACITY)
            } else {
                FlightRecorder::disabled()
            },
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
        core
    }

    /// Replays the journal: every admitted job without a terminal record is
    /// re-admitted under its original id, then the journal is compacted to
    /// exactly those open admissions (so recovery is idempotent and the
    /// file does not grow without bound across restarts).
    fn recover_from_journal(&self) {
        let Some(journal) = &self.inner.journal else {
            return;
        };
        let lines = match Journal::read_lines(journal.path()) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("salam-serve: warning: journal unreadable, starting empty: {e}");
                return;
            }
        };
        // Fold the log: later events win, a terminal record closes the id.
        let mut open: BTreeMap<JobId, (String, crate::wire::JournalAdmit)> = BTreeMap::new();
        let mut max_id = 0;
        for line in &lines {
            match crate::wire::parse_journal_line(line) {
                Ok(crate::wire::JournalEvent::Admit(admit)) => {
                    max_id = max_id.max(admit.id);
                    open.insert(admit.id, (line.clone(), admit));
                }
                Ok(crate::wire::JournalEvent::Terminal { id }) => {
                    max_id = max_id.max(id);
                    open.remove(&id);
                }
                Err(e) => eprintln!("salam-serve: warning: skipping journal line: {e}"),
            }
        }
        // Compact first: the surviving admit lines *are* the re-append, so
        // a crash during recovery still re-admits exactly these jobs.
        let keep: Vec<String> = open.values().map(|(line, _)| line.clone()).collect();
        if let Err(e) = journal.rewrite(&keep) {
            eprintln!("salam-serve: warning: journal compaction failed: {e}");
        }
        {
            let mut st = self.inner.state.lock().unwrap();
            st.next_id = st.next_id.max(max_id + 1);
        }
        let mut recovered = 0u64;
        for (id, (_, admit)) in open {
            let opts = SubmitOpts {
                deadline_ms: admit.deadline_ms,
            };
            match self.admit(&admit.tenant, admit.job, opts, Some(id)) {
                Ok(_) => recovered += 1,
                Err(r) => {
                    eprintln!("salam-serve: warning: journaled job {id} not re-admitted: {r}")
                }
            }
        }
        if recovered > 0 {
            let mut st = self.inner.state.lock().unwrap();
            st.metrics.counter_add("serve.jobs.recovered", recovered);
            drop(st);
            self.inner
                .flight
                .record(0, "recovery", format!("recovered jobs={recovered}"));
        }
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

    /// The admission pipeline. With `force_id` (journal recovery) the
    /// admission gates — shutdown, shedding, quota, breaker — are skipped:
    /// the job was already admitted once, and recovery must not lose it.
    fn admit(
        &self,
        tenant: &str,
        req: JobRequest,
        opts: SubmitOpts,
        force_id: Option<JobId>,
    ) -> Result<JobId, Rejection> {
        let gated = force_id.is_none();
        if !valid_tenant(tenant) {
            let mut st = self.inner.state.lock().unwrap();
            st.metrics.counter_add("serve.jobs.rejected", 1);
            return Err(Rejection::new(
                "bad-request",
                "tenant name must be 1-64 characters of [A-Za-z0-9_-]",
            ));
        }
        let prepared = self.prepare(&req);
        let mut st = self.inner.state.lock().unwrap();
        if !st.tenants.contains_key(tenant) {
            st.tenants
                .insert(tenant.to_string(), TenantStats::default());
            for name in TENANT_COUNTERS {
                st.metrics.counter_add(&tenant_key(tenant, name), 0);
            }
        }
        let reject = |st: &mut State, r: Rejection| {
            st.metrics.counter_add("serve.jobs.rejected", 1);
            st.metrics.counter_add(&tenant_key(tenant, "rejected"), 1);
            self.inner.flight.record(
                0,
                "admission",
                format!("reject tenant={tenant} code={}", r.code),
            );
            Err(r)
        };
        if gated {
            if st.shutdown {
                return reject(
                    &mut st,
                    Rejection::new("shutting-down", "server is shutting down"),
                );
            }
            // Overload protection: a bounded accept queue. Sweeps shed at
            // half depth — batch work yields headroom to interactive work
            // before anyone is refused outright.
            let cap = self.inner.cfg.max_pending;
            if cap > 0 {
                let limit = if matches!(req, JobRequest::Sweep { .. }) {
                    cap / 2
                } else {
                    cap
                };
                let pending = st.sched.queued();
                if pending >= limit.max(1) {
                    st.metrics.counter_add("serve.jobs.shed", 1);
                    let retry_after_ms = ((pending as u64) * 20).clamp(100, 2000);
                    return reject(
                        &mut st,
                        Rejection::new(
                            "overloaded",
                            format!("server overloaded ({pending} tasks queued, limit {limit})"),
                        )
                        .with_retry_after_ms(retry_after_ms),
                    );
                }
            }
            let active = st.tenants.get(tenant).map_or(0, |s| s.active) as usize;
            if active >= self.inner.cfg.quota.max_queued {
                return reject(
                    &mut st,
                    Rejection::new(
                        "quota-queued",
                        format!(
                            "tenant '{tenant}' already has {active} jobs in flight (max {})",
                            self.inner.cfg.quota.max_queued
                        ),
                    ),
                );
            }
        }
        let (mut work, lint_json) = match prepared {
            Ok(p) => p,
            Err(r) => return reject(&mut st, r),
        };

        // The coalescing/breaker identity, computed up front so the breaker
        // can veto before any state is allocated. Chaos jobs get their own
        // fingerprint space — they must never coalesce with real runs.
        let fingerprint = match &work {
            Work::Single(SingleWork {
                point,
                plan,
                trace: false,
                chaos,
            }) => {
                let fp = single_fingerprint(point, plan.as_ref());
                Some(if *chaos {
                    format!("chaos\u{0}{fp}")
                } else {
                    fp
                })
            }
            _ => None,
        };
        if gated {
            if let (Some(breaker), Some(fp)) = (st.breaker.as_mut(), fingerprint.as_ref()) {
                let (decision, transition) = breaker.admit(fp);
                if let Some(t) = transition {
                    self.inner
                        .flight
                        .record(0, "breaker", format!("fp={} {t}", fp8(fp)));
                }
                match decision {
                    BreakerDecision::Allow => {}
                    BreakerDecision::Probe => {
                        self.inner
                            .flight
                            .record(0, "breaker", format!("fp={} probe", fp8(fp)));
                    }
                    BreakerDecision::FastFail { retry_after_ms } => {
                        st.metrics.counter_add("serve.breaker.fastfail", 1);
                        return reject(
                            &mut st,
                            Rejection::new(
                                "circuit-open",
                                "circuit breaker open for this configuration \
                                 (repeated deadlocks/panics)",
                            )
                            .with_retry_after_ms(retry_after_ms),
                        );
                    }
                }
            }
            // Graceful degradation: under queue pressure, new sweeps take
            // the replay fast path — a cheaper answer beats a shed one.
            let pressure = self.inner.cfg.degrade_pressure;
            if pressure > 0 && st.sched.queued() >= pressure {
                if let Work::Sweep { replay, .. } = &mut work {
                    if !*replay {
                        *replay = true;
                        st.metrics.counter_add("serve.jobs.degraded", 1);
                        self.inner.flight.record(
                            0,
                            "admission",
                            "degrade sweep to replay".to_string(),
                        );
                    }
                }
            }
        }

        let id = match force_id {
            Some(id) => id,
            None => st.next_id,
        };
        st.next_id = st.next_id.max(id + 1);
        st.submit_seq += 1;
        let seq = st.submit_seq;
        st.metrics.counter_add("serve.jobs.submitted", 1);
        st.metrics.counter_add(&tenant_key(tenant, "submitted"), 1);
        st.tenants.entry(tenant.to_string()).or_default().active += 1;

        // Journal the admission before the job becomes runnable: a crash
        // after this line re-admits the job, a crash before it rejects the
        // submission — either way, never a silently lost job.
        if gated {
            if let Some(journal) = &self.inner.journal {
                let line = crate::wire::journal_admit_line(id, tenant, opts.deadline_ms, &req);
                if let Err(e) = journal.append(&line) {
                    eprintln!("salam-serve: warning: journal append failed: {e}");
                }
            }
        }

        let now = now_ns(&self.inner);
        let mut record = JobRecord {
            tenant: tenant.to_string(),
            kind: req.kind(),
            state: JobState::Queued,
            submit_seq: seq,
            complete_seq: None,
            work: Arc::new(work),
            outcome: None,
            lint_json,
            pending_chunks: 0,
            rows: Vec::new(),
            fingerprint: None,
            followers: Vec::new(),
            trace: None,
            job_span: SpanId::INVALID,
            queued_span: SpanId::INVALID,
            run_span: SpanId::INVALID,
            submitted_ns: now,
            first_dispatch_ns: None,
            postmortem: None,
            cancel: CancelToken::with_deadline_opt(opts.deadline_ms),
        };
        if self.inner.cfg.telemetry {
            let jt = JobTrace::new(id);
            record.job_span = jt.begin(jt.request, &format!("job {id} ({})", record.kind), now);
            record.trace = Some(jt);
        }
        self.inner.flight.record(
            TraceCtx::for_job(id).trace_id,
            "job",
            format!("submit id={id} tenant={tenant} kind={}", record.kind),
        );
        match record.work.as_ref() {
            Work::Single(_) => {
                // Coalesce onto an identical in-flight run: the follower
                // never takes a slot; it completes with the leader.
                let fp = fingerprint;
                record.fingerprint = fp.clone();
                let leader = fp.as_ref().and_then(|f| st.inflight.get(f).copied());
                if let Some(leader_id) = leader {
                    st.metrics.counter_add("serve.jobs.coalesced", 1);
                    st.metrics.counter_add(&tenant_key(tenant, "coalesced"), 1);
                    if let Some(jt) = record.trace.clone() {
                        jt.instant(jt.request, "coalesced", now);
                    }
                    st.jobs.insert(id, record);
                    st.jobs
                        .get_mut(&leader_id)
                        .expect("leader exists while in inflight map")
                        .followers
                        .push(id);
                } else {
                    if let Some(f) = fp {
                        st.inflight.insert(f, id);
                    }
                    if let Some(jt) = record.trace.clone() {
                        jt.instant(jt.request, "admitted", now);
                        record.queued_span = jt.begin(jt.sched, "queued", now);
                    }
                    st.jobs.insert(id, record);
                    st.sched.push(Task {
                        job: id,
                        tenant: tenant.to_string(),
                        class: Class::Regular,
                        chunk: 0,
                        seq,
                        tenant_slots: self.inner.cfg.quota.max_running,
                    });
                }
            }
            Work::Sweep { chunks, points, .. } => {
                record.pending_chunks = chunks.len();
                record.rows = vec![None; points.len()];
                let n = chunks.len();
                if let Some(jt) = record.trace.clone() {
                    jt.instant(jt.request, "admitted", now);
                    record.queued_span = jt.begin(jt.sched, "queued", now);
                }
                st.jobs.insert(id, record);
                for chunk in 0..n {
                    st.sched.push(Task {
                        job: id,
                        tenant: tenant.to_string(),
                        class: Class::Cpu,
                        chunk,
                        seq,
                        tenant_slots: self.inner.cfg.quota.max_running,
                    });
                }
            }
        }
        drop(st);
        self.inner.cvar.notify_all();
        Ok(id)
    }

    /// Validates and lowers a request outside the state lock.
    #[allow(clippy::type_complexity)]
    fn prepare(&self, req: &JobRequest) -> Result<(Work, Option<String>), Rejection> {
        let gate_ir = |kernel: &machsuite::BuiltKernel| -> Result<Option<String>, Rejection> {
            if !self.inner.cfg.verify {
                return Ok(None);
            }
            let diags = verify_ir(&kernel.func);
            let errors = errors_only(diags.clone());
            if !errors.is_empty() {
                return Err(Rejection {
                    code: "verify",
                    message: format!(
                        "static verification rejected @{} ({} error(s))",
                        kernel.name,
                        errors.len()
                    ),
                    diagnostics: errors,
                    retry_after_ms: None,
                });
            }
            // Flow gate: a range-proven out-of-bounds access (`F001`) is a
            // wrong result on every path, so the job is rejected before it
            // ever occupies a batch slot.
            let facts = salam_flow::analyze(&kernel.func, &kernel.args);
            let (lo, hi) = kernel.footprint;
            let region = salam_verify::MemRegion {
                lo,
                hi,
                label: "footprint".into(),
            };
            let flow_errors = errors_only(salam_verify::check_bounds_flow(
                &kernel.func,
                &facts,
                &kernel.args,
                &[region],
            ));
            if !flow_errors.is_empty() {
                return Err(Rejection {
                    code: "flow",
                    message: format!(
                        "dataflow analysis rejected @{} ({} provably out-of-bounds \
                         access(es))",
                        kernel.name,
                        flow_errors.len()
                    ),
                    diagnostics: flow_errors,
                    retry_after_ms: None,
                });
            }
            Ok((warning_count(&diags) > 0).then(|| diags_to_json(&diags)))
        };
        let single = |bench: &str, knobs: &[(String, u64)]| {
            let b = bench_by_id(bench).ok_or_else(|| {
                Rejection::new("bad-request", format!("unknown benchmark '{bench}'"))
            })?;
            let config = config_from_knobs(knobs).map_err(|m| Rejection::new("bad-request", m))?;
            let point = StandalonePoint {
                kernel: KernelSpec::bench(b),
                config,
                coords: Vec::new(),
            };
            // The same static screen the sweep engine applies per point.
            point.validate().map_err(|d| Rejection {
                code: "invalid-config",
                message: d.message.clone(),
                diagnostics: vec![d],
                retry_after_ms: None,
            })?;
            let lint = gate_ir(&point.kernel.build())?;
            Ok((point, lint))
        };
        match req {
            JobRequest::Kernel {
                bench,
                knobs,
                trace,
            } => {
                // Chaos mode only: `__chaos-panic` runs a stand-in kernel
                // whose worker panics while the injected budget lasts.
                let chaos = self.inner.cfg.chaos && bench == "__chaos-panic";
                let (point, lint) = single(if chaos { "gemm" } else { bench }, knobs)?;
                Ok((
                    Work::Single(SingleWork {
                        point: Box::new(point),
                        plan: None,
                        trace: *trace,
                        chaos,
                    }),
                    lint,
                ))
            }
            JobRequest::Faulted { bench, knobs, plan } => {
                let (point, lint) = single(bench, knobs)?;
                // Flow gate: a plan that certainly drops every memory
                // response wedges the very first access — the run can only
                // end in a watchdog timeout, so burning a simulation slot
                // on it is pointless (`F004`).
                if self.inner.cfg.verify && plan.mem_drop_rate >= 1.0 {
                    let k = point.kernel.build();
                    let facts = salam_flow::analyze(&k.func, &k.args);
                    let pred = facts.predict_deadlock(
                        &k.func,
                        &salam_flow::HazardSpec {
                            mem_drop_rate: plan.mem_drop_rate,
                        },
                    );
                    if pred.verdict == salam_flow::DeadlockVerdict::Deadlock {
                        return Err(Rejection {
                            code: "flow-deadlock",
                            message: format!(
                                "fault plan provably deadlocks @{}: {}",
                                k.name, pred.description
                            ),
                            diagnostics: vec![salam_verify::Diagnostic::warning(
                                salam_verify::codes::F004,
                                salam_verify::Span::default(),
                                pred.description,
                            )],
                            retry_after_ms: None,
                        });
                    }
                }
                Ok((
                    Work::Single(SingleWork {
                        point: Box::new(point),
                        plan: Some(*plan),
                        trace: false,
                        chaos: false,
                    }),
                    lint,
                ))
            }
            JobRequest::Sweep {
                name,
                kernels,
                axes,
                replay,
            } => {
                if kernels.is_empty() {
                    return Err(Rejection::new("bad-request", "sweep has no kernels"));
                }
                let mut spec = SweepSpec::new(name.clone(), StandaloneConfig::default());
                let mut lint = None;
                for k in kernels {
                    let b = bench_by_id(k).ok_or_else(|| {
                        Rejection::new("bad-request", format!("unknown benchmark '{k}'"))
                    })?;
                    lint = gate_ir(&b.build_standard())?.or(lint);
                    spec = spec.kernel(KernelSpec::bench(b));
                }
                for ax in axes {
                    let axis = ax.to_axis().map_err(|m| Rejection::new("bad-request", m))?;
                    spec = spec.axis(axis);
                }
                let count = spec.point_count();
                let max = self.inner.cfg.quota.max_sweep_points;
                if count > max {
                    return Err(Rejection::new(
                        "quota-sweep-points",
                        format!("sweep enumerates {count} points (max {max})"),
                    ));
                }
                let points = spec.points();
                let chunk = self.inner.cfg.sweep_chunk.max(1);
                let chunks: Vec<(usize, usize)> = (0..points.len())
                    .step_by(chunk)
                    .map(|a| (a, (a + chunk).min(points.len())))
                    .collect();
                Ok((
                    Work::Sweep {
                        name: name.clone(),
                        points,
                        chunks,
                        replay: *replay,
                    },
                    lint,
                ))
            }
        }
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
            TraceCtx::for_job(id).trace_id,
            "job",
            format!("cancel id={id} state={}", state.name()),
        );
        let cancelled_now = JobOutcome::Error {
            label: "cancelled".to_string(),
            message: "cancelled before the run started".to_string(),
        };
        match work.as_ref() {
            Work::Sweep { .. } => {
                if state == JobState::Queued {
                    // No chunk has a slot yet: drop the queued tasks and
                    // finish immediately.
                    st.sched.remove_job(id);
                    finish_job(
                        &mut st,
                        &self.inner,
                        id,
                        cancelled_now,
                        false,
                        &SingleExtras::NONE,
                    );
                } else {
                    // Running chunks stop at their next boundary; queued
                    // chunks observe the token at dispatch and skip.
                    token.cancel();
                }
            }
            Work::Single(_) => {
                let is_leader = match fp.as_ref() {
                    Some(f) => st.inflight.get(f) == Some(&id),
                    // Uncoalescable (traced) singles own their task.
                    None => true,
                };
                if !is_leader {
                    // A follower: detach from its leader and finish alone.
                    let leader = fp.as_ref().and_then(|f| st.inflight.get(f).copied());
                    if let Some(l) = leader.and_then(|l| st.jobs.get_mut(&l)) {
                        l.followers.retain(|f| *f != id);
                    }
                    finish_job(
                        &mut st,
                        &self.inner,
                        id,
                        cancelled_now,
                        false,
                        &SingleExtras::NONE,
                    );
                } else if state == JobState::Queued {
                    st.sched.remove_job(id);
                    promote_follower(&mut st, &self.inner, id);
                    finish_job(
                        &mut st,
                        &self.inner,
                        id,
                        cancelled_now,
                        false,
                        &SingleExtras::NONE,
                    );
                } else {
                    // Running: stop the engine cooperatively; followers
                    // re-run under a promoted leader rather than inherit
                    // this job's cancellation.
                    promote_follower(&mut st, &self.inner, id);
                    token.cancel();
                }
            }
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
    /// completes or with telemetry off). Format, documented in DESIGN.md
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

    /// Per-class end-to-end latency percentiles as JSON — the payload the
    /// `salam_serve --bench-out` flag writes at shutdown for CI's workflow
    /// artifact.
    pub fn latency_summary_json(&self) -> String {
        let st = self.inner.state.lock().unwrap();
        let block = |h: &Histogram| {
            format!(
                "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            )
        };
        let mut classes = String::new();
        for (key, metric) in st.metrics.iter() {
            let Metric::Hist(h) = metric else {
                continue;
            };
            let Some(class) = key
                .strip_prefix("serve.latency.e2e_us{class=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            else {
                continue;
            };
            if !classes.is_empty() {
                classes.push_str(", ");
            }
            classes.push_str(&format!("\"{}\": {}", json::escape(class), block(h)));
        }
        let total = st
            .metrics
            .hist("serve.latency.e2e_us")
            .map_or_else(|| block(&Histogram::new()), block);
        format!("{{\"total\": {total}, \"classes\": {{{classes}}}}}")
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

/// The coalescing identity of one single run: the cache identity plus the
/// fault-plan fingerprint (a faulted run must never coalesce with a clean
/// one).
fn single_fingerprint(point: &StandalonePoint, plan: Option<&FaultPlan>) -> String {
    let id = point.cache_id();
    match plan {
        None => format!("{}\u{0}{}", id.domain, id.canon),
        Some(p) => format!("{}\u{0}{}\u{0}{}", id.domain, id.canon, p.canonical_repr()),
    }
}

/// The cache identity of a faulted single run: its own domain so clean and
/// faulted results can never shadow each other.
fn faulted_cache_id(point: &StandalonePoint, plan: &FaultPlan) -> CacheId {
    CacheId::new(
        format!("serve-faulted/{}", point.kernel.id),
        format!(
            "{}\nfault: {}",
            point.config.canonical_repr(),
            plan.canonical_repr()
        ),
    )
}

/// Short hex digest of a fingerprint for breaker log / flight lines.
fn fp8(fp: &str) -> String {
    format!(
        "{:08x}",
        (salam_resilience::fnv1a64(fp.as_bytes()) >> 32) as u32
    )
}

/// Promotes the first follower of a coalesced single to leader: it takes
/// over the in-flight entry, inherits the remaining followers, and gets
/// its own scheduler task (re-running the simulation fresh — it must not
/// inherit the old leader's cancellation). With no followers, the
/// in-flight entry is simply dropped so later identical submissions start
/// fresh rather than coalescing onto a cancelled job.
fn promote_follower(st: &mut State, inner: &Inner, leader: JobId) {
    let (mut followers, fp) = {
        let Some(l) = st.jobs.get_mut(&leader) else {
            return;
        };
        (std::mem::take(&mut l.followers), l.fingerprint.take())
    };
    let Some(fp) = fp else {
        return;
    };
    if st.inflight.get(&fp) == Some(&leader) {
        st.inflight.remove(&fp);
    }
    if followers.is_empty() {
        return;
    }
    let new_leader = followers.remove(0);
    let (tenant, seq) = {
        let Some(n) = st.jobs.get_mut(&new_leader) else {
            return;
        };
        n.followers = followers;
        (n.tenant.clone(), n.submit_seq)
    };
    st.inflight.insert(fp, new_leader);
    st.sched.push(Task {
        job: new_leader,
        tenant,
        class: Class::Regular,
        chunk: 0,
        seq,
        tenant_slots: inner.cfg.quota.max_running,
    });
    inner.flight.record(
        TraceCtx::for_job(new_leader).trace_id,
        "job",
        format!("promote id={new_leader} from={leader}"),
    );
}

fn worker_loop(inner: &Inner) {
    loop {
        let dispatched: Dispatched = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(d) = st.sched.dispatch() {
                    on_dispatch(&mut st, inner, &d.task);
                    break d;
                }
                st = inner.cvar.wait(st).unwrap();
            }
        };
        let ctx = {
            let st = inner.state.lock().unwrap();
            st.jobs
                .get(&dispatched.task.job)
                .map(|j| (j.work.clone(), j.cancel.clone()))
        };
        let Some((work, cancel)) = ctx else {
            // Job vanished (a dispatched task's job is never evicted while
            // non-terminal, so this is belt-and-braces) — return the slot.
            let mut st = inner.state.lock().unwrap();
            st.sched.task_done(&dispatched);
            inner.cvar.notify_all();
            continue;
        };
        match work.as_ref() {
            Work::Single(single) => {
                let run = run_single(inner, dispatched.task.job, single, &cancel);
                let mut st = inner.state.lock().unwrap();
                st.metrics.counter_add(
                    if run.from_cache {
                        "serve.cache_hits"
                    } else {
                        "serve.sim_runs"
                    },
                    1,
                );
                let extras = SingleExtras {
                    watchdog_json: run.watchdog_json.as_deref(),
                    engine_rec: run.engine_rec.as_ref(),
                };
                complete_single(
                    &mut st,
                    inner,
                    dispatched.task.job,
                    run.outcome,
                    run.from_cache,
                    &extras,
                );
                st.sched.task_done(&dispatched);
                drop(st);
                inner.cvar.notify_all();
            }
            Work::Sweep {
                points,
                chunks,
                replay,
                ..
            } => {
                let (a, b) = chunks[dispatched.task.chunk];
                // Cooperative cancellation between chunks: a stopped job's
                // remaining chunks record skipped rows instead of running.
                if let Some(reason) = cancel.poll() {
                    let mut st = inner.state.lock().unwrap();
                    record_chunk_skipped(
                        &mut st,
                        inner,
                        dispatched.task.job,
                        work.as_ref(),
                        a,
                        b,
                        reason,
                    );
                    st.sched.task_done(&dispatched);
                    drop(st);
                    inner.cvar.notify_all();
                    continue;
                }
                if *replay {
                    let opts = ReplayOptions {
                        inner: chunk_options(inner),
                        check: false,
                    };
                    let run = run_replay_sweep(&points[a..b], &StandaloneConfig::default(), &opts);
                    let engines: Vec<EngineKind> =
                        run.provenance.iter().map(|p| p.engine).collect();
                    let mut st = inner.state.lock().unwrap();
                    st.metrics.counter_add("serve.cache_hits", run.hits as u64);
                    st.metrics
                        .counter_add("serve.sim_runs", (run.misses + run.baseline_misses) as u64);
                    record_chunk(
                        &mut st,
                        inner,
                        dispatched.task.job,
                        work.as_ref(),
                        a,
                        &run.outcomes,
                        Some(&engines),
                    );
                    st.sched.task_done(&dispatched);
                    drop(st);
                } else {
                    let run = run_sweep(&points[a..b], &chunk_options(inner));
                    let mut st = inner.state.lock().unwrap();
                    st.metrics.counter_add("serve.cache_hits", run.hits as u64);
                    st.metrics
                        .counter_add("serve.sim_runs", (run.misses + run.corrupt) as u64);
                    if inner.cfg.telemetry {
                        // Per-point telemetry (dse.point.cycles, hit/miss
                        // counters) folds into the server registry; the
                        // histogram contents are a pure function of the
                        // point set, so chunking cannot perturb them.
                        st.metrics.merge_from(&run.telemetry);
                    }
                    record_chunk(
                        &mut st,
                        inner,
                        dispatched.task.job,
                        work.as_ref(),
                        a,
                        &run.outcomes,
                        None,
                    );
                    st.sched.task_done(&dispatched);
                    drop(st);
                }
                inner.cvar.notify_all();
            }
        }
    }
}

fn chunk_options(inner: &Inner) -> DseOptions {
    // One worker per chunk: parallelism comes from the serve slot pool, and
    // a chunk must not oversubscribe the machine behind the scheduler's
    // back.
    let mut opts = DseOptions::default().with_workers(1);
    match (&inner.cache, &inner.cfg.cache_dir) {
        (None, _) => opts = opts.without_cache(),
        (Some(cache), _) => {
            opts = opts.with_cache_dir(cache.dir());
            if let Some(cap) = cache.max_bytes() {
                opts = opts.with_cache_max_bytes(cap);
            }
        }
    }
    opts
}

/// What one single run produced, beyond its outcome: whether the cache
/// served it, the watchdog snapshot when it deadlocked (post-mortem
/// material), and the engine's op-level trace recorder when it was traced.
struct SingleRun {
    outcome: JobOutcome,
    from_cache: bool,
    watchdog_json: Option<String>,
    engine_rec: Option<TraceRecorder>,
}

/// Borrowed post-run context threaded into job completion so the
/// terminal-telemetry hook can compose trace and post-mortem artifacts.
struct SingleExtras<'a> {
    watchdog_json: Option<&'a str>,
    engine_rec: Option<&'a TraceRecorder>,
}

impl SingleExtras<'_> {
    const NONE: SingleExtras<'static> = SingleExtras {
        watchdog_json: None,
        engine_rec: None,
    };
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

/// Executes one single run — cache probe, simulate under `catch_unwind`
/// (with bounded, backoff-spaced retries on panic), store — and returns
/// the outcome plus its telemetry by-products.
fn run_single(inner: &Inner, job: JobId, work: &SingleWork, cancel: &CancelToken) -> SingleRun {
    let SingleWork {
        point,
        plan,
        trace,
        chaos,
    } = work;
    let (plan, trace, chaos) = (plan.as_ref(), *trace, *chaos);
    let trace_id = TraceCtx::for_job(job).trace_id;
    if let Some(reason) = cancel.poll() {
        return SingleRun {
            outcome: stop_outcome(reason, "before the run started"),
            from_cache: false,
            watchdog_json: None,
            engine_rec: None,
        };
    }
    let cache_id = match plan {
        None => point.cache_id(),
        Some(p) => faulted_cache_id(point, p),
    };
    // Traced runs bypass the cache: the report would hit, but the trace
    // artifact only exists by simulating. Chaos runs bypass it so the
    // injected panic actually fires.
    let cache = inner.cache.as_ref().filter(|_| !trace && !chaos);
    if let Some(cache) = cache {
        if let Lookup::Hit(report) = cache.lookup::<salam::RunReport>(&cache_id) {
            return SingleRun {
                outcome: report_outcome(&report, None),
                from_cache: true,
                watchdog_json: None,
                engine_rec: None,
            };
        }
    }
    // The backoff site: retries of the same configuration follow the same
    // deterministic jittered schedule no matter which worker runs them.
    let site = format!("{}/{}", cache_id.domain, cache_id.canon);
    let mut attempts = 0u32;
    loop {
        let mut shared = if trace {
            salam_obs::SharedTrace::enabled()
        } else {
            salam_obs::SharedTrace::disabled()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if chaos
                && inner
                    .chaos_budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                    .is_ok()
            {
                panic!("chaos: injected worker panic");
            }
            let opts = RunOptions {
                trace: shared.clone(),
                fault: plan.copied(),
                flight: inner.flight.clone(),
                trace_id,
                cancel: cancel.clone(),
            };
            salam::standalone::run(&point.kernel.build(), &point.config, &opts)
        }));
        let mut watchdog_json = None;
        let outcome = match result {
            Ok(Ok(report)) => {
                if let Some(cache) = cache {
                    if let Err(e) = cache.store(&cache_id, &report) {
                        eprintln!("salam-serve: warning: cache store failed: {e}");
                    }
                }
                report_outcome(&report, None)
            }
            Ok(Err(sim_err)) => {
                if let salam::SimError::Deadlock(snap) = &sim_err {
                    watchdog_json = Some(snap.to_json());
                }
                JobOutcome::Error {
                    label: sim_err.label().to_string(),
                    message: sim_err.to_string(),
                }
            }
            Err(payload) => {
                if attempts < inner.cfg.retries && cancel.poll().is_none() {
                    attempts += 1;
                    let delay = inner.cfg.backoff.delay_ms(&site, attempts);
                    inner.flight.record(
                        trace_id,
                        "retry",
                        format!("retry id={job} attempt={attempts} delay_ms={delay}"),
                    );
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                    continue;
                }
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                JobOutcome::Error {
                    label: "panic".to_string(),
                    message: msg.lines().next().unwrap_or("panic").to_string(),
                }
            }
        };
        return SingleRun {
            outcome,
            from_cache: false,
            watchdog_json,
            engine_rec: shared.take_recorder(),
        };
    }
}

fn report_outcome(report: &salam::RunReport, trace_json: Option<String>) -> JobOutcome {
    JobOutcome::Report {
        json: report.to_json(),
        cycles: report.cycles,
        verified: report.verified,
        bottleneck: report.dominant_bottleneck().to_string(),
        trace_json,
    }
}

/// Telemetry at the moment a task first takes a slot: ends the queued
/// span, opens the run span with a flow edge, and records the queue-wait
/// histogram. Runs under the state lock, on the first dispatch only
/// (later sweep chunks of the same job skip it).
fn on_dispatch(st: &mut State, inner: &Inner, task: &Task) {
    let now = now_ns(inner);
    let Some(j) = st.jobs.get_mut(&task.job) else {
        return;
    };
    j.state = JobState::Running;
    if j.first_dispatch_ns.is_some() {
        return;
    }
    j.first_dispatch_ns = Some(now);
    let wait_us = now.saturating_sub(j.submitted_ns) / 1_000;
    if let Some(jt) = j.trace.clone() {
        jt.end(j.queued_span, now);
        let run = jt.begin(jt.run, "run", now);
        jt.flow(j.queued_span, run, "dispatch", now);
        j.queued_span = SpanId::INVALID;
        j.run_span = run;
    }
    let (kind, tenant) = (j.kind, j.tenant.clone());
    if inner.cfg.telemetry {
        let t = &mut st.metrics;
        t.record("serve.latency.queue_us", wait_us);
        t.record(
            &labeled("serve.latency.queue_us", &[("class", kind)]),
            wait_us,
        );
        t.record(
            &labeled("serve.latency.queue_us", &[("tenant", &tenant)]),
            wait_us,
        );
    }
    inner.flight.record(
        TraceCtx::for_job(task.job).trace_id,
        "sched",
        format!("dispatch id={} class={kind} wait_us={wait_us}", task.job),
    );
}

/// How many trailing flight-recorder events a post-mortem carries.
const POSTMORTEM_FLIGHT_EVENTS: usize = 256;

/// Telemetry at the moment a job goes terminal: closes its lifecycle
/// spans, records the run/end-to-end latency histograms, attaches the
/// span-tree trace to successful reports, and — on failure — composes the
/// post-mortem artifact from the flight recorder and (for deadlocks) the
/// watchdog snapshot.
fn job_terminal(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    failed: bool,
    outcome: &mut JobOutcome,
    extras: &SingleExtras,
) {
    let now = now_ns(inner);
    let Some(j) = st.jobs.get_mut(&id) else {
        return;
    };
    if let Some(jt) = j.trace.clone() {
        jt.end(j.queued_span, now);
        jt.end(j.run_span, now);
        j.queued_span = SpanId::INVALID;
        j.run_span = SpanId::INVALID;
        jt.instant(jt.request, if failed { "failed" } else { "done" }, now);
        jt.end(j.job_span, now);
        j.job_span = SpanId::INVALID;
        if let JobOutcome::Report { trace_json, .. } = outcome {
            let extra: Vec<&TraceRecorder> = extras.engine_rec.into_iter().collect();
            *trace_json = Some(jt.export_chrome(&extra));
        }
    } else if let JobOutcome::Report { trace_json, .. } = outcome {
        // Telemetry off: the trace artifact (for jobs that asked to be
        // traced) is the engine recorder alone, as before PR 8.
        if trace_json.is_none() {
            *trace_json = extras.engine_rec.map(salam_obs::export_chrome_json);
        }
    }
    let trace_id = TraceCtx::for_job(id).trace_id;
    if failed && inner.cfg.telemetry {
        if let JobOutcome::Error { label, message } = &*outcome {
            j.postmortem = Some(format!(
                "{{\"job\": {id}, \"trace_id\": \"{trace_id:016x}\", \"label\": \"{}\", \
                 \"message\": \"{}\", \"watchdog\": {}, \"flight\": {}}}",
                json::escape(label),
                json::escape(message),
                extras.watchdog_json.unwrap_or("null"),
                inner.flight.tail_json(POSTMORTEM_FLIGHT_EVENTS),
            ));
        }
    }
    let (kind, tenant, submitted, first_dispatch) = (
        j.kind,
        j.tenant.clone(),
        j.submitted_ns,
        j.first_dispatch_ns,
    );
    if inner.cfg.telemetry {
        let t = &mut st.metrics;
        let e2e_us = now.saturating_sub(submitted) / 1_000;
        t.record("serve.latency.e2e_us", e2e_us);
        t.record(&labeled("serve.latency.e2e_us", &[("class", kind)]), e2e_us);
        t.record(
            &labeled("serve.latency.e2e_us", &[("tenant", &tenant)]),
            e2e_us,
        );
        if let Some(t0) = first_dispatch {
            let run_us = now.saturating_sub(t0) / 1_000;
            t.record("serve.latency.run_us", run_us);
            t.record(&labeled("serve.latency.run_us", &[("class", kind)]), run_us);
        }
    }
    inner.flight.record(
        trace_id,
        "job",
        format!(
            "finish id={id} state={}",
            if failed { "failed" } else { "done" }
        ),
    );
}

/// Records a single run's outcome and completes the job together with any
/// coalesced followers.
fn complete_single(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    outcome: JobOutcome,
    leader_from_cache: bool,
    extras: &SingleExtras,
) {
    let (followers, fp) = {
        let Some(j) = st.jobs.get_mut(&id) else {
            return;
        };
        (std::mem::take(&mut j.followers), j.fingerprint.take())
    };
    if let Some(fp) = &fp {
        // A promoted follower may own the entry by now — remove only our
        // own registration.
        if st.inflight.get(fp) == Some(&id) {
            st.inflight.remove(fp);
        }
        // Circuit-breaker verdict: real runs only (a cache hit proves
        // nothing new), deadlock/panic count as failures, a report as
        // success; cancellations and timeouts are neutral.
        if !leader_from_cache {
            if let Some(b) = st.breaker.as_mut() {
                let transition = match &outcome {
                    JobOutcome::Report { .. } => b.on_success(fp),
                    JobOutcome::Error { label, .. } if label == "deadlock" || label == "panic" => {
                        b.on_failure(fp)
                    }
                    _ => None,
                };
                if let Some(t) = transition {
                    inner
                        .flight
                        .record(0, "breaker", format!("fp={} {t}", fp8(fp)));
                }
            }
        }
    }
    // A follower is a cache hit exactly when its leader's result was one:
    // coalescing is already counted separately at submit.
    for f in followers {
        finish_job(st, inner, f, outcome.clone(), leader_from_cache, extras);
    }
    finish_job(st, inner, id, outcome, leader_from_cache, extras);
}

/// Marks one job terminal with `outcome` and retires it. Idempotent: a
/// job that is already terminal (e.g. cancelled while its worker was still
/// finishing) is left untouched — no double counting, no outcome
/// overwrite.
fn finish_job(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    mut outcome: JobOutcome,
    hit: bool,
    extras: &SingleExtras,
) {
    match st.jobs.get(&id) {
        Some(j) if !j.state.is_terminal() => {}
        _ => return,
    }
    st.complete_seq += 1;
    let seq = st.complete_seq;
    let failed = matches!(outcome, JobOutcome::Error { .. });
    if let JobOutcome::Error { label, .. } = &outcome {
        if label == "cancelled" || label == "timeout" {
            st.metrics.counter_add(&format!("serve.jobs.{label}"), 1);
        }
    }
    job_terminal(st, inner, id, failed, &mut outcome, extras);
    let Some(j) = st.jobs.get_mut(&id) else {
        return;
    };
    j.state = if failed {
        JobState::Failed
    } else {
        JobState::Done
    };
    j.complete_seq = Some(seq);
    j.outcome = Some(outcome);
    let tenant = j.tenant.clone();
    retire(st, &tenant, id, failed, hit);
    // The journal's terminal record: after this line a restart will not
    // re-admit the job.
    if let Some(journal) = &inner.journal {
        if let Err(e) = journal.append(&crate::wire::journal_terminal_line(id)) {
            eprintln!("salam-serve: warning: journal append failed: {e}");
        }
    }
}

/// Bookkeeping for a job that just went terminal: lifetime and tenant
/// counters, the retention queue, and eviction of the oldest terminal
/// records past the cap. Evicted ids only ever leave the job table —
/// `inflight` holds non-terminal leaders, so it never references them.
fn retire(st: &mut State, tenant: &str, id: JobId, failed: bool, hit: bool) {
    let m = &mut st.metrics;
    if failed {
        m.counter_add("serve.jobs.failed", 1);
        m.counter_add(&tenant_key(tenant, "failed"), 1);
    } else {
        m.counter_add("serve.jobs.done", 1);
        m.counter_add(&tenant_key(tenant, "completed"), 1);
    }
    if hit {
        m.counter_add(&tenant_key(tenant, "cache_hits"), 1);
    }
    let retain = st.retain_terminal;
    let stats = st.tenants.entry(tenant.to_string()).or_default();
    stats.active = stats.active.saturating_sub(1);
    stats.terminal.push_back(id);
    let mut evicted = Vec::new();
    while stats.terminal.len() > retain {
        let Some(old) = stats.terminal.pop_front() else {
            break;
        };
        evicted.push(old);
    }
    for old in evicted {
        st.jobs.remove(&old);
    }
}

/// Folds one finished chunk into its sweep job; assembles the table when
/// the last chunk lands.
fn record_chunk(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    work: &Work,
    start: usize,
    outcomes: &[PointOutcome<salam::RunReport>],
    engines: Option<&[EngineKind]>,
) {
    let Work::Sweep { points, .. } = work else {
        return;
    };
    {
        let Some(j) = st.jobs.get_mut(&id) else {
            return;
        };
        for (i, outcome) in outcomes.iter().enumerate() {
            let point = &points[start + i];
            let engine = engines
                .map(|e| e[i].label().to_string())
                .unwrap_or_default();
            let row = match outcome.payload() {
                Some(r) => PointRow {
                    label: point.label(),
                    cycles: r.cycles.to_string(),
                    status: "ok".to_string(),
                    engine,
                    ok: true,
                    invalid: false,
                },
                None => PointRow {
                    label: point.label(),
                    cycles: String::new(),
                    status: outcome.failure_label().unwrap_or_default(),
                    engine,
                    ok: false,
                    invalid: outcome.invalid().is_some(),
                },
            };
            j.rows[start + i] = Some(row);
        }
    }
    chunk_done(st, inner, id, work);
}

/// Folds one *skipped* chunk (cancelled/deadline-stopped job) into its
/// sweep: the points record the stop reason instead of running.
fn record_chunk_skipped(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    work: &Work,
    start: usize,
    end: usize,
    reason: StopReason,
) {
    let Work::Sweep { points, .. } = work else {
        return;
    };
    inner.flight.record(
        TraceCtx::for_job(id).trace_id,
        "sched",
        format!(
            "skip id={id} points={}..{end} reason={}",
            start,
            reason.label()
        ),
    );
    {
        let Some(j) = st.jobs.get_mut(&id) else {
            return;
        };
        for (i, point) in points.iter().enumerate().take(end).skip(start) {
            j.rows[i] = Some(PointRow {
                label: point.label(),
                cycles: String::new(),
                status: reason.label().to_string(),
                engine: String::new(),
                ok: false,
                invalid: false,
            });
        }
    }
    chunk_done(st, inner, id, work);
}

/// One chunk (run or skipped) is accounted for; when it was the last, the
/// deterministic artifact is assembled and the job finished.
fn chunk_done(st: &mut State, inner: &Inner, id: JobId, work: &Work) {
    let Work::Sweep { name, replay, .. } = work else {
        return;
    };
    let Some(j) = st.jobs.get_mut(&id) else {
        return;
    };
    j.pending_chunks -= 1;
    if j.pending_chunks > 0 {
        return;
    }

    // Last chunk: assemble the deterministic artifact. Cache/worker/wall
    // telemetry is deliberately excluded so the same submitted sweep is
    // byte-identical regardless of slot count, arrival order, or cache
    // warmth. The `engine` column exists only on replay sweeps, keeping
    // plain sweep artifacts byte-identical to previous releases.
    let columns: &[&str] = if *replay {
        &["point", "cycles", "status", "engine"]
    } else {
        &["point", "cycles", "status"]
    };
    let mut table = SweepTable::new(name.clone(), columns);
    let (mut ok, mut failed, mut invalid) = (0usize, 0usize, 0usize);
    let mut replayed = 0usize;
    let (mut stopped_cancel, mut stopped_timeout) = (0usize, 0usize);
    for row in j.rows.iter().flatten() {
        if row.ok {
            ok += 1;
        } else if row.invalid {
            invalid += 1;
        } else {
            failed += 1;
        }
        match row.status.as_str() {
            "cancelled" => stopped_cancel += 1,
            "timeout" => stopped_timeout += 1,
            _ => {}
        }
        if row.engine == "replay" {
            replayed += 1;
        }
        let mut cells = vec![row.label.clone(), row.cycles.clone(), row.status.clone()];
        if *replay {
            cells.push(row.engine.clone());
        }
        table.row(cells);
    }
    let total = j.rows.len();
    let mut summary = vec![
        ("points".into(), total.to_string()),
        ("ok".into(), ok.to_string()),
        ("failed".into(), failed.to_string()),
        ("invalid".into(), invalid.to_string()),
    ];
    if *replay {
        summary.push(("replayed".into(), replayed.to_string()));
    }
    table.set_summary(summary);
    // A stopped sweep is typed by its stop reason, not by a partial table:
    // clients keying on the outcome see `cancelled`/`timeout` directly.
    let outcome = if stopped_cancel + stopped_timeout > 0 {
        let label = if stopped_timeout > 0 {
            "timeout"
        } else {
            "cancelled"
        };
        JobOutcome::Error {
            label: label.to_string(),
            message: format!(
                "sweep stopped: {} of {total} points skipped",
                stopped_cancel + stopped_timeout
            ),
        }
    } else {
        JobOutcome::Sweep {
            csv: table.to_csv(),
            json: table.to_json(),
            points: total,
            ok,
            failed,
            invalid,
        }
    };
    finish_job(st, inner, id, outcome, false, &SingleExtras::NONE);
}
