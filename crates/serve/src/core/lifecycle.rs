//! The job lifecycle after admission: the worker loop and dispatch,
//! single runs and sweep chunks, terminal handling and retirement.

use super::*;

/// Promotes the first follower of a coalesced single to leader: it takes
/// over the in-flight entry, inherits the remaining followers, and gets
/// its own scheduler task (re-running the simulation fresh — it must not
/// inherit the old leader's cancellation). With no followers, the
/// in-flight entry is simply dropped so later identical submissions start
/// fresh rather than coalescing onto a cancelled job.
pub(super) fn promote_follower(st: &mut State, inner: &Inner, leader: JobId) {
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
        trace_id(new_leader),
        "job",
        format!("promote id={new_leader} from={leader}"),
    );
}

pub(super) fn worker_loop(inner: &Inner) {
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
                let job = dispatched.task.job;
                let (a, b) = chunks[dispatched.task.chunk];
                // Cooperative cancellation between chunks: a stopped job's
                // remaining chunks record skipped rows instead of running.
                let (rows, delta) = match cancel.poll() {
                    Some(reason) => {
                        inner.flight.record(
                            trace_id(job),
                            "sched",
                            format!("skip id={job} points={a}..{b} reason={}", reason.label()),
                        );
                        let label = || Err(reason.label().to_string());
                        let rows = points[a..b]
                            .iter()
                            .map(|p| point_row(p, label(), None, *replay))
                            .collect();
                        (rows, MetricsRegistry::new())
                    }
                    None => run_chunk(inner, &points[a..b], *replay),
                };
                let mut st = inner.state.lock().unwrap();
                st.metrics.merge_from(&delta);
                record_chunk(&mut st, inner, job, &work, a, rows);
                st.sched.task_done(&dispatched);
                drop(st);
                inner.cvar.notify_all();
            }
        }
    }
}

/// Runs one chunk through `salam-dse` — the replay fast path or a plain
/// sweep — and returns its rows plus what it adds to the server registry:
/// the cache counters and, for a plain sweep, the per-point telemetry
/// (`dse.point.cycles`, hit/miss counters). The histogram contents are a
/// pure function of the point set, so chunking cannot perturb them.
fn run_chunk(
    inner: &Inner,
    points: &[StandalonePoint],
    replay: bool,
) -> (Vec<Vec<String>>, MetricsRegistry) {
    let mut delta = MetricsRegistry::new();
    let (outcomes, engines, hits, sim_runs) = if replay {
        let opts = ReplayOptions {
            inner: chunk_options(inner),
            check: false,
        };
        let run = run_replay_sweep(points, &StandaloneConfig::default(), &opts);
        let engines = run.provenance.iter().map(|p| Some(p.engine)).collect();
        (
            run.outcomes,
            engines,
            run.hits,
            run.misses + run.corrupt + run.baseline_misses,
        )
    } else {
        let run = run_sweep(points, &chunk_options(inner));
        delta = run.telemetry;
        let engines = vec![None; points.len()];
        (run.outcomes, engines, run.hits, run.misses + run.corrupt)
    };
    delta.counter_add("serve.cache_hits", hits as u64);
    delta.counter_add("serve.sim_runs", sim_runs as u64);
    let rows = points
        .iter()
        .zip(&outcomes)
        .zip(engines)
        .map(|((point, outcome), engine)| {
            let result = match outcome.payload() {
                Some(r) => Ok(r.cycles),
                None => Err(outcome.failure_label().unwrap_or_default()),
            };
            point_row(point, result, engine, replay)
        })
        .collect();
    (rows, delta)
}

/// One sweep point's table row: `point, cycles, status` and, on replay
/// sweeps, `engine`. The status is `ok`, the point's failure label
/// (`failed:…`, `invalid:…`), or the stop label of a skipped chunk.
fn point_row(
    point: &StandalonePoint,
    result: Result<u64, String>,
    engine: Option<EngineKind>,
    replay: bool,
) -> Vec<String> {
    let (cycles, status) = match result {
        Ok(cycles) => (cycles.to_string(), "ok".to_string()),
        Err(label) => (String::new(), label),
    };
    let mut row = vec![point.label(), cycles, status];
    if replay {
        row.push(engine.map_or_else(String::new, |e| e.label().to_string()));
    }
    row
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
pub(super) struct SingleExtras<'a> {
    watchdog_json: Option<&'a str>,
    engine_rec: Option<&'a TraceRecorder>,
}

impl SingleExtras<'_> {
    pub(super) const NONE: SingleExtras<'static> = SingleExtras {
        watchdog_json: None,
        engine_rec: None,
    };
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
    let trace_id = trace_id(job);
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
    let now = now_ps(inner);
    let Some(j) = st.jobs.get_mut(&task.job) else {
        return;
    };
    j.state = JobState::Running;
    if j.first_dispatch_ps.is_some() {
        return;
    }
    j.first_dispatch_ps = Some(now);
    let wait_us = now.saturating_sub(j.submitted_ps) / 1_000_000;
    j.trace.end_span(j.queued_span, now);
    let run = j.trace.begin_span(j.tracks.run, "run", now);
    j.trace.edge(j.queued_span, run, "dispatch", now);
    j.queued_span = SpanId::INVALID;
    j.run_span = run;
    let (kind, tenant) = (j.kind, j.tenant.clone());
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
    inner.flight.record(
        trace_id(task.job),
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
    let now = now_ps(inner);
    let Some(j) = st.jobs.get_mut(&id) else {
        return;
    };
    for span in [j.queued_span, j.run_span] {
        j.trace.end_span(span, now);
    }
    j.queued_span = SpanId::INVALID;
    j.run_span = SpanId::INVALID;
    let end = if failed { "failed" } else { "done" };
    j.trace.instant(j.tracks.request, end, now);
    j.trace.end_span(j.job_span, now);
    j.job_span = SpanId::INVALID;
    match outcome {
        JobOutcome::Report { trace_json, .. } => {
            *trace_json = Some(export_trace(&j.trace, id, extras.engine_rec));
        }
        JobOutcome::Error { label, message } => {
            j.postmortem = Some(format!(
                "{{\"job\": {id}, \"trace_id\": \"{:016x}\", \"label\": \"{}\", \
                 \"message\": \"{}\", \"watchdog\": {}, \"flight\": {}}}",
                trace_id(id),
                json::escape(label),
                json::escape(message),
                extras.watchdog_json.unwrap_or("null"),
                inner.flight.tail_json(POSTMORTEM_FLIGHT_EVENTS),
            ));
        }
        JobOutcome::Sweep { .. } => {}
    }
    let (kind, tenant, submitted, first_dispatch) = (
        j.kind,
        j.tenant.clone(),
        j.submitted_ps,
        j.first_dispatch_ps,
    );
    let t = &mut st.metrics;
    let e2e_us = now.saturating_sub(submitted) / 1_000_000;
    t.record("serve.latency.e2e_us", e2e_us);
    t.record(&labeled("serve.latency.e2e_us", &[("class", kind)]), e2e_us);
    t.record(
        &labeled("serve.latency.e2e_us", &[("tenant", &tenant)]),
        e2e_us,
    );
    if let Some(t0) = first_dispatch {
        let run_us = now.saturating_sub(t0) / 1_000_000;
        t.record("serve.latency.run_us", run_us);
        t.record(&labeled("serve.latency.run_us", &[("class", kind)]), run_us);
    }
    inner
        .flight
        .record(trace_id(id), "job", format!("finish id={id} state={end}"));
}

/// A job's `trace` artifact: its lifecycle spans merged with the engine's
/// op-level recorder (when the job ran traced, its timestamps already
/// absolute), stamped with the job's trace id.
fn export_trace(trace: &SharedTrace, id: JobId, engine: Option<&TraceRecorder>) -> String {
    let mut merged = TraceRecorder::new(TraceRecorder::DEFAULT_CAPACITY);
    trace.with_recorder(|rec| merged.merge_from(rec));
    if let Some(rec) = engine {
        merged.merge_from(rec);
    }
    // Stamp the request identity where trace viewers (and the span table
    // in `salam_report --spans`) can find it.
    let meta = merged.track("request");
    merged.instant(meta, &format!("trace_id:{:016x}", trace_id(id)), 0);
    export_chrome_json(&merged)
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
pub(super) fn finish_job(
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

/// Folds one chunk's rows (run or skipped) into its sweep job; when it was
/// the last, assembles the deterministic artifact and finishes the job.
fn record_chunk(
    st: &mut State,
    inner: &Inner,
    id: JobId,
    work: &Work,
    start: usize,
    rows: Vec<Vec<String>>,
) {
    let Work::Sweep { name, replay, .. } = work else {
        return;
    };
    let Some(j) = st.jobs.get_mut(&id) else {
        return;
    };
    for (i, row) in rows.into_iter().enumerate() {
        j.rows[start + i] = Some(row);
    }
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
    let (mut replayed, mut stopped) = (0usize, 0usize);
    let mut timed_out = false;
    for row in j.rows.iter().flatten() {
        match row[2].as_str() {
            "ok" => ok += 1,
            s if s.starts_with("invalid:") => invalid += 1,
            s => {
                failed += 1;
                stopped += usize::from(s == "cancelled" || s == "timeout");
                timed_out |= s == "timeout";
            }
        }
        if row.get(3).is_some_and(|e| e == "replay") {
            replayed += 1;
        }
        table.row(row.clone());
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
    let outcome = if stopped > 0 {
        JobOutcome::Error {
            label: if timed_out { "timeout" } else { "cancelled" }.to_string(),
            message: format!("sweep stopped: {stopped} of {total} points skipped"),
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
