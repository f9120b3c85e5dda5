//! Admission: lowering a request into work (`prepare`), the gates a
//! submission passes — shutdown, shedding, quota, circuit breaker,
//! degradation — the coalescing decision, and journal recovery.

use super::*;

impl JobRecord {
    /// Marks admission on the span tree and opens the queued span.
    fn admitted(&mut self, now: u64) {
        self.trace.instant(self.tracks.request, "admitted", now);
        self.queued_span = self.trace.begin_span(self.tracks.sched, "queued", now);
    }
}

impl ServeCore {
    /// Replays the journal: every admitted job without a terminal record is
    /// re-admitted under its original id, then the journal is compacted to
    /// exactly those open admissions (so recovery is idempotent and the
    /// file does not grow without bound across restarts).
    pub(super) fn recover_from_journal(&self) {
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

    /// The admission pipeline. With `force_id` (journal recovery) the
    /// admission gates — shutdown, shedding, quota, breaker — are skipped:
    /// the job was already admitted once, and recovery must not lose it.
    pub(super) fn admit(
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

        let now = now_ps(&self.inner);
        let trace = SharedTrace::from_recorder(TraceRecorder::new(JOB_TRACE_CAPACITY));
        let tracks = Tracks {
            request: trace.track("request"),
            sched: trace.track("sched"),
            run: trace.track("run"),
        };
        let job_span = trace.begin_span(tracks.request, &format!("job {id} ({})", req.kind()), now);
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
            trace,
            tracks,
            job_span,
            queued_span: SpanId::INVALID,
            run_span: SpanId::INVALID,
            submitted_ps: now,
            first_dispatch_ps: None,
            postmortem: None,
            cancel: CancelToken::with_deadline_opt(opts.deadline_ms),
        };
        self.inner.flight.record(
            trace_id(id),
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
                    record
                        .trace
                        .instant(record.tracks.request, "coalesced", now);
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
                    record.admitted(now);
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
                record.admitted(now);
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
            let b = machsuite::Bench::from_label(bench).ok_or_else(|| {
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
                    let b = machsuite::Bench::from_label(k).ok_or_else(|| {
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
}

/// Per-job span rings are small: a lifecycle is a dozen events, and the
/// engine's op-level events live in the engine's own recorder.
const JOB_TRACE_CAPACITY: usize = 4096;

/// Tenant names become metric keys and label values, so they are held to
/// `[A-Za-z0-9_-]{1,64}`: nothing that could close a label or split a key.
fn valid_tenant(tenant: &str) -> bool {
    (1..=64).contains(&tenant.len())
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
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
