//! End-to-end serving tests: multi-tenant job mixes, admission control,
//! fairness, determinism, coalescing, cache warmth, and both transports.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use salam::standalone::{try_run_kernel_traced, StandaloneConfig};
use salam_serve::{
    JobLookupError, JobRequest, JobState, Rejection, ServeConfig, ServeCore, Server, TenantQuota,
    WireAxis,
};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(tag: &str) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(tmp(tag)),
        ..ServeConfig::default()
    }
}

fn kernel_job(bench: &str, knobs: &[(&str, u64)]) -> JobRequest {
    JobRequest::Kernel {
        bench: bench.to_string(),
        knobs: knobs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        trace: false,
    }
}

/// The report a direct library call produces for the same configuration.
fn direct_report_json(bench: machsuite::Bench, knobs: &[(&str, u64)]) -> String {
    let mut cfg = StandaloneConfig::default();
    for (k, v) in knobs {
        salam_serve::job::apply_knob(&mut cfg, k, *v).unwrap();
    }
    let trace = salam_obs::SharedTrace::disabled();
    try_run_kernel_traced(&bench.build_standard(), &cfg, &trace, None)
        .expect("direct run succeeds")
        .to_json()
}

#[test]
fn multi_tenant_mix_end_to_end() {
    let core = ServeCore::start(cfg("mix"));

    // Tenant alice: an interactive kernel run.
    let a1 = core
        .submit("alice", kernel_job("gemm", &[("ports", 2)]))
        .unwrap();
    // Tenant bob: a clean faulted run (seeded plan, zero rates) and a sweep.
    let b1 = core
        .submit(
            "bob",
            JobRequest::Faulted {
                bench: "spmv".into(),
                knobs: vec![],
                plan: salam_fault::FaultPlan::seeded(7),
            },
        )
        .unwrap();
    let b2 = core
        .submit(
            "bob",
            JobRequest::Sweep {
                name: "ports".into(),
                kernels: vec!["gemm".into()],
                axes: vec![WireAxis {
                    knob: "ports".into(),
                    values: vec![1, 2],
                }],
                replay: false,
            },
        )
        .unwrap();

    // Invalid submissions are rejected with stable codes, never scheduled.
    let bad_bench = core
        .submit("alice", kernel_job("nonesuch", &[]))
        .unwrap_err();
    assert_eq!(bad_bench.code, "bad-request");
    let bad_cfg = core
        .submit("alice", kernel_job("gemm", &[("ports", 0)]))
        .unwrap_err();
    assert_eq!(bad_cfg.code, "invalid-config");
    assert!(
        !bad_cfg.diagnostics.is_empty(),
        "carries the C001 diagnostic"
    );
    let bad_knob = core
        .submit("alice", kernel_job("gemm", &[("warp-speed", 9)]))
        .unwrap_err();
    assert_eq!(bad_knob.code, "bad-request");

    let s1 = core.wait(a1).unwrap();
    assert_eq!(s1.state, JobState::Done);
    let report = core.artifact(a1, "report").unwrap();
    assert_eq!(
        report,
        direct_report_json(machsuite::Bench::GemmNcubed, &[("ports", 2)]),
        "served report is byte-identical to a direct library call"
    );

    let s2 = core.wait(b1).unwrap();
    assert_eq!(s2.state, JobState::Done, "zero-rate plan runs clean");

    let s3 = core.wait(b2).unwrap();
    assert_eq!(s3.state, JobState::Done);
    let csv = core.artifact(b2, "csv").unwrap();
    assert!(csv.contains("# points=2 ok=2 failed=0 invalid=0"), "{csv}");
    let table = core.artifact(b2, "table").unwrap();
    let v = salam_obs::json::parse(&table).unwrap();
    assert_eq!(
        v.get("summary")
            .and_then(|s| s.get("ok"))
            .and_then(|x| x.as_str()),
        Some("2")
    );

    // Wrong-artifact requests fail with a message, not a panic.
    assert!(core.artifact(a1, "csv").is_err());
    assert!(core.artifact(b2, "trace").is_err());
    assert_eq!(core.artifact(a1, "lint").unwrap(), "[]");

    let m = core.metrics();
    assert_eq!(m.get("serve.jobs.submitted"), Some(3.0));
    assert_eq!(m.get("serve.jobs.done"), Some(3.0));
    assert_eq!(m.get("serve.jobs.rejected"), Some(3.0));
    assert_eq!(m.get("serve.tenant.alice.submitted"), Some(1.0));
    assert_eq!(m.get("serve.tenant.alice.rejected"), Some(3.0));
    assert_eq!(m.get("serve.tenant.bob.completed"), Some(2.0));
    assert!(
        m.get("serve.cache.entries").is_some(),
        "cache metrics ride along"
    );

    let line = core.stats_line();
    assert!(
        line.contains("done=3") && line.contains("rejected=3"),
        "{line}"
    );
    core.shutdown();
}

#[test]
fn fairness_interactive_finishes_before_a_long_sweep() {
    // One slot, one point per chunk: the worst case for an interactive job
    // racing a big batch.
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        sweep_chunk: 1,
        no_cache: true,
        ..cfg("fair")
    });
    let sweep = core
        .submit(
            "batch",
            JobRequest::Sweep {
                name: "big".into(),
                kernels: vec!["gemm".into()],
                axes: vec![
                    WireAxis {
                        knob: "ports".into(),
                        values: vec![1, 2, 4],
                    },
                    WireAxis {
                        knob: "spm-latency".into(),
                        values: vec![1, 2],
                    },
                ],
                replay: false,
            },
        )
        .unwrap();
    let fast = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    let fast_done = core.wait(fast).unwrap();
    let sweep_done = core.wait(sweep).unwrap();
    assert_eq!(fast_done.state, JobState::Done);
    assert_eq!(sweep_done.state, JobState::Done);
    assert!(
        fast_done.complete_seq.unwrap() < sweep_done.complete_seq.unwrap(),
        "interactive job (seq {:?}) must finish before the 6-point sweep (seq {:?})",
        fast_done.complete_seq,
        sweep_done.complete_seq
    );
    core.shutdown();
}

#[test]
fn quotas_reject_at_the_limit_and_admit_after_drain() {
    // max_running: 0 pins admitted jobs in the queue, so "tenant at its
    // queued-jobs limit" is a deterministic state, not a race.
    let stuck = ServeCore::start(ServeConfig {
        quota: TenantQuota {
            max_queued: 1,
            max_running: 0,
            max_sweep_points: 8,
        },
        ..cfg("quota-stuck")
    });
    stuck.submit("alice", kernel_job("gemm", &[])).unwrap();
    let r: Rejection = stuck.submit("alice", kernel_job("gemm", &[])).unwrap_err();
    assert_eq!(r.code, "quota-queued");
    // Quotas are per tenant: bob is unaffected by alice's backlog.
    stuck.submit("bob", kernel_job("gemm", &[])).unwrap();

    // A fresh tenant with no backlog still can't submit an oversized sweep.
    let big = stuck
        .submit(
            "carol",
            JobRequest::Sweep {
                name: "big".into(),
                kernels: vec!["gemm".into()],
                axes: vec![WireAxis {
                    knob: "spm-latency".into(),
                    values: (1..=9).collect(),
                }],
                replay: false,
            },
        )
        .unwrap_err();
    assert_eq!(big.code, "quota-sweep-points");
    stuck.shutdown();

    // After a tenant's jobs drain, the same quota admits new work.
    let core = ServeCore::start(ServeConfig {
        quota: TenantQuota {
            max_queued: 1,
            ..TenantQuota::default()
        },
        ..cfg("quota-drain")
    });
    let j1 = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    core.wait(j1).unwrap();
    let j2 = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    assert_eq!(core.wait(j2).unwrap().state, JobState::Done);
    core.shutdown();
}

#[test]
fn results_are_identical_across_slot_counts_and_arrival_orders() {
    let sweep = || JobRequest::Sweep {
        name: "det".into(),
        kernels: vec!["gemm".into(), "spmv".into()],
        axes: vec![WireAxis {
            knob: "ports".into(),
            values: vec![1, 2],
        }],
        replay: false,
    };
    let single = || kernel_job("nw", &[("window", 16)]);

    // Serial server, sweep submitted first, cold private cache.
    let a = ServeCore::start(ServeConfig {
        slots: 1,
        ..cfg("det-a")
    });
    let a_sweep = a.submit("t", sweep()).unwrap();
    let a_single = a.submit("t", single()).unwrap();
    assert_eq!(a.wait(a_sweep).unwrap().state, JobState::Done);
    assert_eq!(a.wait(a_single).unwrap().state, JobState::Done);
    let a_csv = a.artifact(a_sweep, "csv").unwrap();
    let a_report = a.artifact(a_single, "report").unwrap();
    a.shutdown();

    // Wide server, reversed arrival, no cache at all.
    let b = ServeCore::start(ServeConfig {
        slots: 4,
        sweep_chunk: 1,
        no_cache: true,
        ..cfg("det-b")
    });
    let b_single = b.submit("t", single()).unwrap();
    let b_sweep = b.submit("t", sweep()).unwrap();
    assert_eq!(b.wait(b_sweep).unwrap().state, JobState::Done);
    assert_eq!(b.wait(b_single).unwrap().state, JobState::Done);
    assert_eq!(b.artifact(b_sweep, "csv").unwrap(), a_csv);
    assert_eq!(b.artifact(b_single, "report").unwrap(), a_report);
    b.shutdown();
}

#[test]
fn identical_inflight_jobs_coalesce_onto_one_simulation() {
    // One slot, no cache; a batch chunk occupies the slot so the leader
    // stays in flight while its twin arrives.
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        sweep_chunk: 4,
        no_cache: true,
        ..cfg("coalesce")
    });
    let blocker = core
        .submit(
            "blocker",
            JobRequest::Sweep {
                name: "warm".into(),
                kernels: vec!["gemm".into()],
                axes: vec![WireAxis {
                    knob: "spm-latency".into(),
                    values: vec![1, 2, 3, 4],
                }],
                replay: false,
            },
        )
        .unwrap();
    let leader = core
        .submit("alice", kernel_job("spmv", &[("ports", 2)]))
        .unwrap();
    let twin = core
        .submit("bob", kernel_job("spmv", &[("ports", 2)]))
        .unwrap();

    let s1 = core.wait(leader).unwrap();
    let s2 = core.wait(twin).unwrap();
    assert_eq!(s1.state, JobState::Done);
    assert_eq!(s2.state, JobState::Done);
    assert_eq!(
        core.artifact(leader, "report").unwrap(),
        core.artifact(twin, "report").unwrap()
    );
    // The blocker must be terminal too before reading run counters — the
    // single can win the slot race, leaving the sweep in flight here.
    assert_eq!(core.wait(blocker).unwrap().state, JobState::Done);
    let m = core.metrics();
    assert_eq!(m.get("serve.jobs.coalesced"), Some(1.0));
    // 4 sweep points + exactly one shared single simulation.
    assert_eq!(m.get("serve.sim_runs"), Some(5.0));
    // The leader simulated, so riding along is a coalesce — not a cache
    // hit — for the follower's tenant.
    assert_eq!(m.get("serve.tenant.bob.coalesced"), Some(1.0));
    assert_eq!(m.get("serve.tenant.bob.cache_hits"), Some(0.0));
    core.shutdown();
}

#[test]
fn terminal_jobs_are_evicted_past_the_retention_cap() {
    let core = ServeCore::start(ServeConfig {
        retain_terminal: 1,
        no_cache: true,
        ..cfg("retain")
    });
    let first = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(first).unwrap().state, JobState::Done);
    let second = core
        .submit("alice", kernel_job("bfs", &[("ports", 2)]))
        .unwrap();
    assert_eq!(core.wait(second).unwrap().state, JobState::Done);

    // Only the most recent terminal record (and its artifacts) survives;
    // the lifetime counters don't shrink with it.
    assert_eq!(
        core.status(first).err(),
        Some(JobLookupError::Evicted),
        "oldest evicted first, with a typed eviction error"
    );
    assert!(core.artifact(second, "report").is_ok());
    let m = core.metrics();
    assert_eq!(m.get("serve.jobs.done"), Some(2.0));
    assert_eq!(m.get("serve.tenant.alice.completed"), Some(2.0));
    assert!(core.stats_line().contains("done=2"));

    // Evicted jobs never eat into the tenant's in-flight budget.
    let third = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(third).unwrap().state, JobState::Done);
    core.shutdown();
}

#[test]
fn shutdown_fails_abandoned_jobs_instead_of_stranding_waiters() {
    // max_running: 0 pins the job in the queue, so it is guaranteed to
    // still be queued when the server shuts down.
    let core = ServeCore::start(ServeConfig {
        quota: TenantQuota {
            max_running: 0,
            ..TenantQuota::default()
        },
        no_cache: true,
        ..cfg("abandon")
    });
    let stuck = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    core.shutdown();
    // wait() must return, not park forever on a job that can never run.
    let s = core.wait(stuck).expect("record survives shutdown");
    assert_eq!(s.state, JobState::Failed);
    let err = core.artifact(stuck, "error").unwrap();
    let v = salam_obs::json::parse(&err).unwrap();
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("shutdown"));
}

#[test]
fn a_tenant_is_served_from_another_tenants_warm_cache() {
    let core = ServeCore::start(cfg("warm"));
    let first = core
        .submit("alice", kernel_job("gemm", &[("ports", 4)]))
        .unwrap();
    assert_eq!(core.wait(first).unwrap().state, JobState::Done);
    let second = core
        .submit("bob", kernel_job("gemm", &[("ports", 4)]))
        .unwrap();
    assert_eq!(core.wait(second).unwrap().state, JobState::Done);
    assert_eq!(
        core.artifact(first, "report").unwrap(),
        core.artifact(second, "report").unwrap()
    );
    let m = core.metrics();
    assert_eq!(
        m.get("serve.cache_hits"),
        Some(1.0),
        "bob hit alice's entry"
    );
    assert_eq!(m.get("serve.sim_runs"), Some(1.0), "only alice simulated");
    assert_eq!(m.get("serve.tenant.bob.cache_hits"), Some(1.0));
    core.shutdown();
}

#[test]
fn failing_jobs_are_isolated_and_typed() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("faults")
    });
    // Dropping nearly every memory response is a detectable hang: the
    // watchdog turns it into a typed deadlock, not a wedged server. (A
    // rate of exactly 1.0 would be rejected pre-flight as a provable
    // `F004` deadlock — this test wants the *dynamic* path.)
    let mut plan = salam_fault::FaultPlan::seeded(3);
    plan.mem_drop_rate = 0.999;
    let doomed = core
        .submit(
            "chaos",
            JobRequest::Faulted {
                bench: "gemm".into(),
                knobs: vec![],
                plan,
            },
        )
        .unwrap();
    let s = core.wait(doomed).unwrap();
    assert_eq!(s.state, JobState::Failed);
    let err = core.artifact(doomed, "error").unwrap();
    let v = salam_obs::json::parse(&err).unwrap();
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("deadlock"));

    // The server keeps serving afterwards.
    let next = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(next).unwrap().state, JobState::Done);

    // A sweep containing statically-invalid points completes, counting
    // them instead of failing the whole job.
    let sweep = core
        .submit(
            "chaos",
            JobRequest::Sweep {
                name: "holes".into(),
                kernels: vec!["gemm".into()],
                axes: vec![WireAxis {
                    knob: "ports".into(),
                    values: vec![0, 1],
                }],
                replay: false,
            },
        )
        .unwrap();
    let s = core.wait(sweep).unwrap();
    assert_eq!(s.state, JobState::Done);
    let csv = core.artifact(sweep, "csv").unwrap();
    assert!(csv.contains("# points=2 ok=1 failed=0 invalid=1"), "{csv}");
    core.shutdown();
}

#[test]
fn certain_deadlock_plans_are_rejected_by_the_flow_gate() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("flowgate")
    });
    let mut plan = salam_fault::FaultPlan::seeded(3);
    plan.mem_drop_rate = 1.0;
    let rej = core
        .submit(
            "chaos",
            JobRequest::Faulted {
                bench: "gemm".into(),
                knobs: vec![],
                plan,
            },
        )
        .unwrap_err();
    assert_eq!(rej.code, "flow-deadlock");
    assert_eq!(rej.diagnostics.len(), 1);
    assert_eq!(rej.diagnostics[0].code, "F004");
    assert!(
        rej.message.contains("provably deadlocks"),
        "{}",
        rej.message
    );
    core.shutdown();

    // The prediction the gate acted on agrees with the dynamic outcome:
    // with verification off the same plan is admitted, and the watchdog
    // fires exactly as the `F004` verdict promised.
    let off = ServeCore::start(ServeConfig {
        no_cache: true,
        verify: false,
        ..cfg("flowgate-off")
    });
    let mut plan = salam_fault::FaultPlan::seeded(3);
    plan.mem_drop_rate = 1.0;
    let id = off
        .submit(
            "chaos",
            JobRequest::Faulted {
                bench: "gemm".into(),
                knobs: vec![("deadlock-cycles".to_string(), 200)],
                plan,
            },
        )
        .unwrap();
    let s = off.wait(id).unwrap();
    assert_eq!(s.state, JobState::Failed);
    let err = off.artifact(id, "error").unwrap();
    let v = salam_obs::json::parse(&err).unwrap();
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("deadlock"));
    off.shutdown();
}

#[test]
fn replay_sweeps_gain_an_engine_column_and_match_full_sim_cycles() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("replay")
    });
    let sweep = |replay| JobRequest::Sweep {
        name: "rp".into(),
        kernels: vec!["gemm".into()],
        axes: vec![WireAxis {
            knob: "ports".into(),
            values: vec![1, 2, 4],
        }],
        replay,
    };
    let fast = core.submit("alice", sweep(true)).unwrap();
    let slow = core.submit("alice", sweep(false)).unwrap();
    assert_eq!(core.wait(fast).unwrap().state, JobState::Done);
    assert_eq!(core.wait(slow).unwrap().state, JobState::Done);
    let fast_csv = core.artifact(fast, "csv").unwrap();
    let slow_csv = core.artifact(slow, "csv").unwrap();

    // The replay sweep's artifact carries the engine column and the
    // replayed count; the plain sweep's artifact is unchanged.
    assert!(fast_csv.contains("engine"), "{fast_csv}");
    assert!(fast_csv.contains(",replay"), "{fast_csv}");
    assert!(fast_csv.contains("replayed=2"), "{fast_csv}");
    assert!(!slow_csv.contains("engine"), "{slow_csv}");

    // Replayed cycles agree with the event engine point for point
    // (replay is cycle-exact on port axes).
    let strip = |csv: &str| -> Vec<(String, String)> {
        csv.lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("point"))
            .map(|l| {
                let mut parts = l.split(',');
                (
                    parts.next().unwrap_or_default().to_string(),
                    parts.next().unwrap_or_default().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(strip(&fast_csv), strip(&slow_csv));
    core.shutdown();
}

#[test]
fn telemetry_records_latency_histograms_and_prometheus_exposition() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("telemetry")
    });
    let j1 = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    let j2 = core
        .submit("bob", kernel_job("gemm", &[("ports", 2)]))
        .unwrap();
    assert_eq!(core.wait(j1).unwrap().state, JobState::Done);
    assert_eq!(core.wait(j2).unwrap().state, JobState::Done);

    // The JSON registry gains the histogram expansion.
    let m = core.metrics();
    assert_eq!(m.get("serve.latency.e2e_us.count"), Some(2.0));
    assert_eq!(m.get("serve.latency.e2e_us.class.kernel.count"), Some(2.0));
    assert_eq!(m.get("serve.latency.e2e_us.tenant.alice.count"), Some(1.0));
    assert_eq!(m.get("serve.latency.queue_us.count"), Some(2.0));
    assert!(m.get("serve.latency.run_us.p99").is_some());

    // The Prometheus exposition is well-formed: typed families, cumulative
    // buckets with a +Inf bound, _sum/_count, and the plain gauges.
    let prom = core.metrics_prom();
    assert!(
        prom.contains("# TYPE serve_latency_e2e_us histogram"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_latency_e2e_us_bucket{le=\"+Inf\"} 2"),
        "{prom}"
    );
    assert!(prom.contains("serve_latency_e2e_us_sum"), "{prom}");
    assert!(prom.contains("serve_latency_e2e_us_count 2"), "{prom}");
    assert!(prom.contains("# TYPE serve_jobs_done gauge"), "{prom}");
    assert!(
        !prom.contains("# TYPE serve_latency_e2e_us_count gauge"),
        "histogram summaries must not leak into the gauge section: {prom}"
    );

    // The stats line carries the e2e percentiles (satellite 2).
    let line = core.stats_line();
    assert!(line.contains("e2e_p50_ms="), "{line}");
    assert!(line.contains("e2e_p99_ms="), "{line}");

    // The bench-out summary names each class with its percentiles.
    let summary = core.latency_summary_json();
    let v = salam_obs::json::parse(&summary).unwrap();
    assert_eq!(
        v.get("total")
            .and_then(|t| t.get("count"))
            .and_then(|c| c.as_f64()),
        Some(2.0),
        "{summary}"
    );
    assert!(
        v.get("classes")
            .and_then(|c| c.get("kernel"))
            .and_then(|k| k.get("p99_us"))
            .is_some(),
        "{summary}"
    );
    core.shutdown();
}

#[test]
fn every_job_gets_a_lifecycle_trace_and_telemetry_off_restores_the_baseline() {
    // Telemetry on (the default): even an untraced job serves a span-tree
    // trace artifact with the lifecycle stages and its trace id.
    let on = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("tel-on")
    });
    let j = on.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(on.wait(j).unwrap().state, JobState::Done);
    let report_on = on.artifact(j, "report").unwrap();
    let trace = on.artifact(j, "trace").unwrap();
    for needle in ["\"queued\"", "\"run\"", "\"admitted\"", "trace_id:"] {
        assert!(trace.contains(needle), "missing {needle} in {trace}");
    }
    on.shutdown();

    // Telemetry off: no trace artifact for untraced jobs (the pre-PR 8
    // contract), no histograms — and the simulation artifact itself is
    // byte-identical, proving telemetry does not perturb the model.
    let off = ServeCore::start(ServeConfig {
        no_cache: true,
        telemetry: false,
        ..cfg("tel-off")
    });
    let j = off.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(off.wait(j).unwrap().state, JobState::Done);
    assert_eq!(off.artifact(j, "report").unwrap(), report_on);
    assert!(off.artifact(j, "trace").is_err());
    assert!(off.metrics().get("serve.latency.e2e_us.count").is_none());
    let line = off.stats_line();
    assert!(line.contains("e2e_p50_ms=0.000"), "{line}");
    off.shutdown();
}

#[test]
fn deadlocked_jobs_leave_a_postmortem_with_the_watchdog_snapshot() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("postmortem")
    });
    // Just below certain-drop: admitted by the flow gate, still a
    // deterministic watchdog deadlock under the seeded draw.
    let mut plan = salam_fault::FaultPlan::seeded(3);
    plan.mem_drop_rate = 0.999;
    let doomed = core
        .submit(
            "chaos",
            JobRequest::Faulted {
                bench: "gemm".into(),
                // Trip the watchdog quickly; the knob keeps the test fast.
                knobs: vec![("deadlock-cycles".to_string(), 200)],
                plan,
            },
        )
        .unwrap();
    assert_eq!(core.wait(doomed).unwrap().state, JobState::Failed);

    let pm = core.artifact(doomed, "postmortem").unwrap();
    let v = salam_obs::json::parse(&pm).unwrap_or_else(|e| panic!("{pm}: {e}"));
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("deadlock"));
    let watchdog = v.get("watchdog").expect("watchdog snapshot attached");
    assert!(
        watchdog.get("last_progress_cycle").is_some(),
        "snapshot fields survive: {pm}"
    );
    assert_eq!(
        watchdog.get("kernel").and_then(|k| k.as_str()),
        Some("gemm_ncubed")
    );
    let flight = v.get("flight").and_then(|f| f.as_array()).unwrap();
    assert!(!flight.is_empty(), "flight recorder tail rides along: {pm}");
    assert!(
        flight.iter().any(|e| e
            .get("msg")
            .and_then(|m| m.as_str())
            .is_some_and(|m| m.contains("run-error"))),
        "the engine's run-error event is in the tail: {pm}"
    );

    // Healthy jobs have no post-mortem.
    let fine = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(fine).unwrap().state, JobState::Done);
    assert!(core.artifact(fine, "postmortem").is_err());
    core.shutdown();
}

#[test]
fn traced_jobs_return_a_chrome_trace() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("trace")
    });
    let job = core
        .submit(
            "alice",
            JobRequest::Kernel {
                bench: "bfs".into(),
                knobs: vec![],
                trace: true,
            },
        )
        .unwrap();
    assert_eq!(core.wait(job).unwrap().state, JobState::Done);
    let trace = core.artifact(job, "trace").unwrap();
    assert!(trace.contains("\"traceEvents\""), "chrome trace shape");
    core.shutdown();
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    // One segment per request, like any sensible client: a split write
    // would stall on the server's delayed ACK.
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

/// Each reply must leave as one segment on a no-delay socket: split into
/// body + newline, Nagle holds the newline until the client's delayed ACK
/// (≈ 40 ms on Linux), which made 50 round trips take over two seconds.
#[test]
fn line_protocol_round_trips_are_not_held_back_by_nagle() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let started = std::time::Instant::now();
    for _ in 0..50 {
        let r = send_line(&mut stream, &mut reader, r#"{"op":"stats"}"#);
        assert!(r.contains("\"stats\""), "{r}");
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "50 stats round trips took {took:?}"
    );
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn tcp_and_http_transports_serve_the_same_core() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            no_cache: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Native line-JSON protocol.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let r = send_line(
        &mut stream,
        &mut reader,
        r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":2}}}"#,
    );
    let v = salam_obs::json::parse(&r).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{r}");
    let id = v.get("id").and_then(|n| n.as_f64()).unwrap() as u64;

    let r = send_line(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"wait","id":{id}}}"#),
    );
    let v = salam_obs::json::parse(&r).unwrap();
    let state = v
        .get("status")
        .and_then(|s| s.get("state"))
        .and_then(|s| s.as_str())
        .unwrap()
        .to_string();
    assert_eq!(state, "done", "{r}");

    let r = send_line(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"result","id":{id},"artifact":"report"}}"#),
    );
    let v = salam_obs::json::parse(&r).unwrap();
    let report = v.get("artifact").and_then(|a| a.as_str()).unwrap();
    assert_eq!(
        report,
        direct_report_json(machsuite::Bench::GemmNcubed, &[("ports", 2)]),
        "the wire round-trip preserves the report byte-for-byte"
    );

    // A rejection over the wire carries its stable code.
    let r = send_line(
        &mut stream,
        &mut reader,
        r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":0}}}"#,
    );
    let v = salam_obs::json::parse(&r).unwrap();
    assert_eq!(
        v.get("code").and_then(|c| c.as_str()),
        Some("invalid-config"),
        "{r}"
    );

    // HTTP shim on the same port.
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("serve.jobs.submitted"), "{response}");

    let body = r#"{"tenant":"bob","job":{"type":"kernel","bench":"bfs"}}"#;
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(
        format!(
            "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let payload = response.split("\r\n\r\n").nth(1).unwrap();
    let v = salam_obs::json::parse(payload).unwrap();
    let bob_id = v.get("id").and_then(|n| n.as_f64()).unwrap() as u64;

    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(format!("GET /status?id={bob_id} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

    // Clean shutdown over the wire.
    let r = send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert!(r.contains("\"ok\": true"), "{r}");
    server.shutdown();
}
