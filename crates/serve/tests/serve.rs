//! End-to-end serving tests: multi-tenant job mixes, admission control,
//! fairness, determinism, coalescing, cache warmth, and both transports.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use salam::standalone::{try_run_kernel, StandaloneConfig};
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
    try_run_kernel(&bench.build_standard(), &cfg)
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
fn repeated_replay_sweep_is_answered_from_the_cache() {
    let core = ServeCore::start(cfg("replay-warm"));
    // Four points, none equal to the replay baseline (2 ports, 1-cycle SPM).
    let sweep = || JobRequest::Sweep {
        name: "rp-warm".into(),
        kernels: vec!["gemm".into()],
        axes: vec![
            WireAxis {
                knob: "ports".into(),
                values: vec![1, 4],
            },
            WireAxis {
                knob: "spm-latency".into(),
                values: vec![2, 3],
            },
        ],
        replay: true,
    };
    let counters = |core: &ServeCore| {
        let m = core.metrics();
        let get = |k| m.get(k).unwrap_or_default();
        (get("serve.cache_hits"), get("serve.sim_runs"))
    };
    let cold = core.submit("alice", sweep()).unwrap();
    assert_eq!(core.wait(cold).unwrap().state, JobState::Done);
    let (hits, sim_runs) = counters(&core);
    let warm = core.submit("alice", sweep()).unwrap();
    assert_eq!(core.wait(warm).unwrap().state, JobState::Done);
    assert_eq!(counters(&core), (hits + 4.0, sim_runs));
    assert_eq!(
        core.artifact(warm, "csv").unwrap(),
        core.artifact(cold, "csv").unwrap()
    );
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
    assert!(prom.contains("# TYPE serve_jobs_done counter"), "{prom}");
    assert!(
        !prom.contains("# TYPE serve_latency_e2e_us_count gauge"),
        "histogram summaries must not leak into the gauge section: {prom}"
    );

    // The stats line carries the e2e percentiles (satellite 2).
    let line = core.stats_line();
    assert!(line.contains("e2e_p50_ms="), "{line}");
    assert!(line.contains("e2e_p99_ms="), "{line}");

    // Each class carries its own percentiles in the same registry.
    assert!(m.get("serve.latency.e2e_us.class.kernel.p99").is_some());
    assert!(m.get("serve.latency.e2e_us.p99").is_some());
    core.shutdown();
}

/// The observable metrics surface of a fixed job mix: the exact JSON key
/// set, one `# TYPE` line per Prometheus family, and the stats-line field
/// list documented in DESIGN.md §11.
#[test]
fn metrics_surface_is_pinned() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("surface")
    });
    let a = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    let b = core
        .submit("bob", kernel_job("gemm", &[("ports", 2)]))
        .unwrap();
    let s = core
        .submit(
            "bob",
            JobRequest::Sweep {
                name: "ports".into(),
                kernels: vec!["spmv".into()],
                axes: vec![WireAxis {
                    knob: "ports".into(),
                    values: vec![1, 2],
                }],
                replay: false,
            },
        )
        .unwrap();
    let rejected = core
        .submit("alice", kernel_job("nonesuch", &[]))
        .unwrap_err();
    assert_eq!(rejected.code, "bad-request");
    for id in [a, b, s] {
        assert_eq!(core.wait(id).unwrap().state, JobState::Done);
    }

    let json = salam_obs::json::parse(&core.metrics().to_json()).unwrap();
    let mut keys: Vec<&str> = json
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    let hist = |base: &str| -> Vec<String> {
        ["count", "max", "mean", "p50", "p95", "p99"]
            .iter()
            .map(|s| format!("{base}.{s}"))
            .collect()
    };
    let mut want: Vec<String> = [
        "dse.points.simulated",
        "serve.breaker.fastfail",
        "serve.cache_hits",
        "serve.flight.dropped",
        "serve.jobs.cancelled",
        "serve.jobs.coalesced",
        "serve.jobs.degraded",
        "serve.jobs.done",
        "serve.jobs.failed",
        "serve.jobs.queued",
        "serve.jobs.recovered",
        "serve.jobs.rejected",
        "serve.jobs.running",
        "serve.jobs.shed",
        "serve.jobs.submitted",
        "serve.jobs.timeout",
        "serve.sim_runs",
    ]
    .iter()
    .map(|k| k.to_string())
    .collect();
    for t in ["alice", "bob"] {
        for c in [
            "cache_hits",
            "coalesced",
            "completed",
            "failed",
            "rejected",
            "submitted",
        ] {
            want.push(format!("serve.tenant.{t}.{c}"));
        }
    }
    want.extend(hist("dse.point.cycles"));
    for lat in ["e2e_us", "queue_us", "run_us"] {
        let base = format!("serve.latency.{lat}");
        want.extend(hist(&base));
        want.extend(hist(&format!("{base}.class.kernel")));
        want.extend(hist(&format!("{base}.class.sweep")));
        if lat != "run_us" {
            want.extend(hist(&format!("{base}.tenant.alice")));
            want.extend(hist(&format!("{base}.tenant.bob")));
        }
    }
    want.sort_unstable();
    assert_eq!(keys, want);

    // Every family is declared once, and every sample belongs to a
    // declared family (histograms through their three series suffixes).
    let prom = core.metrics_prom();
    let mut families: Vec<(&str, &str)> = Vec::new();
    for line in prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let (family, kind) = line.split_once(' ').unwrap();
        assert!(
            families.iter().all(|(f, _)| *f != family),
            "family {family} declared twice:\n{prom}"
        );
        families.push((family, kind));
    }
    for sample in prom.lines().filter(|l| !l.starts_with('#')) {
        let name = sample.split(['{', ' ']).next().unwrap();
        let declared = families.iter().any(|(f, kind)| {
            name == *f
                || (*kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|s| name.strip_suffix(s) == Some(*f)))
        });
        assert!(declared, "sample {sample} has no # TYPE line:\n{prom}");
    }

    let line = core.stats_line();
    let fields: Vec<(&str, &str)> = line
        .split(' ')
        .map(|f| f.split_once('=').unwrap())
        .collect();
    let names: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        names,
        [
            "jobs",
            "done",
            "failed",
            "rejected",
            "coalesced",
            "cache_hits",
            "sim_runs",
            "e2e_p50_ms",
            "e2e_p99_ms",
            "shed",
            "cancelled"
        ]
    );
    let counts: Vec<&str> = fields
        .iter()
        .filter(|(k, _)| !k.starts_with("e2e_"))
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(counts, ["3", "3", "0", "1", "0", "0", "4", "0", "0"]);
    for (k, v) in fields.iter().filter(|(k, _)| k.starts_with("e2e_")) {
        let (_, frac) = v.split_once('.').unwrap_or_else(|| panic!("{k}={v}"));
        assert_eq!(frac.len(), 3, "{k}={v} carries three decimals");
    }
    core.shutdown();
}

/// Tenant names become metric keys and label values, so a name that could
/// forge a label (`x",class="cpu`) or break the label list (`a,b`) is
/// refused before any per-tenant metric exists.
#[test]
fn tenant_names_cannot_forge_metric_labels() {
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("forge")
    });
    let forged = ["x\",class=\"cpu", "a,b"];
    for tenant in forged {
        let r = core.submit(tenant, kernel_job("bfs", &[])).unwrap_err();
        assert_eq!(r.code, "bad-request", "{tenant}");
    }
    for tenant in ["", &"t".repeat(65), "sp ace", "dot.ted"] {
        let r = core.submit(tenant, kernel_job("bfs", &[])).unwrap_err();
        assert_eq!(r.code, "bad-request", "{tenant:?}");
    }
    let ok = core.submit("tenant-1_A", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(ok).unwrap().state, JobState::Done);

    let json = core.metrics().to_json();
    let prom = core.metrics_prom();
    for needle in ["class=\\\"cpu", "class.cpu", "a,b", "x\\\""] {
        assert!(!json.contains(needle), "{needle} in {json}");
    }
    for needle in ["class=\"cpu", "a,b", "tenant_x", "tenant_a_b"] {
        assert!(!prom.contains(needle), "{needle} in {prom}");
    }
    assert!(json.contains("serve.tenant.tenant-1_A.completed"), "{json}");
    assert_eq!(core.metrics().get("serve.jobs.rejected"), Some(6.0));
    core.shutdown();
}

#[test]
fn every_job_gets_a_lifecycle_trace_and_its_report_matches_a_direct_run() {
    // Even an untraced job serves a span-tree trace artifact with the
    // lifecycle stages and its trace id — and the simulation artifact is
    // byte-identical to a direct library call, so the per-job recorders
    // do not perturb the model.
    let core = ServeCore::start(ServeConfig {
        no_cache: true,
        ..cfg("lifecycle")
    });
    let j = core.submit("alice", kernel_job("bfs", &[])).unwrap();
    assert_eq!(core.wait(j).unwrap().state, JobState::Done);
    let trace = core.artifact(j, "trace").unwrap();
    for needle in ["\"queued\"", "\"run\"", "\"admitted\"", "trace_id:"] {
        assert!(trace.contains(needle), "missing {needle} in {trace}");
    }
    assert_eq!(
        core.artifact(j, "report").unwrap(),
        direct_report_json(machsuite::Bench::Bfs, &[])
    );
    core.shutdown();
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

/// One HTTP exchange on an already connected stream: the status line, the
/// `Retry-After` and `Content-Type` headers, and the body.
fn http_on(mut stream: TcpStream, request: &str) -> (String, Option<String>, String, String) {
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    let mut lines = head.lines();
    let status = lines.next().unwrap_or("").to_string();
    let header = |name: &str| {
        head.lines().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|v| v.strip_prefix(':'))
                .map(|v| v.trim().to_string())
        })
    };
    let retry_after = header("Retry-After");
    let content_type = header("Content-Type").unwrap_or_default();
    (status, retry_after, content_type, body.to_string())
}

/// A body's shape: its sorted top-level keys, plus the `code` when it
/// carries one, for a JSON object; `text` for anything else.
fn shape(body: &str) -> String {
    let Ok(v) = salam_obs::json::parse(body.trim()) else {
        return "text".to_string();
    };
    let Some(fields) = v.as_object() else {
        return "text".to_string();
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    let mut s = format!("{{{}}}", keys.join(","));
    if let Some(code) = v.get("code").and_then(|c| c.as_str()) {
        s.push_str(&format!(" code={code}"));
    }
    s
}

/// The transport surface, pinned: every line op's reply shape and every
/// HTTP route's status line, `Retry-After`, content type and body shape,
/// across the success and error cases each can produce.
#[test]
fn every_transport_reply_is_pinned() {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            slots: 1,
            max_pending: 1,
            retain_terminal: 1,
            chaos: true,
            retries: 0,
            no_cache: true,
            max_line_bytes: 1024,
            ..cfg("transport")
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = |req: &str, want: &str| {
        let reply = send_line(&mut stream, &mut reader, req);
        assert_eq!(shape(&reply), want, "{req} -> {reply}");
        reply
    };
    let http = |req: &str, want: (&str, Option<&str>, &str, &str)| {
        let got = http_on(TcpStream::connect(addr).unwrap(), req);
        let seen = (
            got.0.as_str(),
            got.1.as_deref(),
            got.2.as_str(),
            shape(&got.3),
        );
        assert_eq!(seen, (want.0, want.1, want.2, want.3.to_string()), "{req}");
        got.3
    };
    let get = |path: &str| format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let id_of = |reply: &str| {
        salam_obs::json::parse(reply.trim())
            .unwrap()
            .get("id")
            .and_then(|n| n.as_f64())
            .unwrap() as u64
    };
    const OK: &str = "200 OK";
    let ok = |s: &str| format!("HTTP/1.1 {s}");
    let (s200, s400, s403, s404, s410, s429, s503) = (
        ok(OK),
        ok("400 Bad Request"),
        ok("403 Forbidden"),
        ok("404 Not Found"),
        ok("410 Gone"),
        ok("429 Too Many Requests"),
        ok("503 Service Unavailable"),
    );
    let err = "{code,message,ok}";
    let rejection = "{code,diagnostics,message,ok,retry_after_ms}";

    // A finished job: submit, status, wait, result and trace.
    let done = line(
        r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"bfs"}}"#,
        "{id,ok}",
    );
    let done = id_of(&done);
    line(&format!(r#"{{"op":"wait","id":{done}}}"#), "{ok,status}");
    line(&format!(r#"{{"op":"status","id":{done}}}"#), "{ok,status}");
    line(&format!(r#"{{"op":"cancel","id":{done}}}"#), "{ok,status}");
    line(
        &format!(r#"{{"op":"result","id":{done},"artifact":"report"}}"#),
        "{artifact,ok}",
    );
    line(
        &format!(r#"{{"op":"result","id":{done},"artifact":"csv"}}"#),
        &format!("{err} code=not-found"),
    );
    http(
        &get(&format!("/status?id={done}")),
        (&s200, None, JSON, "{ok,status}"),
    );
    http(
        &post(&format!("/cancel?id={done}"), ""),
        (&s200, None, JSON, "{ok,status}"),
    );
    let trace = http(
        &get(&format!("/trace?id={done}")),
        (&s200, None, JSON, "{displayTimeUnit,traceEvents}"),
    );
    assert!(trace.contains("trace_id:"), "{trace}");
    let again = http(
        &post(
            "/submit",
            r#"{"tenant":"alice","job":{"type":"kernel","bench":"bfs"}}"#,
        ),
        (&s200, None, JSON, "{id,ok}"),
    );
    // Drain it before the next submission: one queued task fills the queue.
    line(
        &format!(r#"{{"op":"wait","id":{}}}"#, id_of(&again)),
        "{ok,status}",
    );

    // Three injected panics open the breaker for the chaos configuration;
    // its next two submissions fast-fail as `circuit-open`.
    server.core().inject_panics(3);
    let mut chaos = Vec::new();
    for _ in 0..3 {
        let r = line(
            r#"{"op":"submit","tenant":"chaos","job":{"type":"kernel","bench":"__chaos-panic"}}"#,
            "{id,ok}",
        );
        let id = id_of(&r);
        line(&format!(r#"{{"op":"wait","id":{id}}}"#), "{ok,status}");
        chaos.push(id);
    }
    http(
        &post(
            "/submit",
            r#"{"tenant":"chaos","job":{"type":"kernel","bench":"__chaos-panic"}}"#,
        ),
        (
            &s503,
            Some("1"),
            JSON,
            &format!("{rejection} code=circuit-open"),
        ),
    );
    line(
        r#"{"op":"submit","tenant":"chaos","job":{"type":"kernel","bench":"__chaos-panic"}}"#,
        &format!("{rejection} code=circuit-open"),
    );

    // Retention keeps one terminal job per tenant: the first chaos job is
    // evicted.
    let evicted = chaos[0];
    line(
        &format!(r#"{{"op":"status","id":{evicted}}}"#),
        &format!("{err} code=evicted"),
    );
    line(
        &format!(r#"{{"op":"wait","id":{evicted}}}"#),
        &format!("{err} code=evicted"),
    );
    line(
        &format!(r#"{{"op":"result","id":{evicted},"artifact":"report"}}"#),
        &format!("{err} code=not-found"),
    );
    http(
        &get(&format!("/status?id={evicted}")),
        (&s410, None, JSON, &format!("{err} code=evicted")),
    );
    http(
        &post(&format!("/cancel?id={evicted}"), ""),
        (&s410, None, JSON, &format!("{err} code=evicted")),
    );
    http(
        &get(&format!("/trace?id={evicted}")),
        (&s404, None, JSON, &format!("{err} code=not-found")),
    );

    // Unknown ids.
    for op in ["status", "wait", "cancel"] {
        line(
            &format!(r#"{{"op":"{op}","id":999}}"#),
            &format!("{err} code=not-found"),
        );
    }
    line(
        r#"{"op":"result","id":999,"artifact":"report"}"#,
        &format!("{err} code=not-found"),
    );
    for req in [
        get("/status?id=999"),
        post("/cancel?id=999", ""),
        get("/trace?id=999"),
    ] {
        http(&req, (&s404, None, JSON, &format!("{err} code=not-found")));
    }

    // Malformed ids, requests and bodies.
    for req in [
        r#"{"op":"status","id":"x"}"#,
        r#"{"op":"cancel","id":-1}"#,
        r#"{"op":"nope"}"#,
        "not json",
    ] {
        line(req, &format!("{err} code=bad-request"));
    }
    for req in [
        get("/status?id=x"),
        get("/status"),
        post("/cancel?id=1.5", ""),
        post("/submit", "{"),
    ] {
        http(
            &req,
            (&s400, None, JSON, &format!("{err} code=bad-request")),
        );
    }

    // Any other rejection is a plain refusal.
    line(
        r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":0}}}"#,
        &format!("{rejection} code=invalid-config"),
    );
    http(
        &post(
            "/submit",
            r#"{"tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":0}}}"#,
        ),
        (
            &s403,
            None,
            JSON,
            &format!("{rejection} code=invalid-config"),
        ),
    );

    // Read-only surfaces.
    line(r#"{"op":"metrics"}"#, "{metrics,ok}");
    line(r#"{"op":"metrics","format":"prom"}"#, "{ok,prom}");
    line(r#"{"op":"stats"}"#, "{ok,stats}");
    http(&get("/metrics"), (&s200, None, JSON, "{metrics,ok}"));
    let prom = http(&get("/metrics?format=prom"), (&s200, None, PROM, "text"));
    assert!(prom.contains("# TYPE serve_jobs_done counter"), "{prom}");
    http(&get("/stats"), (&s200, None, JSON, "{ok,stats}"));
    http(&get("/healthz"), (&s200, None, JSON, "{ok}"));
    http(&get("/readyz"), (&s200, None, JSON, "{ok}"));
    http(
        &get("/nope"),
        (&s404, None, JSON, &format!("{err} code=not-found")),
    );
    http(
        &post("/status?id=1", ""),
        (&s404, None, JSON, &format!("{err} code=not-found")),
    );
    http(
        &format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(2048)
        ),
        (&s400, None, JSON, &format!("{err} code=bad-request")),
    );

    // A full queue sheds: one job runs, one waits, the next is refused
    // with a retry hint.
    let mut plan = salam_fault::FaultPlan::seeded(5);
    plan.mem_drop_rate = 0.999;
    let stuck = server
        .core()
        .submit(
            "stuck",
            JobRequest::Faulted {
                bench: "gemm".into(),
                knobs: vec![("deadlock-cycles".into(), 2_000_000_000)],
                plan,
            },
        )
        .unwrap();
    while server.core().status(stuck).unwrap().state != JobState::Running {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let queued = server
        .core()
        .submit("queued", kernel_job("gemm", &[]))
        .unwrap();
    http(
        &post(
            "/submit",
            r#"{"tenant":"alice","job":{"type":"kernel","bench":"spmv"}}"#,
        ),
        (
            &s429,
            Some("1"),
            JSON,
            &format!("{rejection} code=overloaded"),
        ),
    );
    line(
        r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"spmv"}}"#,
        &format!("{rejection} code=overloaded"),
    );
    line(
        &format!(r#"{{"op":"cancel","id":{queued}}}"#),
        "{ok,status}",
    );
    http(
        &post(&format!("/cancel?id={stuck}"), ""),
        (&s200, None, JSON, "{ok,status}"),
    );
    assert!(server.core().wait(stuck).unwrap().state.is_terminal());

    // After the shutdown op, connections accepted before it still answer:
    // `POST /shutdown` is ok and readiness is 503.
    let late_shutdown = TcpStream::connect(addr).unwrap();
    let late_ready = TcpStream::connect(addr).unwrap();
    let mut stop = TcpStream::connect(addr).unwrap();
    let mut stop_reader = BufReader::new(stop.try_clone().unwrap());
    let r = send_line(&mut stop, &mut stop_reader, r#"{"op":"shutdown"}"#);
    assert_eq!(shape(&r), "{ok}", "{r}");
    let got = http_on(late_shutdown, &post("/shutdown", ""));
    assert_eq!(
        (
            got.0.as_str(),
            got.1.as_deref(),
            got.2.as_str(),
            shape(&got.3)
        ),
        (s200.as_str(), None, JSON, "{ok}".to_string())
    );
    let got = http_on(late_ready, &get("/readyz"));
    assert_eq!(
        (
            got.0.as_str(),
            got.1.as_deref(),
            got.2.as_str(),
            shape(&got.3)
        ),
        (s503.as_str(), None, JSON, format!("{err} code=draining"))
    );
    server.shutdown();
}
