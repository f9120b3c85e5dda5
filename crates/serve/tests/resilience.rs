//! Resilience integration tests: deadlines, cancellation, breaker
//! determinism, retry, load shedding and degradation, journal crash
//! recovery, and wire-layer bounds. The SIGKILL restart drill across a
//! process boundary lives in `crates/bench/tests/restart.rs`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use salam_resilience::BackoffPolicy;
use salam_serve::wire::{
    journal_admit_line, journal_terminal_line, parse_journal_line, JournalEvent,
};
use salam_serve::{
    JobLookupError, JobRequest, JobState, ServeConfig, ServeCore, Server, SubmitOpts, TenantQuota,
    WireAxis,
};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-resil-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(tag: &str) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(tmp(tag)),
        no_cache: true,
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

/// A job that wedges at once (nearly every memory response dropped) with a
/// watchdog horizon far enough out that it runs until cancelled. The rate
/// stays below 1.0 so the static deadlock gate (F004) admits it.
fn stuck_job(seed: u64) -> JobRequest {
    let mut plan = salam_fault::FaultPlan::seeded(seed);
    plan.mem_drop_rate = 0.999;
    JobRequest::Faulted {
        bench: "gemm".into(),
        knobs: vec![("deadlock-cycles".into(), 2_000_000_000)],
        plan,
    }
}

/// Poll until a worker holds the job.
fn wait_running(core: &ServeCore, id: u64) {
    for _ in 0..4000 {
        match core.status(id).unwrap().state {
            JobState::Running => return,
            JobState::Queued => std::thread::sleep(Duration::from_millis(2)),
            s => panic!("job {id} reached {s:?} before it was seen running"),
        }
    }
    panic!("job {id} never started running");
}

#[test]
fn expired_deadline_fails_typed_timeout() {
    // One deadline expires in the queue, the other mid-run, long before
    // the stuck job's own watchdog horizon.
    let core = ServeCore::start(cfg("deadline"));
    for (job, deadline_ms) in [(kernel_job("gemm", &[]), 0), (stuck_job(1), 40)] {
        let opts = SubmitOpts {
            deadline_ms: Some(deadline_ms),
        };
        let id = core.submit_with("alice", job, opts).unwrap();
        let s = core.wait(id).unwrap();
        assert_eq!(s.state, JobState::Failed);
        assert_eq!(s.detail.as_deref(), Some("error=timeout"));
    }
    assert_eq!(core.metrics().get("serve.jobs.timeout"), Some(2.0));
    // The timeout rides the cancelled counter on the stats line.
    assert!(
        core.stats_line().contains("cancelled=2"),
        "{}",
        core.stats_line()
    );
    core.shutdown();
}

#[test]
fn cancelling_a_running_job_stops_it_cooperatively() {
    let core = ServeCore::start(cfg("running-cancel"));
    let id = core.submit("alice", stuck_job(2)).unwrap();
    wait_running(&core, id);
    core.cancel(id).unwrap();
    let s = core.wait(id).unwrap();
    assert_eq!(s.state, JobState::Failed);
    assert_eq!(s.detail.as_deref(), Some("error=cancelled"));
    assert_eq!(core.metrics().get("serve.jobs.cancelled"), Some(1.0));
    core.shutdown();
}

#[test]
fn cancel_detaches_a_coalesced_follower_without_stopping_the_leader() {
    // One slot; a sweep occupies it so the leader stays queued while its
    // twin coalesces onto it.
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        sweep_chunk: 4,
        ..cfg("follower-cancel")
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

    // Cancelling the follower detaches it immediately — it never had a
    // task of its own — and must not disturb the leader.
    let s = core.cancel(twin).unwrap();
    assert!(s.state.is_terminal());
    assert_eq!(
        core.wait(twin).unwrap().detail.as_deref(),
        Some("error=cancelled")
    );
    assert_eq!(core.wait(leader).unwrap().state, JobState::Done);
    assert_eq!(core.wait(blocker).unwrap().state, JobState::Done);
    assert_eq!(core.metrics().get("serve.jobs.cancelled"), Some(1.0));
    core.shutdown();
}

#[test]
fn cancelling_a_queued_coalesced_leader_promotes_its_follower() {
    // One slot held by a sweep keeps the leader queued while its twin
    // coalesces onto it.
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        sweep_chunk: 4,
        ..cfg("leader-cancel")
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
    wait_running(&core, blocker);
    let leader = core
        .submit("alice", kernel_job("spmv", &[("ports", 2)]))
        .unwrap();
    let follower = core
        .submit("bob", kernel_job("spmv", &[("ports", 2)]))
        .unwrap();
    assert_eq!(core.metrics().get("serve.jobs.coalesced"), Some(1.0));

    // The queued leader is cancelled at once; its follower takes over the
    // run instead of inheriting the cancellation.
    let s = core.cancel(leader).unwrap();
    assert_eq!(s.state, JobState::Failed);
    assert_eq!(s.detail.as_deref(), Some("error=cancelled"));
    assert_eq!(core.wait(follower).unwrap().state, JobState::Done);
    assert_eq!(core.wait(blocker).unwrap().state, JobState::Done);

    let direct = salam::standalone::try_run_kernel(
        &machsuite::Bench::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case("spmv"))
            .unwrap()
            .build_standard(),
        &salam_serve::job::config_from_knobs(&[("ports".to_string(), 2)]).unwrap(),
    )
    .unwrap()
    .to_json();
    assert_eq!(core.artifact(follower, "report").unwrap(), direct);
    assert_eq!(core.metrics().get("serve.jobs.cancelled"), Some(1.0));
    core.shutdown();
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_idempotent() {
    // max_running: 0 pins the job in the queue forever; before PR 9 the
    // only way out was a server shutdown.
    let core = ServeCore::start(ServeConfig {
        quota: TenantQuota {
            max_running: 0,
            ..TenantQuota::default()
        },
        ..cfg("queued-cancel")
    });
    let id = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    let s = core.cancel(id).unwrap();
    assert_eq!(s.state, JobState::Failed);
    assert_eq!(s.detail.as_deref(), Some("error=cancelled"));
    // Idempotent: a second cancel returns the terminal snapshot.
    let again = core.cancel(id).unwrap();
    assert_eq!(again.state, JobState::Failed);
    assert_eq!(core.metrics().get("serve.jobs.cancelled"), Some(1.0));
    core.shutdown();
}

#[test]
fn wait_returns_typed_evicted_instead_of_not_found() {
    // Regression for the wait-vs-eviction hole: a waiter whose job fell
    // out of retention gets a typed `evicted` error, never `not-found`
    // (and never a hang).
    let core = ServeCore::start(ServeConfig {
        retain_terminal: 1,
        ..cfg("evict-wait")
    });
    let first = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    assert_eq!(core.wait(first).unwrap().state, JobState::Done);
    let second = core
        .submit("alice", kernel_job("gemm", &[("ports", 2)]))
        .unwrap();
    assert_eq!(core.wait(second).unwrap().state, JobState::Done);

    assert_eq!(core.wait(first).err(), Some(JobLookupError::Evicted));
    assert_eq!(core.status(first).err(), Some(JobLookupError::Evicted));
    assert_eq!(core.cancel(first).err(), Some(JobLookupError::Evicted));
    // An id never allocated is a different condition.
    assert_eq!(core.wait(12345).err(), Some(JobLookupError::NotFound));
    let msg = core.artifact(first, "report").unwrap_err();
    assert!(msg.contains("evicted"), "{msg}");
    assert!(core.ready(), "a serving core is ready");
    core.shutdown();
    assert!(!core.ready(), "shutdown flips readiness");
}

/// The breaker drill: serialized submissions must produce a byte-identical
/// transition log whether the server runs 1 worker or 8.
fn breaker_log_with_slots(slots: usize) -> Vec<String> {
    let core = ServeCore::start(ServeConfig {
        slots,
        chaos: true,
        retries: 0,
        ..cfg(&format!("breaker-{slots}"))
    });
    core.inject_panics(3);
    for _ in 0..3 {
        let id = core
            .submit("alice", kernel_job("__chaos-panic", &[]))
            .unwrap();
        assert_eq!(
            core.wait(id).unwrap().detail.as_deref(),
            Some("error=panic")
        );
    }
    for _ in 0..2 {
        let r = core
            .submit("alice", kernel_job("__chaos-panic", &[]))
            .unwrap_err();
        assert_eq!(r.code, "circuit-open");
        assert!(r.retry_after_ms.is_some());
    }
    let probe = core
        .submit("alice", kernel_job("__chaos-panic", &[]))
        .unwrap();
    assert_eq!(core.wait(probe).unwrap().state, JobState::Done);
    let log = core.breaker_log();
    core.shutdown();
    log
}

#[test]
fn breaker_transitions_are_identical_across_worker_counts() {
    let log1 = breaker_log_with_slots(1);
    let log8 = breaker_log_with_slots(8);
    assert_eq!(log1, log8);
    let transitions: Vec<&str> = log1.iter().filter_map(|l| l.split(": ").nth(1)).collect();
    assert_eq!(
        transitions,
        ["closed->open", "open->half-open", "half-open->closed"]
    );
}

#[test]
fn one_retry_absorbs_one_injected_panic() {
    let core = ServeCore::start(ServeConfig {
        chaos: true,
        retries: 1,
        backoff: BackoffPolicy {
            base_ms: 1,
            cap_ms: 4,
            ..BackoffPolicy::default()
        },
        ..cfg("retry")
    });
    core.inject_panics(1);
    let id = core
        .submit("alice", kernel_job("__chaos-panic", &[]))
        .unwrap();
    assert_eq!(core.wait(id).unwrap().state, JobState::Done);
    core.shutdown();
}

#[test]
fn a_full_queue_sheds_with_a_retry_hint() {
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        max_pending: 1,
        ..cfg("shed")
    });
    let running = core.submit("alice", stuck_job(3)).unwrap();
    wait_running(&core, running);
    let queued = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    let r = core
        .submit("alice", kernel_job("spmv", &[]))
        .expect_err("the queue is full");
    assert_eq!(r.code, "overloaded");
    assert!(r.retry_after_ms.is_some(), "a shed carries a retry hint");
    core.cancel(queued).unwrap();
    core.cancel(running).unwrap();
    assert_eq!(core.metrics().get("serve.jobs.shed"), Some(1.0));
    core.shutdown();
}

#[test]
fn queue_pressure_degrades_a_sweep_to_replay() {
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        degrade_pressure: 1,
        ..cfg("degrade")
    });
    let running = core.submit("alice", stuck_job(4)).unwrap();
    wait_running(&core, running);
    let queued = core.submit("alice", kernel_job("gemm", &[])).unwrap();
    let sweep = core
        .submit(
            "alice",
            JobRequest::Sweep {
                name: "pressure".into(),
                kernels: vec!["spmv".into()],
                axes: vec![WireAxis {
                    knob: "spm-latency".into(),
                    values: vec![1, 2],
                }],
                replay: false,
            },
        )
        .expect("degraded, not shed");
    assert_eq!(core.metrics().get("serve.jobs.degraded"), Some(1.0));
    core.cancel(running).unwrap();
    // With the slot free again, the queued kernel and the replayed sweep
    // drain normally.
    assert_eq!(core.wait(queued).unwrap().state, JobState::Done);
    assert_eq!(core.wait(sweep).unwrap().state, JobState::Done);
    let csv = core.artifact(sweep, "csv").unwrap();
    assert!(csv.contains(",replay\n"), "{csv}");
    core.shutdown();
}

#[test]
fn backoff_schedules_are_seeded_and_worker_count_independent() {
    // The delay is a pure function of (site, attempt): two policy values
    // with the same seed agree everywhere, and the schedule never depends
    // on call order (what a different worker count would perturb).
    let a = BackoffPolicy::default();
    let b = BackoffPolicy::default();
    let site = "standalone/gemm/ports=2";
    let forward: Vec<u64> = (1..=6).map(|n| a.delay_ms(site, n)).collect();
    let backward: Vec<u64> = (1..=6).rev().map(|n| b.delay_ms(site, n)).collect();
    assert_eq!(
        forward,
        backward.into_iter().rev().collect::<Vec<_>>(),
        "schedule must not depend on evaluation order"
    );
    for (i, d) in forward.iter().enumerate() {
        let ceiling = a.cap_ms.min(a.base_ms << (i + 1));
        assert!(*d < ceiling.max(1), "delay {d} beyond ceiling {ceiling}");
    }
    // Different sites draw different jitter.
    let other: Vec<u64> = (1..=6).map(|n| a.delay_ms("standalone/bfs", n)).collect();
    assert_ne!(forward, other);
}

#[test]
fn journal_recovery_re_admits_open_jobs_exactly_once() {
    let dir = tmp("journal");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobs.journal");

    // A crashed server's journal: jobs 1 and 2 admitted but not finished,
    // job 3 already terminal (must NOT be re-admitted), and a torn final
    // line (the crash landed mid-write).
    let mut text = String::new();
    text.push_str(&journal_admit_line(
        1,
        "alice",
        None,
        &kernel_job("gemm", &[]),
    ));
    text.push('\n');
    text.push_str(&journal_admit_line(
        2,
        "bob",
        Some(60_000),
        &kernel_job("spmv", &[("ports", 2)]),
    ));
    text.push('\n');
    text.push_str(&journal_admit_line(
        3,
        "carol",
        None,
        &kernel_job("bfs", &[]),
    ));
    text.push('\n');
    text.push_str(&journal_terminal_line(3));
    text.push('\n');
    text.push_str("{\"event\": \"admit\", \"id\": 4, \"tena"); // torn
    std::fs::write(&journal, &text).unwrap();

    let core = ServeCore::start(ServeConfig {
        journal: Some(journal.clone()),
        ..cfg("journal-core")
    });
    assert_eq!(core.metrics().get("serve.jobs.recovered"), Some(2.0));
    assert_eq!(core.wait(1).unwrap().state, JobState::Done);
    assert_eq!(core.wait(2).unwrap().state, JobState::Done);
    // Fresh ids continue past everything the journal ever allocated.
    let fresh = core.submit("dave", kernel_job("gemm", &[])).unwrap();
    assert_eq!(fresh, 4);
    assert_eq!(core.wait(fresh).unwrap().state, JobState::Done);

    // Recovered outcomes are byte-identical to a direct run of the same
    // configuration on a fresh server.
    let report = core.artifact(2, "report").unwrap();
    let reference = ServeCore::start(cfg("journal-ref"));
    let ref_id = reference
        .submit("ref", kernel_job("spmv", &[("ports", 2)]))
        .unwrap();
    assert_eq!(reference.wait(ref_id).unwrap().state, JobState::Done);
    assert_eq!(report, reference.artifact(ref_id, "report").unwrap());
    reference.shutdown();
    core.shutdown();

    // The journal now tells an exactly-once story: ids 1, 2 and 4 have
    // one admit and one terminal each; id 3 was compacted away.
    let mut admits = std::collections::BTreeMap::new();
    let mut terminals = std::collections::BTreeMap::new();
    for line in std::fs::read_to_string(&journal).unwrap().lines() {
        match parse_journal_line(line).unwrap() {
            JournalEvent::Admit(a) => *admits.entry(a.id).or_insert(0u32) += 1,
            JournalEvent::Terminal { id } => *terminals.entry(id).or_insert(0u32) += 1,
        }
    }
    assert_eq!(admits.get(&1), Some(&1));
    assert_eq!(admits.get(&2), Some(&1));
    assert_eq!(admits.get(&4), Some(&1));
    assert_eq!(admits.get(&3), None, "terminal job must be compacted away");
    assert_eq!(terminals.get(&1), Some(&1));
    assert_eq!(terminals.get(&2), Some(&1));
    assert_eq!(terminals.get(&4), Some(&1));
}

#[test]
fn a_journal_id_past_the_exact_integer_range_is_skipped() {
    let dir = tmp("journal-hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobs.journal");
    // An id of u64::MAX as the id watermark would overflow the next id. It
    // is malformed (past 2^53, the last integer an f64 holds exactly) and
    // skipped like any other bad line.
    let hostile = journal_admit_line(7, "mallory", None, &kernel_job("bfs", &[]))
        .replace("\"id\": 7", "\"id\": 18446744073709551615");
    let mut text = String::new();
    for line in [
        journal_admit_line(1, "alice", None, &kernel_job("gemm", &[])),
        hostile,
        journal_admit_line(2, "bob", None, &kernel_job("spmv", &[])),
    ] {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(&journal, &text).unwrap();

    let core = ServeCore::start(ServeConfig {
        journal: Some(journal),
        ..cfg("journal-hostile-core")
    });
    assert_eq!(core.metrics().get("serve.jobs.recovered"), Some(2.0));
    assert_eq!(core.wait(1).unwrap().state, JobState::Done);
    assert_eq!(core.wait(2).unwrap().state, JobState::Done);
    assert_eq!(core.submit("dave", kernel_job("bfs", &[])).unwrap(), 3);
    core.shutdown();
}

#[test]
fn recovering_twice_from_the_same_journal_is_identical() {
    // Recovery itself must be deterministic: two cores booted from copies
    // of the same journal produce the same recovered set and outcomes.
    let mut text = String::new();
    for (id, bench) in [(1u64, "gemm"), (2, "spmv")] {
        text.push_str(&journal_admit_line(
            id,
            "alice",
            None,
            &kernel_job(bench, &[]),
        ));
        text.push('\n');
    }
    let mut reports = Vec::new();
    for copy in ["a", "b"] {
        let dir = tmp(&format!("journal-twice-{copy}"));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("jobs.journal");
        std::fs::write(&journal, &text).unwrap();
        let core = ServeCore::start(ServeConfig {
            journal: Some(journal),
            ..cfg(&format!("journal-twice-core-{copy}"))
        });
        assert_eq!(core.metrics().get("serve.jobs.recovered"), Some(2.0));
        assert_eq!(core.wait(1).unwrap().state, JobState::Done);
        assert_eq!(core.wait(2).unwrap().state, JobState::Done);
        reports.push((
            core.artifact(1, "report").unwrap(),
            core.artifact(2, "report").unwrap(),
        ));
        core.shutdown();
    }
    assert_eq!(reports[0], reports[1], "recovery must be deterministic");
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

#[test]
fn oversized_wire_lines_are_rejected_and_the_connection_closed() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_line_bytes: 256,
            ..cfg("bounds")
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let huge = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(4096));
    let r = send_line(&mut stream, &mut reader, &huge);
    assert!(r.contains("\"bad-request\""), "{r}");
    assert!(r.contains("size limit"), "{r}");
    // The server hangs up rather than resynchronize inside a torn stream.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");

    // A bounded request still works on a fresh connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let r = send_line(&mut stream, &mut reader, r#"{"op":"stats"}"#);
    assert!(r.contains("\"ok\": true"), "{r}");

    // The HTTP shim enforces the same ceiling on header lines.
    let mut http = TcpStream::connect(addr).unwrap();
    let mut http_reader = BufReader::new(http.try_clone().unwrap());
    http.write_all(
        format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(4096)
        )
        .as_bytes(),
    )
    .unwrap();
    let mut status = String::new();
    http_reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    server.shutdown();
}

#[test]
fn cancel_deadline_and_health_ride_the_wire() {
    // max_running: 0 pins submissions in the queue so cancel outcomes are
    // deterministic.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            quota: TenantQuota {
                max_running: 0,
                ..TenantQuota::default()
            },
            ..cfg("wire-cancel")
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Submit with a deadline; the field round-trips through the wire.
    let r = send_line(
        &mut stream,
        &mut reader,
        r#"{"op":"submit","tenant":"alice","deadline_ms":60000,"job":{"type":"kernel","bench":"gemm"}}"#,
    );
    let v = salam_obs::json::parse(&r).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{r}");
    let id = v.get("id").and_then(|n| n.as_f64()).unwrap() as u64;

    // Cancel it over the native op; the snapshot comes back terminal.
    let r = send_line(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"cancel","id":{id}}}"#),
    );
    assert!(r.contains("\"state\": \"failed\""), "{r}");
    assert!(r.contains("error=cancelled"), "{r}");

    // Cancelling a never-allocated id is typed.
    let r = send_line(&mut stream, &mut reader, r#"{"op":"cancel","id":999}"#);
    assert!(r.contains("\"not-found\""), "{r}");

    // Second job cancelled through the HTTP shim instead.
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
    std::io::Read::read_to_string(&mut http, &mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let payload = response.split("\r\n\r\n").nth(1).unwrap();
    let bob_id = salam_obs::json::parse(payload)
        .unwrap()
        .get("id")
        .and_then(|n| n.as_f64())
        .unwrap() as u64;
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(format!("POST /cancel?id={bob_id} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut http, &mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("error=cancelled"), "{response}");

    // Liveness and readiness endpoints.
    for (path, needle) in [
        ("/healthz", "HTTP/1.1 200 OK"),
        ("/readyz", "HTTP/1.1 200 OK"),
    ] {
        let mut http = TcpStream::connect(addr).unwrap();
        http.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        std::io::Read::read_to_string(&mut http, &mut response).unwrap();
        assert!(response.starts_with(needle), "{path}: {response}");
    }
    server.shutdown();
}
