//! `chaos_smoke` — the resilience chaos harness (PR 9).
//!
//! Phase A drives an in-process [`ServeCore`] through every resilience
//! mechanism with faults injected on purpose:
//!
//! * a job with a tight deadline fails typed `timeout`, cancelled
//!   cooperatively at an engine cycle-batch boundary;
//! * explicit cancel stops queued and running jobs (and is idempotent);
//! * injected worker panics trip the per-fingerprint circuit breaker
//!   open → half-open → closed, and the transition log is byte-identical
//!   between a 1-slot and an 8-slot server (determinism gate);
//! * a single injected panic is absorbed by one seeded-backoff retry;
//! * a full accept queue sheds load with a `retry_after_ms` hint, and
//!   queue pressure degrades a fresh sweep to the replay fast path;
//! * a terminal job evicted from retention reports typed `evicted`.
//!
//! Phase B is the crash-recovery drill: it spawns a real `salam_serve`
//! with `--journal`, submits jobs over the wire, SIGKILLs the server
//! mid-flight, restarts it on the same journal, and asserts the
//! exactly-once invariants — every open job completes after recovery
//! (`lost=0`), no job is admitted or finished twice (`dup=0`), and a
//! recovered job's report is byte-identical to a fresh run of the same
//! configuration. `/healthz` and `/readyz` are probed over the HTTP shim.
//!
//! Prints one final marker line:
//!
//! ```text
//! chaos: timeout=1 cancelled=3 breaker=deterministic retry=ok shed=1
//!   degraded=1 evicted=ok restart: open=K recovered=K lost=0 dup=0
//!   identical=1 p99_ms=F ok
//! ```
//!
//! and, when `CHAOS_OUT` is set, writes the same facts as a JSON artifact.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use salam_fault::FaultPlan;
use salam_resilience::BackoffPolicy;
use salam_serve::wire::{parse_journal_line, JournalEvent};
use salam_serve::{JobRequest, JobState, ServeConfig, ServeCore, SubmitOpts, WireAxis};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos tmp dir");
    dir
}

fn cfg(tag: &str) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(tmp(tag).join("cache")),
        no_cache: true,
        ..ServeConfig::default()
    }
}

fn kernel(bench: &str, knobs: &[(&str, u64)]) -> JobRequest {
    JobRequest::Kernel {
        bench: bench.into(),
        knobs: knobs.iter().map(|(k, v)| ((*k).into(), *v)).collect(),
        trace: false,
    }
}

/// A job that deadlocks (nearly every memory response dropped) with a
/// watchdog horizon far enough out that, at simulation speed, it runs
/// "forever" — the canonical victim for deadline and cancel drills. The
/// rate stays below 1.0 so the static deadlock gate (F004) classifies it
/// `Possible` and admits it; the seeded draw still wedges immediately.
fn stuck_job(seed: u64) -> JobRequest {
    let mut plan = FaultPlan::seeded(seed);
    plan.mem_drop_rate = 0.999;
    JobRequest::Faulted {
        bench: "gemm".into(),
        knobs: vec![("deadlock-cycles".into(), 2_000_000_000)],
        plan,
    }
}

/// Poll until the job leaves the queue (a worker holds it).
fn wait_running(core: &ServeCore, id: u64) {
    for _ in 0..4000 {
        match core.status(id).expect("job exists").state {
            JobState::Running => return,
            JobState::Done | JobState::Failed => {
                panic!("job {id} finished before it was seen running")
            }
            JobState::Queued => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    panic!("job {id} never started running");
}

fn detail(core: &ServeCore, id: u64) -> String {
    core.wait(id)
        .expect("job exists")
        .detail
        .unwrap_or_default()
}

/// Phase A1: an un-meetable deadline fails typed `timeout` long before the
/// job's own (enormous) watchdog horizon.
fn drill_deadline() -> u64 {
    let core = ServeCore::start(cfg("deadline"));
    let id = core
        .submit_with(
            "chaos",
            stuck_job(1),
            SubmitOpts {
                deadline_ms: Some(40),
            },
        )
        .expect("admitted");
    let s = core.wait(id).expect("job exists");
    assert_eq!(s.state, JobState::Failed, "deadline job must fail");
    assert_eq!(s.detail.as_deref(), Some("error=timeout"));
    let timeouts = core.metrics().get("serve.jobs.timeout");
    assert_eq!(timeouts, Some(1.0), "timeout metric must count the job");
    core.shutdown();
    1
}

/// Phase A2: explicit cancel of a running job, a queued job, and a second
/// (idempotent) cancel of an already-cancelled job.
fn drill_cancel() -> u64 {
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        ..cfg("cancel")
    });
    let running = core.submit("chaos", stuck_job(2)).expect("admitted");
    wait_running(&core, running);
    let queued = core.submit("chaos", kernel("gemm", &[])).expect("admitted");

    // Cancel the queued job first: it never gets a slot, so it must go
    // terminal immediately.
    let s = core.cancel(queued).expect("job exists");
    assert!(s.state.is_terminal(), "queued cancel is immediate");
    assert_eq!(detail(&core, queued), "error=cancelled");

    // Cancel the running job: cooperative, observed at the next
    // cycle-batch boundary.
    core.cancel(running).expect("job exists");
    assert_eq!(detail(&core, running), "error=cancelled");
    // Idempotent: cancelling a terminal job returns its snapshot.
    let again = core.cancel(running).expect("job exists");
    assert!(again.state.is_terminal());

    let cancelled = core.metrics().get("serve.jobs.cancelled");
    assert_eq!(cancelled, Some(2.0), "both cancels must be counted");
    core.shutdown();
    2
}

/// Phase A3: breaker lifecycle under injected panics, run at two worker
/// counts. Submissions are serialized, so the per-key admit/outcome
/// sequence — and therefore the transition log — must be byte-identical.
fn drill_breaker(slots: usize) -> Vec<String> {
    let core = ServeCore::start(ServeConfig {
        slots,
        chaos: true,
        retries: 0,
        ..cfg(&format!("breaker{slots}"))
    });
    core.inject_panics(3);
    // Three real failures trip the breaker (threshold 3).
    for _ in 0..3 {
        let id = core
            .submit("chaos", kernel("__chaos-panic", &[]))
            .expect("admitted while breaker closed");
        assert_eq!(detail(&core, id), "error=panic");
    }
    // Cooldown: the next two submissions fast-fail with a retry hint.
    for _ in 0..2 {
        let r = core
            .submit("chaos", kernel("__chaos-panic", &[]))
            .expect_err("breaker must fast-fail");
        assert_eq!(r.code, "circuit-open");
        assert!(r.retry_after_ms.is_some(), "fast-fail carries a retry hint");
    }
    // The panic budget is spent, so the half-open probe succeeds and the
    // breaker closes.
    let probe = core
        .submit("chaos", kernel("__chaos-panic", &[]))
        .expect("probe admitted after cooldown");
    assert_eq!(
        core.wait(probe).expect("probe exists").state,
        JobState::Done
    );
    assert_eq!(core.metrics().get("serve.breaker.fastfail"), Some(2.0));
    let log = core.breaker_log();
    core.shutdown();
    log
}

/// Phase A4: one injected panic is absorbed by one seeded-backoff retry —
/// the job still completes.
fn drill_retry() {
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
        .submit("chaos", kernel("__chaos-panic", &[]))
        .expect("admitted");
    assert_eq!(
        core.wait(id).expect("job exists").state,
        JobState::Done,
        "one retry must absorb one injected panic"
    );
    core.shutdown();
}

/// Phase A5: a full accept queue sheds with a retry hint.
fn drill_shed() -> u64 {
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        max_pending: 1,
        ..cfg("shed")
    });
    let running = core.submit("chaos", stuck_job(3)).expect("admitted");
    wait_running(&core, running);
    let queued = core
        .submit("chaos", kernel("gemm", &[]))
        .expect("queue has room");
    let r = core
        .submit("chaos", kernel("spmv", &[]))
        .expect_err("queue is full; must shed");
    assert_eq!(r.code, "overloaded");
    assert!(r.retry_after_ms.is_some(), "shed carries a retry hint");
    core.cancel(queued).expect("job exists");
    core.cancel(running).expect("job exists");
    let shed = core.metrics().get("serve.jobs.shed");
    assert_eq!(shed, Some(1.0));
    core.shutdown();
    1
}

/// Phase A6: queue pressure degrades a fresh sweep to the replay engine.
fn drill_degrade() -> u64 {
    let core = ServeCore::start(ServeConfig {
        slots: 1,
        degrade_pressure: 1,
        ..cfg("degrade")
    });
    let running = core.submit("chaos", stuck_job(4)).expect("admitted");
    wait_running(&core, running);
    let queued = core.submit("chaos", kernel("gemm", &[])).expect("admitted");
    let sweep = core
        .submit(
            "chaos",
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
        .expect("sweep admitted (degraded, not shed)");
    assert_eq!(core.metrics().get("serve.jobs.degraded"), Some(1.0));
    core.cancel(running).expect("job exists");
    // With the slot free again, the queued single and the (replay) sweep
    // drain normally.
    assert_eq!(core.wait(queued).expect("exists").state, JobState::Done);
    assert_eq!(core.wait(sweep).expect("exists").state, JobState::Done);
    core.shutdown();
    1
}

/// Phase A7: eviction is a typed condition, distinct from never-existed.
fn drill_evicted() {
    let core = ServeCore::start(ServeConfig {
        retain_terminal: 1,
        ..cfg("evict")
    });
    let first = core.submit("chaos", kernel("gemm", &[])).expect("admitted");
    assert_eq!(core.wait(first).expect("exists").state, JobState::Done);
    let second = core
        .submit("chaos", kernel("gemm", &[("ports", 2)]))
        .expect("admitted");
    assert_eq!(core.wait(second).expect("exists").state, JobState::Done);
    let err = core.status(first).expect_err("first is evicted");
    assert_eq!(err.code(), "evicted");
    let err = core.status(9999).expect_err("never existed");
    assert_eq!(err.code(), "not-found");
    assert!(core.ready(), "serving core is ready");
    core.shutdown();
    assert!(!core.ready(), "shutdown flips readiness");
}

/// Wire round trip against a spawned server: one line out, one line back.
fn wire(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.flush())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    resp
}

fn wire_u64(resp: &str, key: &str) -> u64 {
    let v = salam_obs::json::parse(resp).expect("response parses");
    v.get(key)
        .and_then(salam_obs::json::Value::as_f64)
        .unwrap_or_else(|| panic!("response missing {key}: {resp}")) as u64
}

/// Raw HTTP GET against the shim; `None` when the server is unreachable
/// or hangs up without answering.
fn try_http_status(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .ok()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).ok()?;
    let status = status.trim_end().to_string();
    (!status.is_empty()).then_some(status)
}

fn http_status(addr: &str, path: &str) -> String {
    try_http_status(addr, path).expect("http response")
}

/// Per-id (admits, terminals) counts from a journal file, tolerating a
/// torn final line (the SIGKILL can land mid-write).
fn journal_counts(path: &std::path::Path) -> BTreeMap<u64, (u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut counts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        match parse_journal_line(line) {
            Ok(JournalEvent::Admit(a)) => counts.entry(a.id).or_default().0 += 1,
            Ok(JournalEvent::Terminal { id }) => counts.entry(id).or_default().1 += 1,
            Err(_) => {} // torn tail
        }
    }
    counts
}

struct RestartOutcome {
    open: usize,
    recovered: u64,
    lost: usize,
    dup: usize,
    identical: bool,
    p99_ms: f64,
}

/// Phase B: kill a journaled server mid-flight, restart it on the same
/// journal, and verify exactly-once completion with identical artifacts.
fn drill_restart() -> RestartOutcome {
    let serve_bin = std::env::var("SALAM_SERVE_BIN").map_or_else(
        |_| {
            std::env::current_exe()
                .expect("current exe")
                .with_file_name("salam_serve")
        },
        Into::into,
    );
    assert!(
        serve_bin.exists(),
        "sibling salam_serve binary not found at {} (build it first or set SALAM_SERVE_BIN)",
        serve_bin.display()
    );
    let dir = tmp("restart");
    let journal = dir.join("jobs.journal");
    let cache = dir.join("cache");
    let spawn = |log: &std::path::Path| -> (std::process::Child, String) {
        let out = std::fs::File::create(log).expect("create server log");
        let child = std::process::Command::new(&serve_bin)
            .args(["--addr", "127.0.0.1:0", "--slots", "1"])
            .arg("--journal")
            .arg(&journal)
            .arg("--cache-dir")
            .arg(&cache)
            .stdout(out)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn salam_serve");
        let mut addr = String::new();
        for _ in 0..400 {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(a) = text
                .lines()
                .find_map(|l| l.strip_prefix("salam_serve: listening on "))
            {
                addr = a.to_string();
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(!addr.is_empty(), "server never reported its address");
        (child, addr)
    };

    // Server #1: admit four jobs on one slot, then SIGKILL it mid-flight.
    let log1 = dir.join("serve1.log");
    let (mut child, addr) = spawn(&log1);
    let mut ids = Vec::new();
    for lat in 1..=4u64 {
        let resp = wire(
            &addr,
            &format!(
                r#"{{"op":"submit","tenant":"chaos","job":{{"type":"kernel","bench":"gemm","knobs":{{"spm-latency":{lat}}}}}}}"#
            ),
        );
        ids.push(wire_u64(&resp, "id"));
    }
    child.kill().expect("SIGKILL server 1");
    let _ = child.wait();

    // What the journal says is still open decides what recovery owes us.
    let before = journal_counts(&journal);
    let open: Vec<u64> = before
        .iter()
        .filter(|(_, (a, t))| *a > 0 && *t == 0)
        .map(|(id, _)| *id)
        .collect();
    assert!(
        !open.is_empty(),
        "kill raced all four jobs to completion; nothing left to recover"
    );

    // Server #2 on the same journal: the open jobs must be re-admitted
    // under their original ids and complete exactly once.
    let log2 = dir.join("serve2.log");
    let (mut child, addr) = spawn(&log2);
    assert!(http_status(&addr, "/healthz").contains("200"), "healthz up");
    assert!(http_status(&addr, "/readyz").contains("200"), "readyz up");
    let metrics = wire(&addr, r#"{"op":"metrics"}"#);
    let recovered = {
        let v = salam_obs::json::parse(&metrics).expect("metrics parse");
        v.get("metrics")
            .and_then(|m| m.get("serve.jobs.recovered"))
            .and_then(salam_obs::json::Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    let mut lost = 0usize;
    let mut reports = BTreeMap::new();
    for &id in &open {
        let resp = wire(&addr, &format!(r#"{{"op":"wait","id":{id}}}"#));
        let state = salam_obs::json::parse(&resp)
            .ok()
            .and_then(|v| {
                v.get("status")
                    .and_then(|s| s.get("state"))
                    .and_then(|s| s.as_str().map(String::from))
            })
            .unwrap_or_default();
        if state == "done" {
            let art = wire(
                &addr,
                &format!(r#"{{"op":"result","id":{id},"artifact":"report"}}"#),
            );
            reports.insert(id, art);
        } else {
            eprintln!("chaos: job {id} after recovery: {resp}");
            lost += 1;
        }
    }

    // Byte-identical artifacts: a fresh submit of the first recovered
    // job's exact configuration must produce the same report.
    let identical = if let Some((&first, recovered_report)) = reports.iter().next() {
        let lat = first; // ids 1..=4 were submitted with spm-latency == id
        let resp = wire(
            &addr,
            &format!(
                r#"{{"op":"submit","tenant":"ref","job":{{"type":"kernel","bench":"gemm","knobs":{{"spm-latency":{lat}}}}}}}"#
            ),
        );
        let ref_id = wire_u64(&resp, "id");
        wire(&addr, &format!(r#"{{"op":"wait","id":{ref_id}}}"#));
        let ref_report = wire(
            &addr,
            &format!(r#"{{"op":"result","id":{ref_id},"artifact":"report"}}"#),
        );
        ref_report == *recovered_report
    } else {
        false
    };

    wire(&addr, r#"{"op":"shutdown"}"#);
    // Readiness must flip while the server drains; the listener may also
    // already be gone or hang up silently — all of those prove "not ready".
    if let Some(status) = try_http_status(&addr, "/readyz") {
        assert!(status.contains("503"), "draining readyz: {status}");
    }
    let _ = child.wait();

    // Exactly-once, as the journal tells it: every id admitted at most
    // once and finished at most once; every recovered id exactly once.
    let after = journal_counts(&journal);
    let dup = after.values().filter(|(a, t)| *a > 1 || *t > 1).count();
    for &id in &open {
        let (a, t) = after.get(&id).copied().unwrap_or((0, 0));
        assert_eq!((a, t), (1, 1), "job {id} must journal 1 admit + 1 terminal");
    }

    let p99_ms = std::fs::read_to_string(&log2)
        .unwrap_or_default()
        .lines()
        .last()
        .and_then(|l| l.split("e2e_p99_ms=").nth(1))
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(f64::NAN);

    RestartOutcome {
        open: open.len(),
        recovered,
        lost,
        dup,
        identical,
        p99_ms,
    }
}

fn main() {
    // The breaker/retry drills inject worker panics on purpose; the default
    // hook would spray their backtraces over the CI log. Keep every other
    // panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("chaos: injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let timeouts = drill_deadline();
    println!("chaos_smoke: deadline drill ok");
    let cancelled = drill_cancel();
    println!("chaos_smoke: cancel drill ok");
    let log1 = drill_breaker(1);
    let log8 = drill_breaker(8);
    assert!(!log1.is_empty(), "breaker must log transitions");
    assert_eq!(
        log1, log8,
        "breaker transition log must be identical across worker counts"
    );
    let transitions: Vec<&str> = log1.iter().filter_map(|l| l.split(": ").nth(1)).collect();
    assert_eq!(
        transitions,
        ["closed->open", "open->half-open", "half-open->closed"],
        "breaker must open, probe, and recover"
    );
    println!("chaos_smoke: breaker drill ok ({})", log1.join(", "));
    drill_retry();
    println!("chaos_smoke: retry drill ok");
    let shed = drill_shed();
    println!("chaos_smoke: shed drill ok");
    let degraded = drill_degrade();
    println!("chaos_smoke: degrade drill ok");
    drill_evicted();
    println!("chaos_smoke: eviction drill ok");
    let r = drill_restart();
    println!("chaos_smoke: restart drill ok");

    assert_eq!(r.lost, 0, "no lost jobs after recovery");
    assert_eq!(r.dup, 0, "no double-admission or double-completion");
    assert!(r.identical, "recovered artifact must match a fresh run");
    assert!(
        r.p99_ms.is_finite() && r.p99_ms < 120_000.0,
        "post-recovery p99 must be bounded, got {}",
        r.p99_ms
    );

    let marker = format!(
        "chaos: timeout={timeouts} cancelled={cancelled} breaker=deterministic retry=ok \
         shed={shed} degraded={degraded} evicted=ok restart: open={} recovered={} \
         lost={} dup={} identical={} p99_ms={:.3} ok",
        r.open,
        r.recovered,
        r.lost,
        r.dup,
        u8::from(r.identical),
        r.p99_ms
    );
    if let Ok(path) = std::env::var("CHAOS_OUT") {
        let json = format!(
            "{{\"timeout\": {timeouts}, \"cancelled\": {cancelled}, \
             \"breaker_log\": [{}], \"shed\": {shed}, \"degraded\": {degraded}, \
             \"restart\": {{\"open\": {}, \"recovered\": {}, \"lost\": {}, \"dup\": {}, \
             \"identical\": {}, \"p99_ms\": {:.3}}}}}",
            log1.iter()
                .map(|l| format!("\"{}\"", salam_obs::json::escape(l)))
                .collect::<Vec<_>>()
                .join(", "),
            r.open,
            r.recovered,
            r.lost,
            r.dup,
            r.identical,
            r.p99_ms
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("chaos_smoke: cannot write {path}: {e}");
        }
    }
    println!("{marker}");
}
