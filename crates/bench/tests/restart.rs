//! Crash recovery across a real process boundary: a journaled
//! `salam_serve` is SIGKILLed mid-flight and restarted on the same
//! journal. Every job the journal left open must complete exactly once,
//! and a recovered report must be byte-identical to a fresh run of the
//! same configuration.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use salam_obs::json::{self, Value};
use salam_serve::wire::{parse_journal_line, JournalEvent};

/// One request line out, one response line back.
fn wire(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("recv");
    resp
}

fn submit_gemm(addr: &str, tenant: &str, latency: u64) -> u64 {
    let resp = wire(
        addr,
        &format!(
            r#"{{"op":"submit","tenant":"{tenant}","job":{{"type":"kernel","bench":"gemm","knobs":{{"spm-latency":{latency}}}}}}}"#
        ),
    );
    let v = json::parse(&resp).expect("response parses");
    v.get("id")
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no id in {resp}")) as u64
}

/// The status line of a raw HTTP GET; `None` when the server is gone or
/// hangs up without answering.
fn http_status(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .ok()?;
    let mut status = String::new();
    BufReader::new(stream).read_line(&mut status).ok()?;
    (!status.trim().is_empty()).then_some(status)
}

/// Per-id (admits, terminals) from a journal, skipping a torn final line
/// (the SIGKILL can land mid-write).
fn journal_counts(path: &Path) -> BTreeMap<u64, (u64, u64)> {
    let mut counts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for line in std::fs::read_to_string(path).unwrap_or_default().lines() {
        match parse_journal_line(line) {
            Ok(JournalEvent::Admit(a)) => counts.entry(a.id).or_default().0 += 1,
            Ok(JournalEvent::Terminal { id }) => counts.entry(id).or_default().1 += 1,
            Err(_) => {}
        }
    }
    counts
}

/// A spawned server, SIGKILLed on drop so a failing test leaves no
/// process behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts a one-slot journaled server; returns it and its address.
fn spawn(dir: &Path, log: &str) -> (Server, String) {
    let log = dir.join(log);
    let server = Server(
        Command::new(env!("CARGO_BIN_EXE_salam_serve"))
            .args(["--addr", "127.0.0.1:0", "--slots", "1", "--journal"])
            .arg(dir.join("jobs.journal"))
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .stdout(std::fs::File::create(&log).expect("create server log"))
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn salam_serve"),
    );
    for _ in 0..400 {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(addr) = text
            .lines()
            .find_map(|l| l.strip_prefix("salam_serve: listening on "))
        {
            return (server, addr.to_string());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("server never reported its address");
}

#[test]
fn sigkilled_server_recovers_every_open_job_exactly_once() {
    let dir = std::env::temp_dir().join(format!("salam-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobs.journal");

    // Server 1: four jobs on one slot, then SIGKILL mid-flight. Job ids
    // are 1..=4 and job `i` runs with spm-latency `i`.
    let (server, addr) = spawn(&dir, "serve1.log");
    for latency in 1..=4 {
        assert_eq!(submit_gemm(&addr, "chaos", latency), latency);
    }
    drop(server);
    let open: Vec<u64> = journal_counts(&journal)
        .into_iter()
        .filter(|&(_, (a, t))| a > 0 && t == 0)
        .map(|(id, _)| id)
        .collect();
    assert!(!open.is_empty(), "the kill raced every job to completion");

    // Server 2 on the same journal re-admits the open jobs under their
    // original ids.
    let (mut server, addr) = spawn(&dir, "serve2.log");
    assert!(http_status(&addr, "/healthz").unwrap().contains("200"));
    assert!(http_status(&addr, "/readyz").unwrap().contains("200"));
    let report = |id: u64| {
        let done = wire(&addr, &format!(r#"{{"op":"wait","id":{id}}}"#));
        assert!(done.contains(r#""state": "done""#), "job {id} lost: {done}");
        wire(
            &addr,
            &format!(r#"{{"op":"result","id":{id},"artifact":"report"}}"#),
        )
    };
    let recovered: Vec<String> = open.iter().map(|&id| report(id)).collect();
    // Job ids were spm-latencies, so this re-runs the first open job.
    let fresh = report(submit_gemm(&addr, "ref", open[0]));
    assert_eq!(
        recovered[0], fresh,
        "recovered report differs from a fresh run"
    );

    wire(&addr, r#"{"op":"shutdown"}"#);
    // Draining flips readiness; a listener already gone proves it too.
    if let Some(status) = http_status(&addr, "/readyz") {
        assert!(status.contains("503"), "draining readyz: {status}");
    }
    server.0.wait().unwrap();

    // Exactly once, as the journal tells it.
    let after = journal_counts(&journal);
    assert!(
        after.values().all(|&(a, t)| a <= 1 && t <= 1),
        "a job was admitted or finished twice: {after:?}"
    );
    for id in &open {
        assert_eq!(after.get(id), Some(&(1, 1)), "job {id}");
    }
    let p99_ms: f64 = std::fs::read_to_string(dir.join("serve2.log"))
        .unwrap()
        .lines()
        .last()
        .and_then(|l| l.split("e2e_p99_ms=").nth(1))
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .expect("final stats line carries e2e_p99_ms");
    assert!(p99_ms < 120_000.0, "post-recovery p99 {p99_ms} ms");
}

/// A journal that cannot be opened is a start-up error, not a panic: the
/// library returns it from `Server::bind`, and the binary exits 1 with a
/// message.
#[test]
fn an_unopenable_journal_fails_start_up_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("salam-bad-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let journal = file.join("jobs.journal");

    let bound = salam_serve::Server::bind(
        "127.0.0.1:0",
        salam_serve::ServeConfig {
            journal: Some(journal.clone()),
            no_cache: true,
            ..salam_serve::ServeConfig::default()
        },
    );
    assert!(bound.is_err(), "bind must report the journal error");

    let out = Command::new(env!("CARGO_BIN_EXE_salam_serve"))
        .args(["--addr", "127.0.0.1:0", "--no-cache", "--journal"])
        .arg(&journal)
        .output()
        .expect("spawn salam_serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot start"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
