//! End-to-end smoke tests: every workload runs for one second, untraced
//! and traced, and its last stdout line is the contract's JSON with
//! exactly the metrics `BENCHMARK.json` declares, no failed op.

use std::process::Command;

use salam_obs::json::{self, Value};

/// Names under `section` of `BENCHMARK.json`, with their units.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its parsed last stdout line.
fn run(workload: &str, trace: bool, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_salam-benchmark"))
        .args(["--workload", workload, "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Must not leak into the run: every option is passed explicitly.
        .env("SALAM_DSE_NO_CACHE", "1")
        .env("SALAM_JOBS", "7")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn check(workload: &str, trace: bool) {
    let v = run(workload, trace, 3);
    let keys: Vec<&str> = v
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{workload}: metrics differ from BENCHMARK.json");
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}/{name}");
        if !trace {
            assert!(value.unwrap() > 0.0, "{workload}/{name} must never be 0");
        }
    }
}

#[test]
fn sim_spm_reports_every_declared_metric() {
    check("sim_spm", false);
    check("sim_spm", true);
}

#[test]
fn sim_memsys_reports_every_declared_metric() {
    check("sim_memsys", false);
    check("sim_memsys", true);
}

#[test]
fn sweep_replay_reports_every_declared_metric() {
    check("sweep_replay", false);
    check("sweep_replay", true);
}

#[test]
fn serve_mixed_reports_every_declared_metric() {
    check("serve_mixed", false);
    check("serve_mixed", true);
}

#[test]
fn a_traced_run_writes_a_loadable_chrome_trace() {
    run("sim_memsys", true, 5);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../target/benchmark");
    let trace = std::fs::read_to_string(format!("{out}/trace_sim_memsys.json")).unwrap();
    let v = json::parse(&trace).expect("trace is JSON");
    let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("core.cluster.stream")));
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result_line() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "sim_spm", "--trace", "2"],
        vec![],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_salam-benchmark"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
