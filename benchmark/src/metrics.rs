//! The metric tables: what `BENCHMARK.json` lists is exactly what a run
//! prints. An untraced run reports every end-to-end metric, a traced run
//! every per-layer metric; a layer the workload never calls reads 0.

use crate::harness::Metrics;

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        e2e("setup_s", "s", "lower", 0.25),
        e2e("ops_per_s", "op/s", "higher", 0.25),
        e2e("op_ms_p50", "ms", "lower", 0.25),
        e2e("op_ms_p90", "ms", "lower", 0.25),
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order. Counts that a
/// speed-only change must leave identical are marked `count`.
pub fn per_layer() -> Vec<Spec> {
    vec![
        // Front end and static analysis.
        layer("llvm_ir.parse_us", "us", "lower"),
        layer("llvm_ir.parse_mb_per_s", "MB/s", "higher"),
        layer("llvm_ir.interp_minst_per_s", "Minst/s", "higher"),
        layer("verify.gate_us", "us", "lower"),
        layer("verify.bound_us", "us", "lower"),
        layer("flow.analyze_us", "us", "lower"),
        layer("cdfg.elaborate_us", "us", "lower"),
        layer("core.report_us", "us", "lower"),
        // The engine on a private SPM.
        layer("runtime.engine_ms", "ms", "lower"),
        layer("runtime.new_us", "us", "lower"),
        layer("runtime.minst_per_s", "Minst/s", "higher"),
        layer("runtime.host_ns_per_inst", "ns", "lower"),
        layer("runtime.host_ns_per_cycle", "ns", "lower"),
        layer("runtime.profiled_ratio", "ratio", "lower"),
        layer("runtime.cycles", "count", "lower"),
        layer("runtime.dyn_insts", "count", "lower"),
        layer("runtime.stall_cycle_share", "ratio", "lower"),
        layer("core.run_ms.bfs", "ms", "lower"),
        layer("core.run_ms.fft", "ms", "lower"),
        layer("core.run_ms.gemm", "ms", "lower"),
        layer("core.run_ms.md-grid", "ms", "lower"),
        layer("core.run_ms.md-knn", "ms", "lower"),
        layer("core.run_ms.nw", "ms", "lower"),
        layer("core.run_ms.spmv", "ms", "lower"),
        layer("core.run_ms.stencil2d", "ms", "lower"),
        layer("core.run_ms.stencil3d", "ms", "lower"),
        // The engine in lockstep with the event-driven memory system.
        layer("core.cached_run_ms", "ms", "lower"),
        layer("core.cluster_ms.private-spm", "ms", "lower"),
        layer("core.cluster_ms.shared-spm", "ms", "lower"),
        layer("core.cluster_ms.stream", "ms", "lower"),
        layer("memsys.minst_per_s", "Minst/s", "higher"),
        layer("memsys.host_ns_per_cycle", "ns", "lower"),
        layer("memsys.spm_req_ns", "ns", "lower"),
        layer("memsys.cache_req_ns", "ns", "lower"),
        layer("memsys.dram_req_ns", "ns", "lower"),
        layer("memsys.xbar_req_ns", "ns", "lower"),
        layer("memsys.dma_mb_per_s", "MB/s", "higher"),
        layer("sim_core.event_ns", "ns", "lower"),
        layer("memsys.cycles", "count", "lower"),
        layer("memsys.stall_cycle_share", "ratio", "lower"),
        // Replay and the sweep engine.
        layer("replay.prepare_us", "us", "lower"),
        layer("replay.point_us", "us", "lower"),
        layer("replay.minst_per_s", "Minst/s", "higher"),
        layer("replay.speedup_vs_sim", "ratio", "higher"),
        layer("replay.err_pct", "%", "lower"),
        layer("dse.baseline_load_ms", "ms", "lower"),
        layer("dse.replay_point_us", "us", "lower"),
        layer("dse.replay_share", "ratio", "higher"),
        layer("dse.cache.store_us", "us", "lower"),
        layer("dse.cache.lookup_us", "us", "lower"),
        layer("dse.cold_point_ms", "ms", "lower"),
        layer("dse.cold_overhead_ratio", "ratio", "lower"),
        layer("dse.pool_efficiency", "ratio", "higher"),
        layer("dse.warm_point_us", "us", "lower"),
        layer("dse.replayed_share", "ratio", "higher"),
        layer("dse.fallbacks", "count", "lower"),
        // The job server.
        layer("serve.wire_rtt_us", "us", "lower"),
        layer("serve.submit_us", "us", "lower"),
        layer("serve.wait_us", "us", "lower"),
        layer("serve.result_us", "us", "lower"),
        layer("serve.core_job_ms_p50", "ms", "lower"),
        layer("serve.job_hit_ms_p50", "ms", "lower"),
        layer("serve.job_miss_ms_p50", "ms", "lower"),
        layer("serve.job_sweep_ms_p50", "ms", "lower"),
        layer("serve.queue_us_p50", "us", "lower"),
        layer("serve.run_us_p50", "us", "lower"),
        layer("serve.e2e_us_p99", "us", "lower"),
        layer("serve.cache_hit_ratio", "ratio", "higher"),
        layer("serve.coalesced", "count", "lower"),
        layer("serve.rejected", "count", "lower"),
        // Cost of looking, accuracy, and the run itself.
        layer("obs.noop_sink_ratio", "ratio", "lower"),
        layer("obs.recording_ratio", "ratio", "lower"),
        layer("telemetry.flight_ratio", "ratio", "lower"),
        layer("accuracy.sim_vs_hls_err_pct", "%", "lower"),
        layer("bench.pass_ms_min", "ms", "lower"),
        layer("bench.pass_ms_p50", "ms", "lower"),
        layer("bench.pass_ms_p90", "ms", "lower"),
        layer("bench.passes", "count", "higher"),
        layer("bench.trace_overhead_ratio", "ratio", "lower"),
        layer("host.peak_rss_mb", "MB", "lower"),
        layer("host.cpu_ms_per_op", "ms", "lower"),
        layer("host.cpu_util", "ratio", "higher"),
    ]
}

/// `true` for names the benchmark contract accepts: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The run's last stdout line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding exactly the
/// metrics of `table`.
///
/// # Errors
///
/// A measured metric that `table` does not declare, a name outside the
/// contract, or a value that is not a finite number — each is a bug in the
/// benchmark, not a result.
pub fn result_line(
    table: &[Spec],
    measured: &Metrics,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(stray) = measured
        .keys()
        .find(|k| !table.iter().any(|s| s.name == k.as_str()))
    {
        return Err(format!("metric '{stray}' is measured but not declared"));
    }
    let mut fields = Vec::new();
    for spec in table {
        if !valid_name(spec.name) {
            return Err(format!(
                "metric name '{}' is outside the contract",
                spec.name
            ));
        }
        let value = measured.get(spec.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric '{}' is not finite: {value}", spec.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_within_the_contract() {
        let all: Vec<Spec> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for s in &all {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(seen.insert(s.name), "duplicate {}", s.name);
            assert!(s.better == "lower" || s.better == "higher");
            assert!((1..=16).contains(&s.unit.len()));
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = &end_to_end()[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        let widest = end_to_end()
            .iter()
            .filter_map(|s| s.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` must declare exactly what a run prints.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        use salam_obs::json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = salam_obs::json::parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        type Row = (String, String, String, Option<f64>);
        let row = |s: &Spec| -> Row { (s.name.into(), s.unit.into(), s.better.into(), s.bound) };
        let declared = |section: &str| -> Vec<Row> {
            v.get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            end_to_end().iter().map(row).collect::<Vec<_>>()
        );
        assert_eq!(
            declared("per_layer"),
            per_layer().iter().map(row).collect::<Vec<_>>()
        );
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn name_rule_matches_the_contract_regex() {
        for good in [
            "a",
            "setup_s",
            "core.run_ms.md-grid",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let table = end_to_end();
        let mut m = Metrics::new();
        m.insert("setup_s".into(), 0.8127);
        m.insert("ops_per_s".into(), 19.25);
        let line = result_line(&table, &m, 90, 0).unwrap();
        let v = salam_obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), table.len());
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // A layer the workload never calls reads 0.
        let p90 = v.get("metrics").unwrap().get("op_ms_p90").unwrap();
        assert_eq!(p90.get("value").unwrap().as_f64(), Some(0.0));

        assert!(!line.contains('\n'));
        let failed = result_line(&table, &m, 90, 1).unwrap();
        assert!(failed.starts_with("{\"correct\": false"));
        m.insert("typo".into(), 1.0);
        assert!(result_line(&table, &m, 90, 0).is_err());
        m.remove("typo");
        m.insert("ops_per_s".into(), f64::NAN);
        assert!(result_line(&table, &m, 90, 0).is_err());
    }
}
