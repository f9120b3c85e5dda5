//! Shared bottleneck-report machinery: profiled runs (cycle attribution +
//! dynamic critical path) and the deterministic table / CSV / JSON / diff
//! renderers behind the `salam_report` binary and the profiling
//! integration tests.
//!
//! Every renderer draws from one ordered [`Summary`], so all formats — and
//! the diff — agree byte for byte across repeat runs of the same
//! configuration (no wall-clock, no hash-map iteration order).

use machsuite::BuiltKernel;
use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
use salam::RunReport;
use salam_dse::SweepTable;
use salam_obs::{analyze, CritPath, CycleClass, DepStream};

/// One kernel run with profiling on: the ordinary report plus the recorded
/// dependency stream and its critical-path analysis.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The standard run report (attribution lives in `report.stats`).
    pub report: RunReport,
    /// The raw producer→consumer record.
    pub depstream: DepStream,
    /// Critical path, per-op slack, per-class headroom.
    pub critpath: CritPath,
}

/// Runs `kernel` with dependency-stream recording and analyzes the result.
pub fn profile(kernel: &BuiltKernel, cfg: &StandaloneConfig) -> ProfiledRun {
    let (report, depstream) =
        try_run_kernel_profiled(kernel, cfg).unwrap_or_else(|e| panic!("{e}"));
    let critpath = analyze(&depstream);
    ProfiledRun {
        report,
        depstream,
        critpath,
    }
}

/// Re-schedules `kernel` analytically at `cfg` — recording once at the
/// replay baseline, then list-scheduling the captured dependence stream —
/// and wraps the synthesized report as a [`ProfiledRun`]. This is the
/// replayed side of `salam_report --diff replay`; the critical path is
/// analyzed over the recorded baseline stream (the DAG replay
/// re-schedules).
///
/// # Errors
///
/// A message when recording fails or the replay is rejected (scheduler
/// error, or a cycle count below the static lower bound).
pub fn replay_profile(kernel: &BuiltKernel, cfg: &StandaloneConfig) -> Result<ProfiledRun, String> {
    let (report, trace) = salam_dse::replay_one(kernel, cfg)?;
    let critpath = analyze(&trace);
    Ok(ProfiledRun {
        report,
        depstream: trace,
        critpath,
    })
}

/// Checks the accounting invariants the profiling subsystem guarantees:
/// attribution buckets sum exactly to total engine cycles, and the critical
/// path never exceeds the run. Returns the first violation as an error.
pub fn check_invariants(run: &ProfiledRun) -> Result<(), String> {
    let cycles = run.report.stats.cycles;
    let attributed = run.report.stats.attribution.total();
    if attributed != cycles {
        return Err(format!(
            "attribution buckets sum to {attributed} but the engine ran {cycles} cycles"
        ));
    }
    if run.critpath.length > cycles {
        return Err(format!(
            "critical path spans {} cycles, more than the {cycles}-cycle run",
            run.critpath.length
        ));
    }
    Ok(())
}

/// The flat, ordered metric view all formats render from.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Kernel name.
    pub name: String,
    /// Verification outcome.
    pub verified: bool,
    /// Label of the attribution class with the most cycles.
    pub dominant: &'static str,
    /// `(metric, value)` in fixed report order.
    pub metrics: Vec<(String, f64)>,
}

/// Flattens a profiled run into its deterministic metric list.
pub fn summarize(run: &ProfiledRun) -> Summary {
    let st = &run.report.stats;
    let cp = &run.critpath;
    let mut metrics: Vec<(String, f64)> = vec![("cycles".into(), st.cycles as f64)];
    for (class, n) in st.attribution.iter() {
        metrics.push((format!("attr.{}", class.label()), n as f64));
    }
    metrics.push(("critpath.length".into(), cp.length as f64));
    metrics.push(("critpath.ops".into(), cp.path.len() as f64));
    metrics.push(("critpath.zero_slack_ops".into(), cp.zero_slack_ops as f64));
    for (class, n) in &cp.headroom {
        metrics.push((format!("headroom.{class}"), *n as f64));
    }
    for (cause, n) in &st.reject_causes {
        metrics.push((format!("reject.{cause}"), *n as f64));
    }
    metrics.push(("power_mw".into(), run.report.power.total_mw()));
    metrics.push(("area_um2".into(), run.report.total_area_um2()));
    Summary {
        name: run.report.name.clone(),
        verified: run.report.verified,
        dominant: st.attribution.dominant().label(),
        metrics,
    }
}

/// Formats a metric value: counts print as integers, everything else with
/// three decimals — stable across runs.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Aligned plain-text report: attribution with percentages, critical-path
/// figures, headroom ranking, reject causes.
pub fn render_table(run: &ProfiledRun) -> String {
    let s = summarize(run);
    let cycles = run.report.stats.cycles.max(1) as f64;
    let mut t = SweepTable::new(
        format!("{} bottleneck report (dominant: {})", s.name, s.dominant),
        &["metric", "value", "share"],
    );
    for (k, v) in &s.metrics {
        let share = if k.starts_with("attr.") || k == "critpath.length" {
            format!("{:.1}%", v / cycles * 100.0)
        } else {
            String::new()
        };
        t.row(vec![k.clone(), fmt_value(*v), share]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "verified: {}\n",
        if s.verified { "yes" } else { "no" }
    ));
    out
}

/// `metric,value` CSV, one run per file.
pub fn render_csv(run: &ProfiledRun) -> String {
    let s = summarize(run);
    let mut out = String::from("metric,value\n");
    out.push_str(&format!("name,{}\n", s.name));
    out.push_str(&format!(
        "verified,{}\n",
        if s.verified { "yes" } else { "no" }
    ));
    out.push_str(&format!("dominant_bottleneck,{}\n", s.dominant));
    for (k, v) in &s.metrics {
        out.push_str(&format!("{k},{}\n", fmt_value(*v)));
    }
    out
}

/// A single JSON object mirroring the summary; keys appear in report order.
pub fn render_json(run: &ProfiledRun) -> String {
    let s = summarize(run);
    let mut out = String::from("{");
    out.push_str(&format!("\"name\": \"{}\", ", s.name));
    out.push_str(&format!("\"verified\": {}, ", s.verified));
    out.push_str(&format!("\"dominant_bottleneck\": \"{}\", ", s.dominant));
    out.push_str("\"metrics\": {");
    for (i, (k, v)) in s.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{k}\": {}", fmt_value(*v)));
    }
    out.push_str("}}");
    out.push('\n');
    out
}

/// Side-by-side diff of two profiled runs (metric, a, b, delta). Metrics
/// present in only one run show a blank on the other side.
pub fn render_diff(a: &ProfiledRun, b: &ProfiledRun) -> String {
    let (sa, sb) = (summarize(a), summarize(b));
    let mut t = SweepTable::new(
        format!("bottleneck diff: {} vs {}", sa.name, sb.name),
        &["metric", "a", "b", "delta"],
    );
    t.row(vec![
        "dominant_bottleneck".into(),
        sa.dominant.into(),
        sb.dominant.into(),
        if sa.dominant == sb.dominant { "" } else { "!" }.into(),
    ]);
    // Union of metric keys, a's order first, then b-only keys in b order.
    let mut keys: Vec<&str> = sa.metrics.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in &sb.metrics {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    let find = |s: &Summary, key: &str| -> Option<f64> {
        s.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    };
    for key in keys {
        let (va, vb) = (find(&sa, key), find(&sb, key));
        let delta = match (va, vb) {
            (Some(x), Some(y)) => {
                let d = y - x;
                if d == 0.0 {
                    String::new()
                } else {
                    format!("{}{}", if d > 0.0 { "+" } else { "" }, fmt_value(d))
                }
            }
            _ => String::new(),
        };
        t.row(vec![
            key.to_string(),
            va.map(fmt_value).unwrap_or_default(),
            vb.map(fmt_value).unwrap_or_default(),
            delta,
        ]);
    }
    t.render()
}

/// The per-class attribution line used by sweep tables: the dominant class
/// label, e.g. `mem_port`. Kept here so every binary prints the same
/// spelling the JSON reports use.
pub fn dominant_label(report: &RunReport) -> &'static str {
    report.stats.attribution.dominant().label()
}

/// All attribution labels in report order (column sets, CSV headers).
pub fn class_labels() -> impl Iterator<Item = &'static str> {
    CycleClass::ALL.into_iter().map(CycleClass::label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_run() -> ProfiledRun {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        profile(&k, &StandaloneConfig::default())
    }

    #[test]
    fn invariants_hold_on_a_real_kernel() {
        let run = gemm_run();
        check_invariants(&run).unwrap();
        assert!(run.report.verified);
        assert!(!run.depstream.is_empty());
        assert!(!run.critpath.path.is_empty());
    }

    #[test]
    fn renders_are_deterministic_across_repeat_runs() {
        let (a, b) = (gemm_run(), gemm_run());
        assert_eq!(render_table(&a), render_table(&b));
        assert_eq!(render_csv(&a), render_csv(&b));
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn diff_flags_changed_metrics() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let fast = profile(&k, &StandaloneConfig::default());
        let slow_cfg = StandaloneConfig {
            spm_latency: 16,
            ..StandaloneConfig::default()
        };
        let slow = profile(&k, &slow_cfg);
        let d = render_diff(&fast, &slow);
        assert!(d.contains("cycles"));
        assert!(d.contains('+'), "cycles must rise with one port:\n{d}");
        // Diff of a run against itself shows no deltas.
        let same = render_diff(&fast, &fast);
        for line in same.lines().skip(3) {
            assert!(
                !line.contains('+') && !line.contains('!'),
                "unexpected delta in self-diff line: {line}"
            );
        }
    }

    #[test]
    fn replay_profile_diffs_cleanly_against_simulation() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let cfg = StandaloneConfig {
            spm_read_ports: 1,
            spm_write_ports: 1,
            ..StandaloneConfig::default()
        };
        let sim = profile(&k, &cfg);
        let rep = replay_profile(&k, &cfg).expect("replay accepted");
        // Replay is cycle-exact on port axes, so the attribution delta per
        // bottleneck class is zero — exactly what the diff must show.
        assert_eq!(rep.report.cycles, sim.report.cycles);
        assert_eq!(
            rep.report.stats.attribution.total(),
            rep.report.cycles,
            "replayed attribution stays a full partition"
        );
        let d = render_diff(&sim, &rep);
        assert!(d.contains("attr."));
        for line in d.lines().filter(|l| l.contains("attr.")) {
            assert!(
                !line.contains('+'),
                "attribution delta must be zero for an exact replay: {line}"
            );
        }
    }

    #[test]
    fn class_labels_cover_six_classes() {
        assert_eq!(class_labels().count(), 6);
    }
}
