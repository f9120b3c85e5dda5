//! `--agree DIR DIR`: do two sets of runs of the same code agree within
//! the benchmark's own bounds?
//!
//! Each directory holds one `<workload>.jsonl` per workload, every line
//! the result line of one run (`agree.sh` produces them). For every
//! workload × end-to-end metric the set medians are compared against the
//! bound read from `BENCHMARK.json`, in both directions; the observed
//! spread over all runs is printed beside it. Counts that must repeat
//! exactly (traced result lines) are compared for equality.

use std::collections::BTreeMap;
use std::path::Path;

use salam_bench::cli::{EXIT_FINDINGS, EXIT_OK};
use salam_obs::json::{self, Value};

use crate::stats;
use crate::workloads;

/// Counts a speed-only change must leave identical.
const EXACT: [&str; 6] = [
    "runtime.cycles",
    "runtime.dyn_insts",
    "memsys.cycles",
    "replay.err_pct",
    "dse.replayed_share",
    "dse.fallbacks",
];

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the reference median.
    pub bound: f64,
}

/// Reads the end-to-end declarations out of `BENCHMARK.json` text.
pub fn bounds_from_json(text: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(text)?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: missing 'end_to_end'")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// By what share of `reference` the `candidate` is worse (negative when
/// it is better).
pub fn worsening(reference: f64, candidate: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        candidate - reference
    } else {
        reference - candidate
    };
    stats::ratio(delta, reference.abs())
}

/// Metric name → one value per run, from the result lines of one file.
fn read_runs(path: &Path) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{}: a run was not correct", path.display()));
        }
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: line without metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                runs.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

/// One compared workload × metric.
#[derive(Debug)]
struct Row {
    workload: String,
    metric: String,
    median_a: f64,
    median_b: f64,
    /// The larger of the two directed worsenings.
    worse_by: f64,
    bound: f64,
    /// Interquartile range over the runs of both sets, as a share of
    /// their median.
    spread: f64,
}

fn compare(
    workload: &str,
    bounds: &[Bound],
    a: &BTreeMap<String, Vec<f64>>,
    b: &BTreeMap<String, Vec<f64>>,
    rows: &mut Vec<Row>,
    problems: &mut Vec<String>,
) {
    for bound in bounds {
        let (Some(va), Some(vb)) = (a.get(&bound.name), b.get(&bound.name)) else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let worse_by =
            worsening(ma, mb, bound.lower_is_better).max(worsening(mb, ma, bound.lower_is_better));
        let all: Vec<f64> = va.iter().chain(vb).copied().collect();
        if worse_by > bound.bound {
            problems.push(format!(
                "{workload}/{}: medians {ma} vs {mb} differ by {:.1} % (bound {:.0} %)",
                bound.name,
                worse_by * 100.0,
                bound.bound * 100.0
            ));
        }
        rows.push(Row {
            workload: workload.to_string(),
            metric: bound.name.clone(),
            median_a: ma,
            median_b: mb,
            worse_by,
            bound: bound.bound,
            spread: stats::iqr_share(&all),
        });
    }
    for name in EXACT {
        let values: Vec<f64> = [a.get(name), b.get(name)]
            .into_iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        if values.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!(
                "{workload}/{name}: exact count differs between runs: {values:?}"
            ));
        }
    }
}

/// Entry point of `--agree`.
pub fn run(dir_a: &str, dir_b: &str) -> i32 {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bounds = std::fs::read_to_string(manifest.join("..").join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| bounds_from_json(&t));
    let bounds = match bounds {
        Ok(b) => b,
        Err(e) => {
            eprintln!("salam-benchmark: {e}");
            return EXIT_FINDINGS;
        }
    };
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let mut compared = 0;
    for workload in workloads::NAMES {
        let file = format!("{workload}.jsonl");
        let (pa, pb) = (Path::new(dir_a).join(&file), Path::new(dir_b).join(&file));
        if !pa.exists() && !pb.exists() {
            continue;
        }
        match (read_runs(&pa), read_runs(&pb)) {
            (Ok(a), Ok(b)) => {
                compare(workload, &bounds, &a, &b, &mut rows, &mut problems);
                compared += 1;
            }
            (Err(e), _) | (_, Err(e)) => problems.push(e),
        }
    }
    if compared == 0 {
        problems.push(format!("no <workload>.jsonl found in {dir_a} and {dir_b}"));
    }
    println!(
        "{:<14} {:<10} {:>14} {:>14} {:>9} {:>7} {:>9}",
        "workload", "metric", "median A", "median B", "differ %", "bound %", "spread %"
    );
    for r in &rows {
        println!(
            "{:<14} {:<10} {:>14.4} {:>14.4} {:>9.2} {:>7.0} {:>9.2}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0
        );
    }
    if problems.is_empty() {
        println!("agree: {compared} workloads within bounds");
        EXIT_OK
    } else {
        for p in &problems {
            println!("DISAGREE {p}");
        }
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_directed_and_relative_to_the_reference() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, false) < 0.0);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let text = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.1}]}"#;
        let b = bounds_from_json(text).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.1);
        assert!(bounds_from_json("{}").is_err());
        assert!(bounds_from_json(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }

    fn set(values: &[f64]) -> BTreeMap<String, Vec<f64>> {
        let mut m = BTreeMap::new();
        m.insert("ops_per_s".to_string(), values.to_vec());
        m.insert("runtime.cycles".to_string(), vec![42.0; values.len()]);
        m
    }

    #[test]
    fn sets_within_the_bound_agree_and_sets_beyond_it_do_not() {
        let bounds = vec![Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.10,
        }];
        let (mut rows, mut problems) = (Vec::new(), Vec::new());
        compare(
            "w",
            &bounds,
            &set(&[100.0, 101.0, 99.0]),
            &set(&[95.0, 96.0, 97.0]),
            &mut rows,
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].worse_by > 0.03 && rows[0].worse_by < 0.05);

        // Either order of the two sets is caught.
        for (a, b) in [
            ([100.0, 100.0, 100.0], [80.0, 80.0, 80.0]),
            ([80.0, 80.0, 80.0], [100.0, 100.0, 100.0]),
        ] {
            let mut problems = Vec::new();
            compare(
                "w",
                &bounds,
                &set(&a),
                &set(&b),
                &mut Vec::new(),
                &mut problems,
            );
            assert_eq!(problems.len(), 1, "{problems:?}");
        }

        // An exact count that moved is a disagreement whatever the timing.
        let mut moved = set(&[100.0, 100.0, 100.0]);
        moved.insert("runtime.cycles".into(), vec![42.0, 42.0, 43.0]);
        let mut problems = Vec::new();
        compare(
            "w",
            &bounds,
            &set(&[100.0, 100.0, 100.0]),
            &moved,
            &mut Vec::new(),
            &mut problems,
        );
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("runtime.cycles"));
    }
}
