//! `BENCH_history.json` is the committed speed trajectory that
//! `scripts/bench.sh` appends to: one row per paired comparison of two
//! commits. Every row must come from clean runs, name only metrics the
//! benchmark contract in `BENCHMARK.json` declares, and follow the rows
//! before it in time.

use salam_obs::json::{self, Value};

fn load(name: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Names of the entries of one of `BENCHMARK.json`'s lists.
fn names<'a>(contract: &'a Value, list: &str) -> Vec<&'a str> {
    contract
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Value::as_str))
        .collect()
}

#[test]
fn every_row_is_clean_declared_and_in_date_order() {
    let contract = load("BENCHMARK.json");
    let workloads = names(&contract, "workloads");
    let mut metrics = names(&contract, "end_to_end");
    metrics.extend(names(&contract, "per_layer"));

    let history = load("BENCH_history.json");
    let rows = history.as_array().expect("the history is a JSON array");
    assert!(!rows.is_empty(), "the history holds at least one row");
    let mut last_date = "";
    for row in rows {
        let field = |key: &str| {
            row.get(key)
                .unwrap_or_else(|| panic!("a row lacks '{key}'"))
        };
        let commit = field("commit").as_str().expect("commit is a string");
        assert_eq!(
            field("failed").as_f64(),
            Some(0.0),
            "row {commit} failed ops"
        );
        let date = field("date").as_str().expect("date is a string");
        assert!(
            date >= last_date,
            "row {commit} ({date}) precedes {last_date}"
        );
        last_date = date;

        let per_workload = field("workloads").as_object().expect("workloads object");
        assert!(!per_workload.is_empty(), "row {commit} measured nothing");
        for (workload, measured) in per_workload {
            assert!(
                workloads.contains(&workload.as_str()),
                "row {commit}: workload '{workload}' is not in BENCHMARK.json"
            );
            for (metric, cell) in measured.as_object().expect("metrics object") {
                assert!(
                    metrics.contains(&metric.as_str()),
                    "row {commit}: metric '{metric}' is not in BENCHMARK.json"
                );
                for side in ["parent", "change"] {
                    let quantile = |q: &str| cell.get(side).and_then(|s| s.get(q)?.as_f64());
                    let (q1, median, q3) = (quantile("q1"), quantile("median"), quantile("q3"));
                    assert!(
                        q1 <= median && median <= q3 && q1.is_some(),
                        "row {commit}: {workload}/{metric} {side} quartiles out of order"
                    );
                }
                let count = |key: &str| cell.get(key).and_then(Value::as_f64);
                assert!(
                    count("wins") <= count("pairs") && count("wins").is_some(),
                    "row {commit}: {workload}/{metric} wins more pairs than it ran"
                );
            }
        }
    }
}
