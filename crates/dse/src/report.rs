//! Sweep report assembly: CSV/JSON tables, per-point metric rollups, and
//! Pareto-frontier extraction over (cycles, area, power) — the paper's
//! Fig. 15/16 trade-off views.

use salam::RunReport;
use salam_obs::json::escape;
use salam_obs::MetricsRegistry;

/// A rendered sweep table: coordinate columns plus metric columns, rows in
/// canonical point order. All cells are pre-formatted strings so the same
/// table serializes byte-identically regardless of how it was produced.
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Table title.
    pub title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    summary: Vec<(String, String)>,
}

impl SweepTable {
    /// A table with the given title and column names.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        SweepTable {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Attaches sweep-level summary counters (`failed`, `invalid`, …) so
    /// they survive into **every** serialization — plain text, CSV and
    /// JSON — not just the human table. Order is preserved.
    pub fn set_summary(&mut self, pairs: Vec<(String, String)>) {
        self.summary = pairs;
    }

    /// The attached summary pairs (empty when none were set).
    pub fn summary(&self) -> &[(String, String)] {
        &self.summary
    }

    fn summary_line(&self) -> String {
        self.summary
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Raw rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// RFC-4180-ish CSV: header line, comma-separated, cells containing
    /// commas/quotes/newlines quoted and doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if c.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&c.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(c);
                }
            }
            out.push('\n');
        };
        line(&self.columns, &mut out);
        for r in &self.rows {
            line(r, &mut out);
        }
        if !self.summary.is_empty() {
            // A `#` comment line: ignored by naive CSV readers, greppable
            // by CI, and round-trippable by anything that keeps comments.
            out.push_str(&format!("# {}\n", self.summary_line()));
        }
        out
    }

    /// JSON: a plain array of row objects keyed by column name when no
    /// summary is attached (the historical shape), otherwise
    /// `{"rows": [...], "summary": {...}}` so `failed=`/`invalid=` counts
    /// survive machine exports too.
    pub fn to_json(&self) -> String {
        let mut rows = String::from("[");
        for (ri, r) in self.rows.iter().enumerate() {
            if ri > 0 {
                rows.push(',');
            }
            rows.push_str("\n  {");
            for (ci, (k, v)) in self.columns.iter().zip(r).enumerate() {
                if ci > 0 {
                    rows.push_str(", ");
                }
                rows.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
            }
            rows.push('}');
        }
        rows.push_str("\n]");
        if self.summary.is_empty() {
            return format!("{rows}\n");
        }
        let summary = self
            .summary
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{\n\"rows\": {rows},\n\"summary\": {{{summary}}}\n}}\n")
    }

    /// Renders CSV when the process was invoked with `--csv` (or
    /// `SALAM_CSV=1`), aligned plain text otherwise — the same contract as
    /// the experiment binaries' native tables.
    pub fn render_auto(&self) -> String {
        let csv = std::env::args().any(|a| a == "--csv")
            || std::env::var("SALAM_CSV")
                .map(|v| v == "1")
                .unwrap_or(false);
        if csv {
            self.to_csv()
        } else {
            self.render()
        }
    }

    /// Aligned plain text with the title on top.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_line = |cells: &[String]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{c:<width$}", width = widths[i]));
            }
            s.trim_end().to_string()
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&fmt_line(&self.columns));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_line(r));
            out.push('\n');
        }
        if !self.summary.is_empty() {
            out.push_str(&format!("-- {}\n", self.summary_line()));
        }
        out
    }
}

/// Indices of the Pareto-optimal points when **minimizing** every
/// objective, in input order. A point is dominated if some other point is
/// no worse in all objectives and strictly better in at least one; ties on
/// all objectives keep the earliest point only, so the frontier is stable
/// under permutation of equals.
pub fn pareto_frontier(points: &[[f64; 3]]) -> Vec<usize> {
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| dominates(p, &points[i]) || (j < i && p == &points[i]))
        })
        .collect()
}

/// The (cycles, total area µm², total power mW) objective vector of a run
/// — the trade-off space of the paper's co-design figures.
pub fn objectives(report: &RunReport) -> [f64; 3] {
    [
        report.cycles as f64,
        report.total_area_um2(),
        report.power.total_mw(),
    ]
}

/// Publishes every point's full report into one registry under
/// `dse.<sweep>.<point label>` — the sweep-wide observability rollup.
pub fn metrics_rollup<'a>(
    sweep: &str,
    points: impl IntoIterator<Item = (String, &'a RunReport)>,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (label, report) in points {
        report.export_metrics(&mut reg, &format!("dse.{sweep}.{label}"));
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = SweepTable::new("t", &["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        t.row(vec!["has \"q\"".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",plain\n\"has \"\"q\"\"\",2\n");
    }

    #[test]
    fn json_rows_keyed_by_column() {
        let mut t = SweepTable::new("t", &["k", "v"]);
        t.row(vec!["gemm".into(), "12".into()]);
        let v = salam_obs::json::parse(&t.to_json()).unwrap();
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("k").unwrap().as_str(), Some("gemm"));
        assert_eq!(rows[0].get("v").unwrap().as_str(), Some("12"));
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = SweepTable::new("sweep", &["name", "cycles"]);
        t.row(vec!["a".into(), "100".into()]);
        t.row(vec!["longer".into(), "9".into()]);
        let text = t.render();
        assert!(text.contains("== sweep =="));
        // Title, header, rule, two rows.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // "name" padded to the widest cell ("longer", 6 chars) + 2 spaces.
        assert!(lines[1].starts_with("name    cycles"));
        assert!(lines[4].starts_with("longer  9"));
    }

    #[test]
    fn summary_survives_every_serialization() {
        let mut t = SweepTable::new("t", &["k", "v"]);
        t.row(vec!["gemm".into(), "12".into()]);
        t.set_summary(vec![
            ("points".into(), "4".into()),
            ("failed".into(), "1".into()),
            ("invalid".into(), "2".into()),
        ]);
        // Plain text: summary rendered after the rows.
        assert!(t.render().contains("-- points=4 failed=1 invalid=2"));
        // CSV: exact pinned format — rows unchanged, `#` comment trailer.
        assert_eq!(t.to_csv(), "k,v\ngemm,12\n# points=4 failed=1 invalid=2\n");
        // JSON: {"rows": [...], "summary": {...}} shape, round-trippable.
        let v = salam_obs::json::parse(&t.to_json()).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("k").unwrap().as_str(), Some("gemm"));
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("failed").unwrap().as_str(), Some("1"));
        assert_eq!(summary.get("invalid").unwrap().as_str(), Some("2"));
        assert_eq!(summary.get("points").unwrap().as_str(), Some("4"));
    }

    #[test]
    fn summaryless_exports_keep_historical_shape() {
        let mut t = SweepTable::new("t", &["k"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.to_csv(), "k\nx\n");
        assert!(salam_obs::json::parse(&t.to_json())
            .unwrap()
            .as_array()
            .is_some());
    }

    /// A control character in a kernel name, a column, a `failed:` cause
    /// or a summary pair must leave both JSON writers valid and lossless:
    /// escaped in the text, decoded back by the parser.
    #[test]
    fn control_characters_round_trip_through_both_json_writers() {
        let name = "gemm\n\t\u{1}\"\\";
        let escaped = r#"gemm\n\t\u0001\"\\"#;
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let mut report = salam::run_kernel(&k, &salam::StandaloneConfig::default());
        report.name = name.to_string();
        let json = report.to_json();
        assert!(json.contains(&format!("\"name\": \"{escaped}\"")), "{json}");
        let back = RunReport::from_json(&json).expect("valid report JSON");
        assert_eq!(back.name, name);

        let cause = format!("failed: {name}");
        let mut t = SweepTable::new("t", &[name]);
        t.row(vec![cause.clone()]);
        t.set_summary(vec![(name.to_string(), name.to_string())]);
        let text = t.to_json();
        assert!(
            text.contains(&format!("\"{escaped}\": \"failed: {escaped}\"")),
            "{text}"
        );
        let v = salam_obs::json::parse(&text).expect("valid table JSON");
        let row = &v.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get(name).unwrap().as_str(), Some(cause.as_str()));
        assert_eq!(
            v.get("summary").unwrap().get(name).unwrap().as_str(),
            Some(name)
        );
    }

    #[test]
    fn pareto_keeps_only_non_dominated() {
        let pts = [
            [100.0, 10.0, 1.0], // frontier
            [200.0, 10.0, 1.0], // dominated by 0
            [50.0, 20.0, 2.0],  // frontier (fastest)
            [50.0, 20.0, 2.0],  // duplicate of 2 → dropped
            [40.0, 25.0, 0.5],  // frontier (lowest power)
        ];
        assert_eq!(pareto_frontier(&pts), vec![0, 2, 4]);
    }

    #[test]
    fn pareto_of_empty_is_empty() {
        assert!(pareto_frontier(&[]).is_empty());
    }
}
