//! Prometheus text exposition (version 0.0.4).
//!
//! Renders a [`MetricsRegistry`] in the plain-text format every
//! Prometheus-compatible scraper understands:
//!
//! ```text
//! # TYPE serve_jobs_done counter
//! serve_jobs_done 42
//! # TYPE serve_latency_e2e_us histogram
//! serve_latency_e2e_us_bucket{class="regular",le="767"} 9
//! serve_latency_e2e_us_bucket{class="regular",le="+Inf"} 10
//! serve_latency_e2e_us_sum{class="regular"} 4021
//! serve_latency_e2e_us_count{class="regular"} 10
//! ```
//!
//! Metric names are sanitized to `[a-zA-Z0-9_:]` (dots become
//! underscores); label values get the exposition escapes (`\\`, `\"`,
//! `\n`). Each family emits one `# TYPE` line followed by every labeled
//! sample, as the format requires. Families are grouped by sanitized name,
//! not by key adjacency: in key order `a.b` < `a.b.c` < `a.b{…}`, so the
//! labeled variants of one family need not be neighbours.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::registry::{split_labels, Metric, MetricsRegistry};

/// Sanitizes a metric (family) name: Prometheus allows
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, so dots and anything else exotic become
/// underscores and a leading digit gets prefixed.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
            continue;
        }
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `base{k="v"}` key → (sanitized family, rendered label list without
/// braces, e.g. `class="regular",tenant="alice"`).
fn family_and_labels(key: &str) -> (String, String) {
    match split_labels(key) {
        Some((base, labels)) => {
            let rendered = labels
                .iter()
                .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
                .collect::<Vec<_>>()
                .join(",");
            (sanitize_name(base), rendered)
        }
        None => (sanitize_name(key), String::new()),
    }
}

fn sample_line(out: &mut String, family: &str, suffix: &str, labels: &str, value: &str) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Joins two brace-less label lists (`a,b` with either side possibly
/// empty).
fn join_labels(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_string(),
        (_, true) => a.to_string(),
        _ => format!("{a},{b}"),
    }
}

fn encode_histogram(out: &mut String, family: &str, labels: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (bound, count) in h.nonzero_buckets() {
        cumulative += count;
        sample_line(
            out,
            family,
            "_bucket",
            &join_labels(labels, &format!("le=\"{bound}\"")),
            &cumulative.to_string(),
        );
    }
    sample_line(
        out,
        family,
        "_bucket",
        &join_labels(labels, "le=\"+Inf\""),
        &h.count().to_string(),
    );
    sample_line(out, family, "_sum", labels, &h.sum().to_string());
    sample_line(out, family, "_count", labels, &h.count().to_string());
}

impl MetricsRegistry {
    /// The Prometheus text exposition of every metric: counters and
    /// gauges as scalar samples, histograms as cumulative
    /// `_bucket`/`_sum`/`_count` series. Non-finite gauges are skipped — a
    /// NaN snapshot carries nothing a scraper can use.
    pub fn to_prom(&self) -> String {
        // family → (kind of its first metric, rendered samples).
        let mut families: BTreeMap<String, (&str, String)> = BTreeMap::new();
        for (key, metric) in self.iter() {
            if matches!(metric, Metric::Gauge(v) if !v.is_finite()) {
                continue;
            }
            let (family, labels) = family_and_labels(key);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Hist(_) => "histogram",
            };
            let (_, body) = families
                .entry(family.clone())
                .or_insert_with(|| (kind, String::new()));
            match metric {
                Metric::Counter(n) => sample_line(body, &family, "", &labels, &n.to_string()),
                Metric::Gauge(v) => sample_line(body, &family, "", &labels, &format!("{v}")),
                Metric::Hist(h) => encode_histogram(body, &family, &labels, h),
            }
        }
        let mut out = String::new();
        for (family, (kind, body)) in families {
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            out.push_str(&body);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::labeled;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_name("serve.jobs.done"), "serve_jobs_done");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_name("sp ace"), "sp_ace");
    }

    #[test]
    fn counters_and_gauges_expose() {
        let mut t = MetricsRegistry::new();
        t.counter_add("serve.jobs.done", 3);
        t.set(&labeled("queue.depth", &[("class", "cpu")]), 2.0);
        let text = t.to_prom();
        assert!(text.contains("# TYPE serve_jobs_done counter\nserve_jobs_done 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth{class=\"cpu\"} 2\n"));
    }

    #[test]
    fn histogram_series_are_cumulative_and_complete() {
        let mut t = MetricsRegistry::new();
        let key = labeled("lat_us", &[("class", "regular")]);
        for v in [1u64, 1, 2, 100] {
            t.record(&key, v);
        }
        let text = t.to_prom();
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{class=\"regular\",le=\"1\"} 2\n"));
        assert!(text.contains("lat_us_bucket{class=\"regular\",le=\"2\"} 3\n"));
        assert!(text.contains("lat_us_bucket{class=\"regular\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_us_sum{class=\"regular\"} 104\n"));
        assert!(text.contains("lat_us_count{class=\"regular\"} 4\n"));
        // Cumulative counts never decrease along the bucket series.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_us_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= prev, "bucket series not cumulative: {line}");
            prev = n;
        }
    }

    #[test]
    fn one_type_line_per_family() {
        let mut t = MetricsRegistry::new();
        t.record(&labeled("lat_us", &[("class", "cpu")]), 5);
        t.record(&labeled("lat_us", &[("class", "regular")]), 7);
        t.record("lat_us", 6);
        // Sorts between `lat_us` and `lat_us{…}`, splitting the family's
        // keys apart in key order.
        t.counter_add("lat_us.extra", 1);
        let text = t.to_prom();
        let type_lines = text
            .lines()
            .filter(|l| *l == "# TYPE lat_us histogram")
            .count();
        assert_eq!(
            type_lines, 1,
            "family must be declared exactly once:\n{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut t = MetricsRegistry::new();
        t.counter_add(&labeled("hits", &[("tenant", "we\"ird\nname")]), 1);
        let text = t.to_prom();
        assert!(text.contains("hits{tenant=\"we\\\"ird\\nname\"} 1\n"));
    }

    #[test]
    fn registry_gauges_ride_along() {
        let mut reg = MetricsRegistry::new();
        reg.set("serve.cache.entries", 4.0);
        reg.set("bad", f64::NAN);
        let text = reg.to_prom();
        assert!(text.contains("# TYPE serve_cache_entries gauge\nserve_cache_entries 4\n"));
        assert!(!text.contains("bad"));
    }
}
