//! The one metrics registry: typed metrics under dotted-path names.
//!
//! One key-sorted map from names (`cluster0.gemm.engine.stall_cycles`,
//! `serve.latency.e2e_us{class="kernel"}`) to typed [`Metric`]s: monotonic
//! counters, point-in-time gauges and log-bucketed [`Histogram`]s. Sorted
//! iteration makes every export — JSON, table, Prometheus — independent of
//! the order metrics were first touched, of merge order and of worker
//! scheduling.
//!
//! This module alone knows the key format: [`labeled`] builds a
//! `base{k="v"}` key, the JSON and table views spell it `base.k.v`, and the
//! Prometheus encoder ([`MetricsRegistry::to_prom`]) splits it back into a
//! family and its labels.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::escape;

/// One typed metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic count; merges add.
    Counter(u64),
    /// A point-in-time value; merges take the last write.
    Gauge(f64),
    /// A latency/size distribution; merges add bucket-wise.
    Hist(Histogram),
}

/// Builds a labeled metric key: `base{k="v",k2="v2"}` (Prometheus-style).
/// Labels with an empty value are skipped.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(base);
    let mut first = true;
    for (k, v) in labels {
        if v.is_empty() {
            continue;
        }
        out.push(if first { '{' } else { ',' });
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if !first {
        out.push('}');
    }
    out
}

/// Splits `base{k="v",...}` into the base name and its label pairs;
/// `None` when the key carries no (well-formed) labels.
pub(crate) fn split_labels(key: &str) -> Option<(&str, Vec<(String, String)>)> {
    let open = key.find('{')?;
    let inner = key[open..].strip_prefix('{')?.strip_suffix('}')?;
    let mut labels = Vec::new();
    for part in inner.split(',') {
        let (k, v) = part.split_once('=')?;
        labels.push((k.to_string(), v.trim_matches('"').to_string()));
    }
    Some((&key[..open], labels))
}

/// `base{k="v",k2="v2"}` → `base.k.v.k2.v2`, the dotted path the JSON and
/// table views print.
fn dotted(key: &str) -> String {
    let Some((base, labels)) = split_labels(key) else {
        return key.to_string();
    };
    let mut out = String::from(base);
    for (k, v) in labels {
        out.push('.');
        out.push_str(&k);
        out.push('.');
        out.push_str(&v);
    }
    out
}

/// A key-sorted store of typed metrics with JSON, table and Prometheus
/// export.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets the gauge `path` to `value`.
    pub fn set(&mut self, path: &str, value: f64) {
        self.entries.insert(path.to_string(), Metric::Gauge(value));
    }

    /// Adds `n` to the counter `key`, creating it at zero (so `n = 0`
    /// declares a counter that has not counted anything yet).
    pub fn counter_add(&mut self, key: &str, n: u64) {
        match self.entries.get_mut(key) {
            Some(Metric::Counter(c)) => *c += n,
            _ => {
                self.entries.insert(key.to_string(), Metric::Counter(n));
            }
        }
    }

    /// The counter at `key`, zero if never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        match self.entries.get(key) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Records one sample into the histogram `key`, creating it empty.
    pub fn record(&mut self, key: &str, v: u64) {
        match self.entries.get_mut(key) {
            Some(Metric::Hist(h)) => h.record(v),
            _ => {
                let mut h = Histogram::new();
                h.record(v);
                self.entries.insert(key.to_string(), Metric::Hist(h));
            }
        }
    }

    /// The histogram at `key`, if any samples were recorded.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        match self.entries.get(key) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// The value [`MetricsRegistry::to_json`] prints at `path`, if any:
    /// counters and gauges under their dotted path, histograms as their
    /// `.count/.p50/.p95/.p99/.max/.mean` summaries.
    pub fn get(&self, path: &str) -> Option<f64> {
        self.flat().find(|(p, _)| p == path).map(|(_, v)| v)
    }

    /// Merges `(name, value)` gauges under `prefix` (joined with a dot),
    /// the bulk-import path used by component/engine stat exports.
    pub fn merge_prefixed<I, S>(&mut self, prefix: &str, pairs: I)
    where
        I: IntoIterator<Item = (S, f64)>,
        S: AsRef<str>,
    {
        for (name, value) in pairs {
            if prefix.is_empty() {
                self.set(name.as_ref(), value);
            } else {
                self.set(&format!("{prefix}.{}", name.as_ref()), value);
            }
        }
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge element-wise, gauges take the last write (gauges are
    /// point-in-time facts, so callers must not put determinism-sensitive
    /// data in them).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (k, m) in &other.entries {
            match (self.entries.get_mut(k), m) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Hist(a)), Metric::Hist(b)) => a.merge(b),
                _ => {
                    self.entries.insert(k.clone(), m.clone());
                }
            }
        }
    }

    /// Every metric in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// Number of metric keys recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The flat `(dotted path, value)` view behind JSON, table and
    /// [`MetricsRegistry::get`], in key order.
    fn flat(&self) -> impl Iterator<Item = (String, f64)> + '_ {
        self.entries.iter().flat_map(|(k, m)| {
            let path = dotted(k);
            let values: Vec<(String, f64)> = match m {
                Metric::Counter(n) => vec![(path, *n as f64)],
                Metric::Gauge(v) => vec![(path, *v)],
                Metric::Hist(h) => [
                    ("count", h.count() as f64),
                    ("p50", h.p50() as f64),
                    ("p95", h.p95() as f64),
                    ("p99", h.p99() as f64),
                    ("max", h.max() as f64),
                    ("mean", h.mean()),
                ]
                .into_iter()
                .map(|(s, v)| (format!("{path}.{s}"), v))
                .collect(),
            };
            values
        })
    }

    /// A flat JSON object, `{"path": value, ...}`, in key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.flat().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": {}", escape(&k), fmt_value(v)));
        }
        out.push_str("\n}\n");
        out
    }

    /// A two-column, dot-aligned text table for terminal dumps.
    pub fn to_table(&self) -> String {
        let rows: Vec<_> = self.flat().collect();
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {}\n", fmt_value(v)));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_in_place() {
        let mut r = MetricsRegistry::new();
        r.set("a.x", 1.0);
        r.set("a.y", 2.0);
        r.set("a.x", 3.0);
        assert_eq!(r.get("a.x"), Some(3.0));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn counters_accumulate_and_exist_at_zero() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hits", 0);
        assert_eq!(r.get("hits"), Some(0.0));
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.get("hits"), Some(5.0));
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn merge_prefixed_joins_with_dots() {
        let mut r = MetricsRegistry::new();
        r.merge_prefixed(
            "cluster0.gemm",
            vec![("engine.stall_cycles".to_string(), 7.0)],
        );
        assert_eq!(r.get("cluster0.gemm.engine.stall_cycles"), Some(7.0));
        r.merge_prefixed("", vec![("top".to_string(), 1.0)]);
        assert_eq!(r.get("top"), Some(1.0));
    }

    #[test]
    fn control_characters_in_keys_still_produce_valid_json() {
        let mut r = MetricsRegistry::new();
        r.set("bad\nkey\twith\u{1}ctrl", 1.0);
        r.set("quote\"and\\slash", 2.0);
        let j = r.to_json();
        let parsed = crate::json::parse(&j).unwrap();
        assert_eq!(
            parsed
                .get("bad\nkey\twith\u{1}ctrl")
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("quote\"and\\slash").and_then(|v| v.as_f64()),
            Some(2.0)
        );
    }

    #[test]
    fn json_dump_is_valid_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.set("b", 2.0);
        r.set("a", 1.5);
        let j = r.to_json();
        let parsed = crate::json::parse(&j).unwrap();
        let obj = parsed.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(obj[0].1.as_f64(), Some(1.5));
    }

    #[test]
    fn labeled_builds_and_splits() {
        let k = labeled(
            "serve.latency.e2e_us",
            &[("class", "regular"), ("tenant", "alice")],
        );
        assert_eq!(
            k,
            "serve.latency.e2e_us{class=\"regular\",tenant=\"alice\"}"
        );
        let (base, labels) = split_labels(&k).unwrap();
        assert_eq!(base, "serve.latency.e2e_us");
        assert_eq!(labels[0], ("class".to_string(), "regular".to_string()));
        assert_eq!(labels[1], ("tenant".to_string(), "alice".to_string()));
        assert_eq!(labeled("plain", &[]), "plain");
        assert!(split_labels("plain").is_none());
        assert_eq!(labeled("x", &[("t", "")]), "x");
    }

    #[test]
    fn merge_is_typed() {
        let mut a = MetricsRegistry::new();
        a.counter_add("jobs", 2);
        a.set("depth", 5.0);
        a.record("lat", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("jobs", 3);
        b.set("depth", 7.0);
        b.record("lat", 20);
        a.merge_from(&b);
        assert_eq!(a.counter("jobs"), 5);
        assert_eq!(a.get("depth"), Some(7.0));
        assert_eq!(a.hist("lat").unwrap().count(), 2);
        assert_eq!(a.hist("lat").unwrap().max(), 20);
    }

    #[test]
    fn merge_order_does_not_change_exports() {
        let mut parts: Vec<MetricsRegistry> = Vec::new();
        for w in 0..4u64 {
            let mut t = MetricsRegistry::new();
            for i in 0..50 {
                t.record("lat", (w * 1000 + i * 37) % 5000);
                t.counter_add("n", 1);
            }
            parts.push(t);
        }
        let mut fwd = MetricsRegistry::new();
        for p in &parts {
            fwd.merge_from(p);
        }
        let mut rev = MetricsRegistry::new();
        for p in parts.iter().rev() {
            rev.merge_from(p);
        }
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.to_prom(), rev.to_prom());
    }

    #[test]
    fn registry_export_expands_labels_and_quantiles() {
        let mut t = MetricsRegistry::new();
        t.record(&labeled("lat_us", &[("class", "cpu")]), 100);
        t.counter_add("done", 1);
        assert_eq!(t.get("done"), Some(1.0));
        assert_eq!(t.get("lat_us.class.cpu.count"), Some(1.0));
        assert!(t.get("lat_us.class.cpu.p99").unwrap() >= 100.0);
        assert_eq!(t.get("lat_us{class=\"cpu\"}"), None);
        let json = crate::json::parse(&t.to_json()).unwrap();
        assert_eq!(
            json.get("lat_us.class.cpu.max").and_then(|v| v.as_f64()),
            Some(100.0)
        );
    }
}
