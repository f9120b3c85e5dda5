//! `golden.json`: the expected result of every timed op.
//!
//! A speed-only change must leave every simulated statistic identical, so
//! each op's result is compared with the committed golden — cycles,
//! dynamic-instruction count, output verification and an FNV-1a digest of
//! the whole report text — and a mismatch counts as a failed op. `--bless`
//! regenerates the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use salam_dse::fnv::{fnv1a64, hex64};
use salam_obs::json::{self, Value};

/// What one op must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Simulated cycles (cluster scenarios: simulated ns at the 1 GHz clock).
    pub cycles: u64,
    /// Dynamic instructions issued (0 where the result does not expose it).
    pub dyn_insts: u64,
    /// Output matched the kernel's reference model.
    pub verified: bool,
    /// FNV-1a 64 of the op's full result text.
    pub digest: u64,
}

impl Entry {
    /// The golden entry of a standalone run report.
    pub fn of_report(report: &salam::RunReport, report_json: &str) -> Entry {
        Entry {
            cycles: report.cycles,
            dyn_insts: report.stats.issued.values().sum(),
            verified: report.verified,
            digest: fnv1a64(report_json.as_bytes()),
        }
    }
}

/// The parsed golden file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    /// `<workload>/<op>` → expected result.
    pub entries: BTreeMap<String, Entry>,
    /// `sweep_replay`: kernel id → full-simulation cycles of every grid
    /// point, in sweep order.
    pub sweep_cycles: BTreeMap<String, Vec<u64>>,
}

impl Golden {
    /// Where the file lives: beside this crate's manifest.
    pub fn path() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json"))
    }

    /// Loads the committed golden.
    pub fn load() -> Result<Golden, String> {
        let path = Golden::path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::from_json(&text)
    }

    /// `true` when `got` is exactly the golden entry under `key`.
    pub fn matches(&self, key: &str, got: &Entry) -> bool {
        self.entries.get(key) == Some(got)
    }

    /// Parses the file format written by [`Golden::to_json`].
    pub fn from_json(text: &str) -> Result<Golden, String> {
        let v = json::parse(text)?;
        let num = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|f| *f >= 0.0 && f.fract() == 0.0)
                .map(|f| f as u64)
                .ok_or_else(|| format!("golden: missing integer '{key}'"))
        };
        let mut golden = Golden::default();
        for (key, e) in v
            .get("entries")
            .and_then(Value::as_object)
            .ok_or("golden: missing 'entries'")?
        {
            let digest = e
                .get("digest")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("golden: bad digest for '{key}'"))?;
            golden.entries.insert(
                key.clone(),
                Entry {
                    cycles: num(e, "cycles")?,
                    dyn_insts: num(e, "dyn_insts")?,
                    verified: e
                        .get("verified")
                        .and_then(Value::as_bool)
                        .ok_or_else(|| format!("golden: missing 'verified' for '{key}'"))?,
                    digest,
                },
            );
        }
        for (kernel, cycles) in v
            .get("sweep_cycles")
            .and_then(Value::as_object)
            .ok_or("golden: missing 'sweep_cycles'")?
        {
            let cycles = cycles
                .as_array()
                .ok_or_else(|| format!("golden: '{kernel}' is not an array"))?
                .iter()
                .map(|c| c.as_f64().map(|f| f as u64))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| format!("golden: non-numeric cycles for '{kernel}'"))?;
            golden.sweep_cycles.insert(kernel.clone(), cycles);
        }
        Ok(golden)
    }

    /// Renders the file: one entry per line, keys sorted, so a re-bless
    /// diffs line by line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"format\": 1,\n\"entries\": {\n");
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(k, e)| {
                format!(
                    "  \"{}\": {{\"cycles\": {}, \"dyn_insts\": {}, \"verified\": {}, \
                     \"digest\": \"{}\"}}",
                    json::escape(k),
                    e.cycles,
                    e.dyn_insts,
                    e.verified,
                    hex64(e.digest)
                )
            })
            .collect();
        out.push_str(&entries.join(",\n"));
        out.push_str("\n},\n\"sweep_cycles\": {\n");
        let sweeps: Vec<String> = self
            .sweep_cycles
            .iter()
            .map(|(k, cycles)| {
                let list: Vec<String> = cycles.iter().map(u64::to_string).collect();
                format!("  \"{}\": [{}]", json::escape(k), list.join(", "))
            })
            .collect();
        out.push_str(&sweeps.join(",\n"));
        out.push_str("\n}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_and_detects_any_field_change() {
        let mut g = Golden::default();
        let e = Entry {
            cycles: 1234,
            dyn_insts: 99,
            verified: true,
            digest: 0xdead_beef_0123_4567,
        };
        g.entries.insert("sim_spm/gemm".into(), e.clone());
        g.sweep_cycles.insert("gemm".into(), vec![5, 6, 7]);
        let back = Golden::from_json(&g.to_json()).unwrap();
        assert_eq!(back, g);
        assert!(back.matches("sim_spm/gemm", &e));
        assert!(!back.matches("sim_spm/other", &e));
        for changed in [
            Entry {
                cycles: 1235,
                ..e.clone()
            },
            Entry {
                dyn_insts: 98,
                ..e.clone()
            },
            Entry {
                verified: false,
                ..e.clone()
            },
            Entry {
                digest: 1,
                ..e.clone()
            },
        ] {
            assert!(!back.matches("sim_spm/gemm", &changed));
        }
    }

    #[test]
    fn malformed_golden_is_an_error_not_a_panic() {
        assert!(Golden::from_json("{}").is_err());
        assert!(Golden::from_json("{\"entries\": {\"a\": {}}, \"sweep_cycles\": {}}").is_err());
        assert!(Golden::from_json("not json").is_err());
    }
}
