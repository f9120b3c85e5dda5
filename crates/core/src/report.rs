//! Post-simulation reports: performance, power and area rollups.

use hw_profile::{HardwareProfile, SramSpec};
use salam_cdfg::StaticCdfg;
use salam_runtime::EngineStats;

/// Power decomposition in milliwatts, matching the categories of the
/// paper's Fig. 4 (dynamic/static × functional units / registers / SPM).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic functional-unit power.
    pub dynamic_fu_mw: f64,
    /// Dynamic internal-register power.
    pub dynamic_reg_mw: f64,
    /// Dynamic SPM read power.
    pub dynamic_spm_read_mw: f64,
    /// Dynamic SPM write power.
    pub dynamic_spm_write_mw: f64,
    /// Static functional-unit leakage.
    pub static_fu_mw: f64,
    /// Static internal-register leakage.
    pub static_reg_mw: f64,
    /// Static SPM leakage.
    pub static_spm_mw: f64,
}

impl PowerBreakdown {
    /// Total power.
    pub fn total_mw(&self) -> f64 {
        self.dynamic_fu_mw
            + self.dynamic_reg_mw
            + self.dynamic_spm_read_mw
            + self.dynamic_spm_write_mw
            + self.static_fu_mw
            + self.static_reg_mw
            + self.static_spm_mw
    }

    /// The seven components as `(label, milliwatts)` pairs, in Fig. 4's
    /// legend order.
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("dynamic_fu", self.dynamic_fu_mw),
            ("dynamic_registers", self.dynamic_reg_mw),
            ("dynamic_spm_read", self.dynamic_spm_read_mw),
            ("dynamic_spm_write", self.dynamic_spm_write_mw),
            ("static_fu", self.static_fu_mw),
            ("static_registers", self.static_reg_mw),
            ("static_spm", self.static_spm_mw),
        ]
    }
}

/// The rollup of one accelerator run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Benchmark / accelerator name.
    pub name: String,
    /// Engine cycles.
    pub cycles: u64,
    /// Wall-clock of the modeled run in nanoseconds.
    pub runtime_ns: f64,
    /// Full power breakdown.
    pub power: PowerBreakdown,
    /// Datapath area in square micrometres (FUs + registers).
    pub datapath_area_um2: f64,
    /// Private SPM area in square micrometres (0 if none).
    pub spm_area_um2: f64,
    /// Output verified against the golden model.
    pub verified: bool,
    /// Raw engine statistics.
    pub stats: EngineStats,
}

impl RunReport {
    /// Assembles a report from engine stats and the static CDFG.
    ///
    /// `spm` describes the private scratchpad (if any) for Cacti-style SPM
    /// power/area; `clock_period_ps` converts cycles to time.
    pub fn assemble(
        name: &str,
        stats: &EngineStats,
        cdfg: &StaticCdfg,
        profile: &HardwareProfile,
        spm: Option<&SramSpec>,
        clock_period_ps: u64,
        verified: bool,
    ) -> Self {
        let runtime_ns = (stats.cycles * clock_period_ps) as f64 / 1000.0;
        let safe_ns = runtime_ns.max(1e-9);
        let static_rep = cdfg.static_power_report(profile);
        let mut power = PowerBreakdown {
            dynamic_fu_mw: stats.fu_dynamic_pj / safe_ns,
            dynamic_reg_mw: (stats.reg_read_pj + stats.reg_write_pj) / safe_ns,
            static_fu_mw: static_rep.fu_mw,
            static_reg_mw: static_rep.register_mw,
            ..PowerBreakdown::default()
        };
        let area = cdfg.area_report(profile);
        let mut spm_area = 0.0;
        if let Some(s) = spm {
            power.dynamic_spm_read_mw = stats.loads as f64 * s.read_energy_pj() / safe_ns;
            power.dynamic_spm_write_mw = stats.stores as f64 * s.write_energy_pj() / safe_ns;
            power.static_spm_mw = s.leakage_mw();
            spm_area = s.area_um2();
        }
        RunReport {
            name: name.to_string(),
            cycles: stats.cycles,
            runtime_ns,
            power,
            datapath_area_um2: area.total_um2,
            spm_area_um2: spm_area,
            verified,
            stats: stats.clone(),
        }
    }

    /// Total area (datapath + SPM).
    pub fn total_area_um2(&self) -> f64 {
        self.datapath_area_um2 + self.spm_area_um2
    }

    /// Serializes the report to JSON, losslessly enough that
    /// [`RunReport::from_json`] reconstructs an equivalent report. Floats
    /// use Rust's shortest round-trip formatting; the per-cycle `timeline`
    /// and the `depstream` (debugging aids that grow with runtime) are
    /// deliberately not persisted. This is the payload format of the DSE
    /// result cache.
    pub fn to_json(&self) -> String {
        let mut o = JsonWriter::new();
        o.str_field("name", &self.name);
        o.num_field("cycles", self.cycles as f64);
        o.num_field("runtime_ns", self.runtime_ns);
        o.bool_field("verified", self.verified);
        o.num_field("datapath_area_um2", self.datapath_area_um2);
        o.num_field("spm_area_um2", self.spm_area_um2);
        o.object_field("power", |p| {
            for (label, mw) in self.power.components() {
                p.num_field(label, mw);
            }
        });
        let st = &self.stats;
        o.object_field("stats", |s| {
            s.num_field("cycles", st.cycles as f64);
            s.num_field("new_exec_cycles", st.new_exec_cycles as f64);
            s.num_field("stall_cycles", st.stall_cycles as f64);
            s.map_field("stall_breakdown", st.stall_breakdown.iter());
            s.map_field("issued", st.issued.iter());
            s.map_field("class_active_cycles", st.class_active_cycles.iter());
            s.map_field("mem_mix_cycles", st.mem_mix_cycles.iter());
            s.object_field("fu_busy_cycle_sum", |m| {
                for (k, v) in &st.fu_busy_cycle_sum {
                    m.num_field(k.name(), *v as f64);
                }
            });
            s.object_field("fu_pool", |m| {
                for (k, v) in &st.fu_pool {
                    m.num_field(k.name(), *v as f64);
                }
            });
            s.num_field("fu_dynamic_pj", st.fu_dynamic_pj);
            s.num_field("reg_read_pj", st.reg_read_pj);
            s.num_field("reg_write_pj", st.reg_write_pj);
            s.num_field("loads", st.loads as f64);
            s.num_field("stores", st.stores as f64);
            s.num_field("load_bytes", st.load_bytes as f64);
            s.num_field("store_bytes", st.store_bytes as f64);
            s.num_field("port_reject_cycles", st.port_reject_cycles as f64);
            s.object_field("attribution", |m| {
                for (class, n) in st.attribution.iter() {
                    m.num_field(class.label(), n as f64);
                }
            });
            s.map_field("reject_causes", st.reject_causes.iter());
            // Emitted unconditionally (an empty map for clean runs), so a
            // zero-rate fault plan stays byte-identical to no fault layer.
            s.map_field("fault_counts", st.fault_counts.iter());
        });
        o.finish()
    }

    /// The cycle-attribution class that dominated the run — the sweeps'
    /// self-explaining `bottleneck` column.
    pub fn dominant_bottleneck(&self) -> &'static str {
        self.stats.attribution.dominant().label()
    }

    /// Parses a report serialized by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field. Unknown
    /// issue-class or functional-unit keys are errors too, so a cache
    /// entry written by an incompatible version reads as corrupt instead
    /// of silently dropping counters.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = salam_obs::json::parse(text)?;
        RunReport::from_json_value(&v)
    }

    /// [`RunReport::from_json`] on an already parsed JSON value — the DSE
    /// result cache embeds report payloads inside its entry objects and
    /// parses the whole entry once.
    pub fn from_json_value(v: &salam_obs::json::Value) -> Result<RunReport, String> {
        use salam_obs::json::Value;
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let power_v = v.get("power").ok_or("missing 'power'")?;
        let pf = |key: &str| -> Result<f64, String> {
            power_v
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing power field '{key}'"))
        };
        let power = PowerBreakdown {
            dynamic_fu_mw: pf("dynamic_fu")?,
            dynamic_reg_mw: pf("dynamic_registers")?,
            dynamic_spm_read_mw: pf("dynamic_spm_read")?,
            dynamic_spm_write_mw: pf("dynamic_spm_write")?,
            static_fu_mw: pf("static_fu")?,
            static_reg_mw: pf("static_registers")?,
            static_spm_mw: pf("static_spm")?,
        };

        let sv = v.get("stats").ok_or("missing 'stats'")?;
        let sf = |key: &str| -> Result<f64, String> {
            sv.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing stats field '{key}'"))
        };
        let u64_map = |key: &str| -> Result<Vec<(String, u64)>, String> {
            let obj = sv
                .get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("missing stats map '{key}'"))?;
            obj.iter()
                .map(|(k, val)| {
                    let n = val
                        .as_f64()
                        .ok_or_else(|| format!("non-numeric entry '{k}' in '{key}'"))?;
                    Ok((k.clone(), n as u64))
                })
                .collect()
        };
        let static_keyed =
            |key: &str| -> Result<std::collections::BTreeMap<&'static str, u64>, String> {
                u64_map(key)?
                    .into_iter()
                    .map(|(k, n)| {
                        intern_stat_label(&k)
                            .map(|l| (l, n))
                            .ok_or_else(|| format!("unknown label '{k}' in '{key}'"))
                    })
                    .collect()
            };
        let fu_keyed = |key: &str| -> Result<Vec<(hw_profile::FuKind, u64)>, String> {
            u64_map(key)?
                .into_iter()
                .map(|(k, n)| {
                    hw_profile::FuKind::from_name(&k)
                        .map(|fu| (fu, n))
                        .ok_or_else(|| format!("unknown FU kind '{k}' in '{key}'"))
                })
                .collect()
        };

        let attr_v = sv
            .get("attribution")
            .ok_or("missing stats field 'attribution'")?;
        let mut attribution = salam_obs::Attribution::default();
        for class in salam_obs::CycleClass::ALL {
            let n = attr_v
                .get(class.label())
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing attribution field '{}'", class.label()))?;
            attribution.add(class, n as u64);
        }

        let stats = EngineStats {
            cycles: sf("cycles")? as u64,
            new_exec_cycles: sf("new_exec_cycles")? as u64,
            stall_cycles: sf("stall_cycles")? as u64,
            stall_breakdown: u64_map("stall_breakdown")?.into_iter().collect(),
            issued: static_keyed("issued")?,
            class_active_cycles: static_keyed("class_active_cycles")?,
            mem_mix_cycles: static_keyed("mem_mix_cycles")?,
            fu_busy_cycle_sum: fu_keyed("fu_busy_cycle_sum")?.into_iter().collect(),
            fu_pool: fu_keyed("fu_pool")?
                .into_iter()
                .map(|(k, n)| (k, n as u32))
                .collect(),
            fu_dynamic_pj: sf("fu_dynamic_pj")?,
            reg_read_pj: sf("reg_read_pj")?,
            reg_write_pj: sf("reg_write_pj")?,
            loads: sf("loads")? as u64,
            stores: sf("stores")? as u64,
            load_bytes: sf("load_bytes")? as u64,
            store_bytes: sf("store_bytes")? as u64,
            port_reject_cycles: sf("port_reject_cycles")? as u64,
            attribution,
            reject_causes: u64_map("reject_causes")?.into_iter().collect(),
            fault_counts: u64_map("fault_counts")?.into_iter().collect(),
            depstream: None,
            timeline: Vec::new(),
        };

        Ok(RunReport {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("missing 'name'")?
                .to_string(),
            cycles: f("cycles")? as u64,
            runtime_ns: f("runtime_ns")?,
            power,
            datapath_area_um2: f("datapath_area_um2")?,
            spm_area_um2: f("spm_area_um2")?,
            verified: match v.get("verified") {
                Some(salam_obs::json::Value::Bool(b)) => *b,
                _ => return Err("missing boolean 'verified'".to_string()),
            },
            stats,
        })
    }

    /// Publishes the whole report — rollup, power breakdown, and every
    /// engine counter — into `reg` under `prefix` (e.g. `accel.gemm`).
    pub fn export_metrics(&self, reg: &mut salam_obs::MetricsRegistry, prefix: &str) {
        reg.set(&format!("{prefix}.cycles"), self.cycles as f64);
        reg.set(&format!("{prefix}.runtime_ns"), self.runtime_ns);
        reg.set(
            &format!("{prefix}.verified"),
            if self.verified { 1.0 } else { 0.0 },
        );
        reg.set(
            &format!("{prefix}.area.datapath_um2"),
            self.datapath_area_um2,
        );
        reg.set(&format!("{prefix}.area.spm_um2"), self.spm_area_um2);
        reg.set(&format!("{prefix}.power.total_mw"), self.power.total_mw());
        for (label, mw) in self.power.components() {
            reg.set(&format!("{prefix}.power.{label}_mw"), mw);
        }
        self.stats.export_metrics(reg, &format!("{prefix}.engine"));
    }
}

/// Interns the engine's `&'static str` stat-map keys back from parsed
/// strings. The label set is closed: issue classes plus the memory-mix
/// combinations.
fn intern_stat_label(s: &str) -> Option<&'static str> {
    const LABELS: [&str; 6] = ["load", "store", "float", "int", "other", "load+store"];
    LABELS.into_iter().find(|l| *l == s)
}

/// A tiny nested-object JSON builder (two-space indent, insertion order).
/// Numbers use Rust's shortest round-trip float formatting, so a value
/// survives serialize → parse → serialize byte-identically.
struct JsonWriter {
    out: String,
    indent: usize,
    first: bool,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::from("{"),
            indent: 1,
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push('"');
        self.out.push_str(&salam_obs::json::escape(k));
        self.out.push_str("\": ");
    }

    fn num_field(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
    }

    fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.out.push('"');
        self.out.push_str(&salam_obs::json::escape(v));
        self.out.push('"');
    }

    fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn object_field(&mut self, k: &str, f: impl FnOnce(&mut JsonWriter)) {
        self.key(k);
        self.out.push('{');
        self.indent += 1;
        self.first = true;
        f(self);
        let wrote_any = !self.first;
        self.indent -= 1;
        if wrote_any {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.indent));
        }
        self.out.push('}');
        self.first = false;
    }

    fn map_field<'a, K, I>(&mut self, k: &str, entries: I)
    where
        K: AsRef<str>,
        I: IntoIterator<Item = (K, &'a u64)>,
    {
        self.object_field(k, |o| {
            for (key, v) in entries {
                o.num_field(key.as_ref(), *v as f64);
            }
        });
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_sum() {
        let b = PowerBreakdown {
            dynamic_fu_mw: 1.0,
            dynamic_reg_mw: 2.0,
            dynamic_spm_read_mw: 3.0,
            dynamic_spm_write_mw: 4.0,
            static_fu_mw: 5.0,
            static_reg_mw: 6.0,
            static_spm_mw: 7.0,
        };
        assert!((b.total_mw() - 28.0).abs() < 1e-12);
        let sum: f64 = b.components().iter().map(|(_, v)| v).sum();
        assert!((sum - b.total_mw()).abs() < 1e-12);
    }

    #[test]
    fn report_json_roundtrip_is_exact() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 2 });
        let r = crate::standalone::run_kernel(&k, &crate::standalone::StandaloneConfig::default());
        let text = r.to_json();
        let back = RunReport::from_json(&text).expect("parse own serialization");
        assert_eq!(back.name, r.name);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.runtime_ns, r.runtime_ns);
        assert_eq!(back.verified, r.verified);
        assert_eq!(back.power, r.power);
        assert_eq!(back.datapath_area_um2, r.datapath_area_um2);
        assert_eq!(back.spm_area_um2, r.spm_area_um2);
        assert_eq!(back.stats.cycles, r.stats.cycles);
        assert_eq!(back.stats.issued, r.stats.issued);
        assert_eq!(back.stats.mem_mix_cycles, r.stats.mem_mix_cycles);
        assert_eq!(back.stats.class_active_cycles, r.stats.class_active_cycles);
        assert_eq!(back.stats.fu_busy_cycle_sum, r.stats.fu_busy_cycle_sum);
        assert_eq!(back.stats.fu_pool, r.stats.fu_pool);
        assert_eq!(back.stats.fu_dynamic_pj, r.stats.fu_dynamic_pj);
        // Serializing the parsed report reproduces the exact bytes — the
        // cache's byte-identity guarantee rests on this.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn report_json_rejects_truncation_and_unknown_labels() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let r = crate::standalone::run_kernel(&k, &crate::standalone::StandaloneConfig::default());
        let text = r.to_json();
        assert!(RunReport::from_json(&text[..text.len() / 2]).is_err());
        let poisoned = text.replace("\"load\"", "\"lload\"");
        assert!(RunReport::from_json(&poisoned).is_err());
    }

    #[test]
    fn canonical_reprs_distinguish_knobs() {
        use crate::standalone::StandaloneConfig;
        let a = StandaloneConfig::default();
        let mut b = a.clone();
        assert_eq!(a.canonical_repr(), b.canonical_repr());
        b.spm_latency = 7;
        assert_ne!(a.canonical_repr(), b.canonical_repr());
        let mut c = a.clone();
        c.engine.reservation_entries = 999;
        assert_ne!(a.canonical_repr(), c.canonical_repr());
        let mut d = a.clone();
        d.constraints =
            salam_cdfg::FuConstraints::unconstrained().with_limit(hw_profile::FuKind::FpMulF64, 2);
        assert_ne!(a.canonical_repr(), d.canonical_repr());
        // record_timeline is observability-only: same fingerprint.
        let mut e = a.clone();
        e.engine.record_timeline = true;
        assert_eq!(a.canonical_repr(), e.canonical_repr());

        let ca = crate::ClusterConfig::default();
        let mut cb = ca;
        cb.dma_burst = 128;
        assert_ne!(ca.canonical_repr(), cb.canonical_repr());
    }
}
