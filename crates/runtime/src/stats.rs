//! Per-cycle statistics collected by the runtime engine.
//!
//! These counters feed the paper's profiling figures directly: stall/new-
//! execution splits (Fig. 14a), stall-source breakdowns (Fig. 14b),
//! scheduling mixes and FU occupancy (Fig. 15), and the dynamic-energy terms
//! of the power model (Fig. 4, Fig. 11).

use std::collections::BTreeMap;

use hw_profile::FuKind;

/// Classification of issued operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueClass {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Floating-point compute.
    Float,
    /// Integer / address compute.
    Int,
    /// Control, phi, casts and other wiring.
    Other,
}

impl IssueClass {
    /// Every class, in discriminant order (`class as usize` indexes it).
    pub(crate) const ALL: [IssueClass; 5] = [
        IssueClass::Load,
        IssueClass::Store,
        IssueClass::Float,
        IssueClass::Int,
        IssueClass::Other,
    ];

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            IssueClass::Load => "load",
            IssueClass::Store => "store",
            IssueClass::Float => "float",
            IssueClass::Int => "int",
            IssueClass::Other => "other",
        }
    }
}

/// Which kinds of unfinished work were pending during a stalled cycle —
/// the paper breaks GEMM stalls down exactly this way (Fig. 14b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct StallMix {
    /// An outstanding load was pending.
    pub load: bool,
    /// An outstanding store was pending.
    pub store: bool,
    /// An outstanding (or blocked) compute op was pending.
    pub compute: bool,
}

impl StallMix {
    /// Canonical label like `"load+compute"`.
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.load {
            parts.push("load");
        }
        if self.store {
            parts.push("store");
        }
        if self.compute {
            parts.push("compute");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// One cycle's activity snapshot (recorded when
/// [`crate::EngineConfig::record_timeline`] is set) — the paper's per-cycle
/// scheduling log that drives fine-grained occupancy exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Operations issued this cycle, per class label.
    pub issued: BTreeMap<&'static str, u32>,
    /// Busy functional units, per kind.
    pub fu_busy: BTreeMap<FuKind, u32>,
    /// Outstanding memory operations at cycle end.
    pub mem_outstanding: u32,
    /// Whether a ready operation was blocked this cycle (a stall).
    pub stalled: bool,
}

/// Aggregate statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Total engine cycles.
    pub cycles: u64,
    /// Cycles in which at least one new operation issued.
    pub new_exec_cycles: u64,
    /// Cycles with pending work but no issue.
    pub stall_cycles: u64,
    /// Stalled cycles keyed by the pending-work mix label.
    pub stall_breakdown: BTreeMap<String, u64>,
    /// Issued operations per class.
    pub issued: BTreeMap<&'static str, u64>,
    /// Cycles in which each class issued at least once.
    pub class_active_cycles: BTreeMap<&'static str, u64>,
    /// Memory scheduling mix: cycles in which only loads issued (`"load"`),
    /// only stores (`"store"`), or both (`"load+store"`) — Fig. 15b's
    /// memory-parallelism view.
    pub mem_mix_cycles: BTreeMap<&'static str, u64>,
    /// Sum over cycles of busy units, per FU kind (occupancy numerator).
    pub fu_busy_cycle_sum: BTreeMap<FuKind, u64>,
    /// Allocated pool size per FU kind (occupancy denominator).
    pub fu_pool: BTreeMap<FuKind, u32>,
    /// Dynamic functional-unit energy in picojoules.
    pub fu_dynamic_pj: f64,
    /// Dynamic internal-register read energy in picojoules.
    pub reg_read_pj: f64,
    /// Dynamic internal-register write energy in picojoules.
    pub reg_write_pj: f64,
    /// Loads issued to the memory port.
    pub loads: u64,
    /// Stores issued to the memory port.
    pub stores: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// Cycles in which a ready memory op was refused by the port
    /// (bandwidth saturation).
    pub port_reject_cycles: u64,
    /// Per-cycle attribution: every engine cycle charged to exactly one
    /// [`salam_obs::CycleClass`]. `attribution.total() == cycles` always.
    pub attribution: salam_obs::Attribution,
    /// Port rejections by [`crate::RejectCause`] label — one count per
    /// rejected access (an op can be rejected on many cycles).
    pub reject_causes: BTreeMap<String, u64>,
    /// Injected faults by kind (`fu_bitflip`, `mem_drop`, …), merged from
    /// the engine's own hooks and any [`crate::FaultyPort`] wrapping the
    /// memory path. Empty for clean runs — including runs with a zero-rate
    /// [`salam_fault::FaultPlan`] attached, which are observationally free.
    pub fault_counts: BTreeMap<String, u64>,
    /// The producer→consumer dependency stream (only populated when
    /// [`crate::EngineConfig::record_depstream`] is enabled); input to
    /// [`salam_obs::critpath::analyze`].
    pub depstream: Option<salam_obs::DepStream>,
    /// Per-cycle activity log (only populated when
    /// [`crate::EngineConfig::record_timeline`] is enabled).
    pub timeline: Vec<CycleRecord>,
}

impl EngineStats {
    /// Average occupancy (0..1) of the pool for `kind` over the whole run.
    pub fn fu_occupancy(&self, kind: FuKind) -> f64 {
        let busy = self.fu_busy_cycle_sum.get(&kind).copied().unwrap_or(0) as f64;
        let pool = self.fu_pool.get(&kind).copied().unwrap_or(0) as f64;
        if pool == 0.0 || self.cycles == 0 {
            0.0
        } else {
            busy / (pool * self.cycles as f64)
        }
    }

    /// Fraction of cycles that stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Total issued operations across classes.
    pub fn total_issued(&self) -> u64 {
        self.issued.values().sum()
    }

    /// Issued count for one class.
    pub fn issued_class(&self, class: IssueClass) -> u64 {
        self.issued.get(class.label()).copied().unwrap_or(0)
    }

    /// Total dynamic datapath energy (FUs + registers) in picojoules.
    pub fn dynamic_datapath_pj(&self) -> f64 {
        self.fu_dynamic_pj + self.reg_read_pj + self.reg_write_pj
    }

    /// Publish every counter into a [`salam_obs::MetricsRegistry`] under
    /// `prefix` (dotted-path convention, e.g. `accel.gemm.engine`).
    pub fn export_metrics(&self, reg: &mut salam_obs::MetricsRegistry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.set(&p("cycles"), self.cycles as f64);
        reg.set(&p("new_exec_cycles"), self.new_exec_cycles as f64);
        reg.set(&p("stall_cycles"), self.stall_cycles as f64);
        reg.set(&p("stall_fraction"), self.stall_fraction());
        for (label, n) in &self.stall_breakdown {
            reg.set(&p(&format!("stall.{label}")), *n as f64);
        }
        for (label, n) in &self.issued {
            reg.set(&p(&format!("issued.{label}")), *n as f64);
        }
        reg.set(&p("issued.total"), self.total_issued() as f64);
        for (label, n) in &self.class_active_cycles {
            reg.set(&p(&format!("active_cycles.{label}")), *n as f64);
        }
        for (label, n) in &self.mem_mix_cycles {
            reg.set(&p(&format!("mem_mix.{label}")), *n as f64);
        }
        for kind in self.fu_pool.keys() {
            reg.set(
                &p(&format!("fu_occupancy.{kind:?}")),
                self.fu_occupancy(*kind),
            );
        }
        reg.set(&p("energy.fu_dynamic_pj"), self.fu_dynamic_pj);
        reg.set(&p("energy.reg_read_pj"), self.reg_read_pj);
        reg.set(&p("energy.reg_write_pj"), self.reg_write_pj);
        reg.set(&p("mem.loads"), self.loads as f64);
        reg.set(&p("mem.stores"), self.stores as f64);
        reg.set(&p("mem.load_bytes"), self.load_bytes as f64);
        reg.set(&p("mem.store_bytes"), self.store_bytes as f64);
        reg.set(&p("mem.port_reject_cycles"), self.port_reject_cycles as f64);
        for (class, n) in self.attribution.iter() {
            reg.set(&p(&format!("attribution.{}", class.label())), n as f64);
        }
        for (cause, n) in &self.reject_causes {
            reg.set(&p(&format!("reject.{cause}")), *n as f64);
        }
        for (kind, n) in &self.fault_counts {
            reg.set(&p(&format!("fault.{kind}")), *n as f64);
        }
    }

    /// Total injected faults across kinds.
    pub fn total_faults(&self) -> u64 {
        self.fault_counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_mix_labels() {
        assert_eq!(StallMix::default().label(), "none");
        assert_eq!(
            StallMix {
                load: true,
                store: false,
                compute: true
            }
            .label(),
            "load+compute"
        );
        assert_eq!(
            StallMix {
                load: true,
                store: true,
                compute: true
            }
            .label(),
            "load+store+compute"
        );
    }

    #[test]
    fn occupancy_math() {
        let mut s = EngineStats {
            cycles: 10,
            ..Default::default()
        };
        s.fu_pool.insert(FuKind::FpAddF64, 4);
        s.fu_busy_cycle_sum.insert(FuKind::FpAddF64, 20);
        assert!((s.fu_occupancy(FuKind::FpAddF64) - 0.5).abs() < 1e-12);
        assert_eq!(s.fu_occupancy(FuKind::Mux), 0.0);
    }

    #[test]
    fn fractions_guard_zero() {
        let s = EngineStats::default();
        assert_eq!(s.stall_fraction(), 0.0);
        assert_eq!(s.total_issued(), 0);
    }
}
