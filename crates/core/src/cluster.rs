//! The hierarchical accelerator-cluster construct (paper §III-D2).

use hw_profile::HardwareProfile;
use memsys::{
    AddrMap, BlockDma, Dram, DramConfig, MemMsg, MmrBlock, Scratchpad, ScratchpadConfig, Xbar,
};
use salam_fault::SimError;
use salam_ir::Function;
use sim_core::{CompId, Simulation};

use crate::accel::{AcceleratorConfig, CommConfig, ComputeUnit};

/// How an accelerator's data memory is provided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryStyle {
    /// A private scratchpad on the local port: `(base, size, config)` —
    /// also reachable by the cluster DMA through the local crossbar.
    PrivateSpm {
        /// Base address.
        base: u64,
        /// Size in bytes.
        size: u64,
        /// SPM timing/port configuration.
        spm: ScratchpadConfig,
    },
    /// All traffic goes to the global port (shared SPM / caches / streams
    /// reached through the local crossbar).
    GlobalOnly,
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Shared scratchpad base address.
    pub shared_spm_base: u64,
    /// Shared scratchpad size (0 disables it).
    pub shared_spm_bytes: u64,
    /// Shared SPM timing/ports.
    pub shared_spm: ScratchpadConfig,
    /// Cluster DMA burst size in bytes.
    pub dma_burst: u32,
    /// Cluster DMA outstanding bursts.
    pub dma_inflight: u32,
    /// Local crossbar hop latency in cycles.
    pub xbar_latency: u64,
    /// Local crossbar width in bytes per cycle.
    pub xbar_width: u32,
    /// Run the static verifier over every accelerator function as a
    /// pre-build gate: error-severity diagnostics abort
    /// [`ClusterBuilder::try_build`] with [`SimError::Verify`]. Excluded
    /// from [`ClusterConfig::canonical_repr`] — gating changes whether a
    /// cluster builds, never what it simulates.
    pub verify: bool,
}

impl Default for ClusterConfig {
    /// 64 kB shared SPM at `0x2000_0000`, 64 B DMA bursts, 1-cycle 8-byte
    /// crossbar.
    fn default() -> Self {
        ClusterConfig {
            shared_spm_base: 0x2000_0000,
            shared_spm_bytes: 64 * 1024,
            shared_spm: ScratchpadConfig::default().with_ports(4, 4),
            dma_burst: 64,
            dma_inflight: 4,
            xbar_latency: 1,
            xbar_width: 8,
            verify: false,
        }
    }
}

/// Canonical `key=value` text for a [`ScratchpadConfig`] (shared with the
/// per-accelerator private-SPM style), for sweep cache keys.
pub fn scratchpad_canonical_repr(spm: &ScratchpadConfig) -> String {
    format!(
        "latency={};read_ports={};write_ports={};banks={};bank_word={};period_ps={}",
        spm.latency_cycles,
        spm.read_ports,
        spm.write_ports,
        spm.banks,
        spm.bank_word,
        spm.clock.period(),
    )
}

impl ClusterConfig {
    /// A canonical single-line-per-knob text form. Equal configs always
    /// produce equal strings — the design-space-exploration cache keys on
    /// this when sweeping cluster integration scenarios. The `verify` gate
    /// is deliberately excluded: it never changes a built cluster's
    /// behaviour.
    pub fn canonical_repr(&self) -> String {
        format!(
            "shared_spm_base={:#x};shared_spm_bytes={};shared_spm:[{}];dma_burst={};dma_inflight={};xbar_latency={};xbar_width={}",
            self.shared_spm_base,
            self.shared_spm_bytes,
            scratchpad_canonical_repr(&self.shared_spm),
            self.dma_burst,
            self.dma_inflight,
            self.xbar_latency,
            self.xbar_width,
        )
    }

    /// Rejects nonsense cluster knobs before any component is built: a
    /// zero-burst DMA or zero-width crossbar would divide by zero or hang,
    /// and a shared SPM with no ports can never be reached.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |field: &str, detail: &str| Err(SimError::config("cluster", field, detail));
        if self.dma_burst == 0 {
            return bad("dma_burst", "must be nonzero");
        }
        if self.dma_inflight == 0 {
            return bad("dma_inflight", "must be nonzero");
        }
        if self.xbar_width == 0 {
            return bad("xbar_width", "must be nonzero");
        }
        if self.shared_spm_bytes > 0
            && (self.shared_spm.read_ports == 0 || self.shared_spm.write_ports == 0)
        {
            return bad("shared_spm", "enabled with zero read or write ports");
        }
        Ok(())
    }
}

struct AccelDesc {
    cfg: AcceleratorConfig,
    func: Function,
    mem: MemoryStyle,
    mmr_base: u64,
    irq_line: Option<u32>,
}

/// Handle to one built accelerator.
#[derive(Debug, Clone, Copy)]
pub struct AccelHandle {
    /// The compute unit.
    pub unit: CompId,
    /// Its MMR block.
    pub mmr: CompId,
    /// MMR base address (for host writes through the fabric).
    pub mmr_base: u64,
    /// Private scratchpad, if any.
    pub private_spm: Option<CompId>,
}

/// Builder for an [`AcceleratorCluster`].
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    profile: HardwareProfile,
    accels: Vec<AccelDesc>,
    extra_ranges: Vec<(u64, u64, CompId)>,
}

impl ClusterBuilder {
    /// Starts a cluster with the given configuration and hardware profile.
    pub fn new(cfg: ClusterConfig, profile: HardwareProfile) -> Self {
        ClusterBuilder {
            cfg,
            profile,
            accels: Vec::new(),
            extra_ranges: Vec::new(),
        }
    }

    /// Adds an accelerator; returns its index.
    pub fn add_accelerator(
        &mut self,
        cfg: AcceleratorConfig,
        func: Function,
        mem: MemoryStyle,
        mmr_base: u64,
        irq_line: Option<u32>,
    ) -> usize {
        self.accels.push(AccelDesc {
            cfg,
            func,
            mem,
            mmr_base,
            irq_line,
        });
        self.accels.len() - 1
    }

    /// Routes an extra address range (e.g. a stream buffer) through the
    /// local crossbar to `dst`.
    pub fn add_local_range(&mut self, lo: u64, hi: u64, dst: CompId) {
        self.extra_ranges.push((lo, hi, dst));
    }

    /// Static lint over the cluster as currently described, without
    /// building anything: IR verification of every accelerator function
    /// plus the cross-accelerator shared-SPM write-race check (`M004`)
    /// when a shared scratchpad is configured. Returns *all* diagnostics
    /// (infos and warnings included); [`ClusterBuilder::try_build`] with
    /// `verify = true` rejects only on errors.
    pub fn lint(&self) -> Vec<salam_verify::Diagnostic> {
        let mut diags: Vec<salam_verify::Diagnostic> = self
            .accels
            .iter()
            .flat_map(|d| salam_verify::verify_ir(&d.func))
            .collect();
        if self.cfg.shared_spm_bytes > 0 {
            let facts: Vec<_> = self
                .accels
                .iter()
                .map(|d| (d.cfg.name.as_str(), salam_flow::analyze(&d.func, &[])))
                .collect();
            let writers: Vec<_> = facts.iter().map(|(name, f)| (*name, f)).collect();
            diags.extend(salam_verify::check_shared_spm(
                &writers,
                self.cfg.shared_spm_base,
                self.cfg.shared_spm_base + self.cfg.shared_spm_bytes,
            ));
        }
        diags
    }

    /// Materializes the cluster into `sim`, panicking on an invalid
    /// [`ClusterConfig`]. Thin wrapper over [`ClusterBuilder::try_build`].
    ///
    /// `upstream` is a list of `(lo, hi, component)` ranges served outside
    /// the cluster (typically DRAM behind the global crossbar).
    pub fn build(
        self,
        sim: &mut Simulation<MemMsg>,
        upstream: &[(u64, u64, CompId)],
    ) -> AcceleratorCluster {
        match self.try_build(sim, upstream) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ClusterBuilder::build`]: validates the configuration and
    /// returns a typed error instead of panicking, before any component is
    /// added to `sim`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for rejected knobs.
    pub fn try_build(
        self,
        sim: &mut Simulation<MemMsg>,
        upstream: &[(u64, u64, CompId)],
    ) -> Result<AcceleratorCluster, SimError> {
        self.cfg.validate()?;
        if self.cfg.verify {
            let errors: Vec<salam_verify::Diagnostic> = self
                .accels
                .iter()
                .flat_map(|d| salam_verify::errors_only(salam_verify::verify_ir(&d.func)))
                .collect();
            if !errors.is_empty() {
                return Err(SimError::Verify(errors));
            }
        }
        let cfg = self.cfg;
        let mut map = AddrMap::new();

        // Shared scratchpad.
        let shared_spm = if cfg.shared_spm_bytes > 0 {
            let id = sim.add_component(Scratchpad::new(
                "cluster.shared_spm",
                cfg.shared_spm,
                cfg.shared_spm_base,
                cfg.shared_spm_bytes,
            ));
            map.add(
                cfg.shared_spm_base,
                cfg.shared_spm_base + cfg.shared_spm_bytes,
                id,
            );
            Some(id)
        } else {
            None
        };

        // Accelerators: compute units, MMRs and private SPMs.
        let mut handles = Vec::new();
        for (i, d) in self.accels.into_iter().enumerate() {
            let (private_spm, local_range, spm_cfg) = match d.mem {
                MemoryStyle::PrivateSpm { base, size, spm } => {
                    let id = sim.add_component(Scratchpad::new(
                        &format!("{}.spm", d.cfg.name),
                        spm,
                        base,
                        size,
                    ));
                    // Private SPMs remain reachable by the DMA and peers
                    // through the local crossbar.
                    map.add(base, base + size, id);
                    (Some(id), (base, base + size), Some(spm))
                }
                MemoryStyle::GlobalOnly => (None, (0, 0), None),
            };
            let _ = spm_cfg;
            let comm = CommConfig {
                local_range,
                local_target: private_spm,
                global_target: None, // wired after the crossbar exists
                local_ports: (4, 4),
                global_ports: (4, 4),
                irq: None,
            };
            let unit =
                sim.add_component(ComputeUnit::new(d.cfg, comm, d.func, self.profile.clone()));
            let mmr = sim.add_component(MmrBlock::new(
                &format!("acc{i}.mmr"),
                d.mmr_base,
                16,
                Some(unit),
            ));
            sim.component_as_mut::<ComputeUnit>(unit)
                .expect("just added")
                .set_mmr(mmr, d.mmr_base);
            map.add(d.mmr_base, d.mmr_base + 16 * 8, mmr);
            let _ = d.irq_line;
            handles.push(AccelHandle {
                unit,
                mmr,
                mmr_base: d.mmr_base,
                private_spm,
            });
        }

        for (lo, hi, dst) in self.extra_ranges {
            map.add(lo, hi, dst);
        }
        for &(lo, hi, dst) in upstream {
            map.add(lo, hi, dst);
        }

        let local_xbar = sim.add_component(Xbar::new(
            "cluster.local_xbar",
            map,
            cfg.xbar_latency,
            cfg.xbar_width,
        ));

        // Wire every compute unit's global port to the local crossbar.
        for h in &handles {
            let cu = sim
                .component_as_mut::<ComputeUnit>(h.unit)
                .expect("compute unit");
            cu.set_global_target(local_xbar);
        }

        let dma = sim.add_component(BlockDma::new(
            "cluster.dma",
            local_xbar,
            cfg.dma_burst,
            cfg.dma_inflight,
        ));

        Ok(AcceleratorCluster {
            local_xbar,
            shared_spm,
            dma,
            accels: handles,
        })
    }
}

/// A built cluster: a pool of accelerators with shared DMA and scratchpad
/// behind a local crossbar.
#[derive(Debug, Clone)]
pub struct AcceleratorCluster {
    /// The local crossbar.
    pub local_xbar: CompId,
    /// The shared scratchpad, if configured.
    pub shared_spm: Option<CompId>,
    /// The cluster block DMA.
    pub dma: CompId,
    /// Accelerators in insertion order.
    pub accels: Vec<AccelHandle>,
}

impl AcceleratorCluster {
    /// Attaches one trace sink to every traceable component of the cluster:
    /// compute units (op spans), the DMA (transfer spans), the shared SPM
    /// and the local crossbar (counters and contention instants).
    pub fn set_trace(&self, sim: &mut Simulation<MemMsg>, trace: &salam_obs::SharedTrace) {
        for h in &self.accels {
            if let Some(cu) = sim.component_as_mut::<ComputeUnit>(h.unit) {
                cu.set_trace(trace.clone());
            }
            if let Some(id) = h.private_spm {
                if let Some(spm) = sim.component_as_mut::<Scratchpad>(id) {
                    spm.set_trace(trace.clone());
                }
            }
        }
        if let Some(id) = self.shared_spm {
            if let Some(spm) = sim.component_as_mut::<Scratchpad>(id) {
                spm.set_trace(trace.clone());
            }
        }
        if let Some(dma) = sim.component_as_mut::<BlockDma>(self.dma) {
            dma.set_trace(trace.clone());
        }
        if let Some(x) = sim.component_as_mut::<Xbar>(self.local_xbar) {
            x.set_trace(trace.clone());
        }
    }

    /// Merges every component's [`sim_core::Component::stats`] into `reg`
    /// under `prefix` — one dotted path per counter, e.g.
    /// `system.cluster.dma.bytes_moved`.
    pub fn export_metrics(
        &self,
        sim: &Simulation<MemMsg>,
        reg: &mut salam_obs::MetricsRegistry,
        prefix: &str,
    ) {
        reg.merge_prefixed(prefix, sim.all_stats());
    }
}

/// A ready-made single-cluster system: DRAM behind a global crossbar plus
/// the cluster. Returns `(cluster, dram, global_xbar)`.
pub fn build_system(
    sim: &mut Simulation<MemMsg>,
    builder: ClusterBuilder,
    dram_base: u64,
    dram_bytes: u64,
) -> (AcceleratorCluster, CompId, CompId) {
    build_system_with_llc(sim, builder, dram_base, dram_bytes, None)
}

/// Like [`build_system`], optionally inserting a last-level cache between
/// the cluster and system memory — the paper's configuration "if caches are
/// enabled, a last-level cache is added between the global crossbar and
/// system memory interface".
pub fn build_system_with_llc(
    sim: &mut Simulation<MemMsg>,
    builder: ClusterBuilder,
    dram_base: u64,
    dram_bytes: u64,
    llc: Option<memsys::CacheConfig>,
) -> (AcceleratorCluster, CompId, CompId) {
    let dram = sim.add_component(Dram::new(
        "dram",
        DramConfig::default(),
        dram_base,
        dram_bytes,
    ));
    // The cluster's path to system memory goes through the LLC when enabled.
    let mem_side = match llc {
        Some(cfg) => sim.add_component(memsys::Cache::new("llc", cfg, dram)),
        None => dram,
    };
    let cluster = builder.build(sim, &[(dram_base, dram_base + dram_bytes, mem_side)]);
    // The global crossbar fronts the cluster for the host: it routes both
    // into the cluster (MMRs, SPMs) and to system memory (via the LLC when
    // enabled).
    let mut gmap = AddrMap::new();
    gmap.add(dram_base, dram_base + dram_bytes, mem_side);
    // Everything else the cluster knows about is reachable via its local
    // crossbar; expose a broad window below DRAM.
    gmap.add(0x0, dram_base, cluster.local_xbar);
    let global_xbar = sim.add_component(Xbar::new("global_xbar", gmap, 1, 8));
    (cluster, dram, global_xbar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::MemReq;
    use salam_ir::{FunctionBuilder, Type};

    fn incr_kernel() -> Function {
        let mut fb = FunctionBuilder::new("incr", &[("p", Type::Ptr), ("n", Type::I64)]);
        let p = fb.arg(0);
        let n = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let g = fb.gep1(Type::I64, p, iv, "g");
            let x = fb.load(Type::I64, g, "x");
            let one = fb.i64c(1);
            let y = fb.add(x, one, "y");
            fb.store(y, g);
        });
        fb.ret();
        fb.finish()
    }

    #[test]
    fn cluster_accelerator_runs_on_private_spm() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let mut b = ClusterBuilder::new(ClusterConfig::default(), HardwareProfile::default_40nm());
        b.add_accelerator(
            AcceleratorConfig::new("incr0"),
            incr_kernel(),
            MemoryStyle::PrivateSpm {
                base: 0x1000_0000,
                size: 0x1000,
                spm: ScratchpadConfig::default().with_ports(2, 2),
            },
            0x4000_0000,
            None,
        );
        let (cluster, dram, _gx) = build_system(&mut sim, b, 0x8000_0000, 1 << 20);
        let _ = dram;
        let h = cluster.accels[0];
        sim.component_as_mut::<Scratchpad>(h.private_spm.unwrap())
            .unwrap()
            .poke(
                0x1000_0000,
                &[5i64.to_le_bytes(), 6i64.to_le_bytes()].concat(),
            );
        let col = sim.add_component(memsys::test_util::Collector::new());
        // Program args through the *local crossbar*, as a peer would.
        for (reg, v) in [(2u64, 0x1000_0000u64), (3, 2)] {
            sim.post(
                cluster.local_xbar,
                0,
                MemMsg::Req(MemReq::write(
                    reg,
                    h.mmr_base + reg * 8,
                    v.to_le_bytes().to_vec(),
                    col,
                )),
            );
        }
        sim.post(
            cluster.local_xbar,
            50_000,
            MemMsg::Req(MemReq::write(
                9,
                h.mmr_base,
                1u64.to_le_bytes().to_vec(),
                col,
            )),
        );
        sim.run();
        let s = sim
            .component_as::<Scratchpad>(h.private_spm.unwrap())
            .unwrap();
        let v0 = i64::from_le_bytes(s.peek(0x1000_0000, 8).try_into().unwrap());
        let v1 = i64::from_le_bytes(s.peek(0x1000_0008, 8).try_into().unwrap());
        assert_eq!((v0, v1), (6, 7));
    }

    #[test]
    fn llc_caches_cluster_dram_traffic() {
        // An accelerator working straight out of DRAM: with an LLC in the
        // path, repeated passes hit in the cache and finish faster.
        let run = |llc: Option<memsys::CacheConfig>| {
            let mut sim: Simulation<MemMsg> = Simulation::new();
            let mut b = ClusterBuilder::new(
                ClusterConfig {
                    shared_spm_bytes: 0,
                    ..ClusterConfig::default()
                },
                HardwareProfile::default_40nm(),
            );
            b.add_accelerator(
                AcceleratorConfig::new("incr0"),
                incr_kernel(),
                MemoryStyle::GlobalOnly,
                0x4000_0000,
                None,
            );
            let (cluster, dram, _gx) =
                super::build_system_with_llc(&mut sim, b, 0x8000_0000, 1 << 20, llc);
            sim.component_as_mut::<Dram>(dram)
                .unwrap()
                .poke(0x8000_0000, &[0u8; 256]);
            let h = cluster.accels[0];
            let col = sim.add_component(memsys::test_util::Collector::new());
            for (reg, v) in [(2u64, 0x8000_0000u64), (3, 32)] {
                sim.post(
                    cluster.local_xbar,
                    0,
                    MemMsg::Req(MemReq::write(
                        reg,
                        h.mmr_base + reg * 8,
                        v.to_le_bytes().to_vec(),
                        col,
                    )),
                );
            }
            sim.post(
                cluster.local_xbar,
                50_000,
                MemMsg::Req(MemReq::write(
                    9,
                    h.mmr_base,
                    1u64.to_le_bytes().to_vec(),
                    col,
                )),
            );
            sim.run();
            let cu = sim.component_as::<ComputeUnit>(h.unit).unwrap();
            assert_eq!(cu.invocations(), 1);
            let (s, e) = cu.span();
            e.unwrap() - s.unwrap()
        };
        let without = run(None);
        let with_llc = run(Some(memsys::CacheConfig::default().with_size(16 * 1024)));
        assert!(
            with_llc < without,
            "LLC ({with_llc} ps) should beat raw DRAM ({without} ps)"
        );
    }

    #[test]
    fn nonsense_cluster_configs_are_rejected_before_any_component_exists() {
        for (cfg, field) in [
            (
                ClusterConfig {
                    dma_burst: 0,
                    ..ClusterConfig::default()
                },
                "dma_burst",
            ),
            (
                ClusterConfig {
                    xbar_width: 0,
                    ..ClusterConfig::default()
                },
                "xbar_width",
            ),
            (
                // with_ports clamps to >= 1, so force the field directly.
                ClusterConfig {
                    shared_spm: ScratchpadConfig {
                        read_ports: 0,
                        ..ScratchpadConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                "shared_spm",
            ),
        ] {
            let mut sim: Simulation<MemMsg> = Simulation::new();
            let b = ClusterBuilder::new(cfg, HardwareProfile::default_40nm());
            match b.try_build(&mut sim, &[]) {
                Err(SimError::Config(c)) => assert_eq!(c.field, field),
                other => panic!("expected config error for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn dma_moves_dram_to_shared_spm() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let b = ClusterBuilder::new(ClusterConfig::default(), HardwareProfile::default_40nm());
        let (cluster, dram, _gx) = build_system(&mut sim, b, 0x8000_0000, 1 << 20);
        sim.component_as_mut::<Dram>(dram)
            .unwrap()
            .poke(0x8000_0000, &[42u8; 128]);
        let col = sim.add_component(memsys::test_util::Collector::new());
        sim.post(
            cluster.dma,
            0,
            MemMsg::DmaStart(memsys::DmaCmd::new(1, 0x8000_0000, 0x2000_0000, 128, col)),
        );
        sim.run();
        let c = sim
            .component_as::<memsys::test_util::Collector>(col)
            .unwrap();
        assert_eq!(c.dma_dones.len(), 1);
        let spm = sim
            .component_as::<Scratchpad>(cluster.shared_spm.unwrap())
            .unwrap();
        assert_eq!(spm.peek(0x2000_0000, 128), &[42u8; 128][..]);
    }

    #[test]
    fn accelerator_can_work_from_shared_spm() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let mut b = ClusterBuilder::new(ClusterConfig::default(), HardwareProfile::default_40nm());
        b.add_accelerator(
            AcceleratorConfig::new("incr0"),
            incr_kernel(),
            MemoryStyle::GlobalOnly,
            0x4000_0000,
            None,
        );
        let (cluster, _dram, _gx) = build_system(&mut sim, b, 0x8000_0000, 1 << 20);
        let h = cluster.accels[0];
        let spm_id = cluster.shared_spm.unwrap();
        sim.component_as_mut::<Scratchpad>(spm_id)
            .unwrap()
            .poke(0x2000_0000, &7i64.to_le_bytes());
        let col = sim.add_component(memsys::test_util::Collector::new());
        for (reg, v) in [(2u64, 0x2000_0000u64), (3, 1)] {
            sim.post(
                cluster.local_xbar,
                0,
                MemMsg::Req(MemReq::write(
                    reg,
                    h.mmr_base + reg * 8,
                    v.to_le_bytes().to_vec(),
                    col,
                )),
            );
        }
        sim.post(
            cluster.local_xbar,
            50_000,
            MemMsg::Req(MemReq::write(
                9,
                h.mmr_base,
                1u64.to_le_bytes().to_vec(),
                col,
            )),
        );
        sim.run();
        let spm = sim.component_as::<Scratchpad>(spm_id).unwrap();
        let v = i64::from_le_bytes(spm.peek(0x2000_0000, 8).try_into().unwrap());
        assert_eq!(v, 8);
    }
}

#[cfg(test)]
mod irq_tests {
    use super::*;
    use crate::host::{Host, HostConfig, HostOp};
    use memsys::MemReq;

    #[test]
    fn interrupt_driven_synchronization() {
        // The paper's default sync path: the accelerator raises an IRQ at
        // completion and the host blocks on the line instead of polling.
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let mut b = ClusterBuilder::new(
            ClusterConfig {
                shared_spm_bytes: 0,
                ..ClusterConfig::default()
            },
            HardwareProfile::default_40nm(),
        );
        let mut fb = salam_ir::FunctionBuilder::new("noop", &[("p", salam_ir::Type::Ptr)]);
        let p = fb.arg(0);
        let one = fb.i64c(1);
        fb.store(one, p);
        fb.ret();
        b.add_accelerator(
            AcceleratorConfig::new("tiny"),
            fb.finish(),
            MemoryStyle::PrivateSpm {
                base: 0x1000_0000,
                size: 0x1000,
                spm: ScratchpadConfig::default(),
            },
            0x4000_0000,
            None,
        );
        let (cluster, _dram, gxbar) = build_system(&mut sim, b, 0x8000_0000, 1 << 20);
        let h = cluster.accels[0];
        let host = sim.add_component(Host::new(
            HostConfig::default(),
            vec![
                HostOp::WriteMmr {
                    via: gxbar,
                    addr: 0x4000_0000 + 16,
                    value: 0x1000_0000,
                },
                HostOp::StartAccelerator {
                    via: gxbar,
                    mmr_base: 0x4000_0000,
                },
                HostOp::WaitIrq { line: 3 },
                HostOp::PollMmr {
                    via: gxbar,
                    addr: 0x4000_0000,
                    expect: 2,
                },
            ],
        ));
        sim.component_as_mut::<ComputeUnit>(h.unit)
            .unwrap()
            .set_irq(host, 3);
        sim.post(host, 0, MemMsg::Start);
        sim.run();
        let hc = sim.component_as::<Host>(host).unwrap();
        assert!(
            hc.finished_at().is_some(),
            "IRQ + status poll must complete the program"
        );
        let spm = sim
            .component_as::<Scratchpad>(h.private_spm.unwrap())
            .unwrap();
        assert_eq!(spm.peek(0x1000_0000, 8), 1i64.to_le_bytes());
        let _ = MemReq::read(0, 0, 4, host); // keep the import used
    }
}
