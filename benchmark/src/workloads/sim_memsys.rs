//! `sim_memsys`: the same `runtime` engine, used differently — polled in
//! lockstep with an event-driven memory system instead of a private SPM.
//!
//! Ops: two kernels run against an L1 cache + DRAM through
//! `HierarchyPort` (`run_kernel_cached`), and the three Fig. 16 clusters
//! (DMA, crossbars and several engines on one `sim-core` event queue).
//! Why it exists: `memsys` and `sim-core` carry most of the host time
//! here, so an engine change that helps `sim_spm` (say, skipping idle
//! cycles) but costs the lockstep path shows up, and a parallel cluster
//! simulation (ROADMAP item 7) has its workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use machsuite::{Bench, BuiltKernel};
use memsys::{
    AddrMap, BlockDma, Cache, CacheConfig, DmaCmd, Dram, DramConfig, MemMsg, MemReq, Scratchpad,
    ScratchpadConfig, Xbar,
};
use salam::standalone::{run_kernel_cached, StandaloneConfig};
use salam_bench::fig16::{run_scenario, Fig16Record, Scenario};
use salam_bench::runners::tuned_standalone;
use salam_dse::fnv::fnv1a64;
use salam_dse::CachePayload;
use salam_obs::CycleClass;
use sim_core::Simulation;

use crate::golden::{Entry, Golden};
use crate::harness::{ms_since, Metrics, Tally, Workload};
use crate::stats;
use crate::trace::{chrome_json, Recorder};
use crate::workloads::{kernel_id, shuffled};

/// The kernels run against cache + DRAM.
const CACHED: [Bench; 2] = [Bench::GemmNcubed, Bench::Stencil2d];

/// One op of the pass.
enum Op {
    /// `run_kernel_cached` of a prepared kernel.
    Cached {
        id: String,
        kernel: Box<BuiltKernel>,
        cfg: Box<StandaloneConfig>,
    },
    /// One Fig. 16 cluster scenario.
    Cluster(Scenario),
}

/// Short scenario name used in metric and golden keys.
fn scenario_id(s: Scenario) -> &'static str {
    match s {
        Scenario::PrivateSpm => "private-spm",
        Scenario::SharedSpm => "shared-spm",
        Scenario::Stream => "stream",
    }
}

impl Op {
    fn span_name(&self) -> String {
        match self {
            Op::Cached { id, .. } => format!("core.cached_run.{id}"),
            Op::Cluster(s) => format!("core.cluster.{}", scenario_id(*s)),
        }
    }

    fn golden_key(&self) -> String {
        match self {
            Op::Cached { id, .. } => format!("sim_memsys/cached-{id}"),
            Op::Cluster(s) => format!("sim_memsys/{}", scenario_id(*s)),
        }
    }

    /// Runs the op; returns its golden entry and, for cached runs, the
    /// cycles charged to anything but compute.
    fn run(&self) -> (Entry, u64) {
        match self {
            Op::Cached { kernel, cfg, .. } => {
                let report = run_kernel_cached(kernel, cfg, CacheConfig::default());
                let json = report.to_json();
                let stalls = report.cycles - report.stats.attribution.get(CycleClass::Compute);
                (Entry::of_report(&report, &json), stalls)
            }
            Op::Cluster(s) => {
                let result = run_scenario(*s);
                let text = Fig16Record::from(&result).payload_to_json();
                let entry = Entry {
                    cycles: result.total_ns.round() as u64,
                    dyn_insts: 0,
                    verified: result.verified,
                    digest: fnv1a64(text.as_bytes()),
                };
                (entry, 0)
            }
        }
    }
}

/// The ops of a pass, and how long building each cached kernel took (ms).
fn build_ops() -> (Vec<Op>, Vec<f64>) {
    let mut phases_ms = Vec::new();
    let mut ops: Vec<Op> = CACHED
        .into_iter()
        .map(|bench| {
            let t = Instant::now();
            let op = Op::Cached {
                id: kernel_id(bench),
                kernel: Box::new(bench.build_standard()),
                cfg: Box::new(tuned_standalone(bench)),
            };
            phases_ms.push(ms_since(t));
            op
        })
        .collect();
    ops.extend(Scenario::ALL.into_iter().map(Op::Cluster));
    (ops, phases_ms)
}

/// The `sim_memsys` workload.
pub struct SimMemsys {
    ops: Vec<Op>,
    order: Vec<usize>,
    golden: Golden,
    rec: Recorder,
    next_op: u64,
    setup_phases_ms: Vec<f64>,
}

impl SimMemsys {
    /// Set-up: golden load and kernel build (the clusters build their own
    /// kernels inside every op).
    pub fn setup(seed: u64) -> Result<SimMemsys, String> {
        let t = Instant::now();
        let golden = Golden::load()?;
        let mut setup_phases_ms = vec![ms_since(t)];
        let (ops, build_ms) = build_ops();
        setup_phases_ms.extend(build_ms);
        Ok(SimMemsys {
            order: shuffled(ops.len(), seed),
            ops,
            golden,
            rec: Recorder::new(Instant::now(), 0),
            next_op: 0,
            setup_phases_ms,
        })
    }

    /// Golden entries of every op (`--bless`).
    pub fn bless(golden: &mut Golden) {
        for op in build_ops().0 {
            golden.entries.insert(op.golden_key(), op.run().0);
        }
    }
}

impl Workload for SimMemsys {
    fn ops_per_pass(&self) -> u64 {
        self.ops.len() as u64
    }

    fn setup_phases_ms(&self) -> &[f64] {
        &self.setup_phases_ms
    }

    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64> {
        let mut steps = Vec::with_capacity(self.order.len());
        self.rec.set_enabled(traced);
        for &i in &self.order {
            let id = self.next_op;
            self.next_op += 1;
            let op = &self.ops[i];
            let t = Instant::now();
            let open = self.rec.begin(&op.span_name(), id);
            let (entry, _) = op.run();
            self.rec.end(open);
            let ms = ms_since(t);
            tally.op(self.golden.matches(&op.golden_key(), &entry), ms);
            steps.push(ms);
        }
        self.rec.set_enabled(false);
        steps
    }

    fn layer_metrics(&mut self, budget: Duration, out: &mut Metrics) {
        // Fastest traced repetition: the same estimator as the headline.
        let span_ms = |name: &str| stats::quantile(&self.rec.durations_us(name), 0.0) / 1e3;
        let mut cached_ms = 0.0;
        let (mut cycles, mut dyn_insts, mut stalls) = (0u64, 0u64, 0u64);
        for op in &self.ops {
            match op {
                Op::Cached { .. } => {
                    cached_ms += span_ms(&op.span_name());
                    let (entry, stall) = op.run();
                    cycles += entry.cycles;
                    dyn_insts += entry.dyn_insts;
                    stalls += stall;
                }
                Op::Cluster(s) => {
                    out.insert(
                        format!("core.cluster_ms.{}", scenario_id(*s)),
                        span_ms(&op.span_name()),
                    );
                }
            }
        }
        out.insert("core.cached_run_ms".into(), cached_ms);
        out.insert(
            "memsys.minst_per_s".into(),
            stats::ratio(dyn_insts as f64 / 1e6, cached_ms / 1e3),
        );
        out.insert(
            "memsys.host_ns_per_cycle".into(),
            stats::ratio(cached_ms * 1e6, cycles as f64),
        );
        out.insert("memsys.cycles".into(), cycles as f64);
        out.insert(
            "memsys.stall_cycle_share".into(),
            stats::ratio(stalls as f64, cycles as f64),
        );
        component_probes(budget, out);
    }

    fn chrome_trace(&self) -> String {
        chrome_json(&[&self.rec])
    }
}

/// Fastest of the repetitions of `f` that fit in `budget` (at least one,
/// at most 50), in seconds.
fn best_of(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps == 0 || (reps < 50 && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
    }
    best
}

/// Component loops: each memory-system component driven alone through the
/// event kernel by `N` requests posted one cycle apart, so a change to one
/// of them has a name. Each figure is the fastest of the repetitions that
/// fit in a sixth of `budget`.
fn component_probes(budget: Duration, out: &mut Metrics) {
    const N: u64 = 4096;
    let each = budget / 6;
    let collector = memsys::test_util::Collector::new;

    let spm = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let spm = sim.add_component(Scratchpad::new(
            "spm",
            ScratchpadConfig::default().with_ports(4, 4),
            0,
            1 << 16,
        ));
        let col = sim.add_component(collector());
        for i in 0..N {
            sim.post(
                spm,
                i * 1000,
                MemMsg::Req(MemReq::read(i, (i * 4) % (1 << 16), 4, col)),
            );
        }
        black_box(sim.run());
    });
    out.insert("memsys.spm_req_ns".into(), spm * 1e9 / N as f64);

    let dram = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0, 1 << 20));
        let col = sim.add_component(collector());
        for i in 0..N {
            sim.post(dram, i * 1000, MemMsg::Req(MemReq::read(i, i * 64, 8, col)));
        }
        black_box(sim.run());
    });
    out.insert("memsys.dram_req_ns".into(), dram * 1e9 / N as f64);

    let cache = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0, 1 << 20));
        let l1 = sim.add_component(Cache::new("l1", CacheConfig::default(), dram));
        let col = sim.add_component(collector());
        for i in 0..N {
            sim.post(l1, i * 1000, MemMsg::Req(MemReq::read(i, i * 8, 8, col)));
        }
        black_box(sim.run());
    });
    out.insert("memsys.cache_req_ns".into(), cache * 1e9 / N as f64);

    let xbar = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let spm = sim.add_component(Scratchpad::new(
            "spm",
            ScratchpadConfig::default().with_ports(4, 4),
            0,
            1 << 16,
        ));
        let mut map = AddrMap::new();
        map.add(0, 1 << 16, spm);
        let xbar = sim.add_component(Xbar::new("x", map, 1, 8));
        let col = sim.add_component(collector());
        for i in 0..N {
            sim.post(
                xbar,
                i * 1000,
                MemMsg::Req(MemReq::read(i, (i * 4) % (1 << 16), 4, col)),
            );
        }
        black_box(sim.run());
    });
    // The crossbar's own share: the routed run minus the bare SPM run.
    out.insert(
        "memsys.xbar_req_ns".into(),
        ((xbar - spm) * 1e9 / N as f64).max(0.0),
    );

    const DMA_BYTES: u64 = 64 * 1024;
    let dma = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0, 1 << 20));
        let spm = sim.add_component(Scratchpad::new(
            "s",
            ScratchpadConfig::default().with_ports(8, 8),
            0x4000_0000,
            DMA_BYTES,
        ));
        let mut map = AddrMap::new();
        map.add(0, 1 << 20, dram);
        map.add(0x4000_0000, 0x4000_0000 + DMA_BYTES, spm);
        let xbar = sim.add_component(Xbar::new("x", map, 1, 8));
        let dma = sim.add_component(BlockDma::new("dma", xbar, 64, 4));
        let col = sim.add_component(collector());
        sim.post(
            dma,
            0,
            MemMsg::DmaStart(DmaCmd::new(1, 0, 0x4000_0000, DMA_BYTES, col)),
        );
        black_box(sim.run());
    });
    // Host throughput: simulated bytes moved per second of host time.
    out.insert("memsys.dma_mb_per_s".into(), DMA_BYTES as f64 / 1e6 / dma);

    // The event kernel alone: posts delivered to a component that only
    // collects them.
    let events = best_of(each, || {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let col = sim.add_component(collector());
        for i in 0..N {
            sim.post(col, i, MemMsg::Start);
        }
        black_box(sim.run());
    });
    out.insert("sim_core.event_ns".into(), events * 1e9 / N as f64);
}
