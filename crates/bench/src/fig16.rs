//! The three producer-consumer integration scenarios of Fig. 16, as
//! full-system simulations of the CNN layer-1 pipeline.

use memsys::{DmaCmd, MemMsg, ScratchpadConfig, StreamBuffer, StreamBufferConfig};
use salam::{
    scratchpad_canonical_repr, AcceleratorConfig, ClusterBuilder, ClusterConfig, ComputeUnit, Host,
    HostConfig, HostOp, MemoryStyle,
};
use salam_dse::{CacheId, CachePayload, SweepJob};
use salam_ir::Function;
use sim_core::{CompId, Simulation, Tick};

use crate::cnn;

/// Which integration style to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Fig. 16a — private SPMs, DMA data movement, host synchronization.
    PrivateSpm,
    /// Fig. 16b — shared cluster SPM, host-sequenced stages.
    SharedSpm,
    /// Fig. 16c — direct stream-buffer pipelining, self-synchronized.
    Stream,
}

impl Scenario {
    /// All three, in the paper's order.
    pub const ALL: [Scenario; 3] = [Scenario::PrivateSpm, Scenario::SharedSpm, Scenario::Stream];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::PrivateSpm => "private-spm+dma",
            Scenario::SharedSpm => "shared-spm",
            Scenario::Stream => "stream-buffers",
        }
    }
}

/// The cluster-integration knobs the Fig. 16 sweep explores. Everything
/// else in the scenario (kernel shapes, address maps, host program) is
/// fixed; these four are where the paper's integration trade-offs live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig16Params {
    /// Cluster DMA burst size in bytes.
    pub dma_burst: u32,
    /// Local crossbar width in bytes per cycle.
    pub xbar_width: u32,
    /// Stream-buffer capacity in beats (scenario C only).
    pub stream_capacity: u32,
    /// Symmetric read/write ports on every SPM (private and shared).
    pub spm_ports: u32,
}

impl Default for Fig16Params {
    /// The values the paper's Fig. 16 runs used.
    fn default() -> Self {
        Fig16Params {
            dma_burst: 64,
            xbar_width: 8,
            stream_capacity: 16,
            spm_ports: 4,
        }
    }
}

impl Fig16Params {
    fn spm_cfg(&self) -> ScratchpadConfig {
        ScratchpadConfig::default().with_ports(self.spm_ports, self.spm_ports)
    }

    fn cluster_cfg(&self, scenario: Scenario) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            dma_burst: self.dma_burst,
            xbar_width: self.xbar_width,
            shared_spm: self.spm_cfg(),
            ..ClusterConfig::default()
        };
        if scenario != Scenario::SharedSpm {
            cfg.shared_spm_bytes = 0;
        }
        cfg
    }

    fn stream_cfg(&self) -> StreamBufferConfig {
        StreamBufferConfig {
            capacity_beats: self.stream_capacity,
            beat_bytes: 4,
            ..Default::default()
        }
    }

    /// Canonical knob text for the DSE cache: covers every parameter that
    /// can change a scenario's result, including the derived cluster and
    /// stream configurations.
    pub fn canonical_repr(&self, scenario: Scenario) -> String {
        let stream = self.stream_cfg();
        format!(
            "cluster: {}\nstream: capacity_beats={};beat_bytes={};latency={};period_ps={}\nprivate_spm: {}\nwindow=512",
            self.cluster_cfg(scenario).canonical_repr(),
            stream.capacity_beats,
            stream.beat_bytes,
            stream.latency_cycles,
            stream.clock.period(),
            scratchpad_canonical_repr(&self.spm_cfg()),
        )
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// End-to-end time in nanoseconds (host program start to finish).
    pub total_ns: f64,
    /// Busy span of each accelerator `(name, ns)`.
    pub accel_spans_ns: Vec<(&'static str, f64)>,
    /// Final output verified against the golden model.
    pub verified: bool,
}

const DRAM_BASE: u64 = 0x8000_0000;
const DRAM_IN: u64 = DRAM_BASE;
const DRAM_W: u64 = DRAM_BASE + 0x1000;
const DRAM_OUT: u64 = DRAM_BASE + 0x2000;

const IN_BYTES: u64 = (cnn::IN_DIM * cnn::IN_DIM * 4) as u64;
const W_BYTES: u64 = (cnn::K * cnn::K * 4) as u64;
const CONV_BYTES: u64 = (cnn::CONV_DIM * cnn::CONV_DIM * 4) as u64;
const POOL_BYTES: u64 = (cnn::POOL_DIM * cnn::POOL_DIM * 4) as u64;

fn mmr_args(via: CompId, mmr_base: u64, args: &[u64]) -> Vec<HostOp> {
    let mut ops = Vec::new();
    for (i, &v) in args.iter().enumerate() {
        ops.push(HostOp::WriteMmr {
            via,
            addr: mmr_base + ((2 + i) as u64) * 8,
            value: v,
        });
    }
    ops
}

/// Builds and runs one scenario with the paper's default parameters.
pub fn run_scenario(scenario: Scenario) -> ScenarioResult {
    run_scenario_with(scenario, &Fig16Params::default())
}

/// Builds and runs one scenario under explicit integration parameters.
pub fn run_scenario_with(scenario: Scenario, params: &Fig16Params) -> ScenarioResult {
    let mut rng = machsuite::data::rng(0xC44);
    let input = machsuite::data::f32_vec(&mut rng, cnn::IN_DIM * cnn::IN_DIM, -1.0, 1.0);
    let weights = machsuite::data::f32_vec(&mut rng, cnn::K * cnn::K, -1.0, 1.0);
    let (_, _, want_pool) = cnn::golden(&input, &weights);

    let mut sim: Simulation<MemMsg> = Simulation::new();
    let profile = hw_profile::HardwareProfile::default_40nm();

    let mut builder = ClusterBuilder::new(params.cluster_cfg(scenario), profile.clone());

    // Kernels per scenario.
    let (conv_f, relu_f, pool_f): (Function, Function, Function) = match scenario {
        Scenario::Stream => (
            cnn::conv_kernel(true),
            cnn::relu_kernel(true, true),
            cnn::pool_kernel(true),
        ),
        _ => (
            cnn::conv_kernel(false),
            cnn::relu_kernel(false, false),
            cnn::pool_kernel(false),
        ),
    };

    // Stream buffers (scenario C) are created up front so their ranges can
    // route through the local crossbar.
    let stream_a_base = 0x3000_0000u64;
    let stream_b_base = 0x3000_1000u64;
    let (stream_a, stream_b) = if scenario == Scenario::Stream {
        let cfg = params.stream_cfg();
        let a = sim.add_component(StreamBuffer::new("stream_a", cfg));
        let b = sim.add_component(StreamBuffer::new("stream_b", cfg));
        builder.add_local_range(stream_a_base, stream_a_base + 0x100, a);
        builder.add_local_range(stream_b_base, stream_b_base + 0x100, b);
        (Some(a), Some(b))
    } else {
        (None, None)
    };

    // Accelerator memory styles.
    let conv_spm = 0x1000_0000u64;
    let relu_spm = 0x1100_0000u64;
    let pool_spm = 0x1200_0000u64;
    let style = |base| MemoryStyle::PrivateSpm {
        base,
        size: 0x4000,
        spm: params.spm_cfg(),
    };
    let conv_style = match scenario {
        Scenario::SharedSpm => MemoryStyle::GlobalOnly,
        _ => style(conv_spm),
    };
    let relu_style = match scenario {
        Scenario::PrivateSpm => style(relu_spm),
        _ => MemoryStyle::GlobalOnly,
    };
    let pool_style = match scenario {
        Scenario::SharedSpm => MemoryStyle::GlobalOnly,
        _ => style(pool_spm),
    };

    let conv_mmr = 0x4000_0000u64;
    let relu_mmr = 0x4000_1000u64;
    let pool_mmr = 0x4000_2000u64;
    // A deeper reservation window (identical in every scenario) hides the
    // cluster-interconnect latency.
    let acc_cfg = |name: &str| {
        let mut c = AcceleratorConfig::new(name);
        c.engine.reservation_entries = 512;
        c
    };
    builder.add_accelerator(acc_cfg("conv"), conv_f, conv_style, conv_mmr, None);
    builder.add_accelerator(acc_cfg("relu"), relu_f, relu_style, relu_mmr, None);
    builder.add_accelerator(acc_cfg("pool"), pool_f, pool_style, pool_mmr, None);

    let (cluster, dram, gxbar) = salam::build_system(&mut sim, builder, DRAM_BASE, 1 << 20);
    let _ = stream_a;
    let _ = stream_b;

    // Stage the inputs in DRAM.
    {
        let d = sim.component_as_mut::<memsys::Dram>(dram).unwrap();
        d.poke(DRAM_IN, &machsuite::data::f32_bytes(&input));
        d.poke(DRAM_W, &machsuite::data::f32_bytes(&weights));
    }

    let conv = cluster.accels[0];
    let relu = cluster.accels[1];
    let pool = cluster.accels[2];

    // Argument layouts and host program per scenario.
    let shared = 0x2000_0000u64;
    let host_id_placeholder = sim.add_component(Host::new(HostConfig::default(), vec![]));
    for h in [&conv, &relu, &pool] {
        sim.component_as_mut::<ComputeUnit>(h.unit)
            .unwrap()
            .subscribe_done(host_id_placeholder);
    }
    let via = gxbar;
    let mut ops: Vec<HostOp> = Vec::new();
    let pool_out_addr;
    match scenario {
        Scenario::PrivateSpm => {
            let (c_in, c_w, c_out) = (conv_spm, conv_spm + 0xA00, conv_spm + 0xC00);
            let (r_in, r_out) = (relu_spm, relu_spm + 0x1000);
            let (p_in, p_lb, p_out) = (pool_spm, pool_spm + 0x1000, pool_spm + 0x1800);
            pool_out_addr = p_out;
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(1, DRAM_IN, c_in, IN_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 1 });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(2, DRAM_W, c_w, W_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 2 });
            ops.extend(mmr_args(via, conv_mmr, &[c_in, c_w, c_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: conv_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: conv.unit });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(3, c_out, r_in, CONV_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 3 });
            ops.extend(mmr_args(via, relu_mmr, &[r_in, r_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: relu_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: relu.unit });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(4, r_out, p_in, CONV_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 4 });
            ops.extend(mmr_args(via, pool_mmr, &[p_in, p_lb, p_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: pool_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: pool.unit });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(5, p_out, DRAM_OUT, POOL_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 5 });
        }
        Scenario::SharedSpm => {
            let (c_in, c_w, c_out) = (shared, shared + 0xA00, shared + 0x1000);
            let r_out = shared + 0x2000;
            let (p_lb, p_out) = (shared + 0x3000, shared + 0x3800);
            pool_out_addr = p_out;
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(1, DRAM_IN, c_in, IN_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 1 });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(2, DRAM_W, c_w, W_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 2 });
            ops.extend(mmr_args(via, conv_mmr, &[c_in, c_w, c_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: conv_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: conv.unit });
            // No data movement: relu reads conv's output in place.
            ops.extend(mmr_args(via, relu_mmr, &[c_out, r_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: relu_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: relu.unit });
            ops.extend(mmr_args(via, pool_mmr, &[r_out, p_lb, p_out]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: pool_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: pool.unit });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(5, p_out, DRAM_OUT, POOL_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 5 });
        }
        Scenario::Stream => {
            let (c_in, c_w) = (conv_spm, conv_spm + 0xA00);
            let (p_lb, p_out) = (pool_spm + 0x1000, pool_spm + 0x1800);
            pool_out_addr = p_out;
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(1, DRAM_IN, c_in, IN_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 1 });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(2, DRAM_W, c_w, W_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 2 });
            // Program everything, then start consumers before producers so
            // the pipeline self-synchronizes through the stream handshakes —
            // no host involvement between stages.
            ops.extend(mmr_args(via, pool_mmr, &[stream_b_base, p_lb, p_out]));
            ops.extend(mmr_args(via, relu_mmr, &[stream_a_base, stream_b_base]));
            ops.extend(mmr_args(via, conv_mmr, &[c_in, c_w, stream_a_base]));
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: pool_mmr,
            });
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: relu_mmr,
            });
            ops.push(HostOp::StartAccelerator {
                via,
                mmr_base: conv_mmr,
            });
            ops.push(HostOp::WaitAccDone { unit: pool.unit });
            ops.push(HostOp::StartDma {
                dma: cluster.dma,
                cmd: DmaCmd::new(5, p_out, DRAM_OUT, POOL_BYTES, host_id_placeholder),
            });
            ops.push(HostOp::WaitDmaDone { id: 5 });
        }
    }

    *sim.component_as_mut::<Host>(host_id_placeholder).unwrap() =
        Host::new(HostConfig::default(), ops);
    sim.post(host_id_placeholder, 0, MemMsg::Start);
    sim.run_until(Tick::MAX);

    let host = sim.component_as::<Host>(host_id_placeholder).unwrap();
    let total_ns = host
        .finished_at()
        .unwrap_or_else(|| panic!("{}: host program did not finish", scenario.label()))
        as f64
        / 1000.0;

    let span_of = |id: CompId| -> f64 {
        let cu = sim.component_as::<ComputeUnit>(id).unwrap();
        match cu.span() {
            (Some(s), Some(e)) => (e - s) as f64 / 1000.0,
            _ => 0.0,
        }
    };
    let accel_spans_ns = vec![
        ("conv", span_of(conv.unit)),
        ("relu", span_of(relu.unit)),
        ("pool", span_of(pool.unit)),
    ];

    // Verify the final output in DRAM.
    let d = sim.component_as::<memsys::Dram>(dram).unwrap();
    let got: Vec<f32> = d
        .peek(DRAM_OUT, cnn::POOL_DIM * cnn::POOL_DIM * 4)
        .chunks(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let verified = machsuite::data::check_f32_close("pool_out", &got, &want_pool, 1e-4).is_ok();
    let _ = pool_out_addr;

    ScenarioResult {
        scenario,
        total_ns,
        accel_spans_ns,
        verified,
    }
}

/// The distilled, cacheable result of one Fig. 16 design point — the
/// fields the sweep report needs, decoupled from the full `Simulation`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Record {
    /// Scenario label (see [`Scenario::label`]).
    pub scenario: String,
    /// End-to-end time in nanoseconds.
    pub total_ns: f64,
    /// Busy span of each stage in nanoseconds, `[conv, relu, pool]`.
    pub spans_ns: [f64; 3],
    /// Final output verified against the golden model.
    pub verified: bool,
}

impl From<&ScenarioResult> for Fig16Record {
    fn from(r: &ScenarioResult) -> Self {
        Fig16Record {
            scenario: r.scenario.label().to_string(),
            total_ns: r.total_ns,
            spans_ns: [
                r.accel_spans_ns[0].1,
                r.accel_spans_ns[1].1,
                r.accel_spans_ns[2].1,
            ],
            verified: r.verified,
        }
    }
}

impl CachePayload for Fig16Record {
    fn payload_to_json(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"total_ns\": {}, \"conv_ns\": {}, \"relu_ns\": {}, \"pool_ns\": {}, \"verified\": {}}}",
            self.scenario,
            self.total_ns,
            self.spans_ns[0],
            self.spans_ns[1],
            self.spans_ns[2],
            self.verified,
        )
    }

    fn payload_from_json(r: &mut salam_obs::json::Reader<'_>) -> Result<Self, String> {
        let v = r.value()?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        Ok(Fig16Record {
            scenario: v
                .get("scenario")
                .and_then(|x| x.as_str())
                .ok_or("missing 'scenario'")?
                .to_string(),
            total_ns: num("total_ns")?,
            spans_ns: [num("conv_ns")?, num("relu_ns")?, num("pool_ns")?],
            verified: v
                .get("verified")
                .and_then(salam_obs::json::Value::as_bool)
                .ok_or("missing 'verified'")?,
        })
    }
}

/// One point of the Fig. 16 integration sweep: a scenario plus its
/// parameters, runnable (and cacheable) by the DSE engine.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Point {
    /// Which integration style.
    pub scenario: Scenario,
    /// The swept knobs.
    pub params: Fig16Params,
}

impl SweepJob for Fig16Point {
    type Output = Fig16Record;

    fn cache_id(&self) -> CacheId {
        CacheId::new(
            format!("fig16/{}", self.scenario.label()),
            self.params.canonical_repr(self.scenario),
        )
    }

    fn run(&self) -> Fig16Record {
        let result = run_scenario_with(self.scenario, &self.params);
        assert!(
            result.verified,
            "{} produced wrong output",
            self.scenario.label()
        );
        (&result).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_spm_scenario_is_correct() {
        let r = run_scenario(Scenario::PrivateSpm);
        assert!(r.verified, "wrong output");
        assert!(r.total_ns > 0.0);
        assert!(r.accel_spans_ns.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn shared_spm_is_faster_than_private() {
        let a = run_scenario(Scenario::PrivateSpm);
        let b = run_scenario(Scenario::SharedSpm);
        assert!(b.verified);
        assert!(
            b.total_ns < a.total_ns,
            "shared SPM ({:.0} ns) should beat private+DMA ({:.0} ns)",
            b.total_ns,
            a.total_ns
        );
    }

    #[test]
    fn record_json_roundtrips_exactly() {
        let rec = Fig16Record {
            scenario: "stream-buffers".into(),
            total_ns: 1234.5,
            spans_ns: [100.25, 90.0, 80.125],
            verified: true,
        };
        let text = rec.payload_to_json();
        let back =
            Fig16Record::payload_from_json(&mut salam_obs::json::Reader::new(&text)).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.payload_to_json(), text);
    }

    #[test]
    fn params_change_the_cache_identity() {
        let base = Fig16Point {
            scenario: Scenario::PrivateSpm,
            params: Fig16Params::default(),
        };
        let wide_dma = Fig16Point {
            params: Fig16Params {
                dma_burst: 256,
                ..Fig16Params::default()
            },
            ..base
        };
        let other_scenario = Fig16Point {
            scenario: Scenario::Stream,
            ..base
        };
        assert_ne!(base.cache_id().key(), wide_dma.cache_id().key());
        assert_ne!(base.cache_id().key(), other_scenario.cache_id().key());
        assert_eq!(base.cache_id().key(), base.cache_id().key());
    }

    #[test]
    fn wider_dma_bursts_do_not_slow_the_baseline() {
        let slow = run_scenario_with(
            Scenario::PrivateSpm,
            &Fig16Params {
                dma_burst: 16,
                ..Fig16Params::default()
            },
        );
        let fast = run_scenario_with(
            Scenario::PrivateSpm,
            &Fig16Params {
                dma_burst: 256,
                ..Fig16Params::default()
            },
        );
        assert!(slow.verified && fast.verified);
        assert!(
            fast.total_ns <= slow.total_ns,
            "256 B bursts ({:.0} ns) should not lose to 16 B ({:.0} ns)",
            fast.total_ns,
            slow.total_ns
        );
    }

    #[test]
    fn streaming_is_fastest_and_correct() {
        let a = run_scenario(Scenario::PrivateSpm);
        let c = run_scenario(Scenario::Stream);
        assert!(c.verified, "stream pipeline output wrong");
        assert!(
            c.total_ns < a.total_ns,
            "streams ({:.0} ns) should beat baseline ({:.0} ns)",
            c.total_ns,
            a.total_ns
        );
    }
}
