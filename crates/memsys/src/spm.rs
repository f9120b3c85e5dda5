//! Multi-ported scratchpad memory.

use std::collections::VecDeque;

use salam_fault::{FaultPlan, SimError};
use salam_obs::{SharedTrace, TrackId};
use sim_core::{ClockDomain, Component, Ctx, Frequency};

use crate::fault::FaultState;
use crate::msg::{MemMsg, MemOp, MemReq, MemResp};

/// Configuration for a [`Scratchpad`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScratchpadConfig {
    /// Access latency in SPM-clock cycles.
    pub latency_cycles: u64,
    /// Reads serviced per cycle.
    pub read_ports: u32,
    /// Writes serviced per cycle.
    pub write_ports: u32,
    /// Cyclic banking factor; 0 disables bank-conflict modeling.
    pub banks: u32,
    /// Bank interleave granularity in bytes (word size).
    pub bank_word: u32,
    /// SPM clock.
    pub clock: ClockDomain,
}

impl Default for ScratchpadConfig {
    /// 1-cycle, dual-ported (1R + 1W), unbanked SPM at 1 GHz.
    fn default() -> Self {
        ScratchpadConfig {
            latency_cycles: 1,
            read_ports: 1,
            write_ports: 1,
            banks: 0,
            bank_word: 4,
            clock: ClockDomain::new(Frequency::ghz(1)),
        }
    }
}

impl ScratchpadConfig {
    /// Sets both port counts.
    pub fn with_ports(mut self, read: u32, write: u32) -> Self {
        self.read_ports = read.max(1);
        self.write_ports = write.max(1);
        self
    }

    /// Rejects knobs that can never service a request: zero ports wedge the
    /// queue forever, and banking with a zero word size divides by zero.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |field: &str, detail: &str| Err(SimError::config("scratchpad", field, detail));
        if self.read_ports == 0 {
            return bad("read_ports", "must be nonzero");
        }
        if self.write_ports == 0 {
            return bad("write_ports", "must be nonzero");
        }
        if self.banks > 0 && self.bank_word == 0 {
            return bad("bank_word", "must be nonzero when banking is enabled");
        }
        Ok(())
    }
}

/// A scratchpad: private or shared accelerator SRAM.
///
/// Requests queue at the SPM and are serviced in order, up to
/// `read_ports` reads and `write_ports` writes per cycle (with optional
/// cyclic bank-conflict modeling). Responses return after the configured
/// latency. These are exactly the knobs the paper sweeps in its GEMM
/// design-space exploration (Figs. 13–15).
#[derive(Debug)]
pub struct Scratchpad {
    name: String,
    base: u64,
    data: Vec<u8>,
    cfg: ScratchpadConfig,
    queue: VecDeque<MemReq>,
    tick_pending: bool,
    // stats
    reads: u64,
    writes: u64,
    busy_cycles: u64,
    conflict_stalls: u64,
    read_port_rejects: u64,
    write_port_rejects: u64,
    max_queue: usize,
    trace: SharedTrace,
    track: Option<TrackId>,
    fault: Option<FaultState>,
}

impl Scratchpad {
    /// Creates a zero-initialized scratchpad covering `[base, base+size)`,
    /// panicking on an invalid configuration. Thin wrapper over
    /// [`Scratchpad::try_new`].
    pub fn new(name: &str, cfg: ScratchpadConfig, base: u64, size: u64) -> Self {
        match Self::try_new(name, cfg, base, size) {
            Ok(spm) => spm,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Scratchpad::new`]: validates the configuration and size.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for zero ports, a zero bank word, or zero size.
    pub fn try_new(
        name: &str,
        cfg: ScratchpadConfig,
        base: u64,
        size: u64,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if size == 0 {
            return Err(SimError::config("scratchpad", "size", "must be nonzero"));
        }
        Ok(Scratchpad {
            name: name.to_string(),
            base,
            data: vec![0; size as usize],
            cfg,
            queue: VecDeque::new(),
            tick_pending: false,
            reads: 0,
            writes: 0,
            busy_cycles: 0,
            conflict_stalls: 0,
            read_port_rejects: 0,
            write_port_rejects: 0,
            max_queue: 0,
            trace: SharedTrace::disabled(),
            track: None,
            fault: None,
        })
    }

    /// Attaches a trace sink; queue depth becomes a counter on an
    /// `spm.{name}` track and bank conflicts show up as instants.
    pub fn set_trace(&mut self, trace: SharedTrace) {
        self.track = trace
            .is_enabled()
            .then(|| trace.track(&format!("spm.{}", self.name)));
        self.trace = trace;
    }

    /// Arms fault injection: read data takes seeded single-bit flips at the
    /// plan's `mem_bitflip_rate` and responses take extra latency at its
    /// `mem_delay_rate`. Injections appear as `fault:*` trace instants and
    /// `fault_*` stats.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.fault = Some(FaultState::new(plan, &format!("spm.{}", self.name)));
    }

    /// Base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    /// Direct backdoor read (testing / checkpointing), bypassing timing.
    pub fn peek(&self, addr: u64, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.data[off..off + len]
    }

    /// Direct backdoor write, bypassing timing.
    pub fn poke(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr - self.base) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Total reads serviced.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total writes serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    fn bank_of(&self, addr: u64) -> u64 {
        (addr / self.cfg.bank_word as u64) % self.cfg.banks.max(1) as u64
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx<'_, MemMsg>) {
        if !self.tick_pending {
            self.tick_pending = true;
            let next = self.cfg.clock.next_edge_at_or_after(ctx.now() + 1);
            ctx.wake(next - ctx.now(), MemMsg::Tick);
        }
    }

    fn service(&mut self, req: MemReq, ctx: &mut Ctx<'_, MemMsg>) {
        let off = (req.addr - self.base) as usize;
        let mut resp = match req.op {
            MemOp::Read => {
                self.reads += 1;
                let end = (off + req.size as usize).min(self.data.len());
                MemResp {
                    id: req.id,
                    addr: req.addr,
                    op: MemOp::Read,
                    data: Some(self.data[off..end].to_vec()),
                }
            }
            MemOp::Write => {
                self.writes += 1;
                if let Some(d) = &req.data {
                    let end = (off + d.len()).min(self.data.len());
                    self.data[off..end].copy_from_slice(&d[..end - off]);
                }
                MemResp {
                    id: req.id,
                    addr: req.addr,
                    op: MemOp::Write,
                    data: None,
                }
            }
        };
        let mut extra_cycles = 0;
        if let Some(f) = self.fault.as_mut() {
            if let Some(data) = resp.data.as_deref_mut() {
                if f.maybe_flip(data) {
                    if let Some(t) = self.track {
                        self.trace.instant(t, "fault:mem_bitflip", ctx.now());
                    }
                }
            }
            extra_cycles = f.maybe_delay();
            if extra_cycles > 0 {
                if let Some(t) = self.track {
                    self.trace.instant(t, "fault:mem_delay", ctx.now());
                }
            }
        }
        let delay = self
            .cfg
            .clock
            .cycles(self.cfg.latency_cycles + extra_cycles);
        ctx.send(req.reply_to, delay, MemMsg::Resp(resp));
    }
}

impl Component<MemMsg> for Scratchpad {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: MemMsg, ctx: &mut Ctx<'_, MemMsg>) {
        match msg {
            MemMsg::Req(req) => {
                assert!(
                    req.addr >= self.base && req.addr + req.size as u64 <= self.base + self.size(),
                    "{}: out-of-range access at {:#x}+{}",
                    self.name,
                    req.addr,
                    req.size
                );
                self.queue.push_back(req);
                self.max_queue = self.max_queue.max(self.queue.len());
                self.schedule_tick(ctx);
            }
            MemMsg::Tick => {
                self.tick_pending = false;
                if self.queue.is_empty() {
                    return;
                }
                self.busy_cycles += 1;
                let mut reads_left = self.cfg.read_ports;
                let mut writes_left = self.cfg.write_ports;
                let mut banks_used: Vec<u64> = Vec::new();
                let mut serviced: Vec<MemReq> = Vec::new();
                while let Some(req) = self.queue.front() {
                    let budget = match req.op {
                        MemOp::Read => &mut reads_left,
                        MemOp::Write => &mut writes_left,
                    };
                    let bank_ok = self.cfg.banks == 0 || {
                        let b = self.bank_of(req.addr);
                        if banks_used.contains(&b) {
                            false
                        } else {
                            banks_used.push(b);
                            true
                        }
                    };
                    if *budget > 0 && bank_ok {
                        *budget -= 1;
                        serviced.push(self.queue.pop_front().expect("the head was just read"));
                    } else {
                        // Attribute the reject to its cause so profiling can
                        // charge contention to the right component knob.
                        if !bank_ok {
                            self.conflict_stalls += 1;
                            if let Some(t) = self.track {
                                self.trace.instant(t, "bank_conflict", ctx.now());
                            }
                        } else {
                            let cause = match req.op {
                                MemOp::Read => {
                                    self.read_port_rejects += 1;
                                    "reject:read_ports"
                                }
                                MemOp::Write => {
                                    self.write_port_rejects += 1;
                                    "reject:write_ports"
                                }
                            };
                            if let Some(t) = self.track {
                                self.trace.instant(t, cause, ctx.now());
                            }
                        }
                        // The blocked head stays, and everything behind it
                        // keeps its order.
                        break;
                    }
                }
                for req in serviced {
                    self.service(req, ctx);
                }
                if let Some(t) = self.track {
                    self.trace
                        .counter(t, "queue_depth", ctx.now(), self.queue.len() as f64);
                }
                if !self.queue.is_empty() {
                    self.schedule_tick(ctx);
                }
            }
            other => {
                debug_assert!(false, "{}: unexpected message {other:?}", self.name);
            }
        }
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let mut v = vec![
            ("reads".into(), self.reads as f64),
            ("writes".into(), self.writes as f64),
            ("busy_cycles".into(), self.busy_cycles as f64),
            ("bank_conflict_stalls".into(), self.conflict_stalls as f64),
            ("read_port_rejects".into(), self.read_port_rejects as f64),
            ("write_port_rejects".into(), self.write_port_rejects as f64),
            ("max_queue".into(), self.max_queue as f64),
        ];
        if let Some(f) = &self.fault {
            v.push(("fault_bitflips".into(), f.bitflips as f64));
            v.push(("fault_delays".into(), f.delays as f64));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Collector;
    use sim_core::Simulation;

    fn setup(cfg: ScratchpadConfig) -> (Simulation<MemMsg>, sim_core::CompId, sim_core::CompId) {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let spm = sim.add_component(Scratchpad::new("spm", cfg, 0x1000, 0x1000));
        let col = sim.add_component(Collector::new());
        (sim, spm, col)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut sim, spm, col) = setup(ScratchpadConfig::default());
        sim.post(
            spm,
            0,
            MemMsg::Req(MemReq::write(1, 0x1010, vec![9, 8, 7, 6], col)),
        );
        sim.post(spm, 2_000, MemMsg::Req(MemReq::read(2, 0x1010, 4, col)));
        sim.run();
        let c = collector(&sim, col);
        assert_eq!(c.resps.len(), 2);
        assert_eq!(c.resps[1].data.as_deref(), Some(&[9u8, 8, 7, 6][..]));
    }

    fn collector(sim: &Simulation<MemMsg>, id: sim_core::CompId) -> &Collector {
        sim.component_as::<Collector>(id).unwrap()
    }

    #[test]
    fn read_port_limit_serializes() {
        // 1 read port: 4 simultaneous reads take 4 cycles to issue.
        let (mut sim, spm, col) = setup(ScratchpadConfig::default());
        for i in 0..4 {
            sim.post(spm, 0, MemMsg::Req(MemReq::read(i, 0x1000 + i * 4, 4, col)));
        }
        sim.run();
        let c = collector(&sim, col);
        assert_eq!(c.resps.len(), 4);
        // Last response: issued at cycle 4 (tick at 4000ps... issue cycles 1..4),
        // + 1 cycle latency.
        assert_eq!(sim.now(), 5_000);
    }

    #[test]
    fn wide_ports_parallelize() {
        let cfg = ScratchpadConfig::default().with_ports(4, 1);
        let (mut sim, spm, col) = setup(cfg);
        for i in 0..4 {
            sim.post(spm, 0, MemMsg::Req(MemReq::read(i, 0x1000 + i * 4, 4, col)));
        }
        sim.run();
        assert_eq!(collector(&sim, col).resps.len(), 4);
        assert_eq!(sim.now(), 2_000, "all four issue in the first cycle");
    }

    #[test]
    fn bank_conflicts_stall() {
        let mut cfg = ScratchpadConfig::default().with_ports(4, 4);
        cfg.banks = 2;
        cfg.bank_word = 4;
        let (mut sim, spm, col) = setup(cfg);
        // Addresses 0x1000 and 0x1008 hit the same bank (stride 8, 2 banks).
        sim.post(spm, 0, MemMsg::Req(MemReq::read(0, 0x1000, 4, col)));
        sim.post(spm, 0, MemMsg::Req(MemReq::read(1, 0x1008, 4, col)));
        sim.run();
        let c = collector(&sim, col);
        assert_eq!(c.resps.len(), 2);
        assert_eq!(sim.now(), 3_000, "second read waits a cycle on the bank");
    }

    #[test]
    fn reads_and_writes_share_cycle() {
        let (mut sim, spm, col) = setup(ScratchpadConfig::default());
        sim.post(spm, 0, MemMsg::Req(MemReq::read(0, 0x1000, 4, col)));
        sim.post(spm, 0, MemMsg::Req(MemReq::write(1, 0x1100, vec![1], col)));
        sim.run();
        assert_eq!(sim.now(), 2_000, "1R+1W issue together");
    }

    #[test]
    fn peek_poke_backdoor() {
        let mut spm = Scratchpad::new("s", ScratchpadConfig::default(), 0, 64);
        spm.poke(8, &[1, 2, 3]);
        assert_eq!(spm.peek(8, 3), &[1, 2, 3]);
    }

    #[test]
    fn zero_size_and_zero_ports_are_rejected() {
        assert!(Scratchpad::try_new("s", ScratchpadConfig::default(), 0, 0).is_err());
        let cfg = ScratchpadConfig {
            read_ports: 0,
            ..ScratchpadConfig::default()
        };
        match Scratchpad::try_new("s", cfg, 0, 64) {
            Err(SimError::Config(c)) => assert_eq!(c.field, "read_ports"),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    #[test]
    fn armed_bitflips_corrupt_reads_deterministically() {
        let run = |seed: u64| {
            let mut sim: Simulation<MemMsg> = Simulation::new();
            let mut spm = Scratchpad::new("spm", ScratchpadConfig::default(), 0x1000, 0x1000);
            spm.poke(0x1000, &[0u8; 8]);
            spm.set_fault(&salam_fault::FaultPlan {
                mem_bitflip_rate: 1.0,
                ..salam_fault::FaultPlan::seeded(seed)
            });
            let spm = sim.add_component(spm);
            let col = sim.add_component(Collector::new());
            sim.post(spm, 0, MemMsg::Req(MemReq::read(1, 0x1000, 8, col)));
            sim.run();
            collector(&sim, col).resps[0].data.clone().unwrap()
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same corruption");
        assert_ne!(a, vec![0u8; 8], "rate 1.0 must corrupt the read");
        let flipped: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips per injection");
    }

    #[test]
    fn armed_delays_slow_responses_but_keep_data() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let mut spm = Scratchpad::new("spm", ScratchpadConfig::default(), 0x1000, 0x1000);
        spm.poke(0x1000, &[9u8; 4]);
        spm.set_fault(&salam_fault::FaultPlan {
            mem_delay_rate: 1.0,
            mem_delay_cycles: 7,
            ..salam_fault::FaultPlan::seeded(1)
        });
        let spm = sim.add_component(spm);
        let col = sim.add_component(Collector::new());
        sim.post(spm, 0, MemMsg::Req(MemReq::read(1, 0x1000, 4, col)));
        sim.run();
        let c = collector(&sim, col);
        assert_eq!(c.resps[0].data.as_deref(), Some(&[9u8; 4][..]));
        // 1 tick-align + 1 latency + 7 injected = 9 cycles.
        assert_eq!(c.resp_ticks[0], 9_000);
    }
}
