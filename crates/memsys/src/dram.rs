//! Banked DRAM with row-buffer timing.

use std::collections::VecDeque;

use salam_fault::{FaultPlan, SimError};
use sim_core::{ClockDomain, Component, Ctx, Frequency, Tick};

use crate::fault::FaultState;
use crate::msg::{MemMsg, MemOp, MemReq, MemResp};

/// Configuration for a [`Dram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Cycles for a row-buffer hit (CAS).
    pub row_hit_cycles: u64,
    /// Cycles for a row-buffer miss (precharge + activate + CAS).
    pub row_miss_cycles: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Number of banks.
    pub banks: u32,
    /// Data bus width in bytes per cycle (serializes large bursts).
    pub bus_bytes_per_cycle: u32,
    /// Memory clock.
    pub clock: ClockDomain,
}

impl Default for DramConfig {
    /// A DDR-class device: 12-cycle hits, 38-cycle misses, 2 kB rows,
    /// 8 banks, 8 B/cycle at 1 GHz (≈8 GB/s).
    fn default() -> Self {
        DramConfig {
            row_hit_cycles: 12,
            row_miss_cycles: 38,
            row_bytes: 2048,
            banks: 8,
            bus_bytes_per_cycle: 8,
            clock: ClockDomain::new(Frequency::ghz(1)),
        }
    }
}

/// Main memory: open-row policy per bank plus a shared data bus.
///
/// Requests to a busy bank queue behind it; the data bus serializes
/// transfers, so bulk DMA bursts see bandwidth limits as well as latency.
#[derive(Debug)]
pub struct Dram {
    name: String,
    base: u64,
    data: Vec<u8>,
    cfg: DramConfig,
    queue: VecDeque<MemReq>,
    bank_free_at: Vec<Tick>,
    open_row: Vec<Option<u64>>,
    bus_free_at: Tick,
    tick_pending: bool,
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_misses: u64,
    bytes: u64,
    fault: Option<FaultState>,
}

impl Dram {
    /// Creates a zeroed DRAM covering `[base, base+size)`, panicking on an
    /// invalid configuration. Thin wrapper over [`Dram::try_new`].
    pub fn new(name: &str, cfg: DramConfig, base: u64, size: u64) -> Self {
        match Self::try_new(name, cfg, base, size) {
            Ok(dram) => dram,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Dram::new`]: validates the configuration and size.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for zero banks, rows, bus width, or size — each
    /// of which would divide by zero or wedge the issue loop.
    pub fn try_new(name: &str, cfg: DramConfig, base: u64, size: u64) -> Result<Self, SimError> {
        let bad = |field: &str, detail: &str| Err(SimError::config("dram", field, detail));
        if cfg.banks == 0 {
            return bad("banks", "must be nonzero");
        }
        if cfg.row_bytes == 0 {
            return bad("row_bytes", "must be nonzero");
        }
        if cfg.bus_bytes_per_cycle == 0 {
            return bad("bus_bytes_per_cycle", "must be nonzero");
        }
        if size == 0 {
            return bad("size", "must be nonzero");
        }
        Ok(Dram {
            name: name.to_string(),
            base,
            data: vec![0; size as usize],
            bank_free_at: vec![0; cfg.banks as usize],
            open_row: vec![None; cfg.banks as usize],
            cfg,
            queue: VecDeque::new(),
            bus_free_at: 0,
            tick_pending: false,
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_misses: 0,
            bytes: 0,
            fault: None,
        })
    }

    /// Arms fault injection: read data takes seeded single-bit flips and
    /// responses take extra latency, per the plan's `mem_*` rates.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.fault = Some(FaultState::new(plan, &format!("dram.{}", self.name)));
    }

    /// Direct backdoor write, bypassing timing.
    pub fn poke(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr - self.base) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Direct backdoor read, bypassing timing.
    pub fn peek(&self, addr: u64, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.data[off..off + len]
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx<'_, MemMsg>, at: Tick) {
        if !self.tick_pending {
            self.tick_pending = true;
            let edge = self.cfg.clock.next_edge_at_or_after(at.max(ctx.now() + 1));
            ctx.wake(edge - ctx.now(), MemMsg::Tick);
        }
    }

    fn try_issue(&mut self, ctx: &mut Ctx<'_, MemMsg>) {
        let now = ctx.now();
        while let Some(req) = self.queue.front() {
            let row = req.addr / self.cfg.row_bytes;
            let bank = (row % self.cfg.banks as u64) as usize;
            let ready = self.bank_free_at[bank].max(self.bus_free_at).max(now);
            if ready > now {
                // Everything waits behind the stalled head, in order, for
                // same-bank accesses too; allowing bank-level parallelism
                // would need a scheduler — FR-FCFS is beyond what the
                // experiments need.
                self.schedule_tick(ctx, ready);
                break;
            }
            let req = self.queue.pop_front().expect("the head was just read");
            let hit = self.open_row[bank] == Some(row);
            let access_cycles = if hit {
                self.row_hits += 1;
                self.cfg.row_hit_cycles
            } else {
                self.row_misses += 1;
                self.cfg.row_miss_cycles
            };
            self.open_row[bank] = Some(row);
            let burst_cycles = (req.size as u64)
                .div_ceil(self.cfg.bus_bytes_per_cycle as u64)
                .max(1);
            let total = self.cfg.clock.cycles(access_cycles + burst_cycles);
            self.bank_free_at[bank] = now + total;
            self.bus_free_at = now + self.cfg.clock.cycles(burst_cycles);
            self.bytes += req.size as u64;

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
            let mut fault_cycles = 0;
            if let Some(f) = self.fault.as_mut() {
                if let Some(data) = resp.data.as_deref_mut() {
                    f.maybe_flip(data);
                }
                fault_cycles = f.maybe_delay();
            }
            let resp_delay = total + self.cfg.clock.cycles(fault_cycles);
            ctx.send(req.reply_to, resp_delay, MemMsg::Resp(resp));
        }
    }
}

impl Component<MemMsg> for Dram {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, msg: MemMsg, ctx: &mut Ctx<'_, MemMsg>) {
        match msg {
            MemMsg::Req(req) => {
                assert!(
                    req.addr >= self.base
                        && req.addr + req.size as u64 <= self.base + self.data.len() as u64,
                    "{}: out-of-range access at {:#x}+{}",
                    self.name,
                    req.addr,
                    req.size
                );
                self.queue.push_back(req);
                self.try_issue(ctx);
            }
            MemMsg::Tick => {
                self.tick_pending = false;
                self.try_issue(ctx);
            }
            other => debug_assert!(false, "{}: unexpected message {other:?}", self.name),
        }
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let mut v = vec![
            ("reads".into(), self.reads as f64),
            ("writes".into(), self.writes as f64),
            ("row_hits".into(), self.row_hits as f64),
            ("row_misses".into(), self.row_misses as f64),
            ("bytes".into(), self.bytes as f64),
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

    #[test]
    fn roundtrip_and_latency() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0, 1 << 16));
        let col = sim.add_component(Collector::new());
        sim.post(
            dram,
            0,
            MemMsg::Req(MemReq::write(1, 0x100, vec![5; 8], col)),
        );
        sim.run();
        let c = sim.component_as::<Collector>(col).unwrap();
        // First access is a row miss: 38 + 1 burst cycle = 39 cycles.
        assert_eq!(c.resp_ticks[0], 39_000);
    }

    #[test]
    fn row_hits_are_faster() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0, 1 << 16));
        let col = sim.add_component(Collector::new());
        sim.post(dram, 0, MemMsg::Req(MemReq::read(1, 0x100, 8, col)));
        // Second access to the same row, issued well after the first drains.
        sim.post(dram, 100_000, MemMsg::Req(MemReq::read(2, 0x108, 8, col)));
        sim.run();
        let c = sim.component_as::<Collector>(col).unwrap();
        let first = c.resp_ticks[0];
        let second = c.resp_ticks[1] - 100_000;
        assert!(second < first, "row hit {second} should beat miss {first}");
        assert_eq!(second, 13_000); // 12 + 1 burst
    }

    #[test]
    fn bus_serializes_bursts() {
        let cfg = DramConfig::default();
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", cfg, 0, 1 << 16));
        let col = sim.add_component(Collector::new());
        // Two 64-byte reads to different rows/banks: bus busy 8 cycles each.
        sim.post(dram, 0, MemMsg::Req(MemReq::read(1, 0x0, 64, col)));
        sim.post(dram, 0, MemMsg::Req(MemReq::read(2, 0x800, 64, col)));
        sim.run();
        let c = sim.component_as::<Collector>(col).unwrap();
        assert_eq!(c.resps.len(), 2);
        assert!(c.resp_ticks[1] > c.resp_ticks[0]);
    }

    #[test]
    fn a_one_bank_backlog_drains_in_order_at_row_timing() {
        let cfg = DramConfig::default();
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", cfg, 0, 1 << 16));
        let col = sim.add_component(Collector::new());
        // 512 four-byte reads posted at once, all to bank 0: runs of 64 to
        // row 0, then row 8 (also bank 0), and so on, so every 64th misses.
        let row_of = |k: u64| (k / 64 % 2) * cfg.banks as u64;
        for k in 0..512u64 {
            let addr = row_of(k) * cfg.row_bytes + (k % 64) * 4;
            sim.post(dram, 0, MemMsg::Req(MemReq::read(k, addr, 4, col)));
        }
        sim.run();
        let c = sim.component_as::<Collector>(col).unwrap();
        let ids: Vec<u64> = c.resps.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..512).collect::<Vec<_>>(), "FIFO behind the head");
        // Each issues the tick the bank frees and completes one access
        // plus one burst cycle later.
        let mut at = 0;
        for (k, &tick) in c.resp_ticks.iter().enumerate() {
            let k = k as u64;
            let hit = k > 0 && row_of(k) == row_of(k - 1);
            let access = if hit {
                cfg.row_hit_cycles
            } else {
                cfg.row_miss_cycles
            };
            at += (access + 1) * 1000;
            assert_eq!(tick, at, "request {k}");
        }
    }

    #[test]
    fn data_persists() {
        let mut sim: Simulation<MemMsg> = Simulation::new();
        let dram = sim.add_component(Dram::new("d", DramConfig::default(), 0x8000_0000, 4096));
        let col = sim.add_component(Collector::new());
        sim.post(
            dram,
            0,
            MemMsg::Req(MemReq::write(1, 0x8000_0010, vec![1, 2, 3, 4], col)),
        );
        sim.post(
            dram,
            200_000,
            MemMsg::Req(MemReq::read(2, 0x8000_0010, 4, col)),
        );
        sim.run();
        let c = sim.component_as::<Collector>(col).unwrap();
        assert_eq!(c.resps[1].data.as_deref(), Some(&[1u8, 2, 3, 4][..]));
    }
}
