//! The compute unit and its communications interface.

use hw_profile::HardwareProfile;
use memsys::{MemMsg, MemReq};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{Function, Type};
use salam_obs::SharedTrace;
use salam_runtime::{
    Engine, EngineConfig, EngineStats, MemAccess, MemCompletion, MemPort, Payload, RefusalScope,
};
use sim_core::{ClockDomain, CompId, Component, Ctx, Tick};

/// `Custom` message tag announcing accelerator completion to subscribers.
pub const ACC_DONE: u64 = 0xACCD;

/// Static configuration of one accelerator.
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Instance name.
    pub name: String,
    /// Datapath constraints (functional-unit reuse limits).
    pub constraints: FuConstraints,
    /// Runtime-engine tunables.
    pub engine: EngineConfig,
    /// Accelerator clock.
    pub clock: ClockDomain,
}

impl AcceleratorConfig {
    /// Defaults at 1 GHz with an unconstrained datapath.
    pub fn new(name: &str) -> Self {
        AcceleratorConfig {
            name: name.to_string(),
            constraints: FuConstraints::unconstrained(),
            engine: EngineConfig::default(),
            clock: ClockDomain::default(),
        }
    }
}

/// Communications-interface configuration: the two master memory ports and
/// the control plumbing.
#[derive(Debug, Clone, Copy)]
pub struct CommConfig {
    /// Address range served by the local port `[lo, hi)` (private SPM or
    /// stream buffer).
    pub local_range: (u64, u64),
    /// Component behind the local port.
    pub local_target: Option<CompId>,
    /// Component behind the global port (crossbar); everything not in
    /// `local_range` goes here.
    pub global_target: Option<CompId>,
    /// Requests the local port accepts per cycle (reads, writes).
    pub local_ports: (u32, u32),
    /// Requests the global port accepts per cycle (reads, writes).
    pub global_ports: (u32, u32),
    /// Interrupt `(target, line)` raised at completion.
    pub irq: Option<(CompId, u32)>,
}

impl Default for CommConfig {
    /// No ports connected; 2R/2W budgets.
    fn default() -> Self {
        CommConfig {
            local_range: (0, 0),
            local_target: None,
            global_target: None,
            local_ports: (2, 2),
            global_ports: (2, 2),
            irq: None,
        }
    }
}

/// Buffers between the engine's [`MemPort`] and the message fabric, with
/// independent per-cycle budgets for the local and global master ports —
/// the two-port structure of the paper's communications interface.
#[derive(Debug, Default)]
struct BufferPort {
    outgoing: Vec<MemAccess>,
    completions: Vec<MemCompletion>,
    local_range: (u64, u64),
    local_left: (u32, u32),
    global_left: (u32, u32),
    local_budget: (u32, u32),
    global_budget: (u32, u32),
}

impl BufferPort {
    fn is_local(&self, addr: u64) -> bool {
        addr >= self.local_range.0 && addr < self.local_range.1
    }
}

impl MemPort for BufferPort {
    fn begin_cycle(&mut self) {
        self.local_left = self.local_budget;
        self.global_left = self.global_budget;
    }

    fn try_issue(&mut self, access: MemAccess) -> Result<(), salam_runtime::Rejection> {
        let side = if self.is_local(access.addr) {
            &mut self.local_left
        } else {
            &mut self.global_left
        };
        let (budget, cause) = if access.is_write {
            (&mut side.1, salam_runtime::RejectCause::WritePorts)
        } else {
            (&mut side.0, salam_runtime::RejectCause::ReadPorts)
        };
        if *budget == 0 {
            return Err(salam_runtime::Rejection::new(access, cause));
        }
        *budget -= 1;
        self.outgoing.push(access);
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<MemCompletion>) {
        out.append(&mut self.completions);
    }

    /// A spent master port refuses every access of its kind it serves —
    /// the local range (`is_local`'s test) or the rest — until the next
    /// cycle; both spent, or the global one with no local range, refuse
    /// the kind.
    fn refusal_scope(&self, rejected: &salam_runtime::Rejection) -> RefusalScope {
        let spent = |(reads, writes): (u32, u32)| match rejected.access.is_write {
            true => writes == 0,
            false => reads == 0,
        };
        let (lo, hi) = self.local_range;
        match (spent(self.local_left) || lo >= hi, spent(self.global_left)) {
            (true, true) => RefusalScope::Kind,
            (true, false) => RefusalScope::Within { lo, hi },
            (false, true) => RefusalScope::Outside { lo, hi },
            (false, false) => RefusalScope::Access,
        }
    }
}

/// The accelerator: runtime engine + communications interface, as one
/// clocked component.
///
/// Control protocol (via the paired [`memsys::MmrBlock`], of which this
/// component is the doorbell owner):
///
/// * MMR register 0 — control/status: host writes `1` to start; the unit
///   writes `2` on completion.
/// * MMR registers 2..2+N — the kernel's N arguments as raw 64-bit values
///   (pointers and integers, as in the paper's OpenCL-like convention).
///
/// On completion the unit raises its IRQ (if configured) and sends
/// [`MemMsg::Custom`]`(ACC_DONE, _)` to every subscribed observer.
pub struct ComputeUnit {
    cfg: AcceleratorConfig,
    comm: CommConfig,
    func: Function,
    cdfg: StaticCdfg,
    profile: HardwareProfile,
    mmr: Option<(CompId, u64)>,
    subscribers: Vec<CompId>,
    // mirrored MMR argument registers (index 2..)
    arg_regs: Vec<u64>,
    engine: Option<Engine>,
    port: BufferPort,
    started_at: Option<Tick>,
    finished_at: Option<Tick>,
    final_stats: Option<EngineStats>,
    invocations: u64,
    ticking: bool,
    trace: SharedTrace,
}

impl std::fmt::Debug for ComputeUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeUnit")
            .field("name", &self.cfg.name)
            .field("running", &self.engine.is_some())
            .finish()
    }
}

impl ComputeUnit {
    /// Creates a compute unit for `func`.
    pub fn new(
        cfg: AcceleratorConfig,
        comm: CommConfig,
        func: Function,
        profile: HardwareProfile,
    ) -> Self {
        let cdfg = StaticCdfg::elaborate(&func, &profile, &cfg.constraints);
        let nargs = func.params.len();
        ComputeUnit {
            port: BufferPort {
                local_range: comm.local_range,
                local_budget: comm.local_ports,
                global_budget: comm.global_ports,
                ..BufferPort::default()
            },
            cfg,
            comm,
            func,
            cdfg,
            profile,
            mmr: None,
            subscribers: Vec::new(),
            arg_regs: vec![0; nargs],
            engine: None,
            started_at: None,
            finished_at: None,
            final_stats: None,
            invocations: 0,
            ticking: false,
            trace: SharedTrace::disabled(),
        }
    }

    /// Attaches a trace sink: every invocation's engine records op spans and
    /// scheduler events, timestamped in simulation ticks.
    pub fn set_trace(&mut self, trace: SharedTrace) {
        self.trace = trace;
    }

    /// Binds the paired MMR block and its base address (for status
    /// write-back).
    pub fn set_mmr(&mut self, mmr: CompId, base: u64) {
        self.mmr = Some((mmr, base));
    }

    /// Adds a completion subscriber (host or controller).
    pub fn subscribe_done(&mut self, who: CompId) {
        self.subscribers.push(who);
    }

    /// Connects (or reconnects) the global master port. Interchanging the
    /// memory side without touching the compute unit is the decoupling the
    /// paper contrasts with gem5-Aladdin and PARADE.
    pub fn set_global_target(&mut self, target: CompId) {
        self.comm.global_target = Some(target);
    }

    /// Connects (or reconnects) the local master port to `target` serving
    /// `[lo, hi)` — e.g. a private SPM or a stream buffer.
    pub fn set_local_target(&mut self, target: CompId, lo: u64, hi: u64) {
        self.comm.local_target = Some(target);
        self.comm.local_range = (lo, hi);
        self.port.local_range = (lo, hi);
    }

    /// Sets the completion interrupt target and line.
    pub fn set_irq(&mut self, target: CompId, line: u32) {
        self.comm.irq = Some((target, line));
    }

    /// The static CDFG (for area/static-power reports).
    pub fn cdfg(&self) -> &StaticCdfg {
        &self.cdfg
    }

    /// Engine statistics of the last completed invocation.
    pub fn final_stats(&self) -> Option<&EngineStats> {
        self.final_stats.as_ref()
    }

    /// Start/finish ticks of the last invocation.
    pub fn span(&self) -> (Option<Tick>, Option<Tick>) {
        (self.started_at, self.finished_at)
    }

    /// Completed invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    fn args_from_regs(&self) -> Vec<RtVal> {
        self.func
            .params
            .iter()
            .zip(&self.arg_regs)
            .map(|(p, &raw)| match p.ty {
                Type::Ptr => RtVal::P(raw),
                ref t if t.is_int() => RtVal::I(salam_ir::interp::sign_extend(raw, t.bits())),
                ref t => panic!("unsupported MMR argument type {t}"),
            })
            .collect()
    }

    fn start(&mut self, ctx: &mut Ctx<'_, MemMsg>) {
        assert!(
            self.engine.is_none(),
            "{}: started while running",
            self.cfg.name
        );
        let args = self.args_from_regs();
        let mut engine = Engine::new(
            self.func.clone(),
            self.cdfg.clone(),
            self.profile.clone(),
            self.cfg.engine,
            args,
        );
        if self.trace.is_enabled() {
            engine.set_trace(self.trace.clone());
            engine.set_trace_offset_ps(ctx.now());
        }
        self.engine = Some(engine);
        self.started_at = Some(ctx.now());
        self.schedule_tick(ctx);
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx<'_, MemMsg>) {
        if !self.ticking {
            self.ticking = true;
            let next = self.cfg.clock.next_edge_at_or_after(ctx.now() + 1);
            ctx.wake(next - ctx.now(), MemMsg::Tick);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, MemMsg>) {
        let engine = self.engine.take().expect("engine present at finish");
        self.final_stats = Some(engine.into_stats());
        self.finished_at = Some(ctx.now());
        self.invocations += 1;
        if let Some((mmr, base)) = self.mmr {
            let me = ctx.self_id();
            ctx.send(
                mmr,
                0,
                MemMsg::Req(MemReq::write(
                    u64::MAX,
                    base,
                    2u64.to_le_bytes().to_vec(),
                    me,
                )),
            );
        }
        if let Some((target, line)) = self.comm.irq {
            ctx.send(target, 0, MemMsg::Irq { line, raised: true });
        }
        for &s in &self.subscribers {
            ctx.send(s, 0, MemMsg::Custom(ACC_DONE, self.invocations));
        }
    }
}

impl Component<MemMsg> for ComputeUnit {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn handle(&mut self, msg: MemMsg, ctx: &mut Ctx<'_, MemMsg>) {
        match msg {
            MemMsg::Doorbell { offset, value } => {
                let index = (offset / 8) as usize;
                match index {
                    0 if value == 1 => self.start(ctx),
                    0 => {} // our own status write-back
                    1 => {} // reserved
                    n if n >= 2 && n - 2 < self.arg_regs.len() => {
                        self.arg_regs[n - 2] = value;
                    }
                    _ => {}
                }
            }
            MemMsg::Tick => {
                self.ticking = false;
                let Some(engine) = self.engine.as_mut() else {
                    return;
                };
                let done = engine.step(&mut self.port);
                // Flush memory accesses generated this cycle to the fabric.
                let me = ctx.self_id();
                for access in self.port.outgoing.drain(..) {
                    let dst = {
                        let (lo, hi) = self.comm.local_range;
                        if access.addr >= lo && access.addr < hi {
                            self.comm.local_target.expect("local port connected")
                        } else {
                            self.comm.global_target.expect("global port connected")
                        }
                    };
                    let req = if access.is_write {
                        MemReq::write(
                            access.token,
                            access.addr,
                            access.data.unwrap_or_default().to_vec(),
                            me,
                        )
                    } else {
                        MemReq::read(access.token, access.addr, access.size, me)
                    };
                    ctx.send(dst, 0, MemMsg::Req(req));
                }
                if done {
                    self.finish(ctx);
                } else {
                    self.schedule_tick(ctx);
                }
            }
            MemMsg::Resp(resp) => {
                if resp.id == u64::MAX {
                    return; // ack of our own status write
                }
                self.port.completions.push(MemCompletion {
                    token: resp.id,
                    data: resp.data.as_deref().and_then(Payload::from_slice),
                });
                // The engine keeps ticking while running, so the completion
                // is observed on the next edge.
            }
            MemMsg::Custom(..) | MemMsg::Irq { .. } | MemMsg::Start => {}
            other => {
                debug_assert!(false, "{}: unexpected message {other:?}", self.cfg.name);
            }
        }
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let mut out = vec![("invocations".into(), self.invocations as f64)];
        if let Some(s) = &self.final_stats {
            out.push(("cycles".into(), s.cycles as f64));
            out.push(("stall_cycles".into(), s.stall_cycles as f64));
            out.push(("loads".into(), s.loads as f64));
            out.push(("stores".into(), s.stores as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{MmrBlock, Scratchpad, ScratchpadConfig};
    use sim_core::Simulation;

    /// Builds a minimal accelerator system: MMR + compute unit + private SPM.
    fn vadd_system() -> (Simulation<MemMsg>, CompId, CompId, CompId) {
        let mut fb = salam_ir::FunctionBuilder::new(
            "vadd",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("n", Type::I64)],
        );
        let (a, b, n) = (fb.arg(0), fb.arg(1), fb.arg(2));
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let pa = fb.gep1(Type::I64, a, iv, "pa");
            let pb = fb.gep1(Type::I64, b, iv, "pb");
            let x = fb.load(Type::I64, pa, "x");
            let y = fb.load(Type::I64, pb, "y");
            let s = fb.add(x, y, "s");
            fb.store(s, pb);
        });
        fb.ret();
        let func = fb.finish();

        let mut sim: Simulation<MemMsg> = Simulation::new();
        let spm = sim.add_component(Scratchpad::new(
            "spm",
            ScratchpadConfig::default().with_ports(4, 4),
            0x1000,
            0x1000,
        ));
        let comm = CommConfig {
            local_range: (0x1000, 0x2000),
            local_target: Some(spm),
            global_target: None,
            ..CommConfig::default()
        };
        let cu = ComputeUnit::new(
            AcceleratorConfig::new("vadd_acc"),
            comm,
            func,
            HardwareProfile::default_40nm(),
        );
        let cu_id = sim.add_component(cu);
        let mmr = sim.add_component(MmrBlock::new("mmr", 0x0, 8, Some(cu_id)));
        sim.component_as_mut::<ComputeUnit>(cu_id)
            .unwrap()
            .set_mmr(mmr, 0x0);
        (sim, cu_id, mmr, spm)
    }

    #[test]
    fn mmr_programmed_invocation_runs_to_completion() {
        let (mut sim, cu, mmr, spm) = vadd_system();
        sim.component_as_mut::<Scratchpad>(spm)
            .unwrap()
            .poke(0x1000, &[1i64.to_le_bytes(), 2i64.to_le_bytes()].concat());
        sim.component_as_mut::<Scratchpad>(spm)
            .unwrap()
            .poke(0x1100, &[10i64.to_le_bytes(), 20i64.to_le_bytes()].concat());
        // Program args: a=0x1000, b=0x1100, n=2; then start.
        let col = sim.add_component(memsys::test_util::Collector::new());
        for (i, v) in [(2usize, 0x1000u64), (3, 0x1100), (4, 2)] {
            sim.post(
                mmr,
                0,
                MemMsg::Req(MemReq::write(
                    i as u64,
                    (i * 8) as u64,
                    v.to_le_bytes().to_vec(),
                    col,
                )),
            );
        }
        sim.post(
            mmr,
            10_000,
            MemMsg::Req(MemReq::write(99, 0, 1u64.to_le_bytes().to_vec(), col)),
        );
        sim.run();
        let s = sim.component_as::<Scratchpad>(spm).unwrap();
        let out0 = i64::from_le_bytes(s.peek(0x1100, 8).try_into().unwrap());
        let out1 = i64::from_le_bytes(s.peek(0x1108, 8).try_into().unwrap());
        assert_eq!((out0, out1), (11, 22));
        let unit = sim.component_as::<ComputeUnit>(cu).unwrap();
        assert_eq!(unit.invocations(), 1);
        assert!(unit.final_stats().unwrap().cycles > 0);
        // Status register reads back DONE.
        let m = sim.component_as::<MmrBlock>(mmr).unwrap();
        assert_eq!(m.reg(0), 2);
    }

    #[test]
    fn buffer_port_scopes_a_refusal_to_the_master_port_that_is_spent() {
        let mut port = BufferPort {
            local_range: (0x1000, 0x2000),
            local_budget: (1, 1),
            global_budget: (1, 1),
            ..BufferPort::default()
        };
        let read = |token, addr| MemAccess {
            token,
            addr,
            size: 4,
            is_write: false,
            data: None,
        };
        port.begin_cycle();
        port.try_issue(read(1, 0x1000)).unwrap();
        let local = port.try_issue(read(2, 0x1ffc)).unwrap_err();
        assert_eq!(
            port.refusal_scope(&local),
            RefusalScope::Within {
                lo: 0x1000,
                hi: 0x2000
            }
        );
        // The global port still takes a read this cycle.
        port.try_issue(read(3, 0x2000)).unwrap();
        let global = port.try_issue(read(4, 0x8000)).unwrap_err();
        assert_eq!(port.refusal_scope(&global), RefusalScope::Kind);
        assert_eq!(port.outgoing.len(), 2);
    }

    #[test]
    fn second_invocation_supported() {
        let (mut sim, cu, mmr, spm) = vadd_system();
        sim.component_as_mut::<Scratchpad>(spm)
            .unwrap()
            .poke(0x1000, &1i64.to_le_bytes());
        sim.component_as_mut::<Scratchpad>(spm)
            .unwrap()
            .poke(0x1100, &5i64.to_le_bytes());
        let col = sim.add_component(memsys::test_util::Collector::new());
        for (i, v) in [(2usize, 0x1000u64), (3, 0x1100), (4, 1)] {
            sim.post(
                mmr,
                0,
                MemMsg::Req(MemReq::write(
                    i as u64,
                    (i * 8) as u64,
                    v.to_le_bytes().to_vec(),
                    col,
                )),
            );
        }
        sim.post(
            mmr,
            10_000,
            MemMsg::Req(MemReq::write(99, 0, 1u64.to_le_bytes().to_vec(), col)),
        );
        // Re-start long after the first run finishes.
        sim.post(
            mmr,
            10_000_000,
            MemMsg::Req(MemReq::write(100, 0, 1u64.to_le_bytes().to_vec(), col)),
        );
        sim.run();
        let unit = sim.component_as::<ComputeUnit>(cu).unwrap();
        assert_eq!(unit.invocations(), 2);
        let s = sim.component_as::<Scratchpad>(spm).unwrap();
        // 5 + 1 (first run) + 1 (second run) = 7.
        let out = i64::from_le_bytes(s.peek(0x1100, 8).try_into().unwrap());
        assert_eq!(out, 7);
    }
}
