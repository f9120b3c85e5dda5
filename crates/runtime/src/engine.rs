//! The runtime engine: the live op source of the cycle model.
//!
//! *When* a dynamic instruction issues and commits is decided by
//! [`crate::sched`] — the reservation, compute and memory queues of the
//! paper, event-driven, a cycle costing O(ops woken + ops ready). This
//! module supplies *what* the instructions are: everything static about an
//! instruction is resolved once into a dense per-[`InstId`] table; dynamic
//! instances live in a uid-indexed slab with their value and a list of
//! consumers, so a commit hands the scheduler exactly the ops it unblocks.
//! Operands are resolved and blocks imported as control flow unfolds, ops
//! evaluate with live values when the scheduler issues them, memory ops go
//! through a [`MemPort`], and everything observable about the run (stats,
//! timeline, trace spans, the dependence stream, watchdog) is recorded
//! here. DESIGN.md §5.1 has the split.

use std::collections::{HashMap, VecDeque};

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::StaticCdfg;
use salam_fault::{FaultPlan, SimError, SiteRng, WatchdogSnapshot};
use salam_ir::interp::{eval_pure, InterpError, RtVal};
use salam_ir::{BlockId, Function, InstId, Opcode, Type, ValueId, ValueKind};
use salam_obs::{SharedTrace, SpanId, TrackId};
use salam_resilience::CancelToken;
use salam_telemetry::FlightRecorder;

use crate::port::{MemAccess, MemCompletion, MemPort, RefusalScope, RejectCause};
use crate::sched::{
    Cycle, IssueFlags, LaneMasks, Limits, MemIssue, OpSource, Sched, LOAD, NO_LANE, N_FU, STORE,
};
use crate::stats::{CycleRecord, EngineStats, IssueClass, StallMix};

/// Cycles between cooperative-cancellation polls (power of two; the poll
/// also fires at cycle 0). A cancel or expired deadline therefore stops a
/// run within one cycle batch of being requested.
pub const CANCEL_BATCH: u64 = 1024;

/// Tunables of the runtime engine (the paper's "device config" scheduler
/// options).
///
/// Memory note: the engine keeps one 56-byte slab entry per dynamic
/// instruction (value, consumer-list head, address) and the scheduler 15
/// more bytes (state, dependence counter and lane, wheel and waiter links,
/// ready and met-the-port bits, lane masks), plus 4 bytes per SSA operand
/// and 4 bytes per memory access, and never reclaims them — about 80 bytes per dynamic
/// instruction for the whole run. The consumer edges, the ordering window
/// and the commit wheel's ring are bounded by the ops in flight, but a single
/// invocation running billions of dynamic instructions will accumulate
/// gigabytes of per-instruction history; split such workloads into multiple
/// invocations. One invocation is limited to 2^32 dynamic instructions (or
/// operands), past which it ends in a [`SimError::KernelFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Accelerator clock period in picoseconds (energy accounting).
    pub clock_period_ps: u64,
    /// Reservation-queue capacity in dynamic instructions.
    pub reservation_entries: usize,
    /// Maximum outstanding reads in the read queue.
    pub max_outstanding_reads: usize,
    /// Maximum outstanding writes in the write queue.
    pub max_outstanding_writes: usize,
    /// Cycles without progress before the engine declares a deadlock.
    pub deadlock_cycles: u64,
    /// Model functional units as fully pipelined (initiation interval 1):
    /// a unit accepts a new operation the cycle after issue instead of
    /// staying busy until commit. gem5-SALAM's default (and ours) is
    /// unpipelined occupancy; this knob exists for ablation studies.
    pub pipelined_fus: bool,
    /// Record a per-cycle activity log in [`EngineStats::timeline`] — the
    /// paper's cycle-granularity scheduling log. Off by default (it grows
    /// with runtime).
    pub record_timeline: bool,
    /// Record the producer→consumer dependency stream in
    /// [`EngineStats::depstream`] for critical-path analysis. Off by
    /// default (one record per dynamic op); observability-only, never
    /// changes the schedule.
    pub record_depstream: bool,
    /// Enforce strict WAR/WAW register hazards between dynamic instances of
    /// the same instruction. The paper's reservation queue only requires
    /// previous instances and readers to be "in-flight or completed", and
    /// each dynamic instance carries its own operand context (implicit
    /// renaming), so the default is off; enabling this models a datapath
    /// without pipeline registers (ablation knob).
    pub strict_register_hazards: bool,
}

impl Default for EngineConfig {
    /// 1 GHz clock, 128-entry reservation window (the paper's runtime keeps
    /// small queues), 64 outstanding reads and writes.
    fn default() -> Self {
        EngineConfig {
            clock_period_ps: 1000,
            reservation_entries: 128,
            max_outstanding_reads: 64,
            max_outstanding_writes: 64,
            deadlock_cycles: 1_000_000,
            pipelined_fus: false,
            record_timeline: false,
            record_depstream: false,
            strict_register_hazards: false,
        }
    }
}

impl EngineConfig {
    /// A canonical `key=value` line covering every knob that can change
    /// simulated behaviour. Equal configs always produce equal strings —
    /// the design-space-exploration cache keys on this. `record_timeline`
    /// and `record_depstream` are deliberately excluded: they only add
    /// logging, never change the schedule.
    pub fn canonical_repr(&self) -> String {
        format!(
            "clock_period_ps={};reservation_entries={};max_outstanding_reads={};\
             max_outstanding_writes={};deadlock_cycles={};pipelined_fus={};\
             strict_register_hazards={}",
            self.clock_period_ps,
            self.reservation_entries,
            self.max_outstanding_reads,
            self.max_outstanding_writes,
            self.deadlock_cycles,
            self.pipelined_fus,
            self.strict_register_hazards,
        )
    }

    /// Rejects nonsense knob settings before they turn into deep-in-the-run
    /// panics or silent infinite loops: a zero-entry reservation window can
    /// never import a block, zero outstanding-op limits wedge every memory
    /// op, a zero deadlock threshold cannot distinguish a stall from a
    /// hang, and a zero clock period breaks energy accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |field: &str, detail: &str| Err(SimError::config("engine", field, detail));
        if self.clock_period_ps == 0 {
            return bad("clock_period_ps", "must be nonzero");
        }
        if self.reservation_entries == 0 {
            return bad("reservation_entries", "must be nonzero");
        }
        if self.max_outstanding_reads == 0 {
            return bad("max_outstanding_reads", "must be nonzero");
        }
        if self.max_outstanding_writes == 0 {
            return bad("max_outstanding_writes", "must be nonzero");
        }
        if self.deadlock_cycles == 0 {
            return bad("deadlock_cycles", "must be nonzero");
        }
        Ok(())
    }

    /// The knobs the cycle model reads, next to the FU pool the CDFG
    /// elaborated to.
    fn limits(&self, fu_pool: [u32; N_FU]) -> Limits {
        Limits {
            reservation_entries: self.reservation_entries,
            max_outstanding: [self.max_outstanding_reads, self.max_outstanding_writes],
            pipelined_fus: self.pipelined_fus,
            fu_pool,
        }
    }
}

/// The engine's own injection state: per-site decision streams for FU
/// result flips and latency jitter.
#[derive(Debug)]
struct EngineFault {
    plan: FaultPlan,
    flip: SiteRng,
    jitter: SiteRng,
}

/// Trace tracks the engine emits onto, registered once at `set_trace`.
#[derive(Debug, Clone, Copy)]
struct TraceTracks {
    /// One span per dynamic op, issue → retire.
    ops: TrackId,
    /// Scheduler events: stall/port-reject instants, queue-depth counters.
    sched: TrackId,
}

/// End of a consumer list in `Live::edges`.
const NIL: u32 = u32::MAX;

/// How an error travels inside the engine: boxed, so that the `Result`s
/// of the per-op hooks stay a few words wide (a [`SimError`] is over a
/// hundred bytes, and every `?` on the hot path would move it).
type Fault = Box<SimError>;

/// How an op produces its value at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Eval {
    Phi,
    Br,
    CondBr,
    Ret,
    /// Side-effect-free opcode, through [`eval_pure`].
    Pure,
    /// Load or store: the value comes from the memory port.
    Mem,
}

/// A static operand with everything import-invariant already resolved.
#[derive(Debug, Clone, Copy)]
enum OperandT {
    /// Constant or kernel argument.
    Imm(RtVal),
    /// Result of the instruction with this `InstId` index; resolved to its
    /// latest dynamic instance at import.
    Inst(u32),
    /// `undef` (or an argument the caller did not pass): a runtime fault
    /// if an imported op uses it.
    Undef,
}

/// Everything the engine needs to know about one static instruction,
/// resolved once in [`Engine::new`] so that importing a dynamic instance
/// clones and allocates nothing.
#[derive(Debug, Clone, Copy)]
struct StaticOp {
    class: IssueClass,
    eval: Eval,
    /// Resource lane: the `FuKind` index, [`LOAD`], [`STORE`] or
    /// [`NO_LANE`].
    lane: u8,
    has_result: bool,
    /// Operands that are instruction results (register-file reads at
    /// issue); a phi reads at most the one incoming edge it takes.
    inst_operands: u8,
    latency: u32,
    /// Memory ops: bytes accessed.
    access_size: u32,
    /// This op's slice of `Live::templates`.
    opnd_start: u32,
    opnd_len: u32,
    block: BlockId,
    /// Energy of one register-file operand read / result write.
    reg_read_pj: f64,
    reg_write_pj: f64,
}

impl StaticOp {
    fn is_store(&self) -> bool {
        self.lane == STORE
    }

    /// Operand index of a memory op's pointer.
    fn ptr_idx(&self) -> u32 {
        self.is_store() as u32
    }

    fn is_term(&self) -> bool {
        matches!(self.eval, Eval::Br | Eval::CondBr | Eval::Ret)
    }

    /// Resource class for attribution: the FU name for compute ops, the
    /// issue-class label for everything else.
    fn res_class(&self) -> &'static str {
        match FuKind::ALL.get(self.lane as usize) {
            Some(k) => k.name(),
            None => self.class.label(),
        }
    }
}

/// One dynamic instruction: an entry of the uid-indexed slab. What decides
/// when it issues and commits (dependence counter, state bits, list links)
/// lives in the [`Sched`] under the same index.
#[derive(Debug)]
struct DynOp {
    /// `InstId` index of the static instruction.
    inst: u32,
    /// Head of this op's consumer list in `Live::edges`.
    consumers: u32,
    /// First dynamic operand in `Live::operand_uids`.
    operands: u32,
    /// Memory ops: uid of the pointer-operand producer (0 when the address
    /// comes from an immediate or argument).
    addr_dep: u32,
    /// Phis: index of the taken incoming edge.
    phi_edge: u16,
    /// The static instruction's resource lane, at hand when the scheduler
    /// asks for it.
    lane: u8,
    /// `addr` holds the access address.
    span_known: bool,
    /// Memory ops: byte address, valid once `span_known`.
    addr: u64,
    /// Open trace span (issue → retire), invalid when tracing is off.
    tspan: SpanId,
    value: Option<RtVal>,
}

// The `EngineConfig` memory note quotes this size.
const _: () = assert!(std::mem::size_of::<DynOp>() == 56);

/// Consumer-list node: `consumer` waits for the list owner to commit.
/// Freed nodes are chained through `next` from `Live::free_edge`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    consumer: u32,
    next: u32,
}

/// Per-op depstream metadata, kept only under `record_depstream`.
#[derive(Debug, Default)]
struct DepRec {
    issue_cycle: u64,
    /// Issue-to-commit latency, including injected jitter.
    latency: u32,
    /// Block-import sequence number (ops of one `import_block` call share
    /// a group).
    group: u32,
    /// Uid of the terminator whose issue imported this op's block (0 for
    /// the entry block).
    ctrl: u64,
    /// Producer uids captured at import, before any of them commits.
    all_deps: Vec<u64>,
}

/// Event counts of the hot path, on flat arrays indexed by `IssueClass`,
/// `StallMix` bits and `RejectCause`; folded into the public
/// [`EngineStats`] maps when the run drains or fails.
#[derive(Debug, Default)]
struct Tallies {
    issued: [u64; IssueClass::ALL.len()],
    class_active: [u64; IssueClass::ALL.len()],
    /// Cycles issuing only loads, only stores, both.
    mem_mix: [u64; 3],
    stall_mix: [u64; 8],
    reject: [u64; RejectCause::ALL.len()],
}

const MEM_MIX_LABELS: [&str; 3] = ["load", "store", "load+store"];

fn stall_mix_index(mix: StallMix) -> usize {
    mix.load as usize | (mix.store as usize) << 1 | (mix.compute as usize) << 2
}

/// The dynamic LLVM runtime engine. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine {
    /// When every op issues and commits.
    sched: Sched,
    /// What the ops are and do.
    live: Live,
    done: bool,
}

/// The live op source behind the [`Sched`]: the static tables, the dynamic
/// instances with their values and consumer edges, control flow, and all
/// the engine observes about a run.
#[derive(Debug)]
struct Live {
    func: Function,
    cfg: EngineConfig,
    /// Arguments the caller passed (checked against `func` at the first
    /// step).
    arg_count: usize,

    // Static tables, built once in `new`.
    ops: Vec<StaticOp>,
    templates: Vec<OperandT>,
    /// `InstId` indices of every block back to back; `block_span[b]` is
    /// block `b`'s `(start, len)` in it.
    block_insts: Vec<u32>,
    block_span: Vec<(u32, u32)>,
    fu_energy_pj: [f64; N_FU],

    // Dynamic instructions, indexed by uid (dense and monotonic; slot 0 is
    // the already-committed "no producer" sentinel).
    dyn_ops: Vec<DynOp>,
    lanes: LaneMasks,
    /// Producer uid of each dynamic operand (0 for immediates).
    operand_uids: Vec<u32>,
    edges: Vec<Edge>,
    free_edge: u32,
    /// Latest dynamic instance per `InstId` (0 = none yet).
    last_instance: Vec<u32>,
    dep_recs: Vec<DepRec>,
    // Strict register hazards only: readers of each uid, and ops waiting
    // for a reader to issue.
    readers_of: HashMap<u32, Vec<u32>>,
    issue_waiters: HashMap<u32, Vec<u32>>,
    /// Uid behind each memory token (0 once completed); tokens are dense,
    /// so the next token is the length.
    token_uid: Vec<u32>,
    /// This cycle's completions the scheduler has not asked for yet.
    polled: std::vec::IntoIter<MemCompletion>,
    /// Per memory side: the cause of the last refusal whose scope reached
    /// past its access — the cause of the retries that scope covers.
    scope_cause: [RejectCause; 2],

    /// Blocks awaiting import: `(block, taken predecessor, uid of the
    /// terminator that scheduled the fetch — 0 for the entry block)`.
    pending_fetch: VecDeque<(BlockId, Option<BlockId>, u32)>,
    fetch_stopped: bool,
    ret_value: Option<RtVal>,
    import_seq: u32,

    /// The cycle being scheduled.
    cycle: u64,
    /// Issue classes that launched an op this cycle.
    classes: [bool; IssueClass::ALL.len()],
    last_progress: u64,
    stats: EngineStats,
    tallies: Tallies,

    trace: SharedTrace,
    trace_tracks: Option<TraceTracks>,
    trace_offset_ps: u64,

    flight: FlightRecorder,
    flight_trace_id: u64,

    fault: Option<EngineFault>,

    cancel: CancelToken,
}

impl Engine {
    /// Creates an engine for one invocation of `func` with the given MMR-
    /// programmed arguments. An argument count that does not match the
    /// function signature surfaces as a [`SimError::KernelFault`] from the
    /// first step.
    pub fn new(
        func: Function,
        cdfg: StaticCdfg,
        profile: HardwareProfile,
        cfg: EngineConfig,
        args: Vec<RtVal>,
    ) -> Self {
        let mut stats = EngineStats::default();
        let mut fu_pool = [0u32; N_FU];
        let mut fu_energy_pj = [0.0; N_FU];
        for (k, n) in cdfg.fu_counts() {
            stats.fu_pool.insert(k, n);
            fu_pool[k as usize] = n;
            fu_energy_pj[k as usize] = profile.spec(k).dynamic_energy_pj(cfg.clock_period_ps);
        }
        stats.depstream = cfg.record_depstream.then(salam_obs::DepStream::new);

        let mut ops = Vec::with_capacity(func.num_insts());
        let mut templates = Vec::with_capacity(2 * func.num_insts());
        let mut max_latency = 0;
        for i in 0..func.num_insts() {
            let iid = InstId::from_raw(i as u32);
            let op = static_op(&func, &cdfg, &profile, &args, iid, &mut templates);
            max_latency = max_latency.max(op.latency);
            ops.push(op);
        }
        let mut block_insts = Vec::with_capacity(func.num_insts());
        let mut block_span = Vec::with_capacity(func.num_blocks());
        for (_, b) in func.blocks() {
            block_span.push((block_insts.len() as u32, b.insts.len() as u32));
            block_insts.extend(b.insts.iter().map(|i| i.index() as u32));
        }

        let sentinel = DynOp {
            inst: 0,
            consumers: NIL,
            operands: 0,
            addr_dep: 0,
            phi_edge: 0,
            lane: NO_LANE,
            span_known: false,
            addr: 0,
            tspan: SpanId::INVALID,
            value: None,
        };
        let mut sched = Sched::with_ops(cfg.limits(fu_pool), max_latency, &[]);
        sched.grow_retired();
        let mut lanes = LaneMasks::default();
        lanes.set(0, NO_LANE);
        let entry = func.entry();
        let live = Live {
            last_instance: vec![0; func.num_insts()],
            func,
            cfg,
            arg_count: args.len(),
            ops,
            templates,
            block_insts,
            block_span,
            fu_energy_pj,
            dyn_ops: vec![sentinel],
            lanes,
            operand_uids: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
            dep_recs: Vec::new(),
            readers_of: HashMap::new(),
            issue_waiters: HashMap::new(),
            token_uid: vec![0],
            polled: Vec::new().into_iter(),
            scope_cause: [RejectCause::ReadPorts, RejectCause::WritePorts],
            pending_fetch: VecDeque::from([(entry, None, 0)]),
            fetch_stopped: false,
            ret_value: None,
            import_seq: 0,
            cycle: 0,
            classes: Default::default(),
            last_progress: 0,
            stats,
            tallies: Tallies::default(),
            trace: SharedTrace::disabled(),
            trace_tracks: None,
            trace_offset_ps: 0,
            flight: FlightRecorder::disabled(),
            flight_trace_id: 0,
            fault: None,
            cancel: CancelToken::none(),
        };
        Engine {
            sched,
            live,
            done: false,
        }
    }

    /// Attaches a trace sink. Each dynamic op becomes a span (issue →
    /// retire) on the `engine.<func>.ops` track; stalls, port rejects and
    /// queue-depth samples go to `engine.<func>.sched`. A disabled handle
    /// (the default) keeps every hook down to a single branch.
    pub fn set_trace(&mut self, trace: SharedTrace) {
        let name = &self.live.func.name;
        self.live.trace_tracks = trace.is_enabled().then(|| TraceTracks {
            ops: trace.track(&format!("engine.{name}.ops")),
            sched: trace.track(&format!("engine.{name}.sched")),
        });
        self.live.trace = trace;
    }

    /// Offsets trace timestamps by `offset` picoseconds, so an engine
    /// embedded in a full-system simulation stamps absolute sim time.
    pub fn set_trace_offset_ps(&mut self, offset: u64) {
        self.live.trace_offset_ps = offset;
    }

    /// Attaches the serving layer's flight recorder; run starts/ends,
    /// errors and a coarse heartbeat land in the shared ring tagged with
    /// `trace_id`. A disabled recorder (the default) keeps every hook down
    /// to a single branch — the recorder never observes or perturbs
    /// simulation state.
    pub fn set_flight(&mut self, flight: FlightRecorder, trace_id: u64) {
        self.live.flight = flight;
        self.live.flight_trace_id = trace_id;
    }

    /// Attaches a cooperative cancel/deadline token. The engine polls it
    /// every [`CANCEL_BATCH`] cycles (and at cycle 0) and stops with
    /// [`SimError::Cancelled`] when it fires, so a wedged or over-deadline
    /// run releases its worker within one cycle batch. The disabled token
    /// (the default) keeps the poll down to a single branch.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.live.cancel = cancel;
    }

    /// Attaches a fault-injection plan. The engine draws from per-site
    /// streams derived from the plan seed (`engine.fu_bitflip`,
    /// `engine.fu_jitter`), so the injection schedule is a pure function
    /// of the plan and the executed instruction stream. A zero-rate plan
    /// installs the hooks but never fires and never consumes stream state.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.live.fault = Some(EngineFault {
            plan: *plan,
            flip: plan.site_rng("engine.fu_bitflip"),
            jitter: plan.site_rng("engine.fu_jitter"),
        });
    }

    /// Merges fault counters from an external component (e.g. a
    /// [`crate::FaultyPort`] wrapped around this engine's memory port) into
    /// the engine's stats, so one report carries the whole campaign.
    pub fn merge_fault_counts(&mut self, counts: &salam_fault::FaultCounts) {
        for (kind, n) in counts {
            *self
                .live
                .stats
                .fault_counts
                .entry(kind.clone())
                .or_insert(0) += n;
        }
    }

    /// The engine's statistics so far (or final, once done). Scalar
    /// counters, energies and the attribution are live every cycle; the
    /// per-class maps (`issued`, `class_active_cycles`, `mem_mix_cycles`,
    /// `fu_busy_cycle_sum`, `stall_breakdown`, `reject_causes`) are
    /// brought up to date when the run drains and on every error return.
    pub fn stats(&self) -> &EngineStats {
        &self.live.stats
    }

    /// Cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.sched.cycle()
    }

    /// Whether the invocation has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The value returned by `ret`, if the function returned one.
    pub fn result(&self) -> Option<RtVal> {
        self.live.ret_value
    }

    /// Runs the engine to completion against `port`; returns final cycles.
    ///
    /// Thin panicking wrapper over [`Engine::try_run_to_completion`] for
    /// callers that treat a hung or faulting design as a test failure.
    ///
    /// # Panics
    ///
    /// Panics if the engine deadlocks (no progress for the configured
    /// threshold), on a runtime fault in the modeled kernel, or on an
    /// invalid [`EngineConfig`].
    pub fn run_to_completion(&mut self, port: &mut dyn MemPort) -> u64 {
        match self.try_run_to_completion(port) {
            Ok(cycles) => cycles,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the engine to completion against `port`; returns final cycles.
    ///
    /// # Errors
    ///
    /// * [`SimError::Config`] if the [`EngineConfig`] fails validation.
    /// * [`SimError::Deadlock`] with a [`WatchdogSnapshot`] if no queue
    ///   makes progress for `deadlock_cycles`.
    /// * [`SimError::KernelFault`] if the modeled kernel faults (division
    ///   by zero, undef use, a wrong argument count, …) or the memory port
    ///   breaks its contract.
    pub fn try_run_to_completion(&mut self, port: &mut dyn MemPort) -> Result<u64, SimError> {
        self.live.cfg.validate()?;
        self.live
            .flight_note(|name| format!("run-start kernel={name}"));
        loop {
            match self.try_step(port) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    let cycle = self.cycle();
                    self.live.flight_note(|name| {
                        format!(
                            "run-error kernel={name} cycle={cycle} kind={}: {e}",
                            e.label()
                        )
                    });
                    return Err(e);
                }
            }
        }
        let cycles = self.cycle();
        self.live
            .flight_note(|name| format!("run-end kernel={name} cycles={cycles}"));
        Ok(cycles)
    }

    /// Advances one accelerator cycle. Returns `true` once the invocation
    /// has fully drained. Thin panicking wrapper over [`Engine::try_step`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a runtime fault in the modeled kernel
    /// (e.g. division by zero, or an argument count that does not match
    /// the function signature).
    pub fn step(&mut self, port: &mut dyn MemPort) -> bool {
        match self.try_step(port) {
            Ok(done) => done,
            Err(e) => panic!("{e}"),
        }
    }

    /// Advances one accelerator cycle. Returns `Ok(true)` once the
    /// invocation has fully drained.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] (with a populated [`WatchdogSnapshot`]) when
    /// no queue has progressed for `deadlock_cycles`; [`SimError::KernelFault`]
    /// when the modeled kernel faults (e.g. division by zero), was given
    /// the wrong number of arguments, or the port completes a token it was
    /// never given. After an error the engine is wedged: further steps
    /// keep returning errors.
    pub fn try_step(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        if self.done {
            return Ok(true);
        }
        let params = self.live.func.params.len();
        if self.live.arg_count != params {
            return Err(*self.live.kernel_fault(format!(
                "argument count mismatch: `{}` takes {params}, got {}",
                self.live.func.name, self.live.arg_count
            )));
        }
        self.live.cycle = self.sched.cycle();
        self.live.classes = Default::default();
        port.begin_cycle();
        self.live.polled = port.poll().into_iter();
        let outcome = match self.sched.step(&mut self.live, port) {
            Ok(cycle) => Ok(cycle.done),
            Err(fault) => Err(*fault),
        };
        if !matches!(outcome, Ok(false)) {
            // Drained or wedged: the points where callers look at stats.
            self.live.fold_tallies(&self.sched);
        }
        self.done = matches!(outcome, Ok(true));
        outcome
    }
}

impl OpSource for Live {
    type Error = Fault;
    /// The `MemPort` call sequence is part of the contract: `begin_cycle`
    /// and `poll` before the step, then one `try_issue` per ready, ordered,
    /// under-cap memory op until the port declares a wider refusal scope;
    /// the retries it covers are counted, not made, and every op meets the
    /// port at least once.
    type Port<'p> = dyn MemPort + 'p;

    fn lane(&self, uid: u32) -> u8 {
        self.dyn_ops[uid as usize].lane
    }

    fn lanes(&self) -> &LaneMasks {
        &self.lanes
    }

    /// Resolves the byte address of memory op `uid` from its pointer
    /// operand on first use. Only called once that operand's producer
    /// committed.
    fn resolve_span(&mut self, uid: u32) -> Result<(), Fault> {
        let d = &self.dyn_ops[uid as usize];
        if d.span_known {
            return Ok(());
        }
        let ptr_idx = self.ops[d.inst as usize].ptr_idx();
        let RtVal::P(addr) = self.ready_operand(uid, ptr_idx)? else {
            return Err(self.kernel_fault("memory access through a non-pointer value"));
        };
        let d = &mut self.dyn_ops[uid as usize];
        d.addr = addr;
        d.span_known = true;
        Ok(())
    }

    fn span(&self, uid: u32) -> (u64, u32) {
        let d = &self.dyn_ops[uid as usize];
        (d.addr, self.ops[d.inst as usize].access_size)
    }

    fn next_completion(&mut self) -> Result<Option<u32>, Fault> {
        let completion = self.polled.next();
        completion.map(|c| self.complete(c)).transpose()
    }

    fn next_block(&self, _sched: &Sched) -> Option<usize> {
        let &(block, ..) = self.pending_fetch.front()?;
        Some(self.block_span[block.index()].1 as usize)
    }

    /// Imports the block at the front of the fetch queue (the scheduler
    /// has checked the window has room for it).
    fn import_block(&mut self, sched: &mut Sched) -> Result<(), Fault> {
        let Some(&(block, pred, ctrl)) = self.pending_fetch.front() else {
            return Ok(());
        };
        let (start, len) = self.block_span[block.index()];
        // Uids leave room for the scheduler's `1 + index` list links and
        // operand offsets stay within `u32` (a block has at most
        // `templates.len()` operands).
        const LIMIT: usize = u32::MAX as usize;
        if self.dyn_ops.len() + len as usize >= LIMIT
            || self.operand_uids.len() + self.templates.len() > LIMIT
        {
            return Err(self.kernel_fault(
                "more than 2^32 dynamic instructions or operands in one invocation",
            ));
        }
        self.pending_fetch.pop_front();
        sched.grow(len as usize);
        let group = self.import_seq;
        self.import_seq += 1;
        for i in start..start + len {
            self.import_op(self.block_insts[i as usize], pred, group, ctrl, sched)?;
        }
        Ok(())
    }

    fn fetch_done(&self) -> bool {
        self.fetch_stopped && self.pending_fetch.is_empty()
    }

    /// Compute / control issue: evaluate, apply fault hooks, follow a
    /// terminator. The value becomes architecturally visible to dependents
    /// when the scheduler commits the op after the returned latency.
    fn issue_compute(&mut self, uid: u32, sched: &mut Sched) -> Result<(u32, bool), Fault> {
        let sop = self.ops[self.dyn_ops[uid as usize].inst as usize];
        let mut value = self.eval_compute(uid, &sop)?;
        let mut latency = sop.latency;
        // Fault hooks: transient single-bit flips in the FU result and
        // latency jitter, each from its own seeded site stream. Flips
        // default to float results only — integer flips can corrupt
        // loop counters into hangs the watchdog never sees.
        let (mut flipped, mut jittered) = (false, false);
        if let Some(f) = self.fault.as_mut() {
            match value {
                Some(RtVal::F(x)) if f.flip.roll(f.plan.fu_bitflip_rate) => {
                    let bit = f.flip.bit(64);
                    value = Some(RtVal::F(f64::from_bits(x.to_bits() ^ (1u64 << bit))));
                    flipped = true;
                }
                Some(RtVal::I(x)) if f.plan.fu_flip_any && f.flip.roll(f.plan.fu_bitflip_rate) => {
                    value = Some(RtVal::I(x ^ (1i64 << f.flip.bit(64))));
                    flipped = true;
                }
                _ => {}
            }
            if latency > 0 && f.jitter.roll(f.plan.fu_jitter_rate) {
                latency = latency.saturating_add(f.plan.fu_jitter_cycles);
                jittered = true;
            }
        }
        if flipped {
            self.note_fault("fu_bitflip");
        }
        if jittered {
            self.note_fault("fu_jitter");
            if let Some(rec) = self.dep_recs.get_mut(uid as usize) {
                rec.latency = latency;
            }
        }
        self.register_issue(uid, &sop, sched);
        if sop.is_term() {
            self.handle_terminator(uid, &sop)?;
        }
        if let Some(energy_pj) = self.fu_energy_pj.get(sop.lane as usize) {
            self.stats.fu_dynamic_pj += energy_pj;
        }
        self.dyn_ops[uid as usize].value = value;
        Ok((latency, sop.is_term()))
    }

    /// A ready, ordered, under-cap memory op meets the port. Tokens are
    /// dense and advance only on acceptance; a refusal does not speak for
    /// the ops behind it unless the port says it does.
    fn issue_mem(
        &mut self,
        uid: u32,
        sched: &mut Sched,
        port: &mut (dyn MemPort + '_),
    ) -> Result<MemIssue, Fault> {
        let d = &self.dyn_ops[uid as usize];
        let sop = self.ops[d.inst as usize];
        let (addr, size) = (d.addr, sop.access_size);
        let access = MemAccess {
            token: self.token_uid.len() as u64,
            addr,
            size,
            is_write: sop.is_store(),
            data: if sop.is_store() {
                Some(self.store_bytes(uid)?)
            } else {
                None
            },
        };
        if let Err(rejected) = port.try_issue(access) {
            self.tallies.reject[rejected.cause as usize] += 1;
            let scope = port.refusal_scope(&rejected);
            if scope != RefusalScope::Access {
                self.scope_cause[(sop.lane - LOAD) as usize] = rejected.cause;
            }
            return Ok(MemIssue::Refused(scope));
        }
        self.token_uid.push(uid);
        self.register_issue(uid, &sop, sched);
        if sop.is_store() {
            self.stats.stores += 1;
            self.stats.store_bytes += size as u64;
        } else {
            self.stats.loads += 1;
            self.stats.load_bytes += size as u64;
        }
        Ok(MemIssue::Accepted(None))
    }

    /// Retries the port's declared scope refused without a call count as
    /// the attempts they stand for, under the cause that declared it.
    fn refused(&mut self, side: usize, n: u32) {
        self.tallies.reject[self.scope_cause[side] as usize] += n as u64;
    }

    /// Op `uid` commits: charges its register write, hands its consumers
    /// to the scheduler (one that waited for its address gets a second,
    /// address call), recycles their edges, then appends the depstream
    /// record and closes the trace span.
    fn retire(&mut self, uid: u32, _cycle: u64, mut consumer: impl FnMut(u32, bool)) {
        let d = &mut self.dyn_ops[uid as usize];
        let sop = &self.ops[d.inst as usize];
        if sop.has_result {
            self.stats.reg_write_pj += sop.reg_write_pj;
        }
        let mut e = std::mem::replace(&mut d.consumers, NIL);
        while e != NIL {
            let Edge { consumer: c, next } = self.edges[e as usize];
            consumer(c, false);
            if self.dyn_ops[c as usize].addr_dep == uid {
                consumer(c, true);
            }
            self.edges[e as usize].next = self.free_edge;
            self.free_edge = e;
            e = next;
        }
        self.record_commit(uid);
    }

    /// The scheduler has charged the cycle: mirror its counters into the
    /// public stats, update the activity statistics and the trace, then
    /// check liveness.
    fn end_cycle(&mut self, sched: &Sched, cycle: &Cycle) -> Result<(), Fault> {
        let flags = cycle.flags;
        let [reads, writes] = sched.outstanding();
        if self.cfg.record_timeline {
            self.record_timeline(sched, flags);
        }
        let counters = sched.counters();
        self.stats.cycles += 1;
        self.stats.attribution = counters.attribution;
        self.stats.stall_cycles = counters.stall_cycles;
        self.stats.new_exec_cycles = counters.new_exec_cycles;
        self.stats.port_reject_cycles = counters.port_reject_cycles;
        if flags.issued() {
            let ld = self.classes[IssueClass::Load as usize];
            let st = self.classes[IssueClass::Store as usize];
            match (ld, st) {
                (true, false) => self.tallies.mem_mix[0] += 1,
                (false, true) => self.tallies.mem_mix[1] += 1,
                (true, true) => self.tallies.mem_mix[2] += 1,
                (false, false) => {}
            }
            for (n, &active) in self.tallies.class_active.iter_mut().zip(&self.classes) {
                *n += active as u64;
            }
        }
        if flags.stalled() {
            let mut mix = flags.blocked();
            mix.compute |= sched.compute_inflight() > 0;
            mix.store |= writes > 0;
            mix.load |= reads > 0;
            self.tallies.stall_mix[stall_mix_index(mix)] += 1;
            if let Some(t) = &self.trace_tracks {
                let name = format!("stall:{}", mix.label());
                self.trace
                    .instant(t.sched, &name, self.trace_ts(self.cycle));
            }
        }
        if let Some(t) = &self.trace_tracks {
            let ts = self.trace_ts(self.cycle);
            if flags.port_rejected() {
                self.trace.instant(t.sched, "port_reject", ts);
            }
            let depth = sched.resv_count() as f64;
            self.trace.counter(t.sched, "reservation_depth", ts, depth);
            let outstanding = (reads + writes) as f64;
            self.trace
                .counter(t.sched, "mem_outstanding", ts, outstanding);
        }
        self.check_liveness(sched, cycle.retired || cycle.imported || flags.issued())
    }
}

impl Live {
    /// Counts one injected fault and emits a `fault:<kind>` trace instant.
    fn note_fault(&mut self, kind: &str) {
        *self.stats.fault_counts.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(t) = &self.trace_tracks {
            self.trace
                .instant(t.sched, &format!("fault:{kind}"), self.trace_ts(self.cycle));
        }
    }

    /// Records a flight-recorder event about this run, built from the
    /// kernel name only when the recorder is on.
    fn flight_note(&self, event: impl FnOnce(&str) -> String) {
        if self.flight.is_enabled() {
            self.flight
                .record(self.flight_trace_id, "engine", event(&self.func.name));
        }
    }

    /// The watchdog's view of the engine at deadlock-detection time.
    fn watchdog_snapshot(&self, sched: &Sched) -> WatchdogSnapshot {
        WatchdogSnapshot {
            kernel: self.func.name.clone(),
            cycle: self.cycle,
            last_progress_cycle: self.last_progress,
            reservation_occupancy: sched.resv_count(),
            compute_occupancy: sched.compute_inflight(),
            mem_outstanding: sched.outstanding().iter().sum(),
            pending_blocks: self.pending_fetch.len(),
            dominant_reject_cause: self
                .stats
                .reject_causes
                .iter()
                .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then_with(|| kb.cmp(ka)))
                .map(|(k, _)| k.clone()),
        }
    }

    #[inline]
    fn trace_ts(&self, cycle: u64) -> u64 {
        self.trace_offset_ps + cycle * self.cfg.clock_period_ps
    }

    /// A runtime fault of the modeled kernel at the current cycle.
    fn kernel_fault(&self, detail: impl Into<String>) -> Fault {
        Box::new(SimError::KernelFault {
            kernel: self.func.name.clone(),
            cycle: self.cycle,
            detail: detail.into(),
        })
    }

    // ---- import ------------------------------------------------------------

    /// Makes `consumer` wait for `producer` to commit.
    fn add_edge(&mut self, producer: u32, consumer: u32) {
        let head = self.dyn_ops[producer as usize].consumers;
        let edge = Edge {
            consumer,
            next: head,
        };
        let slot = if self.free_edge == NIL {
            self.edges.push(edge);
            self.edges.len() as u32 - 1
        } else {
            let slot = self.free_edge;
            self.free_edge = self.edges[slot as usize].next;
            self.edges[slot as usize] = edge;
            slot
        };
        self.dyn_ops[producer as usize].consumers = slot;
    }

    /// Creates the dynamic instance of `inst`: resolves its operands to the
    /// latest instances of their producers, registers with the uncommitted
    /// ones as a consumer, and admits it to the reservation window.
    fn import_op(
        &mut self,
        inst: u32,
        pred: Option<BlockId>,
        group: u32,
        ctrl: u32,
        sched: &mut Sched,
    ) -> Result<(), Fault> {
        let sop = self.ops[inst as usize];
        let uid = self.dyn_ops.len() as u32;
        let operands = self.operand_uids.len() as u32;
        let (mut pending, phi_edge) = self.resolve_operands(uid, inst, &sop, pred, sched)?;
        let mut hazard_deps = Vec::new();
        if sop.has_result {
            if self.cfg.strict_register_hazards {
                hazard_deps = self.strict_hazards(uid, inst, sched);
                pending += hazard_deps.len() as u32;
            }
            self.last_instance[inst as usize] = uid;
        }

        if self.cfg.record_depstream {
            // Producer uids captured now, before any of them commits.
            let mut all_deps = hazard_deps;
            let srcs = &self.operand_uids[operands as usize..];
            all_deps.extend(srcs.iter().filter(|&&s| s != 0).map(|&s| s as u64));
            all_deps.sort_unstable();
            all_deps.dedup();
            self.dep_recs.resize_with(uid as usize, DepRec::default);
            self.dep_recs.push(DepRec {
                issue_cycle: 0,
                latency: sop.latency,
                group,
                ctrl: ctrl as u64,
                all_deps,
            });
        }

        // The pointer-operand producer of a memory op gates when its
        // address can be published to the ordering window — recorded so
        // replay publishes at the same time.
        let addr_dep = match sop.eval {
            Eval::Mem => self.operand_uids[(operands + sop.ptr_idx()) as usize],
            _ => 0,
        };
        self.dyn_ops.push(DynOp {
            inst,
            consumers: NIL,
            operands,
            addr_dep,
            phi_edge,
            lane: sop.lane,
            span_known: false,
            addr: 0,
            tspan: SpanId::INVALID,
            value: None,
        });
        self.lanes.set(uid, sop.lane);
        sched.admit(sop.lane, pending, sched.committed(addr_dep));
        Ok(())
    }

    /// Appends the producer uid of each operand of the op being imported
    /// (phis keep only the taken incoming edge) and makes it a consumer of
    /// the uncommitted ones. Returns how many those are and the phi edge.
    fn resolve_operands(
        &mut self,
        uid: u32,
        inst: u32,
        sop: &StaticOp,
        pred: Option<BlockId>,
        sched: &Sched,
    ) -> Result<(u32, u16), Fault> {
        let mut phi_edge = 0;
        let mut templates = sop.opnd_start..sop.opnd_start + sop.opnd_len;
        if sop.eval == Eval::Phi {
            let refs = &self.func.inst(InstId::from_raw(inst)).block_refs;
            let taken = pred.and_then(|p| refs.iter().position(|&b| b == p));
            let Some(k) = taken.and_then(|k| u16::try_from(k).ok()) else {
                return Err(self.kernel_fault("phi has no edge for the taken predecessor"));
            };
            phi_edge = k;
            templates = sop.opnd_start + k as u32..sop.opnd_start + k as u32 + 1;
        }
        let mut pending = 0;
        for t in templates {
            let src = match self.templates[t as usize] {
                OperandT::Imm(_) => 0,
                OperandT::Undef => return Err(self.kernel_fault("use of undef at runtime")),
                OperandT::Inst(def) => {
                    let src = self.last_instance[def as usize];
                    if src == 0 {
                        return Err(self.kernel_fault("use of value with no dynamic instance"));
                    }
                    if self.cfg.strict_register_hazards {
                        self.readers_of.entry(src).or_default().push(uid);
                    }
                    if !sched.committed(src) {
                        self.add_edge(src, uid);
                        pending += 1;
                    }
                    src
                }
            };
            self.operand_uids.push(src);
        }
        Ok((pending, phi_edge))
    }

    /// Strict register hazards of the op being imported: WAW (the previous
    /// dynamic instance of this instruction must have committed) and WAR
    /// (everything reading the old value must have issued before the
    /// overwrite). Registers `uid` as waiting on each and returns them.
    fn strict_hazards(&mut self, uid: u32, inst: u32, sched: &Sched) -> Vec<u64> {
        let mut deps = Vec::new();
        let prev = self.last_instance[inst as usize];
        if prev == 0 {
            return deps;
        }
        if !sched.committed(prev) {
            self.add_edge(prev, uid);
            deps.push(prev as u64);
        }
        for &r in self.readers_of.get(&prev).map_or(&[][..], Vec::as_slice) {
            if r != uid && !sched.issued(r) {
                self.issue_waiters.entry(r).or_default().push(uid);
                deps.push(r as u64);
            }
        }
        deps
    }

    // ---- value plumbing ------------------------------------------------------

    /// Value of dynamic operand `k` of `uid`, if its producer has one. An
    /// op only issues once every producer has committed, so a `None` here
    /// means malformed IR (an operand that names a value-less
    /// instruction); callers turn it into a [`SimError::KernelFault`].
    fn operand(&self, uid: u32, k: u32) -> Option<RtVal> {
        let d = &self.dyn_ops[uid as usize];
        let sop = &self.ops[d.inst as usize];
        let t = if sop.eval == Eval::Phi {
            sop.opnd_start + d.phi_edge as u32
        } else {
            sop.opnd_start + k
        };
        match self.templates[t as usize] {
            OperandT::Imm(v) => Some(v),
            OperandT::Undef => None,
            OperandT::Inst(_) => {
                self.dyn_ops[self.operand_uids[(d.operands + k) as usize] as usize].value
            }
        }
    }

    fn ready_operand(&self, uid: u32, k: u32) -> Result<RtVal, Fault> {
        self.operand(uid, k).ok_or_else(|| {
            let inst = self.dyn_ops[uid as usize].inst;
            let mnemonic = self.func.inst(InstId::from_raw(inst)).op.mnemonic();
            self.kernel_fault(format!("operand {k} of `{mnemonic}` has no value"))
        })
    }

    fn store_bytes(&self, uid: u32) -> Result<Vec<u8>, Fault> {
        let inst = self
            .func
            .inst(InstId::from_raw(self.dyn_ops[uid as usize].inst));
        let ty = self.func.value_type(inst.operands[0]);
        let v = self.ready_operand(uid, 0)?;
        encode_scalar(&ty, v)
            .ok_or_else(|| self.kernel_fault(format!("cannot store {v:?} as {ty}")))
    }

    fn eval_compute(&self, uid: u32, sop: &StaticOp) -> Result<Option<RtVal>, Fault> {
        match sop.eval {
            Eval::Phi => self.ready_operand(uid, 0).map(Some),
            Eval::Br | Eval::CondBr | Eval::Mem => Ok(None),
            Eval::Ret if sop.opnd_len == 0 => Ok(None),
            Eval::Ret => self.ready_operand(uid, 0).map(Some),
            Eval::Pure => {
                let inst = self
                    .func
                    .inst(InstId::from_raw(self.dyn_ops[uid as usize].inst));
                // Map static operand ids to this instance's values.
                let get = |v: ValueId| {
                    let k = inst.operands.iter().position(|&s| s == v);
                    k.and_then(|k| self.operand(uid, k as u32))
                        .ok_or_else(|| InterpError {
                            message: format!("operand of `{}` has no value", inst.op.mnemonic()),
                        })
                };
                eval_pure(&self.func, &inst.op, &inst.ty, &inst.operands, get)
                    .map(Some)
                    .map_err(|e| self.kernel_fault(e.to_string()))
            }
        }
    }

    // ---- issue, commit and cycle bookkeeping ---------------------------------

    /// Appends the depstream record of the op committing this cycle and
    /// closes its trace span.
    fn record_commit(&mut self, uid: u32) {
        let d = &self.dyn_ops[uid as usize];
        self.trace.end_span(d.tspan, self.trace_ts(self.cycle));
        let Some(ds) = self.stats.depstream.as_mut() else {
            return;
        };
        let sop = &self.ops[d.inst as usize];
        let rec = &mut self.dep_recs[uid as usize];
        let (addr, size) = if d.span_known {
            (d.addr, sop.access_size)
        } else {
            (0, 0)
        };
        let meta = salam_obs::DepMeta {
            kind: match sop.lane {
                STORE => salam_obs::OpKind::Store,
                LOAD => salam_obs::OpKind::Load,
                _ => salam_obs::OpKind::Compute,
            },
            latency: rec.latency,
            inst: d.inst,
            group: rec.group,
            ctrl: rec.ctrl,
            addr_dep: d.addr_dep as u64,
            addr,
            size,
        };
        ds.record_meta(
            uid as u64,
            self.func.inst(InstId::from_raw(d.inst)).op.mnemonic(),
            sop.res_class(),
            rec.issue_cycle,
            self.cycle,
            std::mem::take(&mut rec.all_deps),
            meta,
        );
    }

    /// A memory completion from the port: the uid behind its token, with
    /// a load's value decoded into its slab entry.
    fn complete(&mut self, completion: MemCompletion) -> Result<u32, Fault> {
        let slot = usize::try_from(completion.token)
            .ok()
            .and_then(|t| self.token_uid.get_mut(t));
        let uid = slot.map_or(0, std::mem::take);
        if uid == 0 {
            return Err(self.kernel_fault(format!(
                "memory port completed token {} which is not outstanding",
                completion.token
            )));
        }
        let inst = self.dyn_ops[uid as usize].inst;
        if !self.ops[inst as usize].is_store() {
            let ty = &self.func.inst(InstId::from_raw(inst)).ty;
            let Some(bytes) = completion.data.as_deref() else {
                return Err(self.kernel_fault(format!(
                    "load completion for token {} carries no data",
                    completion.token
                )));
            };
            let Some(value) = decode_scalar(ty, bytes) else {
                return Err(self.kernel_fault(format!("cannot load {ty}")));
            };
            self.dyn_ops[uid as usize].value = Some(value);
        }
        Ok(uid)
    }

    /// Issue bookkeeping common to compute and memory ops.
    fn register_issue(&mut self, uid: u32, sop: &StaticOp, sched: &mut Sched) {
        let ts = self.trace_ts(self.cycle);
        let d = &mut self.dyn_ops[uid as usize];
        self.tallies.issued[sop.class as usize] += 1;
        self.classes[sop.class as usize] = true;
        // Register-file read energy for non-immediate operands, one add
        // per operand so the sum rounds as it always has.
        let reads = if sop.eval == Eval::Phi {
            (self.operand_uids[d.operands as usize] != 0) as u8
        } else {
            sop.inst_operands
        };
        for _ in 0..reads {
            self.stats.reg_read_pj += sop.reg_read_pj;
        }
        if let Some(t) = &self.trace_tracks {
            let mnemonic = self.func.inst(InstId::from_raw(d.inst)).op.mnemonic();
            d.tspan = self.trace.begin_span(t.ops, mnemonic, ts);
        }
        if let Some(rec) = self.dep_recs.get_mut(uid as usize) {
            rec.issue_cycle = self.cycle;
        }
        // Strict hazards: ops that waited for this reader to issue. They
        // were imported after it, so the walk still reaches them.
        if self.cfg.strict_register_hazards {
            for w in self.issue_waiters.remove(&uid).unwrap_or_default() {
                sched.dep_met(w);
            }
        }
    }

    fn handle_terminator(&mut self, uid: u32, sop: &StaticOp) -> Result<(), Fault> {
        let refs = &self
            .func
            .inst(InstId::from_raw(self.dyn_ops[uid as usize].inst))
            .block_refs;
        let target = match sop.eval {
            Eval::Br => refs.first().copied(),
            Eval::CondBr => {
                let RtVal::I(c) = self.ready_operand(uid, 0)? else {
                    return Err(self.kernel_fault("branch on a non-integer condition"));
                };
                refs.get(if c != 0 { 0 } else { 1 }).copied()
            }
            // The third terminator: ret.
            _ => {
                self.fetch_stopped = true;
                self.ret_value = match sop.opnd_len {
                    0 => None,
                    _ => Some(self.ready_operand(uid, 0)?),
                };
                return Ok(());
            }
        };
        let Some(target) = target else {
            return Err(self.kernel_fault("branch without a target block"));
        };
        self.pending_fetch.push_back((target, Some(sop.block), uid));
        Ok(())
    }

    /// Appends this cycle to the activity log.
    fn record_timeline(&mut self, sched: &Sched, flags: IssueFlags) {
        let mut rec = CycleRecord {
            mem_outstanding: sched.outstanding().iter().sum::<usize>() as u32,
            stalled: flags.stalled(),
            ..Default::default()
        };
        // One entry per class that issued, not per op.
        for class in IssueClass::ALL {
            if self.classes[class as usize] {
                rec.issued.insert(class.label(), 1);
            }
        }
        for (k, &busy) in FuKind::ALL.into_iter().zip(sched.fu_busy()) {
            if busy > 0 {
                rec.fu_busy.insert(k, busy);
            }
        }
        self.stats.timeline.push(rec);
    }

    /// Watchdog, cooperative cancellation and flight-recorder heartbeat.
    fn check_liveness(&mut self, sched: &Sched, progressed: bool) -> Result<(), Fault> {
        let cycle = self.cycle;
        if progressed {
            self.last_progress = cycle;
        } else if cycle - self.last_progress > self.cfg.deadlock_cycles {
            // The snapshot names the dominant reject cause from the map.
            self.fold_tallies(sched);
            return Err(SimError::Deadlock(self.watchdog_snapshot(sched)).into());
        }

        // Cooperative cancellation, polled once per cycle batch (including
        // cycle 0, so an already-expired deadline stops before any real
        // work). The disabled token keeps this to a single branch.
        if self.cancel.is_enabled() && cycle & (CANCEL_BATCH - 1) == 0 {
            if let Some(reason) = self.cancel.poll() {
                let timeout = reason.is_timeout();
                let kernel = self.func.name.clone();
                return Err(Box::new(SimError::Cancelled {
                    kernel,
                    cycle,
                    timeout,
                }));
            }
        }

        // Coarse liveness heartbeat for the flight recorder: one event per
        // 65536 cycles, so even a wedged-but-not-yet-deadlocked run leaves
        // a recent-history trail.
        if cycle & 0xFFFF == 0 && cycle > 0 {
            self.flight_note(|name| {
                format!(
                    "heartbeat kernel={name} cycle={cycle} resv={} compute={} mem={}",
                    sched.resv_count(),
                    sched.compute_inflight(),
                    sched.outstanding().iter().sum::<usize>()
                )
            });
        }
        Ok(())
    }

    /// Brings the public per-class maps up to date with the flat tallies.
    /// A key appears once its count is nonzero, exactly as if the maps had
    /// been updated event by event.
    fn fold_tallies(&mut self, sched: &Sched) {
        let (t, s) = (&self.tallies, &mut self.stats);
        for class in IssueClass::ALL {
            let i = class as usize;
            if t.issued[i] > 0 {
                s.issued.insert(class.label(), t.issued[i]);
            }
            if t.class_active[i] > 0 {
                s.class_active_cycles
                    .insert(class.label(), t.class_active[i]);
            }
        }
        for (label, &n) in MEM_MIX_LABELS.iter().zip(&t.mem_mix) {
            if n > 0 {
                s.mem_mix_cycles.insert(label, n);
            }
        }
        for (k, busy) in FuKind::ALL.into_iter().zip(sched.fu_busy_integral()) {
            if busy > 0 {
                s.fu_busy_cycle_sum.insert(k, busy);
            }
        }
        for (bits, &n) in t.stall_mix.iter().enumerate() {
            if n > 0 {
                let mix = StallMix {
                    load: bits & 1 != 0,
                    store: bits & 2 != 0,
                    compute: bits & 4 != 0,
                };
                s.stall_breakdown.insert(mix.label(), n);
            }
        }
        for cause in RejectCause::ALL {
            if t.reject[cause as usize] > 0 {
                s.reject_causes
                    .insert(cause.label().to_string(), t.reject[cause as usize]);
            }
        }
    }
}

/// Resolves instruction `iid` into its [`StaticOp`], appending its operand
/// templates (arguments and constants pre-resolved to immediates).
fn static_op(
    func: &Function,
    cdfg: &StaticCdfg,
    profile: &HardwareProfile,
    args: &[RtVal],
    iid: InstId,
    templates: &mut Vec<OperandT>,
) -> StaticOp {
    let inst = func.inst(iid);
    let sop = cdfg.op(iid);
    let opnd_start = templates.len() as u32;
    let mut inst_operands = 0;
    for &v in &inst.operands {
        templates.push(match func.value_kind(v) {
            ValueKind::Arg(i) => args
                .get(*i as usize)
                .map_or(OperandT::Undef, |&v| OperandT::Imm(v)),
            ValueKind::Const(c) => const_rt(c).map_or(OperandT::Undef, OperandT::Imm),
            ValueKind::Inst(def) => {
                inst_operands += 1;
                OperandT::Inst(def.index() as u32)
            }
        });
    }
    let access_size = match inst.op {
        Opcode::Store => {
            let stored = inst.operands.first();
            stored.map_or(0, |&v| func.value_type(v).size_bytes() as u32)
        }
        Opcode::Load => inst.ty.size_bytes() as u32,
        _ => 0,
    };
    StaticOp {
        class: classify(&inst.op),
        eval: match inst.op {
            Opcode::Phi => Eval::Phi,
            Opcode::Br => Eval::Br,
            Opcode::CondBr => Eval::CondBr,
            Opcode::Ret => Eval::Ret,
            Opcode::Load | Opcode::Store => Eval::Mem,
            _ => Eval::Pure,
        },
        lane: match inst.op {
            Opcode::Load => LOAD,
            Opcode::Store => STORE,
            _ => sop.fu.map_or(NO_LANE, |k| k as u8),
        },
        has_result: inst.has_result(),
        inst_operands,
        latency: sop.latency,
        access_size,
        opnd_start,
        opnd_len: inst.operands.len() as u32,
        block: sop.block,
        reg_read_pj: profile.register.read_energy_pj_per_bit * sop.bits as f64,
        reg_write_pj: profile.register.write_energy_pj_per_bit * sop.bits as f64,
    }
}

fn classify(op: &Opcode) -> IssueClass {
    match op {
        Opcode::Load => IssueClass::Load,
        Opcode::Store => IssueClass::Store,
        o if o.is_float_arith() => IssueClass::Float,
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::UDiv
        | Opcode::SDiv
        | Opcode::URem
        | Opcode::SRem
        | Opcode::Shl
        | Opcode::LShr
        | Opcode::AShr
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::ICmp(_)
        | Opcode::Gep { .. } => IssueClass::Int,
        _ => IssueClass::Other,
    }
}

/// The runtime value of a constant; `None` for `undef`.
fn const_rt(c: &salam_ir::Constant) -> Option<RtVal> {
    Some(match c {
        salam_ir::Constant::Int { value, .. } => RtVal::I(*value),
        salam_ir::Constant::Float { ty, value } => RtVal::F(if *ty == Type::F32 {
            *value as f32 as f64
        } else {
            *value
        }),
        salam_ir::Constant::NullPtr => RtVal::P(0),
        salam_ir::Constant::Undef(_) => return None,
    })
}

/// Little-endian bytes of `v` as a `ty`; `None` when the value's kind does
/// not match the type.
fn encode_scalar(ty: &Type, v: RtVal) -> Option<Vec<u8>> {
    let n = ty.size_bytes() as usize;
    let raw: u64 = match (ty, v) {
        (Type::F32, RtVal::F(f)) => (f as f32).to_bits() as u64,
        (Type::F64, RtVal::F(f)) => f.to_bits(),
        (Type::Ptr, RtVal::P(p)) => p,
        (t, RtVal::I(i)) if t.is_int() => i as u64,
        _ => return None,
    };
    raw.to_le_bytes().get(..n).map(<[u8]>::to_vec)
}

/// The `ty` value in `bytes`; `None` for a type that is not a scalar.
fn decode_scalar(ty: &Type, bytes: &[u8]) -> Option<RtVal> {
    let mut buf = [0u8; 8];
    let n = (ty.size_bytes() as usize).min(bytes.len()).min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    let raw = u64::from_le_bytes(buf);
    Some(match ty {
        Type::F32 => RtVal::F(f32::from_bits(raw as u32) as f64),
        Type::F64 => RtVal::F(f64::from_bits(raw)),
        Type::Ptr => RtVal::P(raw),
        t if t.is_int() => RtVal::I(salam_ir::interp::sign_extend(raw, t.bits())),
        _ => return None,
    })
}
