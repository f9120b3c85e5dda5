//! The runtime scheduler: reservation, compute and memory queues.
//!
//! Scheduling is event-driven: a cycle costs O(ops woken + ops ready), not
//! O(reservation window). Everything static about an instruction is
//! resolved once into a dense per-[`InstId`] table; dynamic instances live
//! in a uid-indexed slab with a count of unmet dependences and a list of
//! consumers, so a commit wakes exactly the ops it unblocks. The issue pass
//! walks the dependence-free ops in uid order — the age order of the
//! reservation queue — and nothing else. DESIGN.md §5.1 has the data
//! structures and the argument that the walk order equals a full scan of
//! the window.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::StaticCdfg;
use salam_fault::{FaultPlan, SimError, SiteRng, WatchdogSnapshot};
use salam_ir::interp::{eval_pure, InterpError, RtVal};
use salam_ir::{BlockId, Function, InstId, Opcode, Type, ValueId, ValueKind};
use salam_obs::{CycleClass, SharedTrace, SpanId, TrackId};
use salam_resilience::CancelToken;
use salam_telemetry::FlightRecorder;

use crate::port::{MemAccess, MemPort, RejectCause};
use crate::stats::{CycleRecord, EngineStats, IssueClass, StallMix};

/// Cycles between cooperative-cancellation polls (power of two; the poll
/// also fires at cycle 0). A cancel or expired deadline therefore stops a
/// run within one cycle batch of being requested.
pub const CANCEL_BATCH: u64 = 1024;

/// Tunables of the runtime engine (the paper's "device config" scheduler
/// options).
///
/// Memory note: the engine keeps one 64-byte slab entry per dynamic
/// instruction (value, dependence counter, consumer-list head, ordering
/// memo) plus 4 bytes per SSA operand and 4 bytes per memory access, and
/// never reclaims them — about 75 bytes per dynamic instruction for the
/// whole run. The *scheduling* state (ready set, wakeup heap, consumer
/// edges, ordering window) is bounded by the ops in flight, but a single
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

const N_FU: usize = FuKind::ALL.len();
/// `StaticOp::fu` of an op that occupies no functional unit.
const NO_FU: u8 = N_FU as u8;
/// End of a consumer list in `Engine::edges`.
const NIL: u32 = u32::MAX;
/// `DynOp::blocker` of a memory op proven ordered against every older
/// access. Monotonic: the older accesses only leave the window or publish
/// write-once spans, so a passed check can never regress.
const ORDER_OK: u32 = u32::MAX;

// `DynOp::flags` bits.
const COMMITTED: u8 = 1;
const ISSUED: u8 = 1 << 1;
/// `DynOp::addr` holds the access address.
const SPAN_KNOWN: u8 = 1 << 2;
/// The span is visible to younger accesses in the ordering window.
const PUBLISHED: u8 = 1 << 3;

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
    /// `undef`: a runtime fault if an imported op uses it.
    Undef,
}

/// Everything the scheduler needs to know about one static instruction,
/// resolved once in [`Engine::new`] so that importing a dynamic instance
/// clones and allocates nothing.
#[derive(Debug, Clone, Copy)]
struct StaticOp {
    class: IssueClass,
    eval: Eval,
    /// `FuKind` index, or [`NO_FU`].
    fu: u8,
    /// Memory ops (`Eval::Mem`): store rather than load.
    is_store: bool,
    has_result: bool,
    /// Operands that are instruction results (register-file reads at
    /// issue); a phi reads at most the one incoming edge it takes.
    inst_operands: u8,
    latency: u32,
    /// Memory ops: bytes accessed.
    access_size: u32,
    /// This op's slice of `Engine::templates`.
    opnd_start: u32,
    opnd_len: u32,
    block: BlockId,
    /// Energy of one register-file operand read / result write.
    reg_read_pj: f64,
    reg_write_pj: f64,
}

impl StaticOp {
    /// Operand index of a memory op's pointer.
    fn ptr_idx(&self) -> u32 {
        self.is_store as u32
    }

    fn is_term(&self) -> bool {
        matches!(self.eval, Eval::Br | Eval::CondBr | Eval::Ret)
    }

    /// Resource class for attribution: the FU name for compute ops, the
    /// issue-class label for everything else.
    fn res_class(&self) -> &'static str {
        match FuKind::ALL.get(self.fu as usize) {
            Some(k) => k.name(),
            None => self.class.label(),
        }
    }
}

/// One dynamic instruction: an entry of the uid-indexed slab.
#[derive(Debug)]
struct DynOp {
    /// `InstId` index of the static instruction.
    inst: u32,
    /// Dependences still unmet: producers that have not committed plus,
    /// under strict register hazards, readers that have not issued. The op
    /// enters the ready set when this reaches zero.
    pending: u32,
    /// Head of this op's consumer list in `Engine::edges`.
    consumers: u32,
    /// First dynamic operand in `Engine::operand_uids`.
    operands: u32,
    /// Memory ops: uid of the pointer-operand producer (0 when the address
    /// comes from an immediate or argument).
    addr_dep: u32,
    /// Memory ops: ordering memo — 0 = unchecked, [`ORDER_OK`], or the uid
    /// of the older access that blocked the last check.
    blocker: u32,
    /// Phis: index of the taken incoming edge.
    phi_edge: u16,
    flags: u8,
    /// Memory ops: byte address, valid once `SPAN_KNOWN`.
    addr: u64,
    /// Open trace span (issue → retire), invalid when tracing is off.
    tspan: SpanId,
    value: Option<RtVal>,
}

// The `EngineConfig` memory note quotes this size.
const _: () = assert!(std::mem::size_of::<DynOp>() == 64);

/// Consumer-list node: `consumer` waits for the list owner to commit.
/// Freed nodes are chained through `next` from `Engine::free_edge`.
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

/// Issued compute ops waiting for their commit cycle, bucketed by it. The
/// ring covers the longest static latency; a longer (jittered) latency
/// simply stays in its bucket for another lap. Ops of one commit cycle
/// come out in issue order, which is the order depstream records, trace
/// events and the register-write energy sum depend on.
#[derive(Debug)]
struct CommitWheel {
    slots: Vec<Vec<(u64, u32)>>,
}

impl CommitWheel {
    fn new(max_latency: u32) -> Self {
        let len = (max_latency as usize + 1).next_power_of_two();
        CommitWheel {
            slots: (0..len).map(|_| Vec::new()).collect(),
        }
    }

    fn slot(&mut self, cycle: u64) -> &mut Vec<(u64, u32)> {
        let mask = self.slots.len() as u64 - 1;
        &mut self.slots[(cycle & mask) as usize]
    }

    fn push(&mut self, commit_at: u64, uid: u32) {
        self.slot(commit_at).push((commit_at, uid));
    }

    /// Moves the ops committing at `cycle` into `due`, in issue order.
    fn take_due(&mut self, cycle: u64, due: &mut Vec<u32>) {
        self.slot(cycle).retain(|&(at, uid)| {
            if at == cycle {
                due.push(uid);
            }
            at != cycle
        });
    }
}

/// Event counts of the hot path, on flat arrays indexed by `IssueClass`,
/// `FuKind`, `StallMix` bits and `RejectCause`; folded into the public
/// [`EngineStats`] maps when the run drains or fails.
#[derive(Debug, Default)]
struct Tallies {
    issued: [u64; IssueClass::ALL.len()],
    class_active: [u64; IssueClass::ALL.len()],
    /// Cycles issuing only loads, only stores, both.
    mem_mix: [u64; 3],
    fu_busy_sum: [u64; N_FU],
    stall_mix: [u64; 8],
    reject: [u64; RejectCause::ALL.len()],
}

const MEM_MIX_LABELS: [&str; 3] = ["load", "store", "load+store"];

fn stall_mix_index(mix: StallMix) -> usize {
    mix.load as usize | (mix.store as usize) << 1 | (mix.compute as usize) << 2
}

/// What one issue pass saw: feeds the cycle's stall and attribution
/// accounting.
#[derive(Debug, Default)]
struct IssueFlags {
    /// Classes that issued at least one op.
    classes: [bool; IssueClass::ALL.len()],
    /// Kinds of dependence-free ops that could not launch — the paper's
    /// notion of a stall. The compute bit is only ever set by FU parking,
    /// so it doubles as the FU-limit attribution cause.
    blocked: StallMix,
    port_rejected: bool,
    /// Attribution cause: a ready memory op hit an outstanding cap or a
    /// port reject this cycle.
    mem_limit_blocked: bool,
}

impl IssueFlags {
    fn issued(&self) -> bool {
        self.classes.contains(&true)
    }

    fn stalled(&self) -> bool {
        self.blocked != StallMix::default()
    }

    fn block_mem(&mut self, is_store: bool) {
        if is_store {
            self.blocked.store = true;
        } else {
            self.blocked.load = true;
        }
    }
}

/// Outcome of offering one ready op to the datapath.
#[derive(Debug, PartialEq, Eq)]
enum Visit {
    /// Issued, or parked on a saturated FU kind: leaves the ready set.
    Left,
    /// Order-, cap- or port-blocked: offered again next cycle.
    Waiting,
}

/// The dynamic LLVM runtime engine. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine {
    func: Function,
    cfg: EngineConfig,

    // Static tables, built once in `new`.
    ops: Vec<StaticOp>,
    templates: Vec<OperandT>,
    /// `InstId` indices of every block back to back; `block_span[b]` is
    /// block `b`'s `(start, len)` in it.
    block_insts: Vec<u32>,
    block_span: Vec<(u32, u32)>,
    fu_pool: [u32; N_FU],
    fu_energy_pj: [f64; N_FU],

    // Dynamic instructions, indexed by uid (dense and monotonic; slot 0 is
    // the already-committed "no producer" sentinel).
    dyn_ops: Vec<DynOp>,
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

    // Scheduler state.
    /// Imported, not yet issued ops (the reservation queue's occupancy).
    resv_count: usize,
    /// Dependence-free ops the last issue pass left waiting, uid-sorted.
    ready: Vec<u32>,
    ready_scratch: Vec<u32>,
    /// Ops that became dependence-free (or were unparked) since they were
    /// last visited; merged into the issue pass oldest first.
    woken: BinaryHeap<Reverse<u32>>,
    /// Ready ops whose FU kind is saturated, parked until a unit of that
    /// kind releases — nothing else can unblock them.
    fu_wait: [Vec<u32>; N_FU],
    parked: usize,
    fu_busy: [u32; N_FU],
    /// Pipelined FUs: kinds issued last cycle, released at the next one.
    pipelined_release: Vec<u8>,
    wheel: CommitWheel,
    due_scratch: Vec<u32>,
    compute_inflight: usize,
    /// The memory-ordering window: imported, uncommitted accesses in uid
    /// order. Loads only ever conflict with stores, hence two lists.
    win_loads: VecDeque<u32>,
    win_stores: VecDeque<u32>,
    /// Memory ops whose address became resolvable since the last publish
    /// phase.
    to_publish: Vec<u32>,
    /// Uid behind each memory token (0 once completed); tokens are dense,
    /// so the next token is the length.
    token_uid: Vec<u32>,
    outstanding_reads: usize,
    outstanding_writes: usize,

    /// Blocks awaiting import: `(block, taken predecessor, uid of the
    /// terminator that scheduled the fetch — 0 for the entry block)`.
    pending_fetch: VecDeque<(BlockId, Option<BlockId>, u32)>,
    fetch_stopped: bool,
    ret_value: Option<RtVal>,
    import_seq: u32,

    cycle: u64,
    last_progress: u64,
    stats: EngineStats,
    tallies: Tallies,
    done: bool,

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
    /// programmed arguments.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the function signature.
    pub fn new(
        func: Function,
        cdfg: StaticCdfg,
        profile: HardwareProfile,
        cfg: EngineConfig,
        args: Vec<RtVal>,
    ) -> Self {
        assert_eq!(args.len(), func.params.len(), "argument count mismatch");
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
            pending: 0,
            consumers: NIL,
            operands: 0,
            addr_dep: 0,
            blocker: 0,
            phi_edge: 0,
            flags: COMMITTED | ISSUED,
            addr: 0,
            tspan: SpanId::INVALID,
            value: None,
        };
        let entry = func.entry();
        Engine {
            last_instance: vec![0; func.num_insts()],
            func,
            cfg,
            ops,
            templates,
            block_insts,
            block_span,
            fu_pool,
            fu_energy_pj,
            dyn_ops: vec![sentinel],
            operand_uids: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
            dep_recs: Vec::new(),
            readers_of: HashMap::new(),
            issue_waiters: HashMap::new(),
            resv_count: 0,
            ready: Vec::new(),
            ready_scratch: Vec::new(),
            woken: BinaryHeap::new(),
            fu_wait: Default::default(),
            parked: 0,
            fu_busy: [0; N_FU],
            pipelined_release: Vec::new(),
            wheel: CommitWheel::new(max_latency),
            due_scratch: Vec::new(),
            compute_inflight: 0,
            win_loads: VecDeque::new(),
            win_stores: VecDeque::new(),
            to_publish: Vec::new(),
            token_uid: vec![0],
            outstanding_reads: 0,
            outstanding_writes: 0,
            pending_fetch: VecDeque::from([(entry, None, 0)]),
            fetch_stopped: false,
            ret_value: None,
            import_seq: 0,
            cycle: 0,
            last_progress: 0,
            stats,
            tallies: Tallies::default(),
            done: false,
            trace: SharedTrace::disabled(),
            trace_tracks: None,
            trace_offset_ps: 0,
            flight: FlightRecorder::disabled(),
            flight_trace_id: 0,
            fault: None,
            cancel: CancelToken::none(),
        }
    }

    /// Attaches a trace sink. Each dynamic op becomes a span (issue →
    /// retire) on the `engine.<func>.ops` track; stalls, port rejects and
    /// queue-depth samples go to `engine.<func>.sched`. A disabled handle
    /// (the default) keeps every hook down to a single branch.
    pub fn set_trace(&mut self, trace: SharedTrace) {
        self.trace_tracks = trace.is_enabled().then(|| TraceTracks {
            ops: trace.track(&format!("engine.{}.ops", self.func.name)),
            sched: trace.track(&format!("engine.{}.sched", self.func.name)),
        });
        self.trace = trace;
    }

    /// Offsets trace timestamps by `offset` picoseconds, so an engine
    /// embedded in a full-system simulation stamps absolute sim time.
    pub fn set_trace_offset_ps(&mut self, offset: u64) {
        self.trace_offset_ps = offset;
    }

    /// Attaches the serving layer's flight recorder; run starts/ends,
    /// errors and a coarse heartbeat land in the shared ring tagged with
    /// `trace_id`. A disabled recorder (the default) keeps every hook down
    /// to a single branch — the recorder never observes or perturbs
    /// simulation state.
    pub fn set_flight(&mut self, flight: FlightRecorder, trace_id: u64) {
        self.flight = flight;
        self.flight_trace_id = trace_id;
    }

    /// Attaches a cooperative cancel/deadline token. The engine polls it
    /// every [`CANCEL_BATCH`] cycles (and at cycle 0) and stops with
    /// [`SimError::Cancelled`] when it fires, so a wedged or over-deadline
    /// run releases its worker within one cycle batch. The disabled token
    /// (the default) keeps the poll down to a single branch.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Attaches a fault-injection plan. The engine draws from per-site
    /// streams derived from the plan seed (`engine.fu_bitflip`,
    /// `engine.fu_jitter`), so the injection schedule is a pure function
    /// of the plan and the executed instruction stream. A zero-rate plan
    /// installs the hooks but never fires and never consumes stream state.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.fault = Some(EngineFault {
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
            *self.stats.fault_counts.entry(kind.clone()).or_insert(0) += n;
        }
    }

    /// Counts one injected fault and emits a `fault:<kind>` trace instant.
    fn note_fault(&mut self, kind: &str) {
        *self.stats.fault_counts.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(t) = &self.trace_tracks {
            self.trace
                .instant(t.sched, &format!("fault:{kind}"), self.trace_ts(self.cycle));
        }
    }

    /// The watchdog's view of the engine at deadlock-detection time.
    fn watchdog_snapshot(&self) -> WatchdogSnapshot {
        WatchdogSnapshot {
            kernel: self.func.name.clone(),
            cycle: self.cycle,
            last_progress_cycle: self.last_progress,
            reservation_occupancy: self.resv_count,
            compute_occupancy: self.compute_inflight,
            mem_outstanding: self.outstanding_reads + self.outstanding_writes,
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
    fn kernel_fault(&self, detail: impl Into<String>) -> SimError {
        SimError::KernelFault {
            kernel: self.func.name.clone(),
            cycle: self.cycle,
            detail: detail.into(),
        }
    }

    /// The engine's statistics so far (or final, once done). Scalar
    /// counters, energies and the attribution are live every cycle; the
    /// per-class maps (`issued`, `class_active_cycles`, `mem_mix_cycles`,
    /// `fu_busy_cycle_sum`, `stall_breakdown`, `reject_causes`) are
    /// brought up to date when the run drains and on every error return.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the invocation has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The value returned by `ret`, if the function returned one.
    pub fn result(&self) -> Option<RtVal> {
        self.ret_value
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
    ///   by zero, undef use, …) or the memory port breaks its contract.
    pub fn try_run_to_completion(&mut self, port: &mut dyn MemPort) -> Result<u64, SimError> {
        self.cfg.validate()?;
        if self.flight.is_enabled() {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!("run-start kernel={}", self.func.name),
            );
        }
        loop {
            match self.try_step(port) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    if self.flight.is_enabled() {
                        self.flight.record(
                            self.flight_trace_id,
                            "engine",
                            format!(
                                "run-error kernel={} cycle={} kind={}: {e}",
                                self.func.name,
                                self.cycle,
                                e.label()
                            ),
                        );
                    }
                    return Err(e);
                }
            }
        }
        if self.flight.is_enabled() {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!("run-end kernel={} cycles={}", self.func.name, self.cycle),
            );
        }
        Ok(self.cycle)
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

    /// Imports pending blocks while there is room. A block larger than the
    /// whole window is admitted into an empty queue (blocks cannot be
    /// split). Returns whether anything was imported.
    fn import_blocks(&mut self) -> Result<bool, SimError> {
        let mut any = false;
        while let Some(&(block, pred, ctrl)) = self.pending_fetch.front() {
            let used = self.resv_count.min(self.cfg.reservation_entries);
            let room = self.cfg.reservation_entries - used;
            let (start, len) = self.block_span[block.index()];
            if len as usize > room && self.resv_count > 0 {
                break;
            }
            // Uids stay below the `ORDER_OK` sentinel and operand offsets
            // within `u32` (a block has at most `templates.len()` operands).
            const LIMIT: usize = u32::MAX as usize;
            if self.dyn_ops.len() + len as usize >= LIMIT
                || self.operand_uids.len() + self.templates.len() > LIMIT
            {
                return Err(self.kernel_fault(
                    "more than 2^32 dynamic instructions or operands in one invocation",
                ));
            }
            self.pending_fetch.pop_front();
            let group = self.import_seq;
            self.import_seq += 1;
            for i in start..start + len {
                self.import_op(self.block_insts[i as usize], pred, group, ctrl)?;
            }
            any = true;
        }
        Ok(any)
    }

    /// Creates the dynamic instance of `inst`: resolves its operands to the
    /// latest instances of their producers, registers with the uncommitted
    /// ones as a consumer, and enters the ready set if none are.
    fn import_op(
        &mut self,
        inst: u32,
        pred: Option<BlockId>,
        group: u32,
        ctrl: u32,
    ) -> Result<(), SimError> {
        let sop = self.ops[inst as usize];
        let uid = self.dyn_ops.len() as u32;
        let operands = self.operand_uids.len() as u32;
        let (mut pending, phi_edge) = self.resolve_operands(uid, inst, &sop, pred)?;
        let mut hazard_deps = Vec::new();
        if sop.has_result {
            if self.cfg.strict_register_hazards {
                hazard_deps = self.strict_hazards(uid, inst);
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
        // replay can mirror publication timing.
        let mut addr_dep = 0;
        if sop.eval == Eval::Mem {
            addr_dep = self.operand_uids[(operands + sop.ptr_idx()) as usize];
            if sop.is_store {
                self.win_stores.push_back(uid);
            } else {
                self.win_loads.push_back(uid);
            }
            if self.dyn_ops[addr_dep as usize].flags & COMMITTED != 0 {
                self.to_publish.push(uid);
            }
        }
        self.dyn_ops.push(DynOp {
            inst,
            pending,
            consumers: NIL,
            operands,
            addr_dep,
            blocker: 0,
            phi_edge,
            flags: 0,
            addr: 0,
            tspan: SpanId::INVALID,
            value: None,
        });
        self.resv_count += 1;
        if pending == 0 {
            self.woken.push(Reverse(uid));
        }
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
    ) -> Result<(u32, u16), SimError> {
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
                    if self.dyn_ops[src as usize].flags & COMMITTED == 0 {
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
    fn strict_hazards(&mut self, uid: u32, inst: u32) -> Vec<u64> {
        let mut deps = Vec::new();
        let prev = self.last_instance[inst as usize];
        if prev == 0 {
            return deps;
        }
        if self.dyn_ops[prev as usize].flags & COMMITTED == 0 {
            self.add_edge(prev, uid);
            deps.push(prev as u64);
        }
        for &r in self.readers_of.get(&prev).map_or(&[][..], Vec::as_slice) {
            if r != uid && self.dyn_ops[r as usize].flags & ISSUED == 0 {
                self.issue_waiters.entry(r).or_default().push(uid);
                deps.push(r as u64);
            }
        }
        deps
    }

    // ---- value plumbing ------------------------------------------------------

    /// Value of dynamic operand `k` of `uid`, if its producer has committed
    /// one. An op only issues once `pending` is zero, i.e. every producer
    /// has committed, so a `None` here means malformed IR (an operand that
    /// names a value-less instruction); callers turn it into a
    /// [`SimError::KernelFault`].
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
                let p = &self.dyn_ops[self.operand_uids[(d.operands + k) as usize] as usize];
                if p.flags & COMMITTED != 0 {
                    p.value
                } else {
                    None
                }
            }
        }
    }

    fn ready_operand(&self, uid: u32, k: u32) -> Result<RtVal, SimError> {
        self.operand(uid, k).ok_or_else(|| {
            let inst = self.dyn_ops[uid as usize].inst;
            let mnemonic = self.func.inst(InstId::from_raw(inst)).op.mnemonic();
            self.kernel_fault(format!("operand {k} of `{mnemonic}` has no value"))
        })
    }

    /// Byte address of memory op `uid`, resolved from its pointer operand
    /// on first use. Only called once that operand's producer committed.
    fn address_of(&mut self, uid: u32) -> Result<u64, SimError> {
        let d = &self.dyn_ops[uid as usize];
        if d.flags & SPAN_KNOWN != 0 {
            return Ok(d.addr);
        }
        let ptr_idx = self.ops[d.inst as usize].ptr_idx();
        let RtVal::P(addr) = self.ready_operand(uid, ptr_idx)? else {
            return Err(self.kernel_fault("memory access through a non-pointer value"));
        };
        let d = &mut self.dyn_ops[uid as usize];
        d.addr = addr;
        d.flags |= SPAN_KNOWN;
        Ok(addr)
    }

    /// Whether the in-window access `older` orders before an access to
    /// `[addr, addr + size)` that conflicts with it by kind: it does while
    /// its own address is unpublished or overlaps.
    fn conflicts(&self, older: u32, addr: u64, size: u32) -> bool {
        let r = &self.dyn_ops[older as usize];
        if r.flags & COMMITTED != 0 {
            return false; // left the window
        }
        if r.flags & PUBLISHED == 0 {
            return true; // older access with unknown address
        }
        let r_size = self.ops[r.inst as usize].access_size;
        addr < r.addr + r_size as u64 && r.addr < addr + size as u64
    }

    /// Memory ordering: an op may issue only when every older conflicting
    /// (or unresolved) access in the window has committed. Only
    /// store→load, load→store and store→store order; loads never conflict
    /// with loads. The last blocker is re-checked first: while it is still
    /// in the window and still conflicts, a scan would fail at or before
    /// it.
    fn mem_order_ok(&mut self, uid: u32, addr: u64, sop: &StaticOp) -> bool {
        let blocker = self.dyn_ops[uid as usize].blocker;
        if blocker == ORDER_OK {
            return true;
        }
        if blocker != 0 && self.conflicts(blocker, addr, sop.access_size) {
            return false;
        }
        let first_conflict = |window: &VecDeque<u32>| {
            window
                .iter()
                .take_while(|&&older| older < uid)
                .find(|&&older| self.conflicts(older, addr, sop.access_size))
                .copied()
        };
        let hit = first_conflict(&self.win_stores).or_else(|| {
            sop.is_store
                .then(|| first_conflict(&self.win_loads))
                .flatten()
        });
        self.dyn_ops[uid as usize].blocker = hit.unwrap_or(ORDER_OK);
        hit.is_none()
    }

    fn store_bytes(&self, uid: u32) -> Result<Vec<u8>, SimError> {
        let inst = self
            .func
            .inst(InstId::from_raw(self.dyn_ops[uid as usize].inst));
        let ty = self.func.value_type(inst.operands[0]);
        let v = self.ready_operand(uid, 0)?;
        encode_scalar(&ty, v)
            .ok_or_else(|| self.kernel_fault(format!("cannot store {v:?} as {ty}")))
    }

    fn eval_compute(&self, uid: u32, sop: &StaticOp) -> Result<Option<RtVal>, SimError> {
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

    // ---- the cycle loop -------------------------------------------------------

    /// Advances one accelerator cycle. Returns `true` once the invocation
    /// has fully drained. Thin panicking wrapper over [`Engine::try_step`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a runtime fault in the modeled kernel
    /// (e.g. division by zero).
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
    /// when the modeled kernel faults (e.g. division by zero) or the port
    /// completes a token it was never given. After an error the engine is
    /// wedged: further steps keep returning errors.
    pub fn try_step(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        if self.done {
            return Ok(true);
        }
        let outcome = self.step_cycle(port);
        if !matches!(outcome, Ok(false)) {
            // Drained or wedged: the points where callers look at stats.
            self.fold_tallies();
        }
        outcome
    }

    fn step_cycle(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        port.begin_cycle();
        let mut progressed = self.complete_mem(port)?;
        progressed |= self.commit_compute();
        progressed |= self.import_blocks()?;
        self.publish_spans()?;
        let flags = self.issue_ready(port)?;
        self.account_cycle(&flags, progressed)
    }

    /// Marks `uid` committed and retires one dependence of each consumer:
    /// those left with none enter the ready set, memory consumers that
    /// waited for their address queue for publication.
    fn commit(&mut self, uid: u32) {
        let d = &mut self.dyn_ops[uid as usize];
        d.flags |= COMMITTED;
        let mut e = std::mem::replace(&mut d.consumers, NIL);
        while e != NIL {
            let Edge { consumer, next } = self.edges[e as usize];
            let c = &mut self.dyn_ops[consumer as usize];
            c.pending -= 1;
            if c.pending == 0 {
                self.woken.push(Reverse(consumer));
            }
            if c.addr_dep == uid {
                self.to_publish.push(consumer);
            }
            self.edges[e as usize].next = self.free_edge;
            self.free_edge = e;
            e = next;
        }
    }

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
        let (addr, size) = if d.flags & SPAN_KNOWN != 0 {
            (d.addr, sop.access_size)
        } else {
            (0, 0)
        };
        let meta = salam_obs::DepMeta {
            kind: match (sop.eval, sop.is_store) {
                (Eval::Mem, true) => salam_obs::OpKind::Store,
                (Eval::Mem, false) => salam_obs::OpKind::Load,
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

    /// Phase 1: memory completions commit first (the asynchronous memory
    /// queues of the paper).
    fn complete_mem(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        let mut any = false;
        for completion in port.poll() {
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
            let sop = self.ops[inst as usize];
            let window = if sop.is_store {
                self.outstanding_writes -= 1;
                &mut self.win_stores
            } else {
                self.outstanding_reads -= 1;
                &mut self.win_loads
            };
            if let Ok(pos) = window.binary_search(&uid) {
                window.remove(pos);
            }
            if !sop.is_store {
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
                self.stats.reg_write_pj += sop.reg_write_pj;
                self.dyn_ops[uid as usize].value = Some(value);
            }
            self.commit(uid);
            self.record_commit(uid);
            any = true;
        }
        Ok(any)
    }

    /// Phase 2: compute commits and FU releases (one cycle after issue
    /// when pipelined, at commit otherwise); ops parked on a kind that
    /// released a unit become ready again.
    fn commit_compute(&mut self) -> bool {
        let mut freed: u16 = 0;
        for fu in self.pipelined_release.drain(..) {
            self.fu_busy[fu as usize] -= 1;
            freed |= 1 << fu;
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        self.wheel.take_due(self.cycle, &mut due);
        for &uid in &due {
            let sop = self.ops[self.dyn_ops[uid as usize].inst as usize];
            if sop.fu != NO_FU && !self.cfg.pipelined_fus {
                self.fu_busy[sop.fu as usize] -= 1;
                freed |= 1 << sop.fu;
            }
            if sop.has_result {
                self.stats.reg_write_pj += sop.reg_write_pj;
            }
            self.commit(uid);
            self.record_commit(uid);
        }
        let any = !due.is_empty();
        self.compute_inflight -= due.len();
        due.clear();
        self.due_scratch = due;
        while freed != 0 {
            let fu = freed.trailing_zeros() as usize;
            freed &= freed - 1;
            self.parked -= self.fu_wait[fu].len();
            self.woken.extend(self.fu_wait[fu].drain(..).map(Reverse));
        }
        any
    }

    /// Phase 4a: publish memory addresses as soon as pointer operands
    /// resolve, independent of data readiness — a store whose value is
    /// still in flight must not hide its (known) address from younger
    /// loads. An op that issued in the cycle its address resolved never
    /// publishes: it orders younger conflicting accesses as "unknown
    /// address" until it commits.
    fn publish_spans(&mut self) -> Result<(), SimError> {
        for i in 0..self.to_publish.len() {
            let uid = self.to_publish[i];
            if self.dyn_ops[uid as usize].flags & (ISSUED | PUBLISHED) == 0 {
                self.address_of(uid)?;
                self.dyn_ops[uid as usize].flags |= PUBLISHED;
            }
        }
        self.to_publish.clear();
        Ok(())
    }

    /// Phase 4b: offer every dependence-free op to the datapath, oldest
    /// first. Ops woken mid-pass (zero-latency chaining, a block imported
    /// behind a terminator, an issue another op waited on) always carry a
    /// higher uid than the op that woke them, so the merge reaches them in
    /// this same pass.
    fn issue_ready(&mut self, port: &mut dyn MemPort) -> Result<IssueFlags, SimError> {
        let mut flags = IssueFlags::default();
        let mut carried = std::mem::take(&mut self.ready);
        let mut waiting = std::mem::take(&mut self.ready_scratch);
        let mut next = 0;
        loop {
            let woken = self.woken.peek().map(|&Reverse(w)| w);
            let uid = match (carried.get(next).copied(), woken) {
                (Some(c), Some(w)) if w < c => w,
                (Some(c), _) => c,
                (None, Some(w)) => w,
                (None, None) => break,
            };
            if woken == Some(uid) {
                self.woken.pop();
            } else {
                next += 1;
            }
            if self.offer(uid, port, &mut flags)? == Visit::Waiting {
                waiting.push(uid);
            }
        }
        carried.clear();
        self.ready = waiting;
        self.ready_scratch = carried;
        // Parked ops are ready ops blocked on a saturated FU kind.
        flags.blocked.compute = self.parked > 0;
        Ok(flags)
    }

    /// Offers one dependence-free op to the datapath.
    fn offer(
        &mut self,
        uid: u32,
        port: &mut dyn MemPort,
        flags: &mut IssueFlags,
    ) -> Result<Visit, SimError> {
        let sop = self.ops[self.dyn_ops[uid as usize].inst as usize];
        // Functional-unit pool availability (user-enforced reuse). Units
        // only release between passes, so the op parks until one does.
        if sop.fu != NO_FU && self.fu_busy[sop.fu as usize] >= self.fu_pool[sop.fu as usize] {
            self.fu_wait[sop.fu as usize].push(uid);
            self.parked += 1;
            return Ok(Visit::Left);
        }
        if sop.eval == Eval::Mem {
            return self.offer_mem(uid, &sop, port, flags);
        }
        self.issue_compute(uid, &sop, flags)?;
        Ok(Visit::Left)
    }

    /// Ordering, outstanding-cap and port checks of a ready memory op. The
    /// port sees one `try_issue` per ordered, under-cap op per cycle,
    /// rejected attempts included.
    fn offer_mem(
        &mut self,
        uid: u32,
        sop: &StaticOp,
        port: &mut dyn MemPort,
        flags: &mut IssueFlags,
    ) -> Result<Visit, SimError> {
        let addr = self.address_of(uid)?;
        if !self.mem_order_ok(uid, addr, sop) {
            flags.block_mem(sop.is_store);
            return Ok(Visit::Waiting);
        }
        let limit_ok = if sop.is_store {
            self.outstanding_writes < self.cfg.max_outstanding_writes
        } else {
            self.outstanding_reads < self.cfg.max_outstanding_reads
        };
        if !limit_ok {
            flags.block_mem(sop.is_store);
            flags.mem_limit_blocked = true;
            return Ok(Visit::Waiting);
        }
        let size = sop.access_size;
        let access = MemAccess {
            token: self.token_uid.len() as u64,
            addr,
            size,
            is_write: sop.is_store,
            data: if sop.is_store {
                Some(self.store_bytes(uid)?)
            } else {
                None
            },
        };
        if let Err(rejected) = port.try_issue(access) {
            self.tallies.reject[rejected.cause as usize] += 1;
            flags.port_rejected = true;
            flags.mem_limit_blocked = true;
            flags.block_mem(sop.is_store);
            return Ok(Visit::Waiting);
        }
        self.token_uid.push(uid);
        self.resv_count -= 1;
        self.register_issue(uid, sop, flags);
        if sop.is_store {
            self.outstanding_writes += 1;
            self.stats.stores += 1;
            self.stats.store_bytes += size as u64;
        } else {
            self.outstanding_reads += 1;
            self.stats.loads += 1;
            self.stats.load_bytes += size as u64;
        }
        Ok(Visit::Left)
    }

    /// Compute / control issue: evaluate, apply fault hooks, then either
    /// commit within the cycle (latency 0) or occupy the FU until commit.
    fn issue_compute(
        &mut self,
        uid: u32,
        sop: &StaticOp,
        flags: &mut IssueFlags,
    ) -> Result<(), SimError> {
        self.resv_count -= 1;
        let mut value = self.eval_compute(uid, sop)?;
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
                latency += f.plan.fu_jitter_cycles;
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
        self.register_issue(uid, sop, flags);
        if sop.is_term() {
            self.handle_terminator(uid, sop)?;
            // "Terminators trigger the reservation queue to load the
            // next basic block immediately after evaluation" — import
            // inline so the new block can begin issuing this cycle.
            self.import_blocks()?;
        }
        let fu = sop.fu as usize;
        if sop.fu != NO_FU {
            if latency > 0 {
                self.fu_busy[fu] += 1;
            }
            self.stats.fu_dynamic_pj += self.fu_energy_pj[fu];
        }
        self.dyn_ops[uid as usize].value = value;
        if latency == 0 {
            // Chainable op (mux, comparator, wiring): completes within
            // this cycle, so dependents later in the queue can issue in
            // the same cycle — HLS operator chaining. Its trace span has
            // zero duration.
            if sop.fu != NO_FU {
                self.tallies.fu_busy_sum[fu] += 1;
            }
            if sop.has_result {
                self.stats.reg_write_pj += sop.reg_write_pj;
            }
            self.commit(uid);
            self.record_commit(uid);
        } else {
            // The value becomes architecturally visible to dependents
            // when the op commits after its FU latency.
            self.wheel.push(self.cycle + latency as u64, uid);
            self.compute_inflight += 1;
            if sop.fu != NO_FU && self.cfg.pipelined_fus {
                self.pipelined_release.push(sop.fu);
            }
        }
        Ok(())
    }

    /// Issue bookkeeping common to compute and memory ops.
    fn register_issue(&mut self, uid: u32, sop: &StaticOp, flags: &mut IssueFlags) {
        let ts = self.trace_ts(self.cycle);
        let d = &mut self.dyn_ops[uid as usize];
        d.flags |= ISSUED;
        self.tallies.issued[sop.class as usize] += 1;
        flags.classes[sop.class as usize] = true;
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
        // Strict hazards: ops that waited for this reader to issue.
        if self.cfg.strict_register_hazards {
            for w in self.issue_waiters.remove(&uid).unwrap_or_default() {
                let c = &mut self.dyn_ops[w as usize];
                c.pending -= 1;
                if c.pending == 0 {
                    self.woken.push(Reverse(w));
                }
            }
        }
    }

    fn handle_terminator(&mut self, uid: u32, sop: &StaticOp) -> Result<(), SimError> {
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

    /// Phase 5: charge the cycle to one attribution class, update the stall
    /// and activity statistics, then check liveness and advance the clock.
    fn account_cycle(&mut self, flags: &IssueFlags, progressed: bool) -> Result<bool, SimError> {
        let cycle = self.cycle;
        let mem_outstanding = self.outstanding_reads + self.outstanding_writes;
        if self.cfg.record_timeline {
            self.record_timeline(flags);
        }
        self.stats.cycles += 1;
        // Cycle attribution: charge this cycle to exactly one class, by
        // strict priority — progress beats any stall cause, resource limits
        // beat waiting, waiting beats dependence, dependence beats drain.
        // One charge per step keeps `attribution.total() == cycles` exact.
        let cycle_class = if flags.issued() {
            CycleClass::Compute
        } else if flags.blocked.compute {
            CycleClass::FuLimit
        } else if flags.port_rejected || flags.mem_limit_blocked {
            CycleClass::MemPort
        } else if mem_outstanding > 0 {
            CycleClass::DmaWait
        } else if self.resv_count > 0 || self.compute_inflight > 0 {
            CycleClass::DepStall
        } else {
            CycleClass::Control
        };
        self.stats.attribution.charge(cycle_class);
        for (sum, &busy) in self.tallies.fu_busy_sum.iter_mut().zip(&self.fu_busy) {
            *sum += busy as u64;
        }
        if flags.issued() {
            let ld = flags.classes[IssueClass::Load as usize];
            let st = flags.classes[IssueClass::Store as usize];
            match (ld, st) {
                (true, false) => self.tallies.mem_mix[0] += 1,
                (false, true) => self.tallies.mem_mix[1] += 1,
                (true, true) => self.tallies.mem_mix[2] += 1,
                (false, false) => {}
            }
            for (n, &active) in self.tallies.class_active.iter_mut().zip(&flags.classes) {
                *n += active as u64;
            }
        }
        // A cycle counts as *stalled* (the paper's Fig. 14 definition) when
        // a dependency-free operation could not launch — resource or
        // bandwidth pressure — regardless of whether other ops issued.
        if flags.stalled() {
            self.stats.stall_cycles += 1;
            let mut mix = flags.blocked;
            mix.compute |= self.compute_inflight > 0;
            mix.store |= self.outstanding_writes > 0;
            mix.load |= self.outstanding_reads > 0;
            self.tallies.stall_mix[stall_mix_index(mix)] += 1;
            if let Some(t) = &self.trace_tracks {
                let name = format!("stall:{}", mix.label());
                self.trace.instant(t.sched, &name, self.trace_ts(cycle));
            }
        } else if flags.issued() {
            self.stats.new_exec_cycles += 1;
        }
        if flags.port_rejected {
            self.stats.port_reject_cycles += 1;
        }
        if let Some(t) = &self.trace_tracks {
            let ts = self.trace_ts(cycle);
            if flags.port_rejected {
                self.trace.instant(t.sched, "port_reject", ts);
            }
            self.trace
                .counter(t.sched, "reservation_depth", ts, self.resv_count as f64);
            self.trace
                .counter(t.sched, "mem_outstanding", ts, mem_outstanding as f64);
        }

        self.check_liveness(progressed || flags.issued())?;
        self.cycle += 1;
        self.done = self.fetch_stopped
            && self.pending_fetch.is_empty()
            && self.resv_count == 0
            && self.compute_inflight == 0
            && mem_outstanding == 0;
        Ok(self.done)
    }

    /// Appends this cycle to the activity log.
    fn record_timeline(&mut self, flags: &IssueFlags) {
        let mut rec = CycleRecord {
            mem_outstanding: (self.outstanding_reads + self.outstanding_writes) as u32,
            stalled: flags.stalled(),
            ..Default::default()
        };
        // One entry per class that issued, not per op.
        for class in IssueClass::ALL {
            if flags.classes[class as usize] {
                rec.issued.insert(class.label(), 1);
            }
        }
        for k in FuKind::ALL {
            if self.fu_busy[k as usize] > 0 {
                rec.fu_busy.insert(k, self.fu_busy[k as usize]);
            }
        }
        self.stats.timeline.push(rec);
    }

    /// Watchdog, cooperative cancellation and flight-recorder heartbeat.
    fn check_liveness(&mut self, progressed: bool) -> Result<(), SimError> {
        let cycle = self.cycle;
        if progressed {
            self.last_progress = cycle;
        } else if cycle - self.last_progress > self.cfg.deadlock_cycles {
            // The snapshot names the dominant reject cause from the map.
            self.fold_tallies();
            return Err(SimError::Deadlock(self.watchdog_snapshot()));
        }

        // Cooperative cancellation, polled once per cycle batch (including
        // cycle 0, so an already-expired deadline stops before any real
        // work). The disabled token keeps this to a single branch.
        if self.cancel.is_enabled() && cycle & (CANCEL_BATCH - 1) == 0 {
            if let Some(reason) = self.cancel.poll() {
                return Err(SimError::Cancelled {
                    kernel: self.func.name.clone(),
                    cycle,
                    timeout: reason.is_timeout(),
                });
            }
        }

        // Coarse liveness heartbeat for the flight recorder: one event per
        // 65536 cycles, so even a wedged-but-not-yet-deadlocked run leaves
        // a recent-history trail. The enabled check keeps the disabled
        // path to a single branch.
        if self.flight.is_enabled() && cycle & 0xFFFF == 0 && cycle > 0 {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!(
                    "heartbeat kernel={} cycle={} resv={} compute={} mem={}",
                    self.func.name,
                    cycle,
                    self.resv_count,
                    self.compute_inflight,
                    self.outstanding_reads + self.outstanding_writes
                ),
            );
        }
        Ok(())
    }

    /// Brings the public per-class maps up to date with the flat tallies.
    /// A key appears once its count is nonzero, exactly as if the maps had
    /// been updated event by event.
    fn fold_tallies(&mut self) {
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
        for k in FuKind::ALL {
            if t.fu_busy_sum[k as usize] > 0 {
                s.fu_busy_cycle_sum.insert(k, t.fu_busy_sum[k as usize]);
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
            ValueKind::Arg(i) => OperandT::Imm(args[*i as usize]),
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
        fu: sop.fu.map_or(NO_FU, |k| k as u8),
        is_store: inst.op == Opcode::Store,
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
