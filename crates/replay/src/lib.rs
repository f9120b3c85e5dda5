//! `salam-replay` — the trace-replay fast path.
//!
//! The runtime engine's dependence stream ([`salam_obs::DepStream`],
//! recorded under `record_depstream`) captures everything *dynamic* about a
//! run: which ops executed, their data dependences, which block import
//! produced them and which terminator triggered that import, and the
//! addresses memory ops touched. None of that changes when only *resource*
//! knobs change — FU counts, SPM port widths, SPM latency, outstanding-op
//! caps. So instead of re-simulating, this crate re-runs the recorded DAG
//! through a list scheduler that mirrors the engine's cycle structure
//! exactly (LightningSim's "simulate once, schedule after" idea): memory
//! completions, compute commits, block import, address publication, then
//! an in-order issue pass with the same resource checks and the same
//! per-cycle attribution priority. On replay-safe knob changes the result
//! is the schedule the engine *would* have produced, in a fraction of the
//! time — frozen stretches of the schedule are fast-forwarded in one jump.
//!
//! What replay cannot see (and why the DSE layer falls back to full
//! simulation for these axes): anything that changes the *recorded DAG
//! itself* — a different hardware profile (op latencies), a different
//! reservation-window size (changes import timing and therefore `group`
//! boundaries are still valid but occupancy differs — kept as a baseline
//! axis out of caution), value-dependent control flow under fault
//! injection, and strict register hazards (their issue-ordering deps are
//! approximated as commit deps, which is conservative).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::fmt;

use hw_profile::FuKind;
use salam_obs::{Attribution, CycleClass, DepStream, OpKind};

/// Resource constraints to re-schedule the recorded stream under.
///
/// Defaults mirror the engine's defaults (128-entry window, 64+64
/// outstanding, unpipelined FUs, 1-cycle SPM with 2R/2W ports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Reservation-window capacity in dynamic instructions.
    pub reservation_entries: usize,
    /// Maximum outstanding reads.
    pub max_outstanding_reads: usize,
    /// Maximum outstanding writes.
    pub max_outstanding_writes: usize,
    /// Fully pipelined FUs (release one cycle after issue).
    pub pipelined_fus: bool,
    /// Memory latency in cycles (replaces the recorded SPM latency).
    pub mem_latency: u64,
    /// SPM read ports per cycle.
    pub spm_read_ports: u32,
    /// SPM write ports per cycle.
    pub spm_write_ports: u32,
    /// Functional-unit pool sizes. Kinds absent from the map have a pool
    /// of zero — exactly the engine's semantics — so callers must cover
    /// every FU class the stream uses.
    pub fu_pool: HashMap<FuKind, u32>,
    /// Hard cycle ceiling; exceeded ⇒ [`ReplayError::CycleLimit`].
    pub max_cycles: u64,
    /// Build the retimed stream in [`ReplayOutcome::retimed`]. Costs one
    /// pass over the ops plus a sort; sweeps that only need cycle counts
    /// and attribution turn it off.
    pub want_retimed: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            reservation_entries: 128,
            max_outstanding_reads: 64,
            max_outstanding_writes: 64,
            pipelined_fus: false,
            mem_latency: 1,
            spm_read_ports: 2,
            spm_write_ports: 2,
            fu_pool: HashMap::new(),
            max_cycles: 1_000_000_000,
            want_retimed: true,
        }
    }
}

/// What the replay scheduler produced: the re-scheduled cycle count plus
/// the per-cycle counters a [`salam_obs::Attribution`]-consuming report
/// needs, and the retimed stream for critical-path analysis.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Total cycles of the re-scheduled run.
    pub cycles: u64,
    /// Per-cycle attribution, charged with the engine's exact priority.
    pub attribution: Attribution,
    /// Busy-FU cycle integral per kind (the utilization numerator).
    pub fu_busy_cycle_sum: HashMap<FuKind, u64>,
    /// Cycles where a dependency-free op could not launch.
    pub stall_cycles: u64,
    /// Unstalled cycles with at least one issue.
    pub new_exec_cycles: u64,
    /// Cycles with at least one SPM port rejection.
    pub port_reject_cycles: u64,
    /// The input stream with issue/commit retimed to the replayed
    /// schedule (same ops, deps and metadata). `None` when the config
    /// set [`ReplayConfig::want_retimed`] to `false`.
    pub retimed: Option<DepStream>,
}

/// Why a stream could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The stream is structurally unusable (missing metadata, non-dense
    /// uids, out-of-order groups, …).
    BadStream(String),
    /// The schedule wedged: ops remain but no future event can unblock
    /// them under the given constraints.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Ops that had committed by then.
        committed: usize,
        /// Ops in the stream.
        total: usize,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The configured cycle budget.
        limit: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadStream(m) => write!(f, "replay: bad stream: {m}"),
            ReplayError::Deadlock {
                cycle,
                committed,
                total,
            } => write!(
                f,
                "replay: deadlock at cycle {cycle} ({committed}/{total} ops committed)"
            ),
            ReplayError::CycleLimit { limit } => {
                write!(f, "replay: cycle limit {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

const N_FU: usize = FuKind::ALL.len();
/// Resource lanes: one per FU kind, then the load and the store side of
/// the memory interface.
const N_LANES: usize = N_FU + 2;
const LOAD: usize = N_FU;
const STORE: usize = N_FU + 1;
/// FU index of an op that occupies no functional unit.
const NO_FU: u8 = N_FU as u8;

/// One recorded op in the scheduler's working form, read-only during a run.
#[derive(Clone, Copy)]
enum ROp {
    Compute {
        latency: u32,
        /// `FuKind as u8`, or [`NO_FU`].
        fu: u8,
        /// Terminator whose issue unlocks a block import.
        fetches_a_group: bool,
    },
    Mem {
        addr: u64,
        size: u32,
        store: bool,
        /// The address has no producer (immediate or argument pointer).
        addr_known: bool,
    },
}

const _: () = assert!(std::mem::size_of::<ROp>() == 16);

/// A block-import group: contiguous op-index range plus the uid of the
/// terminator that fetched it (0 for the entry group).
struct Group {
    start: u32,
    len: u32,
    ctrl: u32,
}

/// Marks a consumer-adjacency entry as the *address* edge of a memory op:
/// the producer's commit resolves the consumer's address (publishing its
/// span) instead of retiring one of its data dependences.
const ADDR_EDGE: u32 = 1 << 31;

/// A validated stream resolved into the scheduler's working form, ready to
/// be re-scheduled many times. Building this once per kernel and replaying
/// it per sweep point amortizes all per-op resolution (uid checks, FU
/// lookup, group shaping, consumer adjacency) across the whole sweep.
pub struct Prepared {
    /// Ops by index (`uid - 1`).
    ops: Vec<ROp>,
    groups: Vec<Group>,
    /// Per-op producer count (the initial dependence counters).
    dep_count: Vec<u32>,
    /// Consumer adjacency in CSR form, indexed by producer op index:
    /// `cons_adj[cons_off[i]..cons_off[i + 1]]` holds consumer op indices,
    /// address edges tagged with [`ADDR_EDGE`].
    cons_off: Vec<u32>,
    cons_adj: Vec<u32>,
    /// Uid of the first op of each FU kind (0 = kind unused).
    fu_first_uid: [u32; N_FU],
    /// Per word of the ready set, per resource lane (the FU kinds, then
    /// loads, then stores): the ops of that word that contend for the lane.
    lane_ops: Vec<[u64; N_LANES]>,
    /// Longest compute latency in the stream (sizes the commit wheel).
    max_latency: u32,
}

impl Prepared {
    /// Validates and resolves `stream`.
    ///
    /// # Errors
    ///
    /// [`ReplayError::BadStream`] when the stream lacks replay metadata or
    /// is structurally inconsistent.
    pub fn new(stream: &DepStream) -> Result<Self, ReplayError> {
        let bad = |m: String| Err(ReplayError::BadStream(m));
        let sops = stream.ops();
        let n = sops.len();
        if n == 0 {
            return bad("empty stream".into());
        }
        if n >= ADDR_EDGE as usize {
            return bad(format!("{n} ops exceed the replayable {}", ADDR_EDGE - 1));
        }
        // uid → position in the stream's commit-ordered op list; n distinct
        // uids in 1..=n are exactly the dense range.
        let mut pos = vec![u32::MAX; n];
        for (p, op) in sops.iter().enumerate() {
            if op.uid == 0 || op.uid > n as u64 {
                return bad(format!("uid {} outside dense range 1..={n}", op.uid));
            }
            let slot = &mut pos[(op.uid - 1) as usize];
            if *slot != u32::MAX {
                return bad(format!("duplicate uid {}", op.uid));
            }
            *slot = p as u32;
        }
        // Each interned class resolves once: its FU kind, and whether it
        // names a memory issue class.
        let classes: Vec<(u8, bool)> = stream
            .classes()
            .iter()
            .map(|c| {
                let fu = FuKind::from_name(c).map_or(NO_FU, |k| k as u8);
                (fu, c == "load" || c == "store")
            })
            .collect();

        let mut ops = Vec::with_capacity(n);
        let mut groups: Vec<Group> = Vec::new();
        let mut dep_count = Vec::with_capacity(n);
        let mut cons_off = vec![0u32; n + 1];
        let mut fu_first_uid = [0u32; N_FU];
        let mut lane_ops = vec![[0u64; N_LANES]; n.div_ceil(64)];
        let mut max_latency = 0;
        for (i, &p) in pos.iter().enumerate() {
            let op = &sops[p as usize];
            let (uid, m) = (op.uid, &op.meta);
            let (fu, mem_class) = classes
                .get(op.class as usize)
                .copied()
                .unwrap_or((NO_FU, false));
            // Memory ops carry their kind in the metadata; a stream recorded
            // without metadata (legacy `record`) would classify them as
            // Compute — catch that here instead of mis-replaying.
            if mem_class && m.kind == OpKind::Compute {
                return bad("stream lacks replay metadata (recorded without record_meta?)".into());
            }
            for &d in &op.deps {
                if d == 0 || d > n as u64 {
                    return bad(format!("dep {d} of uid {uid} outside dense range"));
                }
                cons_off[d as usize] += 1;
            }
            dep_count.push(op.deps.len() as u32);
            if m.addr_dep >= uid {
                return bad(format!(
                    "addr_dep {} of uid {uid} is not an earlier uid",
                    m.addr_dep
                ));
            }

            // Groups: contiguous, nondecreasing runs in uid order, each
            // fetched by one earlier terminator.
            let count = groups.len();
            match groups.last_mut() {
                Some(g) if m.group as usize == count - 1 => {
                    if m.ctrl != g.ctrl as u64 {
                        return bad(format!("group {} has mixed ctrl uids", count - 1));
                    }
                    g.len += 1;
                }
                _ if m.group as usize == count => {
                    if count == 0 && m.ctrl != 0 {
                        return bad("entry group has a nonzero ctrl uid".into());
                    }
                    if m.ctrl > i as u64 {
                        return bad(format!(
                            "group {count} fetched by a later/own uid {}",
                            m.ctrl
                        ));
                    }
                    groups.push(Group {
                        start: i as u32,
                        len: 1,
                        ctrl: m.ctrl as u32,
                    });
                }
                _ => {
                    return bad(format!(
                        "group {} out of order at uid {uid} (expected {} or {count})",
                        m.group,
                        count.saturating_sub(1),
                    ))
                }
            }

            let lane = match m.kind {
                OpKind::Compute if fu == NO_FU => N_LANES,
                OpKind::Compute => fu as usize,
                OpKind::Load => LOAD,
                OpKind::Store => STORE,
            };
            if let Some(mask) = lane_ops[i / 64].get_mut(lane) {
                *mask |= 1 << (i % 64);
            }
            ops.push(match m.kind {
                OpKind::Compute => {
                    if fu != NO_FU && fu_first_uid[fu as usize] == 0 {
                        fu_first_uid[fu as usize] = uid as u32;
                    }
                    if m.latency as u64 > MAX_LATENCY {
                        return bad(format!("latency {} of uid {uid} is absurd", m.latency));
                    }
                    max_latency = max_latency.max(m.latency);
                    ROp::Compute {
                        latency: m.latency,
                        fu,
                        fetches_a_group: false,
                    }
                }
                kind => {
                    if m.addr_dep != 0 {
                        cons_off[m.addr_dep as usize] += 1;
                    }
                    ROp::Mem {
                        addr: m.addr,
                        size: m.size,
                        store: kind == OpKind::Store,
                        addr_known: m.addr_dep == 0,
                    }
                }
            });
        }
        for g in &groups {
            if let Some(ROp::Compute {
                fetches_a_group, ..
            }) = (g.ctrl as usize).checked_sub(1).map(|c| &mut ops[c])
            {
                *fetches_a_group = true;
            }
        }

        // Counts sit one slot above their producer's index, so the prefix
        // sum leaves `cons_off[i]` at the start of producer `i`'s run.
        for i in 1..=n {
            cons_off[i] += cons_off[i - 1];
        }
        let mut cons_adj = vec![0u32; cons_off[n] as usize];
        let mut fill = cons_off.clone();
        let mut edge = |producer_uid: u64, entry: u32| {
            let slot = &mut fill[producer_uid as usize - 1];
            cons_adj[*slot as usize] = entry;
            *slot += 1;
        };
        for (i, &p) in pos.iter().enumerate() {
            let op = &sops[p as usize];
            for &d in &op.deps {
                edge(d, i as u32);
            }
            if op.meta.kind != OpKind::Compute && op.meta.addr_dep != 0 {
                edge(op.meta.addr_dep, i as u32 | ADDR_EDGE);
            }
        }

        Ok(Prepared {
            ops,
            groups,
            dep_count,
            cons_off,
            cons_adj,
            fu_first_uid,
            lane_ops,
            max_latency,
        })
    }
}

/// Re-schedules `stream` under `cfg`.
///
/// # Errors
///
/// [`ReplayError::BadStream`] when the stream lacks replay metadata or is
/// structurally inconsistent; [`ReplayError::Deadlock`] /
/// [`ReplayError::CycleLimit`] when the constraints wedge the schedule.
pub fn replay(stream: &DepStream, cfg: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    let prep = Prepared::new(stream)?;
    run(&prep, Some(stream), cfg)
}

/// Re-schedules an already-[`Prepared`] stream under `cfg`. This is the
/// sweep fast path: the per-op resolution work was paid once in
/// [`Prepared::new`]. [`ReplayOutcome::retimed`] is always `None` here —
/// the prepared form does not keep the metadata needed to rebuild a
/// stream; use [`replay`] when the retimed stream is wanted.
///
/// # Errors
///
/// Same as [`replay`], minus the stream-shape cases caught by
/// [`Prepared::new`].
pub fn replay_prepared(prep: &Prepared, cfg: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    run(prep, None, cfg)
}

// Per-op state bits.
const COMMITTED: u8 = 1;
const ISSUED: u8 = 1 << 1;
/// Memory ops: the address producer has committed (or there is none).
const ADDR_READY: u8 = 1 << 2;
/// Memory ops: the span is visible in the ordering window.
const PUBLISHED: u8 = 1 << 3;

/// `blocker` memo value of a memory op proven ordered. Monotonic: the
/// scanned set only shrinks and spans are write-once, so a passed check
/// can never regress.
const ORDER_OK: u32 = u32::MAX;

/// The load (or the store) side of the memory interface.
#[derive(Default)]
struct MemLane {
    /// Accesses in flight, against the outstanding cap.
    outstanding: usize,
    /// Ops issued this pass, against the SPM ports.
    issued: u32,
    /// Ordering window: imported accesses in uid order; committed ones
    /// leave from the front and are skipped elsewhere.
    window: VecDeque<u32>,
}

/// Longest op or memory latency a stream or a config may ask for: the
/// commit wheel's ring has to span it.
const MAX_LATENCY: u64 = 1 << 16;

/// Issued ops waiting for their commit cycle, bucketed by it (the shape of
/// the engine's `CommitWheel`, DESIGN.md §5.1): each ring slot heads a list
/// threaded through `next`, so an op enters and leaves in two stores. The
/// ring spans the longest latency, so a slot only ever holds one cycle's ops.
struct Wheel {
    /// Per slot: 1 + the index of the list's first op, 0 when empty.
    heads: Vec<u32>,
    /// Per op: the rest of its slot's list, in the encoding of `heads`.
    next: Vec<u32>,
}

impl Wheel {
    fn new(max_latency: u64, ops: usize) -> Self {
        Wheel {
            heads: vec![0; (max_latency as usize + 1).next_power_of_two()],
            next: vec![0; ops],
        }
    }

    fn slot(&self, cycle: u64) -> usize {
        (cycle & (self.heads.len() as u64 - 1)) as usize
    }

    fn push(&mut self, at: u64, idx: u32) {
        let s = self.slot(at);
        self.next[idx as usize] = std::mem::replace(&mut self.heads[s], idx + 1);
    }

    /// Detaches the list of the ops due at `cycle`; walk it with
    /// [`Wheel::pop`].
    fn take_due(&mut self, cycle: u64) -> u32 {
        let s = self.slot(cycle);
        std::mem::take(&mut self.heads[s])
    }

    /// The first op of a detached list and the rest of the list.
    fn pop(&self, list: u32) -> Option<(u32, u32)> {
        let idx = list.checked_sub(1)?;
        Some((idx, self.next[idx as usize]))
    }

    /// The earliest pending commit at or after `from`: every entry is due
    /// within one lap, so the first nonempty slot names its cycle.
    fn next_event(&self, from: u64) -> Option<u64> {
        (from..from + self.heads.len() as u64).find(|&c| self.heads[self.slot(c)] != 0)
    }
}

/// Whether `[a, a + a_size)` and `[b, b + b_size)` overlap; an end past
/// `u64::MAX` lies beyond every address.
fn overlaps(a: u64, a_size: u32, b: u64, b_size: u32) -> bool {
    let before_end =
        |x: u64, start: u64, size: u32| start.checked_add(size as u64).is_none_or(|end| x < end);
    before_end(b, a, a_size) && before_end(a, b, b_size)
}

/// What one issue pass saw, for the cycle's stall and attribution
/// accounting.
#[derive(Default)]
struct Flags {
    /// A ready op waits for a unit of a saturated FU kind.
    fu_blocked: bool,
    blocked_any: bool,
    mem_limit_blocked: bool,
    port_rejected: bool,
}

/// The event-driven list scheduler: the dynamic side of DESIGN.md §5.1
/// driven by recorded values. A cycle costs O(ops woken + ops ready).
struct Sched<'a> {
    prep: &'a Prepared,
    cfg: &'a ReplayConfig,
    cycle: u64,
    /// One state byte per op.
    state: Vec<u8>,
    /// Uncommitted data producers per op; a commit decrements its
    /// consumers through the prepared CSR adjacency.
    remaining: Vec<u32>,
    /// Ordering memo per memory op: 0 = unknown, [`ORDER_OK`], or 1 + the
    /// index of the window entry that blocked the last scan — re-checked
    /// alone while it is still uncommitted and still conflicting.
    blocker: Vec<u32>,
    /// The ready set, one bit per op: imported, dependence-free and
    /// unissued. A pass walks the set bits upwards from `ready_lo` (no set
    /// bit lies in a word below it) — the engine's in-order scan without
    /// the dependence-blocked entries.
    ready: Vec<u64>,
    ready_lo: usize,
    /// Lanes no op can issue on for the rest of this pass: FU kinds with
    /// every unit busy (units release only between passes) and memory
    /// sides that met their cap or ran out of ports. The walk masks their
    /// ops out of the ready set instead of visiting them — the engine's
    /// FU parking, kept in place. Every ordered memory op behind the one
    /// that saturated its side would meet the same limit and raise the
    /// same flags.
    saturated: u32,
    /// The op a pass is visiting (0 between passes). A wake behind it — a
    /// consumer recorded with a lower uid than its producer, which the
    /// engine never emits — has the pass walk again.
    cursor: u32,
    woken_behind: bool,
    /// Ops `0..imported` have entered the reservation window.
    imported: u32,
    /// The load and the store side, indexed by `store as usize`.
    mem: [MemLane; 2],
    fu_pool: [u32; N_FU],
    fu_busy: [u32; N_FU],
    /// Busy-FU cycle integral per kind, charged whole at issue: a unit is
    /// held from issue to release whether or not the cycles between are
    /// stepped or skipped.
    busy_sum: [u64; N_FU],
    /// Pipelined mode: FU kinds issued last cycle, released this cycle.
    pipelined_release: Vec<u8>,
    wheel: Wheel,
    compute_inflight: usize,
    /// Memory ops whose address resolved since the last publish phase.
    to_publish: Vec<u32>,
    resv_count: usize,
    next_group: usize,
    committed: usize,
    /// (issue, commit) per op; empty unless the retimed stream is wanted.
    times: Vec<(u64, u64)>,
}

impl<'a> Sched<'a> {
    fn new(prep: &'a Prepared, cfg: &'a ReplayConfig, fu_pool: [u32; N_FU], retime: bool) -> Self {
        let n = prep.ops.len();
        Sched {
            prep,
            cfg,
            cycle: 0,
            state: vec![0; n],
            remaining: prep.dep_count.clone(),
            blocker: vec![0; n],
            ready: vec![0; n.div_ceil(64)],
            ready_lo: 0,
            saturated: 0,
            cursor: 0,
            woken_behind: false,
            imported: 0,
            mem: Default::default(),
            fu_pool,
            fu_busy: [0; N_FU],
            busy_sum: [0; N_FU],
            pipelined_release: Vec::new(),
            wheel: Wheel::new(cfg.mem_latency.max(prep.max_latency as u64).max(1), n),
            compute_inflight: 0,
            to_publish: Vec::new(),
            resv_count: 0,
            next_group: 0,
            committed: 0,
            times: if retime { vec![(0, 0); n] } else { Vec::new() },
        }
    }

    /// Enters an imported, dependence-free op into the ready set.
    fn wake(&mut self, idx: u32) {
        let word = idx as usize / 64;
        self.ready[word] |= 1 << (idx % 64);
        self.ready_lo = self.ready_lo.min(word);
        self.woken_behind |= idx < self.cursor;
    }

    /// Commits one op: retires its consumers' dependence counters (waking
    /// in-window consumers whose last producer this was) and resolves the
    /// address of the memory ops it feeds.
    fn commit(&mut self, idx: u32) {
        let i = idx as usize;
        self.state[i] |= COMMITTED;
        self.committed += 1;
        if let Some(t) = self.times.get_mut(i) {
            t.1 = self.cycle;
        }
        let prep = self.prep;
        for &c in &prep.cons_adj[prep.cons_off[i] as usize..prep.cons_off[i + 1] as usize] {
            let r = c & !ADDR_EDGE;
            if c & ADDR_EDGE != 0 {
                self.state[r as usize] |= ADDR_READY;
                if r < self.imported {
                    self.to_publish.push(r);
                }
            } else {
                self.remaining[r as usize] -= 1;
                if self.remaining[r as usize] == 0 && r < self.imported {
                    self.wake(r);
                }
            }
        }
    }

    /// Phases 1–2: memory completions, compute commits and FU releases
    /// (one cycle after issue when pipelined, at commit otherwise).
    fn retire_due(&mut self) {
        for k in 0..self.pipelined_release.len() {
            let fu = self.pipelined_release[k];
            self.fu_busy[fu as usize] -= 1;
            self.saturated &= !(1 << fu);
        }
        self.pipelined_release.clear();
        let mut due = self.wheel.take_due(self.cycle);
        while let Some((idx, rest)) = self.wheel.pop(due) {
            due = rest;
            match self.prep.ops[idx as usize] {
                ROp::Compute { fu, .. } => {
                    if fu != NO_FU && !self.cfg.pipelined_fus {
                        self.fu_busy[fu as usize] -= 1;
                        self.saturated &= !(1 << fu);
                    }
                    self.compute_inflight -= 1;
                }
                ROp::Mem { store, .. } => self.mem[store as usize].outstanding -= 1,
            }
            self.commit(idx);
        }
        for lane in &mut self.mem {
            while lane
                .window
                .front()
                .is_some_and(|&f| self.state[f as usize] & COMMITTED != 0)
            {
                lane.window.pop_front();
            }
        }
    }

    /// Imports groups while the window has room (a group larger than the
    /// whole window is admitted into an empty one), in group order, gated
    /// on the fetching terminator having issued.
    fn import(&mut self) -> bool {
        let prep = self.prep;
        let mut any = false;
        while let Some(g) = prep.groups.get(self.next_group) {
            if g.ctrl != 0 && self.state[g.ctrl as usize - 1] & ISSUED == 0 {
                break;
            }
            let room = self.cfg.reservation_entries.saturating_sub(self.resv_count);
            if g.len as usize > room && self.resv_count > 0 {
                break;
            }
            self.imported = g.start + g.len;
            for idx in g.start..self.imported {
                let i = idx as usize;
                if let ROp::Mem {
                    store, addr_known, ..
                } = prep.ops[i]
                {
                    self.mem[store as usize].window.push_back(idx);
                    if addr_known || self.state[i] & ADDR_READY != 0 {
                        self.state[i] |= ADDR_READY;
                        self.to_publish.push(idx);
                    }
                }
                if self.remaining[i] == 0 {
                    self.wake(idx);
                }
            }
            self.resv_count += g.len as usize;
            self.next_group += 1;
            any = true;
        }
        any
    }

    /// Phase 4a: spans become visible in the ordering window at the first
    /// top-of-cycle after their address resolved — only for ops still
    /// waiting in the reservation window, exactly like the engine. An op
    /// that issued in the cycle its address resolved never publishes: it
    /// orders younger conflicting accesses as "unknown address" until it
    /// commits.
    fn publish(&mut self) {
        for &idx in &self.to_publish {
            let s = &mut self.state[idx as usize];
            if *s & ISSUED == 0 {
                *s |= PUBLISHED;
            }
        }
        self.to_publish.clear();
    }

    /// The ops of `word` that contend for one of `lanes`.
    fn lane_ops(&self, word: usize, mut lanes: u32) -> u64 {
        let by_lane = &self.prep.lane_ops[word];
        let mut ops = 0;
        while lanes != 0 {
            ops |= by_lane[lanes.trailing_zeros() as usize];
            lanes &= lanes - 1;
        }
        ops
    }

    /// Phase 4b: offers every ready op to the datapath, oldest first. Ops
    /// woken mid-pass (zero-latency chaining, a block imported behind a
    /// terminator) carry a higher uid than the op that woke them, so the
    /// walk reaches them in this same pass. Returns the ops issued; sets
    /// `imported` when a terminator's issue pulled in the next block.
    fn issue_ready(&mut self, flags: &mut Flags, imported: &mut bool) -> u64 {
        const FU_LANES: u32 = (1 << N_FU) - 1;
        let mut issued = 0;
        loop {
            let mut word = std::mem::replace(&mut self.ready_lo, usize::MAX);
            let mut lowest_left = usize::MAX;
            while word < (self.imported as usize).div_ceil(64) {
                let mut unvisited = !0u64;
                let (mut masked_for, mut masked) = (0, 0);
                loop {
                    if masked_for != self.saturated {
                        masked_for = self.saturated;
                        masked = self.lane_ops(word, masked_for);
                    }
                    let bits = self.ready[word] & unvisited & !masked;
                    if bits == 0 {
                        break;
                    }
                    let bit = bits.trailing_zeros();
                    unvisited = (!1u64) << bit;
                    self.cursor = (word * 64) as u32 + bit;
                    issued += self.offer(self.cursor, flags, imported) as u64;
                }
                let left = self.ready[word];
                if left != 0 {
                    lowest_left = lowest_left.min(word);
                    if !flags.fu_blocked && self.saturated & FU_LANES != 0 {
                        let starved = self.lane_ops(word, self.saturated & FU_LANES);
                        flags.fu_blocked = left & starved != 0;
                    }
                }
                word += 1;
            }
            self.cursor = 0;
            self.ready_lo = self.ready_lo.min(lowest_left);
            if !std::mem::take(&mut self.woken_behind) {
                break;
            }
        }
        for lane in &mut self.mem {
            lane.issued = 0;
        }
        self.saturated &= FU_LANES;
        issued
    }

    /// Offers one ready op of an unsaturated lane to the datapath; true
    /// when it issued and left the ready set.
    fn offer(&mut self, idx: u32, flags: &mut Flags, imported: &mut bool) -> bool {
        let i = idx as usize;
        match self.prep.ops[i] {
            ROp::Compute {
                latency,
                fu,
                fetches_a_group,
            } => {
                self.ready[i / 64] &= !(1 << (idx % 64));
                self.state[i] |= ISSUED;
                self.resv_count -= 1;
                if let Some(t) = self.times.get_mut(i) {
                    t.0 = self.cycle;
                }
                // A terminator's issue unlocks the next group's import,
                // inline, so the new block can begin issuing this same
                // cycle. Only terminators re-check the fetch gate — room
                // freed by ordinary issues is picked up at the next
                // top-of-cycle import, exactly like the engine.
                if fetches_a_group {
                    *imported |= self.import();
                }
                if latency == 0 {
                    // Chained op: commits within the issue cycle; a chained
                    // FU op holds its unit for this one cycle.
                    if fu != NO_FU {
                        self.busy_sum[fu as usize] += 1;
                    }
                    self.commit(idx);
                    return true;
                }
                if fu != NO_FU {
                    let f = fu as usize;
                    self.fu_busy[f] += 1;
                    if self.fu_busy[f] >= self.fu_pool[f] {
                        self.saturated |= 1 << fu;
                    }
                    if self.cfg.pipelined_fus {
                        self.pipelined_release.push(fu);
                        self.busy_sum[f] += 1;
                    } else {
                        self.busy_sum[f] += latency as u64;
                    }
                }
                self.compute_inflight += 1;
                self.wheel.push(self.cycle + latency as u64, idx);
                true
            }
            ROp::Mem {
                addr, size, store, ..
            } => {
                if self.state[i] & ADDR_READY == 0 || !self.order_ok(idx, addr, size, store) {
                    flags.blocked_any = true;
                    return false;
                }
                let (cap, ports) = match store {
                    true => (self.cfg.max_outstanding_writes, self.cfg.spm_write_ports),
                    false => (self.cfg.max_outstanding_reads, self.cfg.spm_read_ports),
                };
                let lane = &mut self.mem[store as usize];
                if lane.outstanding >= cap || lane.issued == ports {
                    flags.blocked_any = true;
                    flags.mem_limit_blocked = true;
                    flags.port_rejected |= lane.outstanding < cap;
                    self.saturated |= 1 << (LOAD + store as usize);
                    return false;
                }
                lane.outstanding += 1;
                lane.issued += 1;
                self.ready[i / 64] &= !(1 << (idx % 64));
                self.state[i] |= ISSUED;
                self.resv_count -= 1;
                if let Some(t) = self.times.get_mut(i) {
                    t.0 = self.cycle;
                }
                self.wheel
                    .push(self.cycle + self.cfg.mem_latency.max(1), idx);
                true
            }
        }
    }

    /// Memory ordering against every older conflicting (or unpublished)
    /// access in the window: store↔load, load↔store, store↔store. The
    /// memoised blocker is re-checked first — while it is still in the
    /// window and still conflicts, a scan would fail at or before it.
    fn order_ok(&mut self, idx: u32, addr: u64, size: u32, store: bool) -> bool {
        let conflicts = |older: u32| -> bool {
            let s = self.state[older as usize];
            if s & COMMITTED != 0 {
                return false; // left the window
            }
            match self.prep.ops[older as usize] {
                ROp::Mem {
                    addr: a, size: sz, ..
                } if s & PUBLISHED != 0 => overlaps(a, sz, addr, size),
                _ => true, // older access with unknown address
            }
        };
        let b = self.blocker[idx as usize];
        if b == ORDER_OK {
            return true;
        }
        if b != 0 && conflicts(b - 1) {
            return false;
        }
        let first_conflict = |window: &VecDeque<u32>| {
            window
                .iter()
                .take_while(|&&older| older < idx)
                .find(|&&older| conflicts(older))
                .copied()
        };
        let hit = first_conflict(&self.mem[1].window)
            .or_else(|| store.then(|| first_conflict(&self.mem[0].window)).flatten());
        self.blocker[idx as usize] = hit.map_or(ORDER_OK, |h| h + 1);
        hit.is_none()
    }

    /// Runs the schedule to the drain point.
    fn run(&mut self) -> Result<ReplayOutcome, ReplayError> {
        let mut class_cycles = [0u64; CycleClass::ALL.len()];
        let mut stall_cycles = 0u64;
        let mut new_exec_cycles = 0u64;
        let mut port_reject_cycles = 0u64;
        loop {
            if self.cycle > self.cfg.max_cycles {
                return Err(ReplayError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            self.retire_due();
            let mut imported = self.import();
            self.publish();
            let mut flags = Flags::default();
            let issued = self.issue_ready(&mut flags, &mut imported);

            // Cycle bookkeeping: attribution by the engine's exact priority.
            let blocked_any = flags.blocked_any || flags.fu_blocked;
            let mem_inflight = self.mem[0].outstanding + self.mem[1].outstanding;
            let class = if issued > 0 {
                CycleClass::Compute
            } else if flags.fu_blocked {
                CycleClass::FuLimit
            } else if flags.mem_limit_blocked {
                CycleClass::MemPort
            } else if mem_inflight > 0 {
                CycleClass::DmaWait
            } else if self.resv_count > 0 || self.compute_inflight > 0 {
                CycleClass::DepStall
            } else {
                CycleClass::Control
            };
            class_cycles[class as usize] += 1;
            if blocked_any {
                stall_cycles += 1;
            } else if issued > 0 {
                new_exec_cycles += 1;
            }
            port_reject_cycles += flags.port_rejected as u64;

            self.cycle += 1;
            if self.next_group == self.prep.groups.len()
                && self.resv_count == 0
                && self.compute_inflight == 0
                && mem_inflight == 0
            {
                break;
            }

            // Fast-forward: with nothing issued and nothing imported this
            // cycle, the whole scheduler state is frozen until the next
            // commit — every intervening cycle charges the same class, so
            // jump there in one step.
            if issued == 0 && !imported {
                let Some(event) = self.wheel.next_event(self.cycle) else {
                    return Err(ReplayError::Deadlock {
                        cycle: self.cycle,
                        committed: self.committed,
                        total: self.prep.ops.len(),
                    });
                };
                let gap = event - self.cycle;
                class_cycles[class as usize] += gap;
                if blocked_any {
                    stall_cycles += gap;
                }
                self.cycle = event;
            }
        }

        let mut attribution = Attribution::default();
        for class in CycleClass::ALL {
            attribution.add(class, class_cycles[class as usize]);
        }
        Ok(ReplayOutcome {
            cycles: self.cycle,
            attribution,
            fu_busy_cycle_sum: FuKind::ALL
                .into_iter()
                .map(|k| (k, self.busy_sum[k as usize]))
                .filter(|&(_, busy)| busy > 0)
                .collect(),
            stall_cycles,
            new_exec_cycles,
            port_reject_cycles,
            retimed: None,
        })
    }
}

fn run(
    prep: &Prepared,
    retime_src: Option<&DepStream>,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    if cfg.reservation_entries == 0
        || cfg.max_outstanding_reads == 0
        || cfg.max_outstanding_writes == 0
        || cfg.spm_read_ports == 0
        || cfg.spm_write_ports == 0
        || cfg.mem_latency > MAX_LATENCY
    {
        return Err(ReplayError::BadStream(
            "zero-sized resource or absurd memory latency in config".into(),
        ));
    }
    let mut fu_pool = [0u32; N_FU];
    for (&k, &v) in &cfg.fu_pool {
        fu_pool[k as usize] = v;
    }
    // An FU-classed op with a zero pool could never issue; refuse up
    // front instead of deadlocking mid-replay.
    for k in FuKind::ALL {
        let uid = prep.fu_first_uid[k as usize];
        if uid != 0 && fu_pool[k as usize] == 0 {
            return Err(ReplayError::BadStream(format!(
                "op uid {uid} needs FU kind {} but the config allocates none",
                k.name()
            )));
        }
    }
    let retime_src = retime_src.filter(|_| cfg.want_retimed);
    let mut sched = Sched::new(prep, cfg, fu_pool, retime_src.is_some());
    let mut outcome = sched.run()?;

    // Retimed stream: identical ops/deps/metadata, replayed issue/commit,
    // appended in commit order (uid-stable within a cycle) so critical-path
    // analysis works on replayed points just like on simulated ones.
    outcome.retimed = retime_src.map(|stream| {
        let times = &sched.times;
        let mut by_uid: Vec<&salam_obs::DepOp> = stream.ops().iter().collect();
        by_uid.sort_unstable_by_key(|op| (times[(op.uid - 1) as usize].1, op.uid));
        let mut retimed = DepStream::new();
        for src in by_uid {
            let (issue, commit) = times[(src.uid - 1) as usize];
            retimed.record_meta(
                src.uid,
                stream.name(src.name),
                stream.class(src.class),
                issue,
                commit,
                src.deps.clone(),
                src.meta,
            );
        }
        retimed
    });
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_obs::DepMeta;

    /// Appends a compute op of `class` to group `group`, fetched by `ctrl`.
    fn alu(
        s: &mut DepStream,
        uid: u64,
        class: &str,
        latency: u32,
        deps: &[u64],
        group: (u32, u64),
    ) {
        let meta = DepMeta {
            latency,
            group: group.0,
            ctrl: group.1,
            ..DepMeta::default()
        };
        s.record_meta(uid, class, class, 0, 0, deps.to_vec(), meta);
    }

    /// Appends an 8-byte access to `addr` in the entry group.
    fn access(s: &mut DepStream, uid: u64, kind: OpKind, addr: u64, addr_dep: u64) {
        let class = if kind == OpKind::Store {
            "store"
        } else {
            "load"
        };
        let meta = DepMeta {
            kind,
            latency: 1,
            addr,
            size: 8,
            addr_dep,
            ..DepMeta::default()
        };
        s.record_meta(uid, class, class, 0, 0, vec![], meta);
    }

    fn adders(n: u32) -> ReplayConfig {
        ReplayConfig {
            fu_pool: [(FuKind::IntAdder, n)].into_iter().collect(),
            ..ReplayConfig::default()
        }
    }

    /// add(1) → add(2) → ret, one-cycle adder each.
    #[test]
    fn serial_chain_takes_latency_sum_plus_drain() {
        let mut s = DepStream::new();
        alu(&mut s, 1, "int_adder", 1, &[], (0, 0));
        alu(&mut s, 2, "int_adder", 1, &[1], (0, 0));
        alu(&mut s, 3, "other", 0, &[2], (0, 0));
        let out = replay(&s, &adders(4)).unwrap();
        // c0: issue add1; c1: add1 commits, issue add2; c2: add2 commits,
        // ret issues+chains. Total = 3 cycles.
        assert_eq!(out.cycles, 3);
        assert_eq!(out.attribution.total(), out.cycles);
        assert_eq!(out.attribution.get(CycleClass::Compute), 3);
    }

    /// Two independent adds on a single adder serialize; two adders don't.
    #[test]
    fn fu_pool_limit_serializes_and_charges_fu_limit() {
        let mut s = DepStream::new();
        alu(&mut s, 1, "int_adder", 3, &[], (0, 0));
        alu(&mut s, 2, "int_adder", 3, &[], (0, 0));
        alu(&mut s, 3, "other", 0, &[1, 2], (0, 0));
        let wide = replay(&s, &adders(2)).unwrap();
        let narrow = replay(&s, &adders(1)).unwrap();
        assert!(narrow.cycles > wide.cycles);
        assert!(narrow.attribution.get(CycleClass::FuLimit) > 0);
        assert_eq!(wide.attribution.get(CycleClass::FuLimit), 0);
        assert_eq!(narrow.attribution.total(), narrow.cycles);
        assert_eq!(narrow.fu_busy_cycle_sum[&FuKind::IntAdder], 6);
    }

    /// Four independent loads: 2 read ports take 2 issue cycles, 1 port 4.
    #[test]
    fn read_port_width_gates_parallel_loads() {
        let mut s = DepStream::new();
        for uid in 1..=4 {
            access(&mut s, uid, OpKind::Load, uid * 8, 0);
        }
        alu(&mut s, 5, "other", 0, &[1, 2, 3, 4], (0, 0));
        let ports = |spm_read_ports| ReplayConfig {
            spm_read_ports,
            ..ReplayConfig::default()
        };
        let two = replay(&s, &ports(2)).unwrap();
        let one = replay(&s, &ports(1)).unwrap();
        assert!(one.cycles > two.cycles);
        assert!(one.port_reject_cycles > 0);
    }

    /// One outstanding read at a time: the second load waits a full memory
    /// round-trip charged to MemPort.
    #[test]
    fn outstanding_cap_charges_mem_port() {
        let mut s = DepStream::new();
        access(&mut s, 1, OpKind::Load, 8, 0);
        access(&mut s, 2, OpKind::Load, 16, 0);
        alu(&mut s, 3, "other", 0, &[1, 2], (0, 0));
        let cfg = ReplayConfig {
            max_outstanding_reads: 1,
            mem_latency: 3,
            ..ReplayConfig::default()
        };
        let out = replay(&s, &cfg).unwrap();
        assert!(out.attribution.get(CycleClass::MemPort) > 0);
        assert_eq!(out.port_reject_cycles, 0);
        assert_eq!(out.attribution.total(), out.cycles);
    }

    /// Store→load to the same address must respect memory ordering.
    #[test]
    fn store_load_conflict_orders_and_mem_latency_retimes() {
        let mut s = DepStream::new();
        access(&mut s, 1, OpKind::Store, 64, 0);
        access(&mut s, 2, OpKind::Load, 64, 0);
        alu(&mut s, 3, "other", 0, &[2], (0, 0));
        let latency = |mem_latency| ReplayConfig {
            mem_latency,
            ..ReplayConfig::default()
        };
        let lat1 = replay(&s, &latency(1)).unwrap();
        let lat4 = replay(&s, &latency(4)).unwrap();
        // Load cannot issue until the store commits: latency on the
        // serialized pair is paid twice.
        assert_eq!(lat4.cycles - lat1.cycles, 2 * 3);
        assert!(lat4.attribution.get(CycleClass::DmaWait) > 0);
    }

    /// Spans that end past `u64::MAX` still order against each other; the
    /// comparison must not overflow.
    #[test]
    fn spans_at_the_top_of_the_address_space_conflict_without_overflow() {
        let mut s = DepStream::new();
        access(&mut s, 1, OpKind::Store, u64::MAX - 3, 0);
        access(&mut s, 2, OpKind::Load, u64::MAX, 0);
        access(&mut s, 3, OpKind::Load, 0, 0);
        alu(&mut s, 4, "other", 0, &[1, 2, 3], (0, 0));
        let out = replay(&s, &ReplayConfig::default()).unwrap();
        let issue = |uid| {
            let retimed = out.retimed.as_ref().unwrap();
            retimed.ops().iter().find(|o| o.uid == uid).unwrap().issue
        };
        assert_eq!((issue(1), issue(3)), (0, 0));
        assert_eq!(issue(2), 1, "waits for the overlapping store to commit");
    }

    /// Block-import gating: group 1 cannot start before its terminator.
    #[test]
    fn group_import_waits_for_its_terminator() {
        let mut s = DepStream::new();
        alu(&mut s, 1, "int_adder", 5, &[], (0, 0));
        alu(&mut s, 2, "other", 0, &[1], (0, 0));
        alu(&mut s, 3, "int_adder", 1, &[], (1, 2));
        alu(&mut s, 4, "other", 0, &[3], (1, 2));
        let out = replay(&s, &adders(4)).unwrap();
        // c0: add1 issues (5 cycles); c1–c4 frozen (fast-forwarded);
        // c5: add1 commits, br issues+chains, group 1 imports inline,
        // add3 issues; c6: add3 commits, ret chains. Total 7.
        assert_eq!(out.cycles, 7);
        let retimed = out.retimed.expect("retimed is on by default");
        let issued: Vec<(u64, u64)> = retimed.ops().iter().map(|o| (o.uid, o.issue)).collect();
        assert!(issued.contains(&(3, 5)), "{issued:?}");
    }

    #[test]
    fn missing_metadata_is_rejected_loudly() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]); // legacy record(): no meta
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
        assert!(err.to_string().contains("metadata"), "{err}");
    }

    /// An address producer must be an earlier op — `addr_dep` used to index
    /// the commit table unchecked.
    #[test]
    fn addr_dep_outside_the_earlier_uids_is_a_bad_stream() {
        for addr_dep in [1, 99] {
            let mut s = DepStream::new();
            access(&mut s, 1, OpKind::Load, 64, addr_dep);
            let err = replay(&s, &ReplayConfig::default()).unwrap_err();
            assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
            assert!(err.to_string().contains("addr_dep"), "{err}");
        }
    }

    #[test]
    fn impossible_constraints_are_rejected_up_front() {
        let mut s = DepStream::new();
        // An FU class with no pool entry could never issue; replay refuses
        // before scheduling instead of deadlocking mid-run.
        alu(&mut s, 1, "fp_mul_dp", 4, &[], (0, 0));
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
        assert!(err.to_string().contains("fp_mul_dp"), "{err}");
    }

    #[test]
    fn retimed_stream_keeps_ops_and_attribution_totals_match() {
        let mut s = DepStream::new();
        alu(&mut s, 1, "int_adder", 1, &[], (0, 0));
        alu(&mut s, 2, "other", 0, &[1], (0, 0));
        let out = replay(&s, &adders(1)).unwrap();
        assert_eq!(out.retimed.as_ref().expect("on by default").len(), s.len());
        assert_eq!(out.attribution.total(), out.cycles);

        // Sweeps that only need cycles can skip building the stream.
        let lean_cfg = ReplayConfig {
            want_retimed: false,
            ..adders(1)
        };
        let lean = replay(&s, &lean_cfg).unwrap();
        assert_eq!(lean.cycles, out.cycles);
        assert!(lean.retimed.is_none());
    }
}
