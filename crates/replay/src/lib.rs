//! `salam-replay` — the trace-replay fast path.
//!
//! The runtime engine's dependence stream ([`salam_obs::DepStream`],
//! recorded under `record_depstream`) captures everything *dynamic* about a
//! run: which ops executed, their data dependences, which block import
//! produced them and which terminator triggered that import, and the
//! addresses memory ops touched. None of that changes when only *resource*
//! knobs change — FU counts, SPM port widths, SPM latency, outstanding-op
//! caps. So instead of re-simulating, this crate drives the engine's own
//! cycle model ([`salam_runtime::sched`]) with the recorded rows
//! (LightningSim's split of *trace* from *stall model*): the resource
//! checks, the memory ordering and the per-cycle attribution are the very
//! scheduler the engine ran under, so on replay-safe knob changes the
//! result is the schedule the engine *would* have produced, in a fraction
//! of the time. What this crate supplies is the recorded op source: the
//! prepared rows, group import, an SPM of counted ports and one fixed
//! latency in place of the memory port, retiming, and the driver loop that
//! fast-forwards frozen stretches of the schedule in one jump.
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

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use hw_profile::FuKind;
use salam_obs::{Attribution, DepStream, OpKind};
use salam_runtime::sched::{
    LaneMasks, Limits, MemIssue, OpSource, Sched, LOAD, MAX_DEPS, NO_LANE, N_FU, STORE,
};
use salam_runtime::EngineConfig;

/// Resource constraints to re-schedule the recorded stream under.
///
/// The window, the outstanding caps and FU pipelining default to
/// [`EngineConfig::default`]'s; the SPM to 1 cycle with 2R/2W ports.
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
        let engine = EngineConfig::default();
        ReplayConfig {
            reservation_entries: engine.reservation_entries,
            max_outstanding_reads: engine.max_outstanding_reads,
            max_outstanding_writes: engine.max_outstanding_writes,
            pipelined_fus: engine.pipelined_fus,
            mem_latency: 1,
            spm_read_ports: 2,
            spm_write_ports: 2,
            fu_pool: HashMap::new(),
            max_cycles: 1_000_000_000,
            want_retimed: true,
        }
    }
}

impl ReplayConfig {
    /// The knobs the cycle model reads; the SPM ports and latency stay
    /// with the recorded source, which stands in for the memory port.
    fn limits(&self) -> Limits {
        let mut fu_pool = [0; N_FU];
        for (&kind, &units) in &self.fu_pool {
            fu_pool[kind as usize] = units;
        }
        Limits {
            reservation_entries: self.reservation_entries,
            max_outstanding: [self.max_outstanding_reads, self.max_outstanding_writes],
            pipelined_fus: self.pipelined_fus,
            fu_pool,
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

/// One recorded op in the scheduler's working form, read-only during a run.
#[derive(Clone, Copy)]
enum ROp {
    Compute {
        latency: u32,
        /// `FuKind as u8`, or [`NO_LANE`].
        lane: u8,
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
    /// Which ops contend for which resource lane.
    lanes: LaneMasks,
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
        // Each interned class resolves once: its FU lane, and whether it
        // names a memory issue class.
        let classes: Vec<(u8, bool)> = stream
            .classes()
            .iter()
            .map(|c| {
                let lane = FuKind::from_name(c).map_or(NO_LANE, |k| k as u8);
                (lane, c == "load" || c == "store")
            })
            .collect();

        let mut ops = Vec::with_capacity(n);
        let mut groups: Vec<Group> = Vec::new();
        let mut dep_count = Vec::with_capacity(n);
        let mut cons_off = vec![0u32; n + 1];
        let mut fu_first_uid = [0u32; N_FU];
        let mut lanes = LaneMasks::default();
        let mut max_latency = 0;
        for (i, &p) in pos.iter().enumerate() {
            let op = &sops[p as usize];
            let (uid, m) = (op.uid, &op.meta);
            let (lane, mem_class) = classes
                .get(op.class as usize)
                .copied()
                .unwrap_or((NO_LANE, false));
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
            if op.deps.len() > MAX_DEPS as usize {
                return bad(format!("uid {uid} has {} dependences", op.deps.len()));
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

            lanes.set(
                i as u32,
                match m.kind {
                    OpKind::Compute => lane,
                    OpKind::Load => LOAD,
                    OpKind::Store => STORE,
                },
            );
            ops.push(match m.kind {
                OpKind::Compute => {
                    match fu_first_uid.get_mut(lane as usize) {
                        Some(first) if *first == 0 => *first = uid as u32,
                        _ => {}
                    }
                    if m.latency as u64 > MAX_LATENCY {
                        return bad(format!("latency {} of uid {uid} is absurd", m.latency));
                    }
                    max_latency = max_latency.max(m.latency);
                    ROp::Compute {
                        latency: m.latency,
                        lane,
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
            lanes,
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

/// Longest op or memory latency a stream or a config may ask for.
const MAX_LATENCY: u64 = 1 << 16;

/// The recorded op source behind the scheduler: the prepared rows, the
/// SPM model that stands in for the memory port (counted ports, one fixed
/// latency) and what the retimed stream needs.
struct Recorded<'a> {
    prep: &'a Prepared,
    cfg: &'a ReplayConfig,
    /// Accesses accepted this cycle: reads, then writes.
    ports_used: [u32; 2],
    next_group: usize,
    /// (issue, commit) per op; empty unless the retimed stream is wanted.
    times: Vec<(u64, u64)>,
}

impl OpSource for Recorded<'_> {
    type Error = Infallible;
    /// The SPM model needs nothing outside this source.
    type Port<'p> = ();

    fn lane(&self, i: u32) -> u8 {
        match self.prep.ops[i as usize] {
            ROp::Compute { lane, .. } => lane,
            ROp::Mem { store, .. } => LOAD + store as u8,
        }
    }

    fn lanes(&self) -> &LaneMasks {
        &self.prep.lanes
    }

    fn span(&self, i: u32) -> (u64, u32) {
        match self.prep.ops[i as usize] {
            ROp::Mem { addr, size, .. } => (addr, size),
            ROp::Compute { .. } => (0, 0),
        }
    }

    /// Every access is accepted with its latency; none completes on its own.
    fn next_completion(&mut self) -> Result<Option<u32>, Infallible> {
        Ok(None)
    }

    /// Groups import in order, each gated on its fetching terminator
    /// having issued.
    fn next_block(&self, sched: &Sched) -> Option<usize> {
        let g = self.prep.groups.get(self.next_group)?;
        (g.ctrl == 0 || sched.issued(g.ctrl - 1)).then_some(g.len as usize)
    }

    fn import_block(&mut self, sched: &mut Sched) -> Result<(), Infallible> {
        let g = &self.prep.groups[self.next_group];
        for op in &self.prep.ops[g.start as usize..(g.start + g.len) as usize] {
            match *op {
                ROp::Compute { lane, .. } => sched.admit(lane, 0, false),
                ROp::Mem {
                    store, addr_known, ..
                } => sched.admit(LOAD + store as u8, 0, addr_known),
            }
        }
        self.next_group += 1;
        Ok(())
    }

    fn fetch_done(&self) -> bool {
        self.next_group == self.prep.groups.len()
    }

    fn issue_compute(&mut self, i: u32, sched: &mut Sched) -> Result<(u32, bool), Infallible> {
        if let Some(t) = self.times.get_mut(i as usize) {
            t.0 = sched.cycle();
        }
        Ok(match self.prep.ops[i as usize] {
            ROp::Compute {
                latency,
                fetches_a_group,
                ..
            } => (latency, fetches_a_group),
            ROp::Mem { .. } => (0, false),
        })
    }

    /// The SPM takes an access while its side has a port left this cycle;
    /// once they are used up, every younger access of the side would be
    /// refused as well.
    fn issue_mem(&mut self, i: u32, sched: &mut Sched, _: &mut ()) -> Result<MemIssue, Infallible> {
        let side = (self.lane(i) - LOAD) as usize;
        if self.ports_used[side] == [self.cfg.spm_read_ports, self.cfg.spm_write_ports][side] {
            return Ok(MemIssue::Refused { saturates: true });
        }
        self.ports_used[side] += 1;
        if let Some(t) = self.times.get_mut(i as usize) {
            t.0 = sched.cycle();
        }
        Ok(MemIssue::Accepted(Some(self.cfg.mem_latency as u32)))
    }

    fn retire(&mut self, i: u32, cycle: u64, mut consumer: impl FnMut(u32, bool)) {
        if let Some(t) = self.times.get_mut(i as usize) {
            t.1 = cycle;
        }
        let prep = self.prep;
        let (from, to) = (prep.cons_off[i as usize], prep.cons_off[i as usize + 1]);
        for &c in &prep.cons_adj[from as usize..to as usize] {
            consumer(c & !ADDR_EDGE, c & ADDR_EDGE != 0);
        }
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
    let limits = cfg.limits();
    // An FU-classed op with a zero pool could never issue; refuse up
    // front instead of deadlocking mid-replay.
    for k in FuKind::ALL {
        let uid = prep.fu_first_uid[k as usize];
        if uid != 0 && limits.fu_pool[k as usize] == 0 {
            return Err(ReplayError::BadStream(format!(
                "op uid {uid} needs FU kind {} but the config allocates none",
                k.name()
            )));
        }
    }
    let retime_src = retime_src.filter(|_| cfg.want_retimed);
    let n = prep.ops.len();
    let mut src = Recorded {
        prep,
        cfg,
        ports_used: [0; 2],
        next_group: 0,
        times: vec![(0, 0); if retime_src.is_some() { n } else { 0 }],
    };
    let max_latency = cfg.mem_latency.max(prep.max_latency as u64) as u32;
    let mut sched = Sched::with_ops(limits, max_latency, &prep.dep_count);
    loop {
        if sched.cycle() > cfg.max_cycles {
            return Err(ReplayError::CycleLimit {
                limit: cfg.max_cycles,
            });
        }
        src.ports_used = [0; 2];
        let Ok(cycle) = sched.step(&mut src, &mut ());
        if cycle.done {
            break;
        }
        // Fast-forward: with nothing issued and nothing imported this
        // cycle, the whole scheduler state is frozen until the next
        // commit — every intervening cycle charges the same class, so
        // jump there in one step.
        if !cycle.flags.issued() && !cycle.imported {
            let Some(event) = sched.next_commit_cycle() else {
                return Err(ReplayError::Deadlock {
                    cycle: sched.cycle(),
                    committed: (0..n as u32).filter(|&i| sched.committed(i)).count(),
                    total: n,
                });
            };
            sched.fast_forward(&cycle, event);
        }
    }

    let counters = sched.counters();
    // Retimed stream: identical ops/deps/metadata, replayed issue/commit,
    // appended in commit order (uid-stable within a cycle) so critical-path
    // analysis works on replayed points just like on simulated ones.
    let retimed = retime_src.map(|stream| {
        let times = &src.times;
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
    Ok(ReplayOutcome {
        cycles: sched.cycle(),
        attribution: counters.attribution,
        fu_busy_cycle_sum: FuKind::ALL
            .into_iter()
            .zip(sched.fu_busy_integral())
            .filter(|&(_, busy)| busy > 0)
            .collect(),
        stall_cycles: counters.stall_cycles,
        new_exec_cycles: counters.new_exec_cycles,
        port_reject_cycles: counters.port_reject_cycles,
        retimed,
    })
}
