//! The cycle model: one reservation-queue scheduler, driven by an op source.
//!
//! [`Sched`] owns everything that decides *when* a dynamic op issues and
//! commits — the ready set, the commit wheel, the functional-unit pools,
//! the two memory sides with their ordering window, the reservation
//! window's occupancy and import gate, and the per-cycle attribution — and
//! runs the phase sequence retire → import → publish → issue → account.
//! It knows nothing about *what* an op is: an [`OpSource`] answers which
//! lane, span and consumers op `i` has, what happens when it issues and
//! which memory ops completed. The runtime engine drives it with live
//! values and block imports, `salam-replay` with the rows of a recorded
//! dependence stream, so the two cannot disagree about ordering,
//! attribution or FU timing. DESIGN.md §5.1 has the structure table, the
//! walk-order invariant and the quirks that are behaviour.

use std::collections::VecDeque;

use hw_profile::FuKind;
use salam_obs::{Attribution, CycleClass};

use crate::port::RefusalScope;
use crate::stats::StallMix;

/// Functional-unit kinds, each a resource lane of its own.
pub const N_FU: usize = FuKind::ALL.len();
/// Resource lanes: one per FU kind, then the load and the store side of
/// the memory interface.
pub const N_LANES: usize = N_FU + 2;
/// Lane of a load.
pub const LOAD: u8 = N_FU as u8;
/// Lane of a store.
pub const STORE: u8 = LOAD + 1;
/// Lane of an op that contends for no resource (wiring, control, phis).
pub const NO_LANE: u8 = N_LANES as u8;

const FU_LANES: u32 = (1 << N_FU) - 1;

// The small non-generic helpers below are `#[inline]` because the generic
// phases that call them are instantiated in `salam-replay`, which could not
// inline them across the crate boundary otherwise. The phases themselves
// are `#[inline(always)]`: each has one call site per driver, and fused
// into one loop the cycle keeps its state in registers (measured: up to
// 10 % on the nine kernels, engine and replay).

/// Most dependences one op can wait for.
pub const MAX_DEPS: u32 = (1 << 24) - 1;

// Per-op state bits.
const COMMITTED: u8 = 1;
const ISSUED: u8 = 1 << 1;
/// Memory ops: the address producer has committed (or there is none).
const ADDR_READY: u8 = 1 << 2;
/// Memory ops: the span is visible in the ordering window.
const PUBLISHED: u8 = 1 << 3;
/// Memory ops: an order-blocked access waits for this one to publish or
/// commit.
const WAITED_ON: u8 = 1 << 4;
/// Memory ops: proven ordered against every older access. Final: the older
/// accesses only leave the window or publish write-once spans, so a passed
/// check can never regress.
const ORDERED: u8 = 1 << 5;

/// The memory side (0 = loads, 1 = stores) of a lane.
#[inline]
fn mem_side(lane: u8) -> Option<usize> {
    let side = lane.wrapping_sub(LOAD) as usize;
    (side < 2).then_some(side)
}

/// The resource limits a schedule runs under — what an `EngineConfig` or a
/// `ReplayConfig` lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Reservation-window capacity in dynamic instructions.
    pub reservation_entries: usize,
    /// Outstanding-access caps: reads, then writes.
    pub max_outstanding: [usize; 2],
    /// Units release one cycle after issue instead of at commit.
    pub pipelined_fus: bool,
    /// Units per FU kind; an op of a kind with none never issues.
    pub fu_pool: [u32; N_FU],
}

/// Per 64-op word of the ready set and per lane ([`NO_LANE`] included):
/// which ops of the word are on the lane. Grows as ops are set, so a source
/// can build it ahead of a run or one import at a time.
#[derive(Debug, Clone, Default)]
pub struct LaneMasks(Vec<[u64; N_LANES + 1]>);

impl LaneMasks {
    /// Puts op `i` on `lane`.
    pub fn set(&mut self, i: u32, lane: u8) {
        let word = i as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, [0; N_LANES + 1]);
        }
        self.0[word][lane as usize] |= 1 << (i % 64);
    }

    /// The ops of `word` that are on one of `lanes` (a bit per lane).
    #[inline]
    fn on(&self, word: usize, mut lanes: u32) -> u64 {
        let by_lane = &self.0[word];
        let mut ops = 0;
        while lanes != 0 {
            ops |= by_lane[lanes.trailing_zeros() as usize];
            lanes &= lanes - 1;
        }
        ops
    }

    /// Those of `lanes` that one of `ops`, a set of ops of `word`, is on.
    #[inline]
    fn of(&self, word: usize, ops: u64, mut lanes: u32) -> u32 {
        let by_lane = &self.0[word];
        let mut found = 0;
        while lanes != 0 {
            let lane = lanes.trailing_zeros();
            found |= ((ops & by_lane[lane as usize] != 0) as u32) << lane;
            lanes &= lanes - 1;
        }
        found
    }
}

/// What a memory op's issue attempt came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssue {
    /// The port took the access. With a latency the core commits it that
    /// many cycles from now; without, the source reports the completion
    /// through [`OpSource::next_completion`].
    Accepted(Option<u32>),
    /// The port refused it this cycle, and would refuse every access of
    /// the side the scope covers until the cycle ends. For the rest of the
    /// pass the core does not offer again an op that has met the port
    /// before and that the scope covers: it counts the retry and hands the
    /// count to [`OpSource::refused`].
    Refused(RefusalScope),
}

/// Where the ops of a schedule come from. Ops are numbered densely in
/// import order (the age order of the reservation queue); every method
/// takes such an index.
pub trait OpSource {
    /// What a hook can fail with (a live kernel can fault; a validated
    /// recording cannot).
    type Error;

    /// What the source's memory ops issue to. The scheduler only hands it
    /// from [`Sched::step`] to [`OpSource::issue_mem`].
    type Port<'p>: ?Sized;

    /// The resource lane op `i` was admitted on.
    fn lane(&self, i: u32) -> u8;

    /// The lane masks of every op admitted so far.
    fn lanes(&self) -> &LaneMasks;

    /// Works out the byte span of memory op `i` (a live address is a
    /// value, and can turn out not to be a pointer). Asked once the op's
    /// address producer has committed, before the first [`OpSource::span`].
    fn resolve_span(&mut self, _i: u32) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Byte address and size of memory op `i`, resolved.
    fn span(&self, i: u32) -> (u64, u32);

    /// The next memory op that completed this cycle among those accepted
    /// without a latency, `None` once there are no more.
    fn next_completion(&mut self) -> Result<Option<u32>, Self::Error>;

    /// Size of the next block to import, `None` while there is none (or
    /// the terminator that fetches it has not issued).
    fn next_block(&self, sched: &Sched) -> Option<usize>;

    /// Imports that block: one [`Sched::admit`] per op, in order.
    fn import_block(&mut self, sched: &mut Sched) -> Result<(), Self::Error>;

    /// No block will ever be imported again.
    fn fetch_done(&self) -> bool;

    /// Compute op `i` issues now. Returns its latency (0 commits within
    /// the cycle) and whether its issue may have fetched a block, which
    /// the core then imports inline so the block can start this cycle.
    fn issue_compute(&mut self, i: u32, sched: &mut Sched) -> Result<(u32, bool), Self::Error>;

    /// Memory op `i` is ready, ordered and under its outstanding cap:
    /// offers it to the port.
    fn issue_mem(
        &mut self,
        i: u32,
        sched: &mut Sched,
        port: &mut Self::Port<'_>,
    ) -> Result<MemIssue, Self::Error>;

    /// `n` more ops of memory side `side` (0 = loads, 1 = stores) were
    /// refused this pass without an offer: each has met the port before,
    /// and the scope of a refusal earlier in the pass covers it. These are
    /// exactly the attempts a one-offer-per-op walk would have made and
    /// seen refused, with that refusal's cause.
    fn refused(&mut self, _side: usize, _n: u32) {}

    /// Op `i` commits at `cycle`: calls `consumer(c, address_edge)` for
    /// every op `c` that waited for it — once per data dependence
    /// (`false`) and once more if `i` produces `c`'s address (`true`).
    fn retire(&mut self, i: u32, cycle: u64, consumer: impl FnMut(u32, bool));

    /// The cycle has been charged; last call before the clock advances.
    fn end_cycle(&mut self, _sched: &Sched, _cycle: &Cycle) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Issued ops waiting for their commit cycle, bucketed by it: each ring
/// slot heads a list threaded through `next`, appended at the tail so the
/// ops of one commit cycle come out in issue order — the order depstream
/// rows, trace events and the register-write energy sum depend on. A
/// latency the ring cannot span (fault-injected jitter) waits in `late`
/// and moves into its slot once the ring reaches it.
#[derive(Debug)]
struct Wheel {
    /// Per slot: 1 + the index of the list's first / last op, 0 when empty.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per op: the rest of its slot's list, in the encoding of `heads`.
    next: Vec<u32>,
    late: Vec<(u64, u32)>,
}

/// Longest latency the ring is sized for; anything longer goes through
/// `late`, so an absurd latency costs a list entry, not memory.
const MAX_RING: u32 = 1 << 16;

impl Wheel {
    fn new(max_latency: u32, ops: usize) -> Self {
        let len = (max_latency.min(MAX_RING) as usize + 1).next_power_of_two();
        Wheel {
            heads: vec![0; len],
            tails: vec![0; len],
            next: vec![0; ops],
            late: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, cycle: u64) -> usize {
        (cycle & (self.heads.len() as u64 - 1)) as usize
    }

    /// Schedules op `i` to commit at `at`, a cycle after `now`.
    #[inline]
    fn push(&mut self, now: u64, at: u64, i: u32) {
        if at - now >= self.heads.len() as u64 {
            self.late.push((at, i));
            return;
        }
        let s = self.slot(at);
        self.next[i as usize] = 0;
        match std::mem::replace(&mut self.tails[s], i + 1) {
            0 => self.heads[s] = i + 1,
            tail => self.next[tail as usize - 1] = i + 1,
        }
    }

    /// Detaches the list of the ops due at `cycle`; walk it with
    /// [`Wheel::pop`]. Late entries enter the ring here, at the top of the
    /// first cycle that has them in reach — before anything issued later
    /// can be appended to their slot, which keeps issue order.
    #[inline]
    fn take_due(&mut self, cycle: u64) -> u32 {
        let mut k = 0;
        while k < self.late.len() {
            let (at, i) = self.late[k];
            if at - cycle < self.heads.len() as u64 {
                self.late.remove(k);
                self.push(cycle, at, i);
            } else {
                k += 1;
            }
        }
        let s = self.slot(cycle);
        self.tails[s] = 0;
        std::mem::take(&mut self.heads[s])
    }

    /// The first op of a detached list and the rest of the list.
    #[inline]
    fn pop(&self, list: u32) -> Option<(u32, u32)> {
        let i = list.checked_sub(1)?;
        Some((i, self.next[i as usize]))
    }

    /// The earliest pending commit at or after `from`: every ring entry is
    /// due within one lap, so the first nonempty slot names its cycle.
    fn next_event(&self, from: u64) -> Option<u64> {
        let ring = (from..from + self.heads.len() as u64).find(|&c| self.heads[self.slot(c)] != 0);
        ring.into_iter()
            .chain(self.late.iter().map(|&(at, _)| at))
            .min()
    }
}

/// Whether `[a, a + a_size)` and `[b, b + b_size)` overlap; an end past
/// `u64::MAX` lies beyond every address.
#[inline]
fn overlaps(a: u64, a_size: u32, b: u64, b_size: u32) -> bool {
    let before_end =
        |x: u64, start: u64, size: u32| start.checked_add(size as u64).is_none_or(|end| x < end);
    before_end(b, a, a_size) && before_end(a, b, b_size)
}

/// What one issue pass saw: feeds the cycle's stall and attribution
/// accounting. (One byte of bits, written and read as a byte: the pass sets
/// them one at a time and the accounting reads them all right after.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueFlags(u8);

impl IssueFlags {
    const ISSUED: u8 = 1;
    /// A dependence-free load (store, compute op) could not launch. For a
    /// compute op that means it waits for a unit of a saturated FU kind,
    /// the FU-limit attribution cause.
    const LOAD_BLOCKED: u8 = 1 << 1;
    const STORE_BLOCKED: u8 = 1 << 2;
    const COMPUTE_BLOCKED: u8 = 1 << 3;
    const PORT_REJECTED: u8 = 1 << 4;
    /// Attribution cause: a ready memory op hit an outstanding cap or a
    /// port refusal.
    const MEM_LIMIT_BLOCKED: u8 = 1 << 5;

    fn has(self, bits: u8) -> bool {
        self.0 & bits != 0
    }

    /// At least one op issued.
    pub fn issued(self) -> bool {
        self.has(Self::ISSUED)
    }

    /// A dependence-free op could not launch — the paper's notion of a
    /// stall.
    pub fn stalled(self) -> bool {
        self.has(Self::LOAD_BLOCKED | Self::STORE_BLOCKED | Self::COMPUTE_BLOCKED)
    }

    /// The kinds of dependence-free ops that could not launch.
    pub fn blocked(self) -> StallMix {
        StallMix {
            load: self.has(Self::LOAD_BLOCKED),
            store: self.has(Self::STORE_BLOCKED),
            compute: self.has(Self::COMPUTE_BLOCKED),
        }
    }

    /// A port refused a ready, ordered, under-cap memory op.
    pub fn port_rejected(self) -> bool {
        self.has(Self::PORT_REJECTED)
    }

    fn set(&mut self, bits: u8, on: bool) {
        self.0 |= bits * on as u8;
    }
}

/// One scheduled cycle, as [`Sched::step`] charged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cycle {
    /// The one class the cycle was attributed to.
    pub class: CycleClass,
    /// What the issue pass saw.
    pub flags: IssueFlags,
    /// An op committed.
    pub retired: bool,
    /// A block entered the window (at the top of the cycle or behind a
    /// terminator).
    pub imported: bool,
    /// The schedule has fully drained.
    pub done: bool,
}

/// The per-cycle counters of a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Every cycle charged to exactly one class.
    pub attribution: Attribution,
    /// Cycles where a dependence-free op could not launch (Fig. 14).
    pub stall_cycles: u64,
    /// Unstalled cycles with at least one issue.
    pub new_exec_cycles: u64,
    /// Cycles with at least one port refusal.
    pub port_reject_cycles: u64,
}

/// One word of the ready set.
#[derive(Debug, Clone, Copy, Default)]
struct ReadyWord {
    /// One bit per op: imported, dependence-free, unissued.
    ops: u64,
    /// The lanes those ops are on (a bit per lane). A word with none on an
    /// unsaturated lane — ops parked on busy FU kinds — costs a pass one
    /// test instead of a walk.
    lanes: u32,
}

/// The scheduler state of one run. See the [module docs](self).
#[derive(Debug)]
pub struct Sched {
    limits: Limits,
    cycle: u64,
    /// One state byte per op.
    state: Vec<u8>,
    /// Per op: its unmet dependences (the low 24 bits; the op enters the
    /// ready set when they reach zero) and, from admission on, its lane (the
    /// high 8) — one word, because whoever meets the last dependence needs
    /// the lane next.
    pending: Vec<u32>,
    /// The ready set, 64 ops a word. A pass walks the set bits upwards from
    /// word `ready_lo` (no set bit lies in a word below it).
    ready: Vec<ReadyWord>,
    ready_lo: usize,
    /// Beside each word: one bit per memory op that has met the port (and
    /// been refused) — ordered, its span resolved, nothing but the port
    /// between it and issue. Never cleared; read only for ready ops, and
    /// only under a refusal scope.
    met: Vec<u64>,
    /// Lanes no op can issue on for the rest of this pass: FU kinds with
    /// every unit busy (units release only between passes) and memory
    /// sides that met their cap. The walk masks their ops out of the ready
    /// set instead of visiting them; an op left ready under a saturated FU
    /// lane *is* the "ready op blocked on an FU". Every ordered memory op
    /// behind the one that saturated its side would meet the same limit
    /// and raise the same flags.
    saturated: u32,
    /// Per memory side: the scope of the port's last wider-than-`Access`
    /// refusal this pass. The walk masks the side's met ops the scope
    /// covers out of the ready set and counts them as it passes them.
    scope: [RefusalScope; 2],
    /// The memory lanes whose side holds a scope.
    scoped: u32,
    /// The op a pass is visiting (0 between passes). A wake behind it — a
    /// consumer older than its producer, which live import never creates —
    /// has the pass walk again.
    cursor: u32,
    woken_behind: bool,
    /// Ops `0..imported` have entered the reservation window.
    imported: u32,
    /// Imported, not yet issued ops (the window's occupancy).
    resv_count: usize,
    /// Accesses in flight, against the outstanding caps: loads, then stores.
    outstanding: [usize; 2],
    /// The ordering window per side: imported accesses in age order;
    /// committed ones leave from the front and are skipped elsewhere.
    window: [VecDeque<u32>; 2],
    fu_busy: [u32; N_FU],
    /// Busy-unit cycle integral per kind as Σ release − Σ issue cycles
    /// (wrapping) over the units taken so far; see
    /// [`Sched::fu_busy_integral`].
    busy_sum: [u64; N_FU],
    /// Pipelined FUs: kinds issued last cycle, released at the next one.
    pipelined_release: Vec<u8>,
    wheel: Wheel,
    /// Compute ops on the wheel.
    compute_inflight: usize,
    /// Memory ops whose address resolved since the last publish phase.
    to_publish: Vec<u32>,
    /// Order-blocked memory ops are taken out of the ready set until the
    /// access that blocks them publishes or commits — nothing else can
    /// change the outcome of their check. Per op, 1 + the first of the ops
    /// that wait for it; the list is threaded through the wheel's `next`
    /// (an unissued op is not on the wheel).
    waiters: Vec<u32>,
    /// How many wait there, loads then stores: each is a dependence-free op
    /// that cannot launch, so its side counts as blocked every cycle.
    order_parked: [usize; 2],
    counters: Counters,
}

impl Sched {
    /// A schedule over the ops known up front (more can arrive a
    /// [`Sched::grow`] at a time), `deps[i]` the number of dependences of op
    /// `i`. None has entered the window yet. `max_latency` sizes the commit
    /// wheel; longer latencies still commit on their cycle.
    pub fn with_ops(limits: Limits, max_latency: u32, deps: &[u32]) -> Self {
        let n = deps.len();
        let mut saturated = 0;
        for (kind, &units) in limits.fu_pool.iter().enumerate() {
            saturated |= ((units == 0) as u32) << kind;
        }
        Sched {
            limits,
            cycle: 0,
            state: vec![0; n],
            pending: deps.to_vec(),
            ready: vec![ReadyWord::default(); n.div_ceil(64)],
            ready_lo: usize::MAX,
            met: vec![0; n.div_ceil(64)],
            saturated,
            scope: [RefusalScope::Access; 2],
            scoped: 0,
            cursor: 0,
            woken_behind: false,
            imported: 0,
            resv_count: 0,
            outstanding: [0; 2],
            window: Default::default(),
            fu_busy: [0; N_FU],
            busy_sum: [0; N_FU],
            pipelined_release: Vec::new(),
            wheel: Wheel::new(max_latency, n),
            compute_inflight: 0,
            to_publish: Vec::new(),
            waiters: vec![0; n],
            order_parked: [0; 2],
            counters: Counters::default(),
        }
    }

    /// Makes room for `n` more ops to be admitted (a chunk at a time, so
    /// that importing a small block rarely touches the allocations).
    pub fn grow(&mut self, n: usize) {
        let needed = self.imported as usize + n;
        if needed <= self.state.len() {
            return;
        }
        let ops = needed.next_multiple_of(1024);
        self.state.resize(ops, 0);
        self.waiters.resize(ops, 0);
        self.pending.resize(ops, 0);
        self.wheel.next.resize(ops, 0);
        self.ready.resize(ops.div_ceil(64), ReadyWord::default());
        self.met.resize(ops.div_ceil(64), 0);
    }

    /// The next op has already issued and committed (a live source's "no
    /// producer" placeholder).
    pub fn grow_retired(&mut self) {
        self.grow(1);
        self.state[self.imported as usize] = COMMITTED | ISSUED;
        self.imported += 1;
    }

    /// The next op enters the reservation window, on `lane`, waiting for
    /// `deps` dependences on top of those the schedule was created with.
    /// `addr_ready`: a memory op whose address has no producer left to
    /// wait for.
    #[inline]
    pub fn admit(&mut self, lane: u8, deps: u32, addr_ready: bool) {
        let i = self.imported;
        self.imported += 1;
        self.resv_count += 1;
        debug_assert!(deps <= MAX_DEPS);
        let pending = &mut self.pending[i as usize];
        *pending += (lane as u32) << 24 | deps;
        let waits = *pending & MAX_DEPS != 0;
        if let Some(side) = mem_side(lane) {
            self.window[side].push_back(i);
            let state = &mut self.state[i as usize];
            if addr_ready || *state & ADDR_READY != 0 {
                *state |= ADDR_READY;
                self.to_publish.push(i);
            }
        }
        if !waits {
            self.wake(i, lane);
        }
    }

    /// One dependence of op `i` is met (a producer committed, or a hazard
    /// the source tracks cleared).
    #[inline]
    pub fn dep_met(&mut self, i: u32) {
        let pending = &mut self.pending[i as usize];
        *pending -= 1;
        if *pending & MAX_DEPS == 0 && i < self.imported {
            let lane = (*pending >> 24) as u8;
            self.wake(i, lane);
        }
    }

    /// Enters an imported, dependence-free op into the ready set.
    #[inline]
    fn wake(&mut self, i: u32, lane: u8) {
        let word = i as usize / 64;
        let ready = &mut self.ready[word];
        ready.ops |= 1 << (i % 64);
        ready.lanes |= 1 << lane;
        self.ready_lo = self.ready_lo.min(word);
        self.woken_behind |= i < self.cursor;
    }

    /// The cycle being (or about to be) scheduled.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether op `i` has committed.
    pub fn committed(&self, i: u32) -> bool {
        self.state[i as usize] & COMMITTED != 0
    }

    /// Whether op `i` has issued.
    #[inline]
    pub fn issued(&self, i: u32) -> bool {
        self.state[i as usize] & ISSUED != 0
    }

    /// Imported, not yet issued ops.
    pub fn resv_count(&self) -> usize {
        self.resv_count
    }

    /// Issued compute ops that have not committed.
    pub fn compute_inflight(&self) -> usize {
        self.compute_inflight
    }

    /// Accesses in flight: reads, then writes.
    pub fn outstanding(&self) -> [usize; 2] {
        self.outstanding
    }

    /// Busy units per FU kind.
    pub fn fu_busy(&self) -> &[u32; N_FU] {
        &self.fu_busy
    }

    /// The per-cycle counters so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Busy-unit cycle integral per kind: what summing [`Sched::fu_busy`]
    /// after every charged cycle would give, without touching a counter
    /// per cycle (or per skipped cycle). A unit taken at cycle `t` and
    /// released at `r` was busy in the cycles `t..r`; one still held has
    /// been busy since `t` in every cycle charged so far.
    pub fn fu_busy_integral(&self) -> [u64; N_FU] {
        let charged = self.counters.attribution.total();
        std::array::from_fn(|k| self.busy_sum[k].wrapping_add(self.fu_busy[k] as u64 * charged))
    }

    #[inline]
    fn fu_take(&mut self, kind: u8) {
        let k = kind as usize;
        self.fu_busy[k] += 1;
        self.busy_sum[k] = self.busy_sum[k].wrapping_sub(self.cycle);
        if self.fu_busy[k] >= self.limits.fu_pool[k] {
            self.saturated |= 1 << kind;
        }
    }

    #[inline]
    fn fu_release(&mut self, kind: u8) {
        let k = kind as usize;
        self.fu_busy[k] -= 1;
        self.busy_sum[k] = self.busy_sum[k].wrapping_add(self.cycle);
        self.saturated &= !(1 << kind);
    }

    /// Schedules one cycle: retire → import → publish → issue → account.
    ///
    /// # Errors
    ///
    /// Whatever a source hook fails with; the schedule is wedged after.
    #[inline]
    pub fn step<S: OpSource>(
        &mut self,
        src: &mut S,
        port: &mut S::Port<'_>,
    ) -> Result<Cycle, S::Error> {
        let retired = self.retire_due(src)?;
        let mut imported = self.import(src)?;
        self.publish(src)?;
        let mut flags = IssueFlags::default();
        self.issue_ready(src, port, &mut flags, &mut imported)?;
        self.account(src, flags, retired, imported)
    }

    /// Marks op `i` committed: retires one dependence of each consumer
    /// (waking those left with none) and resolves the address of the
    /// memory ops it feeds.
    #[inline(always)]
    fn commit<S: OpSource>(&mut self, i: u32, src: &mut S) {
        let state = &mut self.state[i as usize];
        *state |= COMMITTED;
        if *state & WAITED_ON != 0 {
            self.release_waiters(i, src);
        }
        src.retire(i, self.cycle, |c, address_edge| {
            if address_edge {
                self.state[c as usize] |= ADDR_READY;
                if c < self.imported {
                    self.to_publish.push(c);
                }
            } else {
                self.dep_met(c);
            }
        });
    }

    /// An in-flight op leaves its queue and commits.
    #[inline(always)]
    fn retire<S: OpSource>(&mut self, i: u32, src: &mut S) {
        let lane = src.lane(i);
        let side = mem_side(lane);
        match side {
            Some(side) => self.outstanding[side] -= 1,
            None => {
                self.compute_inflight -= 1;
                if (lane as usize) < N_FU && !self.limits.pipelined_fus {
                    self.fu_release(lane);
                }
            }
        }
        self.commit(i, src);
        if let Some(side) = side {
            let window = &mut self.window[side];
            while window
                .front()
                .is_some_and(|&f| self.state[f as usize] & COMMITTED != 0)
            {
                window.pop_front();
            }
        }
    }

    /// Phase 1: FU releases (one cycle after issue when pipelined, at
    /// commit otherwise), memory completions (the asynchronous memory
    /// queues of the paper), then the wheel's ops for this cycle.
    #[inline(always)]
    fn retire_due<S: OpSource>(&mut self, src: &mut S) -> Result<bool, S::Error> {
        for k in 0..self.pipelined_release.len() {
            self.fu_release(self.pipelined_release[k]);
        }
        self.pipelined_release.clear();
        let mut any = false;
        while let Some(i) = src.next_completion()? {
            self.retire(i, src);
            any = true;
        }
        let mut due = self.wheel.take_due(self.cycle);
        while let Some((i, rest)) = self.wheel.pop(due) {
            due = rest;
            self.retire(i, src);
            any = true;
        }
        Ok(any)
    }

    /// Phase 2 (and inline behind a terminator): imports blocks while the
    /// window has room. A block larger than the whole window is admitted
    /// into an empty one (blocks cannot be split).
    #[inline(always)]
    fn import<S: OpSource>(&mut self, src: &mut S) -> Result<bool, S::Error> {
        let mut any = false;
        while let Some(len) = src.next_block(self) {
            let room = self
                .limits
                .reservation_entries
                .saturating_sub(self.resv_count);
            if len > room && self.resv_count > 0 {
                break;
            }
            src.import_block(self)?;
            any = true;
        }
        Ok(any)
    }

    /// Phase 3: spans become visible in the ordering window at the first
    /// top-of-cycle after their address resolved, independent of data
    /// readiness — a store whose value is still in flight must not hide
    /// its (known) address from younger loads. An op that issued in the
    /// cycle its address resolved never publishes: it orders younger
    /// conflicting accesses as "unknown address" until it commits.
    #[inline(always)]
    fn publish<S: OpSource>(&mut self, src: &mut S) -> Result<(), S::Error> {
        for k in 0..self.to_publish.len() {
            let i = self.to_publish[k];
            if self.state[i as usize] & (ISSUED | PUBLISHED) == 0 {
                src.resolve_span(i)?;
                self.state[i as usize] |= PUBLISHED;
                if self.state[i as usize] & WAITED_ON != 0 {
                    self.release_waiters(i, src);
                }
            }
        }
        self.to_publish.clear();
        Ok(())
    }

    /// Phase 4: offers every ready op to the datapath, oldest first. Ops
    /// woken mid-pass (zero-latency chaining, a block imported behind a
    /// terminator, a hazard cleared by an issue) carry a higher index than
    /// the op that woke them, so the walk reaches them in this same pass.
    #[inline(always)]
    fn issue_ready<S: OpSource>(
        &mut self,
        src: &mut S,
        port: &mut S::Port<'_>,
        flags: &mut IssueFlags,
        imported: &mut bool,
    ) -> Result<(), S::Error> {
        let word = std::mem::replace(&mut self.ready_lo, usize::MAX);
        self.walk::<S, false>((word, !0, usize::MAX), src, port, flags, imported)?;
        self.saturated &= FU_LANES;
        if self.scoped != 0 {
            (self.scope, self.scoped) = ([RefusalScope::Access; 2], 0);
        }
        flags.set(IssueFlags::LOAD_BLOCKED, self.order_parked[0] > 0);
        flags.set(IssueFlags::STORE_BLOCKED, self.order_parked[1] > 0);
        Ok(())
    }

    /// The rest of a pass, from the ops of `word` it has not passed
    /// (`unvisited`) on (`lowest_left`: the lowest word the walk so far
    /// left ops in). Each word's ready ops are visited lowest first, the
    /// word re-read after every visit; the ops on saturated lanes are
    /// masked out. `SCOPED`: so are the met ops a refusal scope covers,
    /// each counted as the walk passes it. The plain walk hands the rest
    /// of the pass to the scoped one when it meets a word whose unvisited
    /// ops include met ops of a side with a scope (ops meet the port only
    /// at a visit, behind the walk), so a pass without refusals pays
    /// nothing for scopes.
    #[inline(always)]
    fn walk<S: OpSource, const SCOPED: bool>(
        &mut self,
        (mut word, mut unvisited, mut lowest_left): (usize, u64, usize),
        src: &mut S,
        port: &mut S::Port<'_>,
        flags: &mut IssueFlags,
        imported: &mut bool,
    ) -> Result<(), S::Error> {
        loop {
            while word < (self.imported as usize).div_ceil(64) {
                if self.ready[word].lanes & !self.saturated != 0 {
                    // The masks, recomputed when a lane saturates, a scope
                    // changes, an op of such a lane wakes, or an inline
                    // import adds ops to the word.
                    let (mut masked_for, mut masked, mut counted) = ((0, 0), 0, [0; 2]);
                    loop {
                        let ReadyWord { ops, lanes } = self.ready[word];
                        let starved = self.saturated & lanes;
                        if masked_for != (starved, self.imported) {
                            masked_for = (starved, self.imported);
                            if !SCOPED
                                && self.scoped & lanes != 0
                                && ops
                                    & unvisited
                                    & self.met[word]
                                    & src.lanes().on(word, self.scoped)
                                    != 0
                            {
                                let rest = (word, unvisited, lowest_left);
                                return self.walk_scoped(rest, src, port, flags, imported);
                            }
                            if SCOPED {
                                counted = self.covered(word, ops & self.met[word], src);
                            }
                            masked = src.lanes().on(word, starved) | counted[0] | counted[1];
                        }
                        let bits = ops & unvisited & !masked;
                        if SCOPED {
                            // The counted ops the walk passes on its way to
                            // the next visit (all that are left, if none).
                            let passing = ops & unvisited & bits.wrapping_sub(1) & !bits;
                            let passed = counted.map(|side| side & passing);
                            if passed != [0; 2] {
                                unvisited &= !(passed[0] | passed[1]);
                                if self.count_refused(passed, src, flags) {
                                    continue; // a side met its cap: re-mask
                                }
                            }
                        }
                        if bits == 0 {
                            break;
                        }
                        let bit = bits.trailing_zeros();
                        unvisited = (!1u64) << bit;
                        self.cursor = (word * 64) as u32 + bit;
                        if self.offer(self.cursor, src, port, flags, imported)? {
                            masked_for = (0, 0); // a new scope: re-mask
                        }
                    }
                    let ReadyWord { ops: left, lanes } = self.ready[word];
                    self.ready[word].lanes = match left {
                        0 => 0,
                        _ => src.lanes().of(word, left, lanes),
                    };
                }
                let waiting = self.ready[word].lanes;
                if waiting != 0 {
                    lowest_left = lowest_left.min(word);
                    let starved = waiting & self.saturated & FU_LANES != 0;
                    flags.set(IssueFlags::COMPUTE_BLOCKED, starved);
                }
                word += 1;
                unvisited = !0;
            }
            self.cursor = 0;
            self.ready_lo = self.ready_lo.min(lowest_left);
            if !std::mem::take(&mut self.woken_behind) {
                return Ok(());
            }
            word = std::mem::replace(&mut self.ready_lo, usize::MAX);
            lowest_left = usize::MAX;
        }
    }

    /// [`Sched::walk`] under a refusal scope, out of the plain walk's way:
    /// the rest of the pass from `(word, unvisited, lowest_left)`.
    #[inline(never)]
    fn walk_scoped<S: OpSource>(
        &mut self,
        rest: (usize, u64, usize),
        src: &mut S,
        port: &mut S::Port<'_>,
        flags: &mut IssueFlags,
        imported: &mut bool,
    ) -> Result<(), S::Error> {
        self.walk::<S, true>(rest, src, port, flags, imported)
    }

    /// Offers one ready op of an unsaturated lane to the datapath. Returns
    /// whether a refusal declared a new scope, so the walk re-masks.
    #[inline(always)]
    fn offer<S: OpSource>(
        &mut self,
        i: u32,
        src: &mut S,
        port: &mut S::Port<'_>,
        flags: &mut IssueFlags,
        imported: &mut bool,
    ) -> Result<bool, S::Error> {
        let lane = src.lane(i);
        let Some(side) = mem_side(lane) else {
            let (latency, fetches) = src.issue_compute(i, self)?;
            self.leave_window(i, flags);
            // "Terminators trigger the reservation queue to load the next
            // basic block immediately after evaluation": only they re-check
            // the fetch gate mid-pass — room freed by ordinary issues is
            // picked up at the next top-of-cycle import.
            if fetches {
                *imported |= self.import(src)?;
            }
            let on_fu = (lane as usize) < N_FU;
            if latency == 0 {
                // Chainable op (mux, comparator, wiring): commits within
                // this cycle, so dependents later in the queue can issue in
                // the same cycle — HLS operator chaining. It never occupies
                // its unit but counts one busy cycle.
                if on_fu {
                    let sum = &mut self.busy_sum[lane as usize];
                    *sum = sum.wrapping_add(1);
                }
                self.commit(i, src);
                return Ok(false);
            }
            if on_fu {
                self.fu_take(lane);
                if self.limits.pipelined_fus {
                    self.pipelined_release.push(lane);
                }
            }
            self.compute_inflight += 1;
            self.wheel.push(self.cycle, self.cycle + latency as u64, i);
            return Ok(false);
        };

        let blocked = [IssueFlags::LOAD_BLOCKED, IssueFlags::STORE_BLOCKED][side];
        let state = self.state[i as usize];
        if state & ADDR_READY == 0 {
            flags.0 |= blocked;
            return Ok(false);
        }
        if state & ORDERED == 0 {
            if state & PUBLISHED == 0 {
                src.resolve_span(i)?;
            }
            if let Some(older) = self.order_blocker(i, side, src) {
                self.park_behind(older, i, side);
                return Ok(false);
            }
            self.state[i as usize] |= ORDERED;
        }
        if self.outstanding[side] >= self.limits.max_outstanding[side] {
            flags.0 |= blocked | IssueFlags::MEM_LIMIT_BLOCKED;
            self.saturated |= 1 << lane;
            return Ok(false);
        }
        match src.issue_mem(i, self, port)? {
            MemIssue::Refused(scope) => {
                flags.0 |= blocked | IssueFlags::MEM_LIMIT_BLOCKED | IssueFlags::PORT_REJECTED;
                self.met[i as usize / 64] |= 1 << (i % 64);
                if scope != RefusalScope::Access && scope != self.scope[side] {
                    self.scope[side] = scope;
                    self.scoped |= 1 << lane;
                    return Ok(true);
                }
            }
            MemIssue::Accepted(latency) => {
                self.leave_window(i, flags);
                self.outstanding[side] += 1;
                if let Some(latency) = latency {
                    let at = self.cycle + latency.max(1) as u64;
                    self.wheel.push(self.cycle, at, i);
                }
            }
        }
        Ok(false)
    }

    /// Per side, the ops among `met`, met ops of `word`, that the side's
    /// scope covers: all of them under `Kind`, those whose start address
    /// falls in it under a range.
    #[inline]
    fn covered<S: OpSource>(&self, word: usize, met: u64, src: &S) -> [u64; 2] {
        std::array::from_fn(|side| {
            let lane = self.scoped & 1 << (LOAD as usize + side);
            let mut ops = met & src.lanes().on(word, lane);
            let scope = self.scope[side];
            if scope == RefusalScope::Kind {
                return ops;
            }
            let mut covered = 0;
            while ops != 0 {
                let bit = ops.trailing_zeros();
                ops &= ops - 1;
                let (addr, _) = src.span((word * 64) as u32 + bit);
                covered |= (scope.covers(addr) as u64) << bit;
            }
            covered
        })
    }

    /// The walk passed the counted retries `passed` (per side): hands
    /// their number to the source. A side at its cap — an access its scope
    /// leaves out was accepted since — saturates instead, as the first of
    /// them would have on a visit; returns whether one did.
    #[inline]
    fn count_refused<S: OpSource>(
        &mut self,
        passed: [u64; 2],
        src: &mut S,
        flags: &mut IssueFlags,
    ) -> bool {
        let mut saturates = false;
        for (side, ops) in passed.into_iter().enumerate() {
            if ops == 0 {
                continue;
            }
            if self.outstanding[side] < self.limits.max_outstanding[side] {
                src.refused(side, ops.count_ones());
            } else {
                let blocked = [IssueFlags::LOAD_BLOCKED, IssueFlags::STORE_BLOCKED][side];
                flags.0 |= blocked | IssueFlags::MEM_LIMIT_BLOCKED;
                self.saturated |= 1 << (LOAD as usize + side);
                saturates = true;
            }
        }
        saturates
    }

    /// Op `i` issued: it leaves the ready set and the reservation window.
    #[inline]
    fn leave_window(&mut self, i: u32, flags: &mut IssueFlags) {
        self.ready[i as usize / 64].ops &= !(1 << (i % 64));
        self.state[i as usize] |= ISSUED;
        self.resv_count -= 1;
        flags.0 |= IssueFlags::ISSUED;
    }

    /// Whether the in-window access `older` orders before an access to
    /// `[addr, addr + size)` that conflicts with it by kind: it does while
    /// its own address is unpublished or overlaps.
    #[inline(always)]
    fn conflicts<S: OpSource>(&self, older: u32, (addr, size): (u64, u32), src: &S) -> bool {
        let state = self.state[older as usize];
        if state & COMMITTED != 0 {
            return false; // left the window
        }
        if state & PUBLISHED == 0 {
            return true; // older access with unknown address
        }
        let (a, a_size) = src.span(older);
        overlaps(a, a_size, addr, size)
    }

    /// Memory ordering: an op may issue only when every older conflicting
    /// (or unresolved) access in the window has committed; returns the
    /// first that has not. Only store→load, load→store and store→store
    /// order; loads never conflict with loads.
    #[inline(always)]
    fn order_blocker<S: OpSource>(&self, i: u32, side: usize, src: &S) -> Option<u32> {
        let span = src.span(i);
        // Stores order against both sides, loads against stores only. (Plain
        // loops: the iterator-adaptor form stopped inlining into the scoped
        // walk.)
        for against in [1, 0].into_iter().take(1 + side) {
            let (front, back) = self.window[against].as_slices();
            for &older in front.iter().chain(back) {
                if older >= i {
                    break;
                }
                if self.conflicts(older, span, src) {
                    return Some(older);
                }
            }
        }
        None
    }

    /// Takes the order-blocked op `i` out of the ready set until `older`
    /// publishes or commits.
    #[inline]
    fn park_behind(&mut self, older: u32, i: u32, side: usize) {
        self.ready[i as usize / 64].ops &= !(1 << (i % 64));
        let first = &mut self.waiters[older as usize];
        self.wheel.next[i as usize] = std::mem::replace(first, i + 1);
        self.state[older as usize] |= WAITED_ON;
        self.order_parked[side] += 1;
    }

    /// `older` published or committed: the ops that waited for it are
    /// ready again and re-check their order at the next visit.
    fn release_waiters<S: OpSource>(&mut self, older: u32, src: &S) {
        self.state[older as usize] &= !WAITED_ON;
        let mut waiters = std::mem::take(&mut self.waiters[older as usize]);
        while let Some((i, rest)) = self.wheel.pop(waiters) {
            waiters = rest;
            let lane = src.lane(i);
            self.order_parked[(lane - LOAD) as usize] -= 1;
            self.wake(i, lane);
        }
    }

    /// Phase 5: charges the cycle to exactly one class, by strict priority
    /// — progress beats any stall cause, resource limits beat waiting,
    /// waiting beats dependence, dependence beats drain — so that
    /// `attribution.total()` equals the cycle count; updates the stall
    /// counters, hands the cycle to the source and advances the clock.
    #[inline(always)]
    fn account<S: OpSource>(
        &mut self,
        src: &mut S,
        flags: IssueFlags,
        retired: bool,
        imported: bool,
    ) -> Result<Cycle, S::Error> {
        let mem_outstanding = self.outstanding[0] + self.outstanding[1];
        let class = if flags.issued() {
            CycleClass::Compute
        } else if flags.has(IssueFlags::COMPUTE_BLOCKED) {
            CycleClass::FuLimit
        } else if flags.has(IssueFlags::MEM_LIMIT_BLOCKED) {
            CycleClass::MemPort
        } else if mem_outstanding > 0 {
            CycleClass::DmaWait
        } else if self.resv_count > 0 || self.compute_inflight > 0 {
            CycleClass::DepStall
        } else {
            CycleClass::Control
        };
        self.counters.attribution.charge(class);
        // A cycle counts as *stalled* (the paper's Fig. 14 definition) when
        // a dependence-free operation could not launch — resource or
        // bandwidth pressure — regardless of whether other ops issued.
        if flags.stalled() {
            self.counters.stall_cycles += 1;
        } else if flags.issued() {
            self.counters.new_exec_cycles += 1;
        }
        self.counters.port_reject_cycles += flags.port_rejected() as u64;
        let mut cycle = Cycle {
            class,
            flags,
            retired,
            imported,
            done: false,
        };
        src.end_cycle(self, &cycle)?;
        self.cycle += 1;
        cycle.done = src.fetch_done()
            && self.resv_count == 0
            && self.compute_inflight == 0
            && mem_outstanding == 0;
        Ok(cycle)
    }

    /// The cycle of the earliest pending commit the wheel knows of.
    pub fn next_commit_cycle(&self) -> Option<u64> {
        self.wheel.next_event(self.cycle)
    }

    /// Skips to cycle `to` after a cycle `last` in which nothing issued
    /// and nothing was imported: until the next commit the whole state is
    /// frozen, so every cycle in between charges exactly what `last` did.
    /// Only sound for a source whose ports cannot refuse an op unless
    /// another issued in the same cycle.
    pub fn fast_forward(&mut self, last: &Cycle, to: u64) {
        let gap = to - self.cycle;
        self.counters.attribution.add(last.class, gap);
        if last.flags.stalled() {
            self.counters.stall_cycles += gap;
        }
        self.cycle = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_at_the_top_of_the_address_space_overlap_without_overflow() {
        assert!(overlaps(u64::MAX - 3, 8, u64::MAX, 8));
        assert!(overlaps(u64::MAX - 7, 8, u64::MAX - 7, 8));
        assert!(!overlaps(u64::MAX - 3, 8, 0, 8));
        assert!(!overlaps(0x2000, 8, 0x2008, 8));
        assert!(overlaps(0x2000, 8, 0x2007, 1));
    }

    #[test]
    fn wheel_releases_a_cycle_in_issue_order_and_outlasts_its_ring() {
        let mut w = Wheel::new(3, 8); // ring of 4
        w.push(0, 2, 5);
        w.push(0, 2, 1);
        w.push(0, 9, 7); // beyond the ring
        w.push(1, 2, 3);
        assert_eq!(w.next_event(1), Some(2));
        let drain = |w: &mut Wheel, cycle| {
            let (mut list, mut out) = (w.take_due(cycle), Vec::new());
            while let Some((i, rest)) = w.pop(list) {
                out.push(i);
                list = rest;
            }
            out
        };
        assert_eq!(drain(&mut w, 1), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 2), vec![5, 1, 3]);
        assert_eq!(w.next_event(3), Some(9));
        for cycle in 3..=6 {
            assert_eq!(drain(&mut w, cycle), Vec::<u32>::new());
        }
        w.push(6, 9, 2); // issued later, same commit cycle
        assert_eq!(w.next_event(7), Some(9));
        for cycle in 7..9 {
            assert_eq!(drain(&mut w, cycle), Vec::<u32>::new());
        }
        assert_eq!(drain(&mut w, 9), vec![7, 2]);
        assert_eq!(w.next_event(10), None);
    }
}
