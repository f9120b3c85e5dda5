//! The period skip: the stream analysis that finds stretches of import
//! groups repeating op for op, up to their addresses (once per
//! [`Prepared`](crate::Prepared)), and the driver's side that advances the
//! schedule over whole periods of them once it repeats.

use std::collections::HashMap;

use salam_runtime::sched::{overlaps, Sched, Snapshot};

use crate::{Group, ROp, Recorded, ADDR_EDGE};

/// Largest distance, in ops, between two accesses whose overlap the
/// analysis compares period against period. An order check between ops
/// further apart than a run's verified horizon rules the skip out.
const MAX_HORIZON: u32 = 1024;

/// Widest access the horizon check indexes by granule; a run with a wider
/// one is never skipped.
const MAX_ACCESS: u32 = 64;

/// Words of the bitmap of granules a run stores to (2^14 bits).
const STORED_WORDS: usize = 1 << 8;

/// Ops the run search may compare per op of the stream, on top of a fixed
/// allowance: keeps a stream built to defeat it linear.
const SEARCH_BUDGET: usize = 4;

/// A repeating stretch of the stream: `periods` periods of `groups` import
/// groups (`ops` ops each) from group `group` (op `start`) on. Every op
/// from the second period on is the translate of the op one period
/// earlier:
/// - the same [`ROp`] fields but the address;
/// - the same group shape and fetching-terminator offset;
/// - each dependence (and address producer) at the same offset, or on the
///   same producer before the run.
///
/// Nothing in the run depends on a later op.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    pub group: u32,
    pub groups: u32,
    pub start: u32,
    pub ops: u32,
    pub periods: u32,
    /// Longest edge between two ops of the run: how far past the imported
    /// ops a commit may already have moved a dependence counter.
    pub reach: u32,
    /// Accesses of the run at most this many ops apart, a store among
    /// them, overlap exactly when their translates one period earlier do.
    pub horizon: u32,
    /// The edges from ops of the run to ops past its end, by producer:
    /// (producer, consumer entry as in `cons_adj`).
    pub exits: Vec<(u32, u32)>,
}

impl Run {
    /// One past the run's last op.
    pub fn end(&self) -> u32 {
        self.start + self.ops * self.periods
    }

    /// One past the run's last group.
    pub fn group_end(&self) -> u32 {
        self.group + self.groups * self.periods
    }
}

/// What the analysis reads of a stream being prepared, by op index.
pub(crate) struct Stream<'a> {
    ops: &'a [ROp],
    groups: &'a [Group],
    /// Per op: its fields but the address, and its dependence count, packed
    /// (equal exactly when those are).
    shapes: Vec<u64>,
    /// Each op's producer uids start at `dep_off[i]` in `producers`.
    dep_off: Vec<u32>,
    producers: &'a [u32],
    /// Memory ops: the address producer's uid (0: none).
    addr_deps: &'a [u32],
    cons_off: &'a [u32],
    cons_adj: &'a [u32],
}

impl<'a> Stream<'a> {
    pub fn new(
        ops: &'a [ROp],
        groups: &'a [Group],
        dep_count: &'a [u32],
        producers: &'a [u32],
        addr_deps: &'a [u32],
        cons_off: &'a [u32],
        cons_adj: &'a [u32],
    ) -> Self {
        let mut dep_off = Vec::with_capacity(dep_count.len() + 1);
        dep_off.push(0);
        let mut off = 0;
        for &count in dep_count {
            off += count;
            dep_off.push(off);
        }
        let shapes = ops
            .iter()
            .zip(dep_count)
            .map(|(op, &deps)| {
                let fields = match *op {
                    ROp::Compute {
                        latency,
                        lane,
                        fetches_a_group,
                    } => (latency as u64) << 9 | (lane as u64) << 1 | fetches_a_group as u64,
                    ROp::Mem {
                        size,
                        store,
                        addr_known,
                        ..
                    } => 1 << 34 | (size as u64) << 2 | (store as u64) << 1 | addr_known as u64,
                };
                // Latencies take 17 bits, sizes 32: 35 bits of fields.
                (deps as u64) << 35 | fields
            })
            .collect();
        Stream {
            ops,
            groups,
            shapes,
            dep_off,
            producers,
            addr_deps,
            cons_off,
            cons_adj,
        }
    }

    fn deps(&self, i: usize) -> &[u32] {
        &self.producers[self.dep_off[i] as usize..self.dep_off[i + 1] as usize]
    }

    /// The runs of the stream, in stream order, each at least three
    /// periods long.
    pub fn runs(&self) -> Vec<Run> {
        // A consumer older than its producer (which a live run never
        // records) would be woken by a commit the skip does not replay.
        let backward = (0..self.ops.len()).any(|i| self.deps(i).iter().any(|&d| d as usize > i));
        if backward {
            return Vec::new();
        }
        let sigs: Vec<u64> = (0..self.groups.len()).map(|g| self.signature(g)).collect();
        // The next group of each group's signature.
        let mut next_same = vec![u32::MAX; sigs.len()];
        let mut last = HashMap::new();
        for (g, &sig) in sigs.iter().enumerate().rev() {
            if let Some(next) = last.insert(sig, g as u32) {
                next_same[g] = next;
            }
        }
        let mut budget = SEARCH_BUDGET * self.ops.len() + 65_536;
        let mut runs = Vec::new();
        let mut g = 0;
        while g < self.groups.len() && budget > 0 {
            let next = next_same[g] as usize;
            if next == u32::MAX as usize {
                g += 1;
                continue;
            }
            let period = next - g;
            let periods = self.periods_from(g, period, &mut budget);
            if periods < 3 {
                g += 1;
                continue;
            }
            let start = self.groups[g].start;
            let ops = self.groups[next].start - start;
            let mut run = Run {
                group: g as u32,
                groups: period as u32,
                start,
                ops,
                periods,
                reach: 0,
                horizon: 0,
                exits: Vec::new(),
            };
            self.edges(&mut run);
            run.horizon = self.horizon(&run);
            g = run.group_end() as usize;
            runs.push(run);
        }
        runs
    }

    /// A hash of what a group's translates must share.
    fn signature(&self, g: usize) -> u64 {
        let group = &self.groups[g];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        mix(group.len as u64);
        mix(group.start.wrapping_sub(group.ctrl) as u64);
        for &shape in &self.shapes[group.start as usize..(group.start + group.len) as usize] {
            mix(shape);
        }
        h
    }

    /// How many periods of `period` groups from group `g` on repeat: 1 if
    /// even the second is no translate of the first.
    fn periods_from(&self, g: usize, period: usize, budget: &mut usize) -> u32 {
        let start = self.groups[g].start as usize;
        let q = self.groups[g + period].start as usize - start;
        let mut periods = 1;
        loop {
            let first = g + periods as usize * period;
            let Some(groups) = self.groups.get(first..first + period) else {
                return periods;
            };
            for (h, group) in groups.iter().enumerate() {
                let earlier = &self.groups[first + h - period];
                if group.len != earlier.len || !same_producer(group.ctrl, earlier.ctrl, q, start) {
                    return periods;
                }
                for j in group.start as usize..(group.start + group.len) as usize {
                    if *budget == 0 || !self.translates(j, q, start) {
                        return periods;
                    }
                    *budget -= 1;
                }
            }
            periods += 1;
        }
    }

    /// Whether op `j` is the translate of op `j - q` in a run from op
    /// `start` on.
    fn translates(&self, j: usize, q: usize, start: usize) -> bool {
        let e = j - q;
        self.shapes[j] == self.shapes[e]
            && same_producer(self.addr_deps[j], self.addr_deps[e], q, start)
            && self
                .deps(j)
                .iter()
                .zip(self.deps(e))
                .all(|(&d, &f)| same_producer(d, f, q, start))
    }

    /// Fills the run's reach and exits from the consumer adjacency.
    fn edges(&self, run: &mut Run) {
        let end = run.end();
        for j in run.start..end {
            let (from, to) = (self.cons_off[j as usize], self.cons_off[j as usize + 1]);
            for &entry in &self.cons_adj[from as usize..to as usize] {
                let c = entry & !ADDR_EDGE;
                if c >= end {
                    run.exits.push((j, entry));
                } else {
                    run.reach = run.reach.max(c - j);
                }
            }
        }
    }

    /// The run's verified horizon: below the shortest distance at which
    /// two accesses from the second period on, a store among them, overlap
    /// differently from their translates one period earlier.
    ///
    /// Such a pair, or its translate, overlaps. So the check walks only
    /// overlapping pairs, found through the 8-byte granules each access
    /// touches, and compares each with its translates one period earlier
    /// and one later.
    fn horizon(&self, run: &Run) -> u32 {
        let access = |i: u32| match self.ops[i as usize] {
            ROp::Mem {
                addr, size, store, ..
            } => Some(Access { addr, size, store }),
            ROp::Compute { .. } => None,
        };
        let (first, end, q) = (run.start + run.ops, run.end(), run.ops);
        let mut horizon = MAX_HORIZON;
        let mismatch = |x: u32, y: u32, horizon: &mut u32| {
            let (a, b) = (access(x), access(y));
            let meet = |x: Option<Access>, y: Option<Access>| match (x, y) {
                (Some(x), Some(y)) => overlaps(x.addr, x.size, y.addr, y.size),
                _ => false,
            };
            if !meet(a, b) {
                return;
            }
            let back = y >= first && !meet(access(x - q), access(y - q));
            let ahead = x + q < end && !meet(access(x + q), access(y + q));
            if back || ahead {
                *horizon = (*horizon).min(x - y - 1);
            }
        };
        // Only a granule some store of the run touches can hold a pair that
        // orders: mark them (a hash bitmap; a false mark costs a lookup).
        let mut stored_to = vec![0u64; STORED_WORDS];
        let mark = |g: u64| {
            let bit = (g.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
            (bit / 64, 1u64 << (bit % 64))
        };
        for x in run.start..end {
            match access(x) {
                Some(a) if a.size > MAX_ACCESS => return 0,
                Some(a) if a.store => {
                    for g in a.granules() {
                        let (word, bit) = mark(g);
                        stored_to[word] |= bit;
                    }
                }
                _ => {}
            }
        }
        // Per granule, the accesses (and the stores) that touched it, the
        // latest first, threaded through `nodes`.
        let mut touched = Granules::default();
        let mut stored = Granules::default();
        for x in run.start..end {
            let Some(a) = access(x) else {
                continue;
            };
            // A load orders only against stores; a store against both.
            let older = if a.store { &touched } else { &stored };
            for g in a.granules() {
                let (word, bit) = mark(g);
                if stored_to[word] & bit == 0 {
                    continue;
                }
                let mut node = older.head(g);
                while let Some(&(y, next)) = older.nodes.get(node as usize) {
                    if x - y > horizon {
                        break;
                    }
                    mismatch(x, y, &mut horizon);
                    node = next;
                }
            }
            for g in a.granules() {
                let (word, bit) = mark(g);
                if stored_to[word] & bit == 0 {
                    continue;
                }
                touched.push(g, x);
                if a.store {
                    stored.push(g, x);
                }
            }
        }
        horizon
    }
}

/// The accesses that touched each 8-byte granule, latest first.
#[derive(Default)]
struct Granules {
    /// Granule → index of its latest node.
    heads: HashMap<u64, u32>,
    /// (access, the granule's next older node or `u32::MAX`).
    nodes: Vec<(u32, u32)>,
}

impl Granules {
    fn head(&self, granule: u64) -> u32 {
        self.heads.get(&granule).copied().unwrap_or(u32::MAX)
    }

    fn push(&mut self, granule: u64, access: u32) {
        let node = self.nodes.len() as u32;
        let next = self.heads.insert(granule, node).unwrap_or(u32::MAX);
        self.nodes.push((access, next));
    }
}

/// One access of a run, for the horizon check.
#[derive(Clone, Copy)]
struct Access {
    addr: u64,
    size: u32,
    store: bool,
}

impl Access {
    /// The 8-byte granules the access touches (at least one, so that an
    /// empty access still meets the accesses `overlaps` says it meets).
    fn granules(&self) -> std::ops::RangeInclusive<u64> {
        let last = self.addr.saturating_add(self.size.max(1) as u64 - 1);
        self.addr >> 3..=last >> 3
    }
}

/// Whether `d`, a producer uid (0: none), stands to `f` as the producer one
/// period of `q` ops later or as the same producer before the run's first
/// op `start`.
fn same_producer(d: u32, f: u32, q: usize, start: usize) -> bool {
    (f != 0 && d as usize == f as usize + q) || (d == f && d as usize <= start)
}

/// Most periods the schedule may take to repeat within a run: a loop
/// whose throughput is 14 cycles per 5 iterations repeats every 5.
const MAX_REPEAT: usize = 8;

/// The driver loop's side of the period skip. At the first top-of-cycle
/// after the import front crosses a period boundary of a run it snapshots
/// the schedule. When the snapshot repeats one taken `r` periods earlier
/// (`r` up to [`MAX_REPEAT`]), and every order check since stayed within
/// the run's horizon, it advances the schedule by as many whole `r`-period
/// stretches as leave the run's last period to the normal step.
pub(crate) struct Skipper<'a> {
    runs: &'a [Run],
    /// The run the import front is in, or the next one.
    at: usize,
    /// The group whose import makes the next top-of-cycle a boundary.
    next: u32,
    /// The snapshots of the last boundaries of the current run, by period
    /// modulo the ring, and room for the next one.
    ring: Vec<Taken>,
    spare: Snapshot,
    /// The last boundary's period, when it belongs to the current run.
    period: Option<u32>,
    /// Since the last boundary: the longest distance an order check can
    /// have spanned.
    reach: u32,
    /// The oldest live op the last snapshot found: it only moves up, so
    /// the next snapshot's scan for it starts there.
    lo: u32,
    /// Cycles advanced over so far.
    pub skipped: u64,
}

/// A boundary's snapshot and the longest order-check distance of the
/// stretch that ended there.
struct Taken {
    /// `u32::MAX` once forgotten.
    period: u32,
    snap: Snapshot,
    reach: u32,
}

impl Default for Taken {
    fn default() -> Self {
        Taken {
            period: u32::MAX,
            snap: Snapshot::default(),
            reach: 0,
        }
    }
}

impl<'a> Skipper<'a> {
    pub fn new(runs: &'a [Run]) -> Self {
        Skipper {
            runs,
            at: 0,
            next: runs.first().map_or(u32::MAX, |r| r.group + r.groups),
            ring: Vec::new(),
            spare: Snapshot::default(),
            period: None,
            reach: 0,
            lo: 0,
            skipped: 0,
        }
    }

    /// Whether the next step's order checks must be measured.
    #[inline]
    pub fn tracking(&self) -> bool {
        self.period.is_some()
    }

    /// After a step that started with [`Sched::order_front`] `front`.
    #[inline]
    pub fn stepped(&mut self, front: u32, sched: &Sched) {
        self.reach = self.reach.max(sched.imported() - front);
    }

    /// At the top of a cycle, before the cycle limit is checked.
    #[inline]
    pub fn top(&mut self, sched: &mut Sched, src: &mut Recorded) {
        if (src.next_group as u32) >= self.next {
            self.boundary(sched, src);
        }
    }

    /// The snapshot taken at `period` of the current run, if the ring
    /// still holds it.
    fn taken(&self, period: u32) -> Option<&Taken> {
        let t = self.ring.get(period as usize % MAX_REPEAT)?;
        (t.period == period).then_some(t)
    }

    /// Drops the snapshots of the current run (keeping their room).
    fn forget(&mut self) {
        self.period = None;
        self.reach = 0;
        for t in &mut self.ring {
            t.period = u32::MAX;
        }
    }

    /// Takes no more snapshots in `run`.
    fn leave(&mut self, run: &Run) {
        self.forget();
        self.next = run.group_end();
    }

    fn boundary(&mut self, sched: &mut Sched, src: &mut Recorded) {
        let ng = src.next_group as u32;
        while self.runs.get(self.at).is_some_and(|r| ng >= r.group_end()) {
            self.at += 1;
            self.forget();
        }
        let runs = self.runs;
        let Some(run) = runs.get(self.at) else {
            self.next = u32::MAX;
            return;
        };
        if ng < run.group + run.groups {
            self.next = run.group + run.groups;
            return;
        }
        let period = (ng - run.group) / run.groups;
        // A skip needs the run's last period left to step: one here wants
        // an earlier snapshot, one at a later boundary this one.
        if period + 3 > run.periods && self.period.is_none() || period + 2 > run.periods {
            self.leave(run);
            return;
        }
        let mut cur = std::mem::take(&mut self.spare);
        sched.snapshot(
            run.start + period * run.ops,
            self.lo.min(sched.imported()),
            &mut cur,
        );
        self.lo = cur.lo();
        // The nearest earlier boundary the state repeats, with the longest
        // order check since within the horizon. (An import can cross more
        // than one boundary in a cycle; the boundaries it skipped have no
        // snapshot.)
        let mut reach = self.reach;
        let mut repeat = None;
        for r in 1..=MAX_REPEAT as u32 {
            let Some(then) = period.checked_sub(r).and_then(|p| self.taken(p)) else {
                continue;
            };
            if then.snap.lo() < run.start || reach > run.horizon {
                break;
            }
            if cur.cycle() > then.snap.cycle() && cur.repeats(&then.snap) {
                repeat = Some(r);
                break;
            }
            reach = reach.max(then.reach);
        }
        if let Some(r) = repeat {
            // Whole stretches of `r` periods, leaving the group past the
            // last one inside the run.
            let k = (run.group_end() - 1 - ng) / (r * run.groups);
            let then = &self.ring[(period - r) as usize % MAX_REPEAT].snap;
            // The ops past the new front a skipped commit can reach, up to
            // the run's end (past it only the run's exits reach).
            let front = sched.imported() + k * r * run.ops;
            let ahead = run.reach.min(run.end() - front);
            if k > 0 && sched.advance(then, &cur, k, ahead) {
                self.skipped += skipped(run, then, &cur, k * r, sched, src);
                // Too few periods are left for another skip.
                self.spare = cur;
                self.leave(run);
                return;
            }
        }
        if self.ring.len() < MAX_REPEAT {
            self.ring.resize_with(MAX_REPEAT, Taken::default);
        }
        let slot = &mut self.ring[period as usize % MAX_REPEAT];
        self.spare = std::mem::replace(&mut slot.snap, cur);
        slot.period = period;
        slot.reach = std::mem::take(&mut self.reach);
        self.period = Some(period);
        self.next = run.group + (period + 1) * run.groups;
    }
}

/// After [`Sched::advance`] moved `periods` periods of `run` past `cur`,
/// which repeats `then`: does what the skipped ops did outside the
/// schedule's state, and returns the cycles skipped.
fn skipped(
    run: &Run,
    then: &Snapshot,
    cur: &Snapshot,
    periods: u32,
    sched: &mut Sched,
    src: &mut Recorded,
) -> u64 {
    // One repeat: `q` ops and `p` cycles.
    let (q, p) = (cur.lo() - then.lo(), cur.cycle() - then.cycle());
    let shift = periods * run.ops;
    src.next_group += (periods * run.groups) as usize;
    // Ops from the old state's oldest to the new imported front are all
    // that the skip can have issued or committed.
    let (lo, hi) = (cur.lo(), sched.imported());
    let after = |j: u32| {
        j.checked_sub(shift)
            .map_or((true, true), |i| cur.progress(i))
    };
    // The skipped commits' edges out of the run.
    let first = run.exits.partition_point(|&(j, _)| j < lo);
    for &(j, entry) in &run.exits[first..] {
        if j >= hi {
            break;
        }
        if after(j).1 && !cur.progress(j).1 {
            sched.consumer_met(entry & !ADDR_EDGE, entry & ADDR_EDGE != 0);
        }
    }
    // Each skipped issue and commit one repeat after its translate's.
    if !src.times.is_empty() {
        for j in lo..hi {
            let (before, now) = (cur.progress(j), after(j));
            let earlier = src.times[(j - q) as usize];
            let t = &mut src.times[j as usize];
            if now.0 && !before.0 {
                t.0 = earlier.0 + p;
            }
            if now.1 && !before.1 {
                t.1 = earlier.1 + p;
            }
        }
    }
    (shift / q) as u64 * p
}
