//! Static schedule bounds: ASAP/ALAP levels over the static CDFG and a
//! provable lower bound on dynamic cycle count.
//!
//! The bound is the maximum of five floors, each of which the runtime
//! engine cannot beat by construction:
//!
//! 1. **Chain floor** — successive basic-block executions serialize
//!    through their terminators (the engine imports the next block only
//!    once the branch evaluates), so the run takes at least
//!    `Σ trips(b) · asap(terminator of b)` cycles, where ASAP levels are
//!    latency-weighted along in-block dependency chains (latency-0 wiring
//!    ops chain within a cycle and contribute 0; loads/stores contribute
//!    at least 1 cycle of port latency).
//! 2. **FU floor** — a pool of `n` non-pipelined units of one kind can
//!    deliver at most `n` busy-cycles per cycle, so
//!    `ceil(Σ trips·latency / n)` cycles are needed per kind (with
//!    `pipelined_fus`, occupancy drops to 1 cycle per op).
//! 3. **Memory floor** — `read_ports` loads and `write_ports` stores
//!    issue per cycle at most: `ceil(dynamic loads / read_ports)` and
//!    likewise for stores.
//! 4. **Recurrence floor** ([`flow_lower_bound`]) — distance-1
//!    recurrences through header phis (and affine-proven same-address
//!    memory edges) serialize consecutive latch traversals of a loop, so
//!    each loop contributes at least `latches × advance` cycles along its
//!    heaviest cross-iteration chain.
//! 5. **Reservation-pressure floor** ([`flow_lower_bound`]) — a block
//!    whose ASAP profile cannot double-buffer inside the engine's
//!    reservation queue serializes its own imports, contributing
//!    `(trips − 1) × advance` for the binding block.
//!
//! Block trip counts come from a profiling run ([`ProfileObserver`]'s
//! `block_entries`), or — for the flow-strengthened bound — from the
//! `salam-flow` trip-count inference, which needs no execution at all;
//! the bound is exact with respect to the trips it is given. The cross-check `static_lower_bound ≤
//! dynamic cycles` is asserted for all MachSuite kernels in
//! `crates/bench/tests/verify.rs` — a violated bound means either the
//! engine or this analysis is wrong, which is the point.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hw_profile::FuKind;
use salam_cdfg::StaticCdfg;
use salam_ir::analysis::{Cfg, DomTree};
use salam_ir::{BlockId, Function, InstId, Opcode, ValueKind};

use crate::diag::{codes, Diagnostic, Span};
use crate::memdep::{DepEdge, DepKind};

/// The throughput knobs the bound must respect, mirroring the engine/SPM
/// configuration a run will actually use. Defaults match
/// `StandaloneConfig::default()` (2R/2W SPM, unpipelined FUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundConfig {
    /// SPM read ports per cycle.
    pub read_ports: u32,
    /// SPM write ports per cycle.
    pub write_ports: u32,
    /// Whether FUs are fully pipelined (II = 1).
    pub pipelined_fus: bool,
    /// Engine reservation-queue capacity — a block imports only when the
    /// queue has room for all of its ops (or is completely empty), so
    /// large blocks serialize under small queues.
    pub reservation_entries: usize,
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig {
            read_ports: 2,
            write_ports: 2,
            pipelined_fus: false,
            reservation_entries: 128,
        }
    }
}

/// Per-block static schedule levels.
#[derive(Debug, Clone)]
pub struct BlockBound {
    /// The block.
    pub block: BlockId,
    /// Its name.
    pub name: String,
    /// Dynamic executions.
    pub trips: u64,
    /// Latency-weighted critical path through the whole block DAG.
    pub crit_path: u64,
    /// ASAP level of the terminator — the provable serial cost of one
    /// execution.
    pub term_level: u64,
}

/// Latency-weighted ASAP/ALAP levels and slack for one instruction.
#[derive(Debug, Clone, Copy)]
pub struct OpSlack {
    /// The instruction.
    pub inst: InstId,
    /// Earliest start relative to block entry.
    pub asap: u64,
    /// Latest start that keeps the block's critical path.
    pub alap: u64,
    /// `alap - asap`; zero means the op is on the critical path.
    pub slack: u64,
}

/// The full static bound report for one kernel/config pair.
#[derive(Debug, Clone)]
pub struct BoundReport {
    /// Function name.
    pub func_name: String,
    /// The provable lower bound on dynamic cycles.
    pub lower_bound: u64,
    /// Floor 1: serialized terminator chains.
    pub chain_floor: u64,
    /// Floor 2: the binding-est FU pool, as `(kind name, cycles)`; of
    /// pools that tie, the kind first in `FuKind` order.
    pub fu_floor: Option<(String, u64)>,
    /// Floor 3: `(load cycles, store cycles)` through the memory ports.
    pub mem_floor: (u64, u64),
    /// Per-block levels.
    pub blocks: Vec<BlockBound>,
    /// ASAP/ALAP slack per instruction (block-relative levels).
    pub slacks: Vec<OpSlack>,
}

impl BoundReport {
    /// Ops with zero slack — the static critical path the paper's
    /// elaboration would pipeline first.
    pub fn critical_ops(&self) -> impl Iterator<Item = &OpSlack> + '_ {
        self.slacks.iter().filter(|s| s.slack == 0)
    }
}

/// Cycle weight of one instruction along a dependency chain: CDFG latency
/// for compute ops (latency-0 wiring forwards within the issue cycle),
/// and at least one cycle of port latency for memory ops.
fn chain_weight(cdfg: &StaticCdfg, f: &Function, id: InstId) -> u64 {
    let lat = cdfg.op(id).latency as u64;
    match f.inst(id).op {
        Opcode::Load | Opcode::Store => lat.max(1),
        _ => lat,
    }
}

/// Computes latency-weighted ASAP levels for one block; returns
/// `(levels by inst, critical path, terminator level)`.
fn block_asap(f: &Function, cdfg: &StaticCdfg, block: BlockId) -> (HashMap<InstId, u64>, u64, u64) {
    let insts = &f.block(block).insts;
    let mut level: HashMap<InstId, u64> = HashMap::new();
    let mut crit = 0u64;
    let mut term_level = 0u64;
    for &id in insts {
        let inst = f.inst(id);
        // Phis read end-of-previous-iteration values: level 0.
        let asap = if inst.op == Opcode::Phi {
            0
        } else {
            inst.operands
                .iter()
                .filter_map(|&v| match f.value_kind(v) {
                    ValueKind::Inst(def) => {
                        level.get(def).map(|&l| l + chain_weight(cdfg, f, *def))
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        level.insert(id, asap);
        crit = crit.max(asap + chain_weight(cdfg, f, id));
        if inst.op.is_terminator() {
            term_level = asap;
        }
    }
    (level, crit, term_level)
}

/// Computes ALAP levels against the block's critical path.
fn block_alap(f: &Function, cdfg: &StaticCdfg, block: BlockId, crit: u64) -> HashMap<InstId, u64> {
    let insts = &f.block(block).insts;
    let pos: HashMap<InstId, usize> = insts.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // Reverse users map, in-block only.
    let mut alap: HashMap<InstId, u64> = HashMap::new();
    for &id in insts.iter().rev() {
        let w = chain_weight(cdfg, f, id);
        // Latest finish = min over in-block users of their ALAP start.
        let mut latest_finish = crit;
        for &uid in insts {
            if pos[&uid] <= pos[&id] {
                continue;
            }
            let user = f.inst(uid);
            if user.op == Opcode::Phi {
                continue; // consumes at the next iteration's entry
            }
            let feeds = user
                .operands
                .iter()
                .any(|&v| matches!(f.value_kind(v), ValueKind::Inst(def) if *def == id));
            if feeds {
                if let Some(&ua) = alap.get(&uid) {
                    latest_finish = latest_finish.min(ua);
                }
            }
        }
        alap.insert(id, latest_finish.saturating_sub(w));
    }
    alap
}

/// Computes the static lower bound and schedule levels for `f` elaborated
/// as `cdfg`, given per-block dynamic trip counts (blocks absent from
/// `trips` count as zero executions).
pub fn static_lower_bound(
    f: &Function,
    cdfg: &StaticCdfg,
    trips: &HashMap<BlockId, u64>,
    cfg: &BoundConfig,
) -> BoundReport {
    let mut chain_floor = 0u64;
    let mut blocks = Vec::new();
    let mut slacks = Vec::new();
    let mut fu_busy: BTreeMap<FuKind, (u64, u32)> = BTreeMap::new();
    let mut dyn_loads = 0u64;
    let mut dyn_stores = 0u64;

    for (bid, b) in f.blocks() {
        let t = trips.get(&bid).copied().unwrap_or(0);
        let (asap, crit, term_level) = block_asap(f, cdfg, bid);
        let alap = block_alap(f, cdfg, bid, crit);
        for &id in &b.insts {
            let a = asap.get(&id).copied().unwrap_or(0);
            let l = alap.get(&id).copied().unwrap_or(a).max(a);
            slacks.push(OpSlack {
                inst: id,
                asap: a,
                alap: l,
                slack: l - a,
            });
        }
        blocks.push(BlockBound {
            block: bid,
            name: b.name.clone(),
            trips: t,
            crit_path: crit,
            term_level,
        });
        if t == 0 {
            continue;
        }
        chain_floor += t * term_level;
        for &id in &b.insts {
            let op = cdfg.op(id);
            match f.inst(id).op {
                Opcode::Load => dyn_loads += t,
                Opcode::Store => dyn_stores += t,
                _ => {}
            }
            // Latency-0 ops never occupy a pool slot in the engine.
            if let (Some(kind), true) = (op.fu, op.latency > 0) {
                let busy = if cfg.pipelined_fus {
                    1
                } else {
                    op.latency as u64
                };
                let pool = cdfg.fu_count(kind).max(1);
                let e = fu_busy.entry(kind).or_insert((0, pool));
                e.0 += t * busy;
            }
        }
    }

    // `max_by_key` keeps the last maximum, so walking the kinds backwards
    // hands a tie to the kind first in `FuKind` order.
    let fu_floor = fu_busy
        .into_iter()
        .rev()
        .map(|(kind, (busy, pool))| (kind.name().to_string(), busy.div_ceil(pool as u64)))
        .max_by_key(|&(_, c)| c);
    let load_floor = dyn_loads.div_ceil(cfg.read_ports.max(1) as u64);
    let store_floor = dyn_stores.div_ceil(cfg.write_ports.max(1) as u64);

    let lower_bound = chain_floor
        .max(fu_floor.as_ref().map_or(0, |&(_, c)| c))
        .max(load_floor)
        .max(store_floor);

    BoundReport {
        func_name: f.name.clone(),
        lower_bound,
        chain_floor,
        fu_floor,
        mem_floor: (load_floor, store_floor),
        blocks,
        slacks,
    }
}

/// Per-loop decomposition of the flow-tightened bound.
#[derive(Debug, Clone)]
pub struct LoopBound {
    /// Loop header.
    pub header: BlockId,
    /// Header block name.
    pub name: String,
    /// Total latch→header traversals under the given trips.
    pub latch_traversals: u64,
    /// Times the loop was entered from outside.
    pub entries: u64,
    /// Provable cycles between consecutive header imports (the
    /// cross-block critical path from header import to latch branch).
    pub adv_chain: u64,
    /// Heaviest distance-1 header-phi recurrence chain weight.
    pub adv_recurrence: u64,
    /// Heaviest distance-1 same-address memory recurrence: the chain from
    /// a load's issue to the feeding store's commit, which the engine's
    /// memory-ordering window serializes across consecutive iterations.
    pub adv_mem: u64,
    /// The loop's serial floor after composing with its children.
    pub value: u64,
}

/// The binding block of the reservation-pressure floor.
#[derive(Debug, Clone)]
pub struct ResvBound {
    /// The block whose repeated imports serialize.
    pub block: BlockId,
    /// Its name.
    pub name: String,
    /// Dynamic executions.
    pub trips: u64,
    /// Provable minimum cycles between consecutive imports of the block.
    pub advance: u64,
}

/// The flow-tightened bound: the PR-5 floors plus a loop-aware
/// recurrence floor that tracks dependency chains *across* block
/// boundaries and *across* iterations, and a reservation-pressure floor
/// for blocks too large to double-buffer in the reservation queue.
#[derive(Debug, Clone)]
pub struct FlowBoundReport {
    /// The per-block floors (chain/FU/memory) under the same trips.
    pub base: BoundReport,
    /// The loop-aware recurrence floor (always ≥ `base.chain_floor`).
    pub recur_floor: u64,
    /// The reservation-pressure floor: `(trips − 1) × advance` of the
    /// binding block in [`FlowBoundReport::resv`], zero when every block
    /// double-buffers freely.
    pub resv_floor: u64,
    /// The block that binds `resv_floor`, if any.
    pub resv: Option<ResvBound>,
    /// `max(base.lower_bound, recur_floor, resv_floor)` — still provably
    /// ≤ dynamic cycles, and ≥ the PR-5 bound by construction.
    pub lower_bound: u64,
    /// Per-loop decomposition, innermost last, sorted by header.
    pub loops: Vec<LoopBound>,
}

impl FlowBoundReport {
    /// How many cycles the loop-aware floor added over the PR-5 bound.
    pub fn tightening(&self) -> u64 {
        self.lower_bound - self.base.lower_bound
    }
}

/// One loop of `salam_flow::loop_nest` with its body-DAG artifacts.
struct LoopInfo {
    header: BlockId,
    latches: BTreeSet<BlockId>,
    blocks: BTreeSet<BlockId>,
    /// Immediate parent header, if nested.
    parent: Option<BlockId>,
    /// Reverse postorder of the body DAG (back edges removed), header
    /// first.
    rpo: Vec<BlockId>,
    /// Body-DAG predecessors per block.
    preds: BTreeMap<BlockId, Vec<BlockId>>,
    /// Owning block and in-block position of every op in the loop.
    place: HashMap<InstId, (BlockId, usize)>,
}

/// Builds the loop forest with body-DAG orders.
fn loop_forest(f: &Function, cfg: &Cfg) -> Vec<LoopInfo> {
    salam_flow::loop_nest(f, cfg)
        .into_iter()
        .map(|l| {
            let (header, latches, blocks) = (l.header, &l.latches, &l.blocks);
            // Body DAG: edges inside the loop minus latch→header backs.
            let mut preds: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
            for &b in blocks {
                for s in f.successors(b) {
                    if !blocks.contains(&s) || (s == header && latches.contains(&b)) {
                        continue;
                    }
                    preds.entry(s).or_default().push(b);
                }
            }
            // Reverse postorder via DFS from the header over forward
            // body edges.
            let mut rpo = Vec::new();
            let mut seen = BTreeSet::new();
            let mut stack = vec![(header, false)];
            while let Some((b, done)) = stack.pop() {
                if done {
                    rpo.push(b);
                    continue;
                }
                if !seen.insert(b) {
                    continue;
                }
                stack.push((b, true));
                for s in f.successors(b).into_iter().rev() {
                    if blocks.contains(&s) && !(s == header && latches.contains(&b)) {
                        stack.push((s, false));
                    }
                }
            }
            rpo.reverse();
            let mut place = HashMap::new();
            for &b in &rpo {
                for (i, &id) in f.block(b).insts.iter().enumerate() {
                    place.insert(id, (b, i));
                }
            }
            LoopInfo {
                header,
                latches: l.latches,
                blocks: l.blocks,
                parent: l.parent,
                rpo,
                preds,
                place,
            }
        })
        .collect()
}

/// Whether the op `def` provably completes in the *same iteration* of
/// loop `li` before the op at `(use_block, use_pos)` of the loop consumes
/// it: same block and earlier, or a dominating block of the loop. A def
/// outside the loop never qualifies: it ran before the loop, not in the
/// iteration. Inside the loop, every path to a block passes the header
/// last and stays in the loop after it, so a dominating loop block ran
/// earlier in the same iteration.
fn same_iteration(
    li: &LoopInfo,
    dom: &DomTree,
    def: InstId,
    use_block: BlockId,
    use_pos: usize,
) -> bool {
    match li.place.get(&def) {
        Some(&(b, pos)) if b == use_block => pos < use_pos,
        Some(&(b, _)) => dom.dominates(b, use_block),
        None => false,
    }
}

/// Computes the two per-iteration advances of one loop:
///
/// * `adv_chain` — the latency-weighted critical path from the header's
///   import to the latch terminator's issue, following dependency chains
///   across block boundaries (block imports take the `min` over body
///   predecessors, which is sound at joins);
/// * `adv_recurrence` — the heaviest distance-1 recurrence through a
///   header phi: the chain weight from the phi to its back-edge value,
///   minimised over latches (sound for merged multi-latch loops) and
///   maximised over phis.
fn loop_advances(f: &Function, cdfg: &StaticCdfg, li: &LoopInfo, dom: &DomTree) -> (u64, u64) {
    let mut term_lvl: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut lvl: HashMap<InstId, u64> = HashMap::new();
    for &b in &li.rpo {
        let import = if b == li.header {
            0
        } else {
            // A block is imported the cycle its taken predecessor's
            // terminator issues; `min` over predecessors is sound (inner
            // back-edge predecessors not yet levelled are skipped — the
            // first import this iteration arrives through a forward
            // predecessor, so the min over levelled ones lower-bounds it).
            match li
                .preds
                .get(&b)
                .into_iter()
                .flatten()
                .filter_map(|p| term_lvl.get(p))
                .min()
            {
                Some(&m) => m,
                None => continue, // unreachable inside the body
            }
        };
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            let inst = f.inst(id);
            let asap = if inst.op == Opcode::Phi {
                import
            } else {
                let dep = inst
                    .operands
                    .iter()
                    .filter_map(|&v| match f.value_kind(v) {
                        ValueKind::Inst(def) if same_iteration(li, dom, *def, b, pos) => {
                            lvl.get(def).map(|&l| l + chain_weight(cdfg, f, *def))
                        }
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
                import.max(dep)
            };
            lvl.insert(id, asap);
            if inst.op.is_terminator() {
                term_lvl.insert(b, asap);
            }
        }
    }
    let adv_chain = li
        .latches
        .iter()
        .map(|lt| term_lvl.get(lt).copied().unwrap_or(0))
        .min()
        .unwrap_or(0);

    // Distance-1 recurrences: completion offset of each op relative to
    // the phi's availability, following the same same-iteration chains.
    let mut adv_rec = 0u64;
    for &phi_id in &f.block(li.header).insts {
        let phi = f.inst(phi_id);
        if phi.op != Opcode::Phi {
            continue;
        }
        let comp = chain_completion(f, cdfg, li, dom, phi_id, 0);
        // Weight to the back-edge value, minimised over latch incomings.
        let w = phi
            .operands
            .iter()
            .zip(&phi.block_refs)
            .filter(|(_, pred)| li.latches.contains(pred))
            .map(|(&inc, _)| match f.value_kind(inc) {
                ValueKind::Inst(def) => comp.get(def).copied().unwrap_or(0),
                _ => 0,
            })
            .min()
            .unwrap_or(0);
        adv_rec = adv_rec.max(w);
    }
    (adv_chain, adv_rec)
}

/// Completion levels along same-iteration def-use chains rooted at
/// `seed`: `comp[i]` is a lower bound on the cycles between the seed's
/// availability (`seed_val` after its issue) and `i`'s completion, for
/// every op whose value provably derives from the seed within one
/// iteration. Header phis are chain breaks (their inputs are previous-
/// iteration values); body phis contribute the `min` over incomings, and
/// only when every incoming is on the chain — the dynamically-taken edge
/// is unknown.
fn chain_completion(
    f: &Function,
    cdfg: &StaticCdfg,
    li: &LoopInfo,
    dom: &DomTree,
    seed: InstId,
    seed_val: u64,
) -> HashMap<InstId, u64> {
    let mut comp: HashMap<InstId, u64> = HashMap::new();
    comp.insert(seed, seed_val);
    for &b in &li.rpo {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            if id == seed {
                continue;
            }
            let inst = f.inst(id);
            if inst.op == Opcode::Phi {
                if b == li.header {
                    continue;
                }
                let incomings: Vec<Option<u64>> = inst
                    .operands
                    .iter()
                    .map(|&v| match f.value_kind(v) {
                        ValueKind::Inst(def) => comp.get(def).copied(),
                        _ => None,
                    })
                    .collect();
                if let Some(d) = incomings.into_iter().collect::<Option<Vec<_>>>() {
                    if let Some(&m) = d.iter().min() {
                        comp.insert(id, m + chain_weight(cdfg, f, id));
                    }
                }
                continue;
            }
            let dep = inst
                .operands
                .iter()
                .filter_map(|&v| match f.value_kind(v) {
                    // The seed is "available" wherever the chain starts;
                    // chains through other defs need the same-iteration
                    // proof.
                    ValueKind::Inst(def)
                        if *def == seed || same_iteration(li, dom, *def, b, pos) =>
                    {
                        comp.get(def).copied()
                    }
                    _ => None,
                })
                .max();
            if let Some(d) = dep {
                comp.insert(id, d + chain_weight(cdfg, f, id));
            }
        }
    }
    comp
}

/// The heaviest distance-1 same-address memory recurrence of one loop:
/// for each proven `store → load, distance 1` edge (the load re-reads
/// the previous iteration's store), the engine's memory-ordering window
/// holds the load's issue until the store commits, so consecutive store
/// commits are at least `chain(load issue → store commit)` apart. The
/// chain is followed through same-iteration def-use edges from the load
/// to the store; edges whose store does not derive from the load carry
/// no provable serialization and contribute nothing.
fn loop_mem_advance(
    f: &Function,
    cdfg: &StaticCdfg,
    li: &LoopInfo,
    dom: &DomTree,
    deps: &[DepEdge],
    trips: &HashMap<BlockId, u64>,
    latch_traversals: u64,
) -> u64 {
    let mut adv = 0u64;
    for e in deps {
        if e.kind != DepKind::Raw || e.distance != 1 || e.header != li.header {
            continue;
        }
        let (store, load) = (e.from, e.to);
        let (Some(&(sb, _)), Some(&(lb, _))) = (li.place.get(&store), li.place.get(&load)) else {
            continue;
        };
        // The affine pairing covers *every* consecutive iteration only
        // when both endpoints execute once per latch traversal; a
        // conditionally-skipped access breaks the chain.
        if trips.get(&sb).copied().unwrap_or(0) != latch_traversals
            || trips.get(&lb).copied().unwrap_or(0) != latch_traversals
        {
            continue;
        }
        let comp = chain_completion(f, cdfg, li, dom, load, chain_weight(cdfg, f, load));
        if let Some(&d) = comp.get(&store) {
            adv = adv.max(d);
        }
    }
    adv
}

/// Computes the flow-tightened lower bound: the PR-5 floors under the
/// same trips, strengthened by a loop-aware recurrence floor.
///
/// For every natural loop the floor takes the strongest of four sound
/// serializations — `latch_traversals × adv_chain` (consecutive header
/// imports are at least the body critical path apart),
/// `back_edges × adv_recurrence` (loop-carried SSA chains through header
/// phis serialize across iterations), `(latch_traversals − 1) × adv_mem`
/// for single-entry loops (proven distance-1 same-address store→load
/// pairs serialize through the engine's memory-ordering window), and the
/// sum of its children's floors plus its own non-child block chains —
/// and the floors compose up the loop tree by `max`, never by unsound
/// addition. A separate reservation-pressure floor serializes repeated
/// imports of any block too large to double-buffer in the reservation
/// queue.
/// `trips` may come from a dynamic profile or from static
/// [trip inference](salam_flow::trips); the bound is sound for any trips
/// that are exact (absent blocks count as zero, which can only lower
/// it). `deps` carries the statically-proven dependence edges from
/// [`crate::memdep::static_memdeps`] (pass `&[]` to skip the memory
/// recurrence floor).
pub fn flow_lower_bound(
    f: &Function,
    cdfg: &StaticCdfg,
    trips: &HashMap<BlockId, u64>,
    cfg: &BoundConfig,
    deps: &[DepEdge],
) -> FlowBoundReport {
    let base = static_lower_bound(f, cdfg, trips, cfg);
    let term_level: BTreeMap<BlockId, u64> = base
        .blocks
        .iter()
        .map(|b| (b.block, b.term_level))
        .collect();
    let trip_of = |b: BlockId| trips.get(&b).copied().unwrap_or(0);

    let cfg_an = Cfg::new(f);
    let dom = DomTree::new(f, &cfg_an);
    let forest = loop_forest(f, &cfg_an);
    let mut values: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut loops = Vec::new();
    // Innermost-first: process loops by ascending block count so every
    // child's value exists before its parent composes it.
    let mut order: Vec<usize> = (0..forest.len()).collect();
    order.sort_by_key(|&i| (forest[i].blocks.len(), forest[i].header));
    for &i in &order {
        let li = &forest[i];
        let (adv_chain, adv_rec) = loop_advances(f, cdfg, li, &dom);
        let latch_traversals: u64 = li.latches.iter().map(|&lt| trip_of(lt)).sum();
        let adv_mem = loop_mem_advance(f, cdfg, li, &dom, deps, trips, latch_traversals);
        let header_trips = trip_of(li.header);
        // A loop that ran at all was entered at least once; beyond that,
        // every header arrival not explained by a latch execution is an
        // entry. (Latches may also *exit* — rotated loops — so
        // `header − latches` alone would undercount entries.)
        let entries = if header_trips > 0 {
            header_trips.saturating_sub(latch_traversals).max(1)
        } else {
            0
        };
        // Each latch execution spends `adv_chain` cycles between its
        // dominating header import and its own terminator, and those
        // intervals chain sequentially — sound even when some latch
        // executions exit rather than loop back.
        let chain_part = latch_traversals.saturating_mul(adv_chain);
        // Back-edge traversals: one per header arrival that was not an
        // entry, and never more than the latch executions themselves.
        let back_edges = header_trips.saturating_sub(entries).min(latch_traversals);
        let rec_part = back_edges.saturating_mul(adv_rec);
        // Memory recurrences chain consecutive iterations *within* one
        // loop instance only — across instances the engine overlaps the
        // chains (control flow never waits for stores), so the product is
        // sound only for single-entry loops.
        let mem_pairs = if entries <= 1 {
            latch_traversals.saturating_sub(1)
        } else {
            0
        };
        let mem_part = mem_pairs.saturating_mul(adv_mem);
        // Immediate children compose by sum with the loop's own blocks
        // outside any child.
        let children: Vec<&LoopInfo> = forest
            .iter()
            .filter(|c| c.parent == Some(li.header))
            .collect();
        let mut sum_part: u64 = children
            .iter()
            .map(|c| values.get(&c.header).copied().unwrap_or(0))
            .sum();
        for &b in &li.blocks {
            if children.iter().any(|c| c.blocks.contains(&b)) {
                continue;
            }
            sum_part = sum_part.saturating_add(
                trip_of(b).saturating_mul(term_level.get(&b).copied().unwrap_or(0)),
            );
        }
        let value = chain_part.max(rec_part).max(mem_part).max(sum_part);
        values.insert(li.header, value);
        loops.push(LoopBound {
            header: li.header,
            name: f.block(li.header).name.clone(),
            latch_traversals,
            entries,
            adv_chain,
            adv_recurrence: adv_rec,
            adv_mem,
            value,
        });
    }
    loops.sort_by_key(|l| l.header);

    // Function level: top-level loops plus blocks outside every loop.
    let mut recur_floor: u64 = forest
        .iter()
        .filter(|l| l.parent.is_none())
        .map(|l| values.get(&l.header).copied().unwrap_or(0))
        .sum();
    for (bid, _) in f.blocks() {
        if forest.iter().any(|l| l.blocks.contains(&bid)) {
            continue;
        }
        recur_floor = recur_floor.saturating_add(
            trip_of(bid).saturating_mul(term_level.get(&bid).copied().unwrap_or(0)),
        );
    }

    // Reservation pressure: the engine imports a block only when the
    // reservation queue has room for all of it (or sits completely
    // empty). An op at ASAP level > t cannot have issued within t cycles
    // of its block's import, so consecutive imports of a block with I
    // ops are at least `S = min{ t : #{op : asap(op) > t} ≤ R − I }`
    // cycles apart. Imports of one block are totally ordered in time, so
    // the floor composes globally as `(trips − 1) × S` without any
    // cross-instance overlap concern.
    let mut resv_floor = 0u64;
    let mut resv = None;
    for (bid, blk) in f.blocks() {
        let t = trip_of(bid);
        if t < 2 {
            continue;
        }
        let n = blk.insts.len();
        let room = cfg.reservation_entries.saturating_sub(n);
        if n <= room {
            continue;
        }
        let (levels, _, _) = block_asap(f, cdfg, bid);
        let mut asaps: Vec<u64> = blk.insts.iter().map(|id| levels[id]).collect();
        asaps.sort_unstable_by(|a, b| b.cmp(a));
        let advance = asaps[room];
        let v = (t - 1).saturating_mul(advance);
        if advance > 0 && v > resv_floor {
            resv_floor = v;
            resv = Some(ResvBound {
                block: bid,
                name: blk.name.clone(),
                trips: t,
                advance,
            });
        }
    }

    let lower_bound = base.lower_bound.max(recur_floor).max(resv_floor);
    FlowBoundReport {
        base,
        recur_floor,
        resv_floor,
        resv,
        lower_bound,
        loops,
    }
}

/// Cross-checks a bound report against the engine's watchdog threshold:
/// if the provable minimum runtime already exceeds `deadlock_cycles`, a
/// slow-but-healthy run risks being misread (`S001`, warning — the
/// watchdog triggers on *no progress*, not total cycles, so this is a
/// smell rather than a certain failure).
pub fn check_schedule(report: &BoundReport, deadlock_cycles: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if report.lower_bound > deadlock_cycles {
        diags.push(Diagnostic::warning(
            codes::S001,
            Span::func(&report.func_name),
            format!(
                "static lower bound {} exceeds deadlock_cycles {}; \
                 a healthy run of this kernel is slower than the watchdog horizon",
                report.lower_bound, deadlock_cycles
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_profile::HardwareProfile;
    use salam_cdfg::FuConstraints;
    use salam_ir::interp::{run_function, ProfileObserver, RtVal, SparseMemory};
    use salam_ir::{FunctionBuilder, Type};

    fn profile_trips(f: &Function, args: &[RtVal]) -> HashMap<BlockId, u64> {
        let mut obs = ProfileObserver::default();
        let mut mem = SparseMemory::new();
        run_function(f, args, &mut mem, &mut obs, 100_000_000).unwrap();
        obs.block_entries
    }

    /// `for i in 0..n { p[0] = fmul(load p[0], c) }` — one fmul per
    /// iteration, a tight FP chain.
    fn fp_loop(n: i64) -> Function {
        let mut fb = FunctionBuilder::new("fp_loop", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(n);
        fb.counted_loop("i", zero, n, |fb, _iv| {
            let v = fb.load(Type::F64, p, "v");
            let c = fb.f64c(1.5);
            let m = fb.fmul(v, c, "m");
            fb.store(m, p);
        });
        fb.ret();
        fb.finish()
    }

    #[test]
    fn floors_combine_into_the_bound() {
        let f = fp_loop(10);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let report = static_lower_bound(&f, &cdfg, &trips, &BoundConfig::default());
        // Integer control (phi/icmp/br) is latency-0 wiring, so the chain
        // floor contributes nothing here; the single fp_mul unit is the
        // bottleneck: 10 iterations × 3-cycle occupancy.
        let (kind, fu_cycles) = report.fu_floor.clone().expect("fp pool");
        assert_eq!(fu_cycles, 30, "{kind}: {report:?}");
        assert!(report.lower_bound >= 30);
        // The body's critical path load(1)+fmul(3)+store(1) shows in levels.
        let body = report.blocks.iter().find(|b| b.name == "i.body").unwrap();
        assert_eq!(body.crit_path, 5, "{report:?}");
        assert_eq!(body.trips, 10);
    }

    #[test]
    fn fu_floor_scales_with_constraints() {
        let f = fp_loop(16);
        let profile = HardwareProfile::default_40nm();
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let free = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let r_free = static_lower_bound(&f, &free, &trips, &BoundConfig::default());
        // fmul runs 16 times at latency 3 on one unit either way (only one
        // fmul instruction exists), so the FU floor is 48 busy-cycles.
        let (_, fu_cycles) = r_free.fu_floor.clone().expect("has an FP pool");
        assert!(fu_cycles >= 48, "{fu_cycles}");
        // Pipelining drops occupancy to 1 per op.
        let piped = BoundConfig {
            pipelined_fus: true,
            ..BoundConfig::default()
        };
        let r_piped = static_lower_bound(&f, &free, &trips, &piped);
        assert!(r_piped.fu_floor.clone().unwrap().1 <= 16);
    }

    #[test]
    fn tied_fu_floors_name_one_kind() {
        // fft ties its fp add and mul pools, stencil2d its sp ones: the
        // name must not depend on a hash order that differs per map.
        let profile = HardwareProfile::default_40nm();
        for bench in [machsuite::Bench::FftStrided, machsuite::Bench::Stencil2d] {
            let k = bench.build_standard();
            let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
            let (prof, _) = crate::memdep::profile_memdeps(&k.func, &k.args, &k.init);
            let floors: BTreeSet<_> = (0..50)
                .map(|_| {
                    static_lower_bound(&k.func, &cdfg, &prof.block_entries, &BoundConfig::default())
                        .fu_floor
                })
                .collect();
            assert_eq!(floors.len(), 1, "{}: {floors:?}", k.name);
        }
    }

    #[test]
    fn mem_floor_counts_port_throughput() {
        let f = fp_loop(8);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let one_port = BoundConfig {
            read_ports: 1,
            write_ports: 1,
            ..BoundConfig::default()
        };
        let r = static_lower_bound(&f, &cdfg, &trips, &one_port);
        // 8 loads through 1 read port, 8 stores through 1 write port.
        assert_eq!(r.mem_floor, (8, 8));
    }

    #[test]
    fn slack_is_zero_on_the_critical_path() {
        let f = fp_loop(1);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let r = static_lower_bound(&f, &cdfg, &trips, &BoundConfig::default());
        assert!(r.critical_ops().count() > 0);
        for s in &r.slacks {
            assert!(s.alap >= s.asap, "{s:?}");
        }
    }

    /// `acc = 0; for i in 0..n { acc += p[i] }; p[0] = acc` — a
    /// distance-1 fadd recurrence: iterations cannot pipeline past the
    /// accumulator no matter how many FUs exist.
    fn acc_loop(n: i64) -> Function {
        let mut fb = FunctionBuilder::new("acc_loop", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let entry = fb.current_block();
        let header = fb.add_block("header");
        let body = fb.add_block("body");
        let exit = fb.add_block("exit");
        let zero = fb.i64c(0);
        let fz = fb.f64c(0.0);
        let bound = fb.i64c(n);
        fb.br(header);
        fb.position_at(header);
        let (iphi, iv) = fb.phi(Type::I64, "i");
        let (aphi, acc) = fb.phi(Type::F64, "acc");
        let c = fb.icmp(salam_ir::IntPredicate::Slt, iv, bound, "c");
        fb.cond_br(c, body, exit);
        fb.position_at(body);
        let a = fb.gep1(Type::F64, p, iv, "a");
        let v = fb.load(Type::F64, a, "v");
        let acc2 = fb.fadd(acc, v, "acc2");
        let one = fb.i64c(1);
        let inext = fb.add(iv, one, "inext");
        fb.br(header);
        fb.position_at(exit);
        fb.store(acc, p);
        fb.ret();
        fb.add_incoming(iphi, zero, entry);
        fb.add_incoming(iphi, inext, body);
        fb.add_incoming(aphi, fz, entry);
        fb.add_incoming(aphi, acc2, body);
        fb.finish()
    }

    #[test]
    fn accumulator_recurrence_floors_beat_pipelined_fu_floors() {
        let f = acc_loop(10);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let piped = BoundConfig {
            pipelined_fus: true,
            ..BoundConfig::default()
        };
        let r = flow_lower_bound(&f, &cdfg, &trips, &piped, &[]);
        // 10 back edges × the 3-cycle fadd chain through the acc phi.
        let lb = r.loops.iter().find(|l| l.name == "header").unwrap();
        assert_eq!(lb.entries, 1, "{lb:?}");
        assert_eq!(lb.latch_traversals, 10);
        assert_eq!(lb.adv_recurrence, 3);
        assert_eq!(r.recur_floor, 30, "{r:?}");
        // Pipelined FUs drop the base floor below the recurrence: the
        // flow bound is strictly tighter than PR-5's.
        assert!(r.base.lower_bound < 30, "{:?}", r.base);
        assert_eq!(r.lower_bound, 30);
        assert_eq!(r.tightening(), 30 - r.base.lower_bound);
    }

    /// `x = 0; do { x = x*x + 1 } while (x < n)` split across blocks so
    /// the recurrence chain must compose via in-loop dominance.
    fn cross_block_recur(n: i64) -> Function {
        let mut fb = FunctionBuilder::new("xblock", &[]);
        let entry = fb.current_block();
        let header = fb.add_block("header");
        let body = fb.add_block("body");
        let latch = fb.add_block("latch");
        let exit = fb.add_block("exit");
        let zero = fb.i64c(0);
        let bound = fb.i64c(n);
        fb.br(header);
        fb.position_at(header);
        let (xphi, x) = fb.phi(Type::I64, "x");
        let c = fb.icmp(salam_ir::IntPredicate::Slt, x, bound, "c");
        fb.cond_br(c, body, exit);
        fb.position_at(body);
        let m = fb.mul(x, x, "m");
        fb.br(latch);
        fb.position_at(latch);
        let one = fb.i64c(1);
        let xnext = fb.add(m, one, "xnext");
        fb.br(header);
        fb.position_at(exit);
        fb.ret();
        fb.add_incoming(xphi, zero, entry);
        fb.add_incoming(xphi, xnext, latch);
        fb.finish()
    }

    #[test]
    fn cross_block_recurrence_chains_compose_by_dominance() {
        let f = cross_block_recur(10);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        // x: 0, 1, 2, 5, 26 — four back edges.
        let trips = profile_trips(&f, &[]);
        let r = flow_lower_bound(&f, &cdfg, &trips, &BoundConfig::default(), &[]);
        let lb = r.loops.iter().find(|l| l.name == "header").unwrap();
        // mul(3) in `body` chains into add(1) in `latch`: the def block
        // dominates the use block inside the loop, so the composed
        // weight is 4 per iteration even though no single block sees it.
        assert_eq!(lb.adv_recurrence, 4, "{lb:?}");
        assert_eq!(r.recur_floor, 16, "{r:?}");
        // The per-block base bound can't see the cross-block chain.
        assert!(r.lower_bound > r.base.lower_bound, "{r:?}");
    }

    #[test]
    fn rotated_self_loop_counts_a_single_entry() {
        // do-while with header == latch: `i = 0; do { i += 1 } while (i < n)`.
        let mut fb = FunctionBuilder::new("dowhile", &[]);
        let entry = fb.current_block();
        let lp = fb.add_block("loop");
        let exit = fb.add_block("exit");
        let zero = fb.i64c(0);
        let bound = fb.i64c(8);
        fb.br(lp);
        fb.position_at(lp);
        let (iphi, iv) = fb.phi(Type::I64, "i");
        let one = fb.i64c(1);
        let inext = fb.add(iv, one, "inext");
        let c = fb.icmp(salam_ir::IntPredicate::Slt, inext, bound, "c");
        fb.cond_br(c, lp, exit);
        fb.position_at(exit);
        fb.ret();
        fb.add_incoming(iphi, zero, entry);
        fb.add_incoming(iphi, inext, lp);
        let f = fb.finish();
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[]);
        let r = flow_lower_bound(&f, &cdfg, &trips, &BoundConfig::default(), &[]);
        let lb = r.loops.iter().find(|l| l.name == "loop").unwrap();
        // The loop block runs 8 times; the latch IS the header, so only
        // 7 of those executions took the back edge and exactly one
        // arrival was an entry. Miscounting entries here would overclaim.
        assert_eq!(lb.latch_traversals, 8);
        assert_eq!(lb.entries, 1, "{lb:?}");
        assert!(lb.value >= 7, "{lb:?}");
        assert!(r.lower_bound >= r.base.lower_bound);
    }

    #[test]
    fn flow_bound_never_drops_below_the_base_bound() {
        let f = fp_loop(10);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let base = static_lower_bound(&f, &cdfg, &trips, &BoundConfig::default());
        let r = flow_lower_bound(&f, &cdfg, &trips, &BoundConfig::default(), &[]);
        assert!(r.lower_bound >= base.lower_bound);
        assert_eq!(r.base.lower_bound, base.lower_bound);
    }

    #[test]
    fn fixed_address_rmw_forms_a_memory_recurrence() {
        // `p[0] = fmul(load p[0], c)` every iteration: iteration j+1's
        // load cannot issue before iteration j's store commits, so
        // consecutive store commits are ≥ load(1)+fmul(3)+store(1) = 5
        // cycles apart, and the single-entry loop chains all 9 pairs.
        let f = fp_loop(10);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let args = [RtVal::P(0x1000)];
        let trips = profile_trips(&f, &args);
        let deps = crate::memdep::static_memdeps(&f, &salam_flow::analyze(&f, &args));
        let r = flow_lower_bound(&f, &cdfg, &trips, &BoundConfig::default(), &deps.edges);
        let l = r.loops.iter().find(|l| l.name == "i.header").unwrap();
        assert_eq!(l.adv_mem, 5, "{l:?}");
        assert_eq!(l.entries, 1);
        assert_eq!(l.value, 45, "{l:?}");
        assert_eq!(r.lower_bound, 45, "beats the 30-cycle FU floor");
    }

    #[test]
    fn reservation_pressure_serializes_oversized_blocks() {
        // A 6-fmul chain body (10 ops) under a 12-entry queue leaves room
        // for only 2 ops, so the next import waits until every op past
        // the third-largest ASAP level (13) has issued.
        let mut fb = FunctionBuilder::new("big_block", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(8);
        fb.counted_loop("i", zero, n, |fb, _iv| {
            let mut v = fb.load(Type::F64, p, "v");
            for k in 0..6 {
                let c = fb.f64c(1.0 + k as f64);
                v = fb.fmul(v, c, "m");
            }
            fb.store(v, p);
        });
        fb.ret();
        let f = fb.finish();
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let tight = BoundConfig {
            reservation_entries: 12,
            ..BoundConfig::default()
        };
        let r = flow_lower_bound(&f, &cdfg, &trips, &tight, &[]);
        let resv = r.resv.as_ref().expect("body binds the queue");
        assert_eq!(resv.name, "i.body");
        assert_eq!(resv.advance, 13, "{resv:?}");
        assert_eq!(r.resv_floor, 7 * 13);
        assert!(r.lower_bound >= 91);
        // A roomy queue double-buffers the block freely.
        let roomy = flow_lower_bound(&f, &cdfg, &trips, &BoundConfig::default(), &[]);
        assert_eq!(roomy.resv_floor, 0);
        assert!(roomy.resv.is_none());
    }

    #[test]
    fn watchdog_cross_check_warns_when_bound_exceeds_horizon() {
        let f = fp_loop(100);
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&f, &[RtVal::P(0x1000)]);
        let r = static_lower_bound(&f, &cdfg, &trips, &BoundConfig::default());
        assert!(check_schedule(&r, 1_000_000).is_empty());
        let tight = check_schedule(&r, 10);
        assert_eq!(tight.len(), 1);
        assert_eq!(tight[0].code, codes::S001);
        assert_eq!(tight[0].severity, crate::diag::Severity::Warning);
    }
}
