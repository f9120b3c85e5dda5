//! Memory-dependence analysis: the dynamic loop-carried profiler shared
//! with the HLS scheduler, plus a purely static affine-address analyzer
//! feeding the hazard lints.
//!
//! Two complementary views live here:
//!
//! * **Dynamic** ([`profile_memdeps`]) — runs the reference interpreter and
//!   records store→load conflicts with their iteration distance, the way an
//!   HLS co-simulation would. This is the pass `salam-hls` re-exports; the
//!   scheduler and the lint agree on dependence edges by construction.
//! * **Static** ([`analyze_accesses`], [`static_memdeps`], [`check_bounds`])
//!   — resolves load/store addresses into affine forms `base + Σ
//!   stride·iv` over counted-loop induction variables. Where resolution is
//!   *exact* it emits RAW/WAR/WAW dependence edges (`M001`/`M002`) and
//!   statically-out-of-bounds accesses (`M003`). Anything it cannot prove
//!   it stays silent about: the lint never guesses.
//!
//! Two lints run on `salam-flow`'s range analysis instead, which also
//! bounds non-affine addresses and knows which blocks are dead:
//! [`check_bounds_flow`] (`F001`) and the cross-accelerator shared-SPM
//! write-race lint [`check_shared_spm`] (`M004`).

use std::collections::HashMap;

use salam_ir::analysis::{find_natural_loops, Cfg, DomTree};
use salam_ir::interp::{run_function, Memory, Observer, ProfileObserver, RtVal, SparseMemory};
use salam_ir::{BlockId, Function, InstId, Opcode, Type, ValueId, ValueKind};

use crate::diag::{codes, Diagnostic, Span};

// ---- dynamic profiling (promoted from crates/hls) --------------------------

/// Loop-carried RAW memory dependences, keyed by loop header: each entry is
/// `(load, store, iteration distance)` meaning the load at distance `d`
/// iterations after the store reads the store's address.
#[derive(Debug, Clone, Default)]
pub struct MemDeps {
    by_header: HashMap<BlockId, Vec<(InstId, InstId, u64)>>,
}

impl MemDeps {
    /// Dependences recorded for the loop headed at `header`.
    pub fn for_header(&self, header: BlockId) -> &[(InstId, InstId, u64)] {
        self.by_header
            .get(&header)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total recorded dependences.
    pub fn len(&self) -> usize {
        self.by_header.values().map(Vec::len).sum()
    }

    /// Whether any dependences were found.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All recorded distances (diagnostics).
    pub fn by_header_distances(&self) -> Vec<u64> {
        self.by_header
            .values()
            .flatten()
            .map(|&(_, _, d)| d)
            .collect()
    }
}

struct DepObserver {
    /// innermost loop header per instruction (if any).
    inst_loop: HashMap<InstId, BlockId>,
    /// iteration clock per header.
    header_clock: HashMap<BlockId, u64>,
    /// address -> (store inst, its loop header, header clock at store).
    last_store: HashMap<u64, (InstId, BlockId, u64)>,
    /// (header, load, store) -> min distance.
    found: HashMap<(BlockId, InstId, InstId), u64>,
    profile: ProfileObserver,
}

impl Observer for DepObserver {
    fn on_block_enter(&mut self, f: &Function, b: BlockId) {
        *self.header_clock.entry(b).or_insert(0) += 1;
        self.profile.on_block_enter(f, b);
    }

    fn on_inst(&mut self, f: &Function, id: InstId, result: Option<&RtVal>, mem_addr: Option<u64>) {
        self.profile.on_inst(f, id, result, mem_addr);
        let Some(addr) = mem_addr else { return };
        match f.inst(id).op {
            Opcode::Store => {
                if let Some(&header) = self.inst_loop.get(&id) {
                    let clock = self.header_clock.get(&header).copied().unwrap_or(0);
                    self.last_store.insert(addr, (id, header, clock));
                } else {
                    self.last_store.remove(&addr);
                }
            }
            Opcode::Load => {
                let Some(&(store, s_header, s_clock)) = self.last_store.get(&addr) else {
                    return;
                };
                let Some(&l_header) = self.inst_loop.get(&id) else {
                    return;
                };
                if l_header != s_header {
                    return;
                }
                let now = self.header_clock.get(&l_header).copied().unwrap_or(0);
                let distance = now.saturating_sub(s_clock);
                if distance >= 1 {
                    let e = self.found.entry((l_header, id, store)).or_insert(distance);
                    *e = (*e).min(distance);
                }
            }
            _ => {}
        }
    }
}

/// Profiles `f` and returns block trip counts plus loop-carried memory
/// dependences for its innermost loops.
///
/// # Panics
///
/// Panics if the reference execution faults.
pub fn profile_memdeps(
    f: &Function,
    args: &[RtVal],
    init: &[(u64, Vec<u8>)],
) -> (ProfileObserver, MemDeps) {
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let loops = find_natural_loops(f, &cfg, &dom);
    let innermost: Vec<_> = loops
        .iter()
        .filter(|l| {
            !loops
                .iter()
                .any(|o| o.header != l.header && l.blocks.contains(&o.header))
        })
        .collect();
    let mut inst_loop = HashMap::new();
    for l in &innermost {
        for &b in &l.blocks {
            for &i in &f.block(b).insts {
                inst_loop.insert(i, l.header);
            }
        }
    }
    let mut obs = DepObserver {
        inst_loop,
        header_clock: HashMap::new(),
        last_store: HashMap::new(),
        found: HashMap::new(),
        profile: ProfileObserver::default(),
    };
    let mut mem = SparseMemory::new();
    for (addr, bytes) in init {
        mem.write(*addr, bytes);
    }
    run_function(f, args, &mut mem, &mut obs, 500_000_000).expect("profiling run");

    let mut deps = MemDeps::default();
    for ((header, load, store), distance) in obs.found {
        deps.by_header
            .entry(header)
            .or_default()
            .push((load, store, distance));
    }
    (obs.profile, deps)
}

// ---- static affine address analysis ----------------------------------------

/// An address as `base + Σ stride·phi`, where each term ranges over a
/// counted-loop induction variable. `base` folds in every constant and
/// every argument value the caller supplied.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Affine {
    base: i128,
    /// `(phi value, stride)`, sorted by value id, strides nonzero.
    terms: Vec<(ValueId, i64)>,
}

impl Affine {
    fn constant(base: i128) -> Self {
        Affine {
            base,
            terms: Vec::new(),
        }
    }

    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    fn normalize(mut self) -> Self {
        self.terms.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(ValueId, i64)> = Vec::with_capacity(self.terms.len());
        for (v, s) in self.terms {
            match merged.last_mut() {
                Some((lv, ls)) if *lv == v => *ls += s,
                _ => merged.push((v, s)),
            }
        }
        merged.retain(|&(_, s)| s != 0);
        self.terms = merged;
        self
    }

    fn add(&self, other: &Affine, sign: i64) -> Affine {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().map(|&(v, s)| (v, s * sign)));
        Affine {
            base: self.base + other.base * sign as i128,
            terms,
        }
        .normalize()
    }

    fn scale(&self, k: i64) -> Affine {
        Affine {
            base: self.base * k as i128,
            terms: self.terms.iter().map(|&(v, s)| (v, s * k)).collect(),
        }
        .normalize()
    }
}

/// The exact value set of one counted-loop induction variable:
/// `start, start+step, …` for `count` iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvRange {
    /// First value.
    pub start: i128,
    /// Per-iteration increment (positive).
    pub step: i64,
    /// Number of values taken (0 means the loop body never runs).
    pub count: u64,
}

impl IvRange {
    fn last(&self) -> i128 {
        if self.count == 0 {
            self.start
        } else {
            self.start + self.step as i128 * (self.count as i128 - 1)
        }
    }
}

/// One load/store whose address resolved to an affine form.
#[derive(Debug, Clone)]
pub struct StaticAccess {
    /// The instruction.
    pub inst: InstId,
    /// Its block.
    pub block: BlockId,
    /// `true` for stores.
    pub is_store: bool,
    /// Bytes touched per access.
    pub size: u64,
    /// Address interval `[lo, hi)` over all iterations, when every term's
    /// induction variable has an exact [`IvRange`].
    pub interval: Option<(i128, i128)>,
    base: i128,
    terms: Vec<(ValueId, i64)>,
}

/// A static dependence edge between two memory instructions in the same
/// innermost loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Store feeds a later load of the same address.
    Raw,
    /// Load precedes a store to the same address.
    War,
    /// Two stores hit the same address.
    Waw,
}

/// A statically-proven same-address relation, with the iteration distance
/// in the innermost loop (0 = same iteration).
#[derive(Debug, Clone, Copy)]
pub struct DepEdge {
    /// Kind of hazard.
    pub kind: DepKind,
    /// Earlier access (program order for distance 0, producing access for
    /// loop-carried edges).
    pub from: InstId,
    /// Later access.
    pub to: InstId,
    /// Iteration distance in the innermost loop.
    pub distance: u64,
    /// The loop header the edge belongs to.
    pub header: BlockId,
}

/// The static analyzer's view of one function.
#[derive(Debug, Clone, Default)]
pub struct StaticDeps {
    /// All same-address edges proven.
    pub edges: Vec<DepEdge>,
    /// Hazard lints: `M001` (loop-carried RAW, info) and `M002`
    /// (same-address WAW, warning).
    pub diags: Vec<Diagnostic>,
}

struct Resolver<'a> {
    f: &'a Function,
    args: &'a [RtVal],
    memo: HashMap<ValueId, Option<Affine>>,
    ranges: HashMap<ValueId, IvRange>,
}

impl<'a> Resolver<'a> {
    fn new(f: &'a Function, args: &'a [RtVal]) -> Self {
        let mut r = Resolver {
            f,
            args,
            memo: HashMap::new(),
            ranges: HashMap::new(),
        };
        r.derive_iv_ranges();
        r
    }

    /// Resolves `v` to an affine form, or `None` when it depends on memory,
    /// floats, unknown arguments, or non-affine arithmetic.
    fn resolve(&mut self, v: ValueId) -> Option<Affine> {
        if let Some(cached) = self.memo.get(&v) {
            return cached.clone();
        }
        // Break self-reference through phis: a phi is its own symbol.
        let result = self.resolve_uncached(v);
        self.memo.insert(v, result.clone());
        result
    }

    fn resolve_uncached(&mut self, v: ValueId) -> Option<Affine> {
        match self.f.value_kind(v).clone() {
            ValueKind::Const(c) => c.as_int().map(|i| Affine::constant(i as i128)),
            ValueKind::Arg(i) => match self.args.get(i as usize) {
                Some(RtVal::P(p)) => Some(Affine::constant(*p as i128)),
                Some(RtVal::I(x)) => Some(Affine::constant(*x as i128)),
                _ => None,
            },
            ValueKind::Inst(id) => {
                let inst = self.f.inst(id).clone();
                match inst.op {
                    Opcode::Phi => Some(Affine {
                        base: 0,
                        terms: vec![(v, 1)],
                    }),
                    Opcode::Add => {
                        let a = self.resolve(inst.operands[0])?;
                        let b = self.resolve(inst.operands[1])?;
                        Some(a.add(&b, 1))
                    }
                    Opcode::Sub => {
                        let a = self.resolve(inst.operands[0])?;
                        let b = self.resolve(inst.operands[1])?;
                        Some(a.add(&b, -1))
                    }
                    Opcode::Mul => {
                        let a = self.resolve(inst.operands[0])?;
                        let b = self.resolve(inst.operands[1])?;
                        if b.is_constant() {
                            Some(a.scale(i64::try_from(b.base).ok()?))
                        } else if a.is_constant() {
                            Some(b.scale(i64::try_from(a.base).ok()?))
                        } else {
                            None
                        }
                    }
                    Opcode::Shl => {
                        let a = self.resolve(inst.operands[0])?;
                        let b = self.resolve(inst.operands[1])?;
                        if b.is_constant() && (0..=62).contains(&b.base) {
                            Some(a.scale(1i64 << b.base))
                        } else {
                            None
                        }
                    }
                    // Width changes are treated as value-preserving; address
                    // arithmetic in well-typed kernels never wraps.
                    Opcode::SExt
                    | Opcode::ZExt
                    | Opcode::Trunc
                    | Opcode::BitCast
                    | Opcode::PtrToInt
                    | Opcode::IntToPtr => self.resolve(inst.operands[0]),
                    Opcode::Gep { ref elem } => {
                        let mut addr = self.resolve(inst.operands[0])?;
                        let mut cur: Type = elem.clone();
                        for (k, &idx) in inst.operands[1..].iter().enumerate() {
                            if k > 0 {
                                let Type::Array { elem, .. } = cur else {
                                    return None;
                                };
                                cur = *elem;
                            }
                            let i = self.resolve(idx)?;
                            let sz = i64::try_from(cur.size_bytes()).ok()?;
                            addr = addr.add(&i.scale(sz), 1);
                        }
                        Some(addr)
                    }
                    _ => None,
                }
            }
        }
    }

    /// Pattern-matches every phi against the canonical counted-loop shape
    /// (`phi [c0, pre], [iv+step, latch]` with a `icmp {slt,ult,sle,ule}
    /// iv, bound` feeding the header's `cond_br`) and records the exact
    /// value range when init, step and bound all fold to constants.
    fn derive_iv_ranges(&mut self) {
        let f = self.f;
        let mut found: Vec<(ValueId, IvRange)> = Vec::new();
        for (bid, b) in f.blocks() {
            for &pid in &b.insts {
                let phi = f.inst(pid);
                if phi.op != Opcode::Phi || phi.operands.len() != 2 {
                    continue;
                }
                let Some(phi_v) = f.inst_result(pid) else {
                    continue;
                };
                // One incoming must be `phi + step`, the other the start.
                let mut start = None;
                let mut step: Option<i64> = None;
                for &inc in &phi.operands {
                    if let ValueKind::Inst(def) = f.value_kind(inc) {
                        let d = f.inst(*def);
                        if d.op == Opcode::Add && d.operands.contains(&phi_v) {
                            let other = if d.operands[0] == phi_v {
                                d.operands[1]
                            } else {
                                d.operands[0]
                            };
                            if let Some(a) = self.resolve(other) {
                                if a.is_constant() {
                                    step = i64::try_from(a.base).ok();
                                    continue;
                                }
                            }
                            continue;
                        }
                    }
                    if let Some(a) = self.resolve(inc) {
                        if a.is_constant() {
                            start = Some(a.base);
                        }
                    }
                }
                let (Some(start), Some(step)) = (start, step) else {
                    continue;
                };
                if step <= 0 {
                    continue;
                }
                // The header's conditional exit test bounds the range.
                let Some(term) = f.terminator(bid) else {
                    continue;
                };
                if f.inst(term).op != Opcode::CondBr {
                    continue;
                }
                let cond = f.inst(term).operands[0];
                let ValueKind::Inst(cmp_id) = f.value_kind(cond) else {
                    continue;
                };
                let cmp = f.inst(*cmp_id);
                let Opcode::ICmp(pred) = &cmp.op else {
                    continue;
                };
                use salam_ir::IntPredicate as P;
                let inclusive = match pred {
                    P::Slt | P::Ult => false,
                    P::Sle | P::Ule => true,
                    _ => continue,
                };
                if cmp.operands[0] != phi_v {
                    continue;
                }
                let Some(bound) = self.resolve(cmp.operands[1]) else {
                    continue;
                };
                if !bound.is_constant() {
                    continue;
                }
                let end = bound.base;
                let count = if inclusive {
                    if start > end {
                        0
                    } else {
                        ((end - start) / step as i128 + 1) as u64
                    }
                } else if start >= end {
                    0
                } else {
                    ((end - start + step as i128 - 1) / step as i128) as u64
                };
                found.push((phi_v, IvRange { start, step, count }));
            }
        }
        self.ranges.extend(found);
    }

    fn interval(&self, a: &Affine, size: u64) -> Option<(i128, i128)> {
        let (mut lo, mut hi) = (a.base, a.base);
        for &(v, s) in &a.terms {
            let r = self.ranges.get(&v)?;
            if r.count == 0 {
                return None; // never executed
            }
            let (c0, c1) = (s as i128 * r.start, s as i128 * r.last());
            lo += c0.min(c1);
            hi += c0.max(c1);
        }
        Some((lo, hi + size as i128))
    }
}

fn access_size(f: &Function, id: InstId) -> u64 {
    let inst = f.inst(id);
    match inst.op {
        Opcode::Load => inst.ty.size_bytes(),
        Opcode::Store => f.value_type(inst.operands[0]).size_bytes(),
        _ => 0,
    }
}

/// Resolves every load/store of `f` whose address folds to an affine form
/// over counted-loop induction variables. `args` supplies concrete values
/// for pointer/integer arguments (pass `&[]` when unknown — accesses whose
/// addresses depend on them are simply skipped).
pub fn analyze_accesses(f: &Function, args: &[RtVal]) -> Vec<StaticAccess> {
    let mut r = Resolver::new(f, args);
    let mut out = Vec::new();
    for (bid, b) in f.blocks() {
        for &id in &b.insts {
            let inst = f.inst(id);
            let is_store = inst.op == Opcode::Store;
            if !is_store && inst.op != Opcode::Load {
                continue;
            }
            let ptr = if is_store {
                inst.operands[1]
            } else {
                inst.operands[0]
            };
            let Some(a) = r.resolve(ptr) else { continue };
            let size = access_size(f, id);
            let interval = r.interval(&a, size);
            out.push(StaticAccess {
                inst: id,
                block: bid,
                is_store,
                size,
                interval,
                base: a.base,
                terms: a.terms,
            });
        }
    }
    out
}

/// Statically proves same-address relations between memory accesses of
/// each innermost loop and emits the hazard lints (`M001` loop-carried
/// RAW as info, `M002` same-address WAW as warning).
///
/// Only *exact* matches are reported: both accesses must share the same
/// affine terms, with at most one term over the loop's own induction
/// variable, and the base difference must be divisible by that term's
/// per-iteration address step. Unresolvable accesses generate nothing.
pub fn static_memdeps(f: &Function, args: &[RtVal]) -> StaticDeps {
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let loops = find_natural_loops(f, &cfg, &dom);
    let innermost: Vec<_> = loops
        .iter()
        .filter(|l| {
            !loops
                .iter()
                .any(|o| o.header != l.header && l.blocks.contains(&o.header))
        })
        .collect();

    let resolver = Resolver::new(f, args);
    let accesses = analyze_accesses(f, args);
    // Program order of instructions, for distance-0 direction.
    let mut order: HashMap<InstId, usize> = HashMap::new();
    let mut pos = 0usize;
    for (_, b) in f.blocks() {
        for &i in &b.insts {
            order.insert(i, pos);
            pos += 1;
        }
    }

    let mut deps = StaticDeps::default();
    for l in &innermost {
        // Phis of this loop's header are its induction variables.
        let header_phis: Vec<ValueId> = f
            .block(l.header)
            .insts
            .iter()
            .filter(|&&i| f.inst(i).op == Opcode::Phi)
            .filter_map(|&i| f.inst_result(i))
            .collect();
        let in_loop: Vec<&StaticAccess> = accesses
            .iter()
            .filter(|a| l.blocks.contains(&a.block))
            .collect();
        for (i, a) in in_loop.iter().enumerate() {
            for b in in_loop.iter().skip(i + 1) {
                if !a.is_store && !b.is_store {
                    continue;
                }
                if a.size != b.size {
                    continue;
                }
                // Split terms into the (single) inner-IV term and the rest,
                // which must match exactly.
                type SplitTerms = (Option<(ValueId, i64)>, Vec<(ValueId, i64)>);
                let split = |acc: &StaticAccess| -> Option<SplitTerms> {
                    let mut inner = None;
                    let mut outer = Vec::new();
                    for &(v, s) in &acc.terms {
                        if header_phis.contains(&v) {
                            if inner.is_some() {
                                return None;
                            }
                            inner = Some((v, s));
                        } else {
                            outer.push((v, s));
                        }
                    }
                    Some((inner, outer))
                };
                let (Some((ia, oa)), Some((ib, ob))) = (split(a), split(b)) else {
                    continue;
                };
                if oa != ob || ia != ib {
                    continue;
                }
                // Per-iteration address step of the inner term (0 when the
                // address is invariant in this loop).
                let iter_step: i128 = match ia {
                    Some((v, s)) => {
                        let Some(r) = resolver.ranges.get(&v) else {
                            continue;
                        };
                        s as i128 * r.step as i128
                    }
                    None => 0,
                };
                // addr_a(k1) = addr_b(k2)  ⇒  k2 = k1 + diff/iter_step, so
                // the sign of delta says which access executes first.
                let diff = a.base - b.base;
                let (src, dst, distance): (&StaticAccess, &StaticAccess, u64) = if iter_step == 0 {
                    if diff != 0 {
                        continue; // distinct fixed addresses, no overlap
                    }
                    // Same fixed address every iteration: program order
                    // decides; a load *before* the store re-reads the
                    // previous iteration's value (distance 1).
                    let (f, s) = if order[&a.inst] <= order[&b.inst] {
                        (*a, *b)
                    } else {
                        (*b, *a)
                    };
                    if !f.is_store && s.is_store {
                        (s, f, 1)
                    } else {
                        (f, s, 0)
                    }
                } else {
                    if diff % iter_step != 0 {
                        continue;
                    }
                    let delta = diff / iter_step;
                    if delta > 0 {
                        match u64::try_from(delta) {
                            Ok(d) => (*a, *b, d),
                            Err(_) => continue,
                        }
                    } else if delta < 0 {
                        match u64::try_from(-delta) {
                            Ok(d) => (*b, *a, d),
                            Err(_) => continue,
                        }
                    } else if order[&a.inst] <= order[&b.inst] {
                        (*a, *b, 0)
                    } else {
                        (*b, *a, 0)
                    }
                };
                let (from, to) = (src.inst, dst.inst);
                let kind = match (src.is_store, dst.is_store) {
                    (true, true) => DepKind::Waw,
                    (true, false) => DepKind::Raw,
                    (false, true) => DepKind::War,
                    (false, false) => unreachable!("filtered above"),
                };
                deps.edges.push(DepEdge {
                    kind,
                    from,
                    to,
                    distance,
                    header: l.header,
                });
                let span = Span::block(&f.name, &f.block(src.block).name);
                match kind {
                    DepKind::Raw if distance > 0 => deps.diags.push(Diagnostic::info(
                        codes::M001,
                        span,
                        format!(
                            "loop-carried RAW memory dependence at distance {distance} \
                             (store feeds a load {distance} iteration(s) later); \
                             bounds the initiation interval"
                        ),
                    )),
                    DepKind::Waw => deps.diags.push(Diagnostic::warning(
                        codes::M002,
                        span,
                        format!(
                            "two stores statically hit the same address \
                             (iteration distance {distance}); the earlier value is lost"
                        ),
                    )),
                    _ => {}
                }
            }
        }
    }
    deps
}

/// A named address region accesses are allowed to touch.
#[derive(Debug, Clone)]
pub struct MemRegion {
    /// First valid byte.
    pub lo: u64,
    /// One past the last valid byte.
    pub hi: u64,
    /// Name used in diagnostics (`spm`, `mmr`, …).
    pub label: String,
}

impl MemRegion {
    /// Builds a region.
    pub fn new(lo: u64, hi: u64, label: impl Into<String>) -> Self {
        MemRegion {
            lo,
            hi,
            label: label.into(),
        }
    }
}

/// Flags every fully-resolved access whose address interval escapes all of
/// `regions` (`M003`, error). An access only triggers when its *entire*
/// value set is statically known, so a finding is a proof, not a guess.
pub fn check_bounds(f: &Function, args: &[RtVal], regions: &[MemRegion]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for a in analyze_accesses(f, args) {
        let Some((lo, hi)) = a.interval else { continue };
        let contained = regions
            .iter()
            .any(|r| lo >= r.lo as i128 && hi <= r.hi as i128);
        if !contained {
            let names: Vec<&str> = regions.iter().map(|r| r.label.as_str()).collect();
            diags.push(Diagnostic::error(
                codes::M003,
                Span::block(&f.name, &f.block(a.block).name),
                format!(
                    "{} touches [{lo:#x}, {hi:#x}) which escapes every declared region ({})",
                    if a.is_store { "store" } else { "load" },
                    names.join(", "),
                ),
            ));
        }
    }
    diags
}

/// Range-proven bounds check (`F001`, error), covering accesses the
/// affine resolver cannot fold — masked indices, division-derived
/// offsets, anything non-affine that interval analysis still bounds.
///
/// An access fires only when its *entire* flow interval is disjoint from
/// every declared region: intervals over-approximate the address set, so
/// full disjointness proves the access can never land in bounds. Accesses
/// the affine path fully resolves are left to [`check_bounds`] (`M003`)
/// so one defect reports exactly once; accesses in blocks `salam-flow`'s
/// constant propagation proves dead are skipped — they never execute.
pub fn check_bounds_flow(
    f: &Function,
    facts: &salam_flow::FlowFacts,
    args: &[RtVal],
    regions: &[MemRegion],
) -> Vec<Diagnostic> {
    let affine_resolved: std::collections::BTreeSet<InstId> = analyze_accesses(f, args)
        .into_iter()
        .filter(|a| a.interval.is_some())
        .map(|a| a.inst)
        .collect();
    let mut diags = Vec::new();
    for a in &facts.accesses {
        if affine_resolved.contains(&a.inst) || !facts.sccp.executable.contains(&a.block) {
            continue;
        }
        let Some((lo, hi)) = a.interval else { continue };
        let disjoint = regions
            .iter()
            .all(|r| hi <= r.lo as i128 || lo >= r.hi as i128);
        if disjoint && !regions.is_empty() {
            let names: Vec<&str> = regions.iter().map(|r| r.label.as_str()).collect();
            diags.push(Diagnostic::error(
                codes::F001,
                Span::block(&f.name, &f.block(a.block).name),
                format!(
                    "{} range [{lo:#x}, {hi:#x}) is provably disjoint from every \
                     declared region ({}); the access is out of bounds on every path",
                    if a.is_store { "store" } else { "load" },
                    names.join(", "),
                ),
            ));
        }
    }
    diags
}

/// Cross-accelerator shared-SPM race lint (`M004`, warning): flags pairs
/// of accelerators whose store ranges into the shared region
/// `[shared_lo, shared_hi)` overlap. Driven by interval analysis, so it
/// covers non-affine addresses, drops stores in provably-dead blocks, and
/// stays silent for accelerator pairs whose bounded store footprints are
/// provably disjoint. Each accelerator supplies its own argument bindings
/// for the analysis (`&[]` when unknown).
pub fn check_shared_spm(
    accels: &[(&str, &Function, &[RtVal])],
    shared_lo: u64,
    shared_hi: u64,
) -> Vec<Diagnostic> {
    let per_accel: Vec<Vec<(i128, i128)>> = accels
        .iter()
        .map(|(_, f, args)| {
            let facts = salam_flow::analyze(f, args);
            facts
                .accesses
                .iter()
                .filter(|a| a.is_store && facts.sccp.executable.contains(&a.block))
                .filter_map(|a| a.interval)
                .filter(|&(lo, hi)| hi > shared_lo as i128 && lo < shared_hi as i128)
                .collect()
        })
        .collect();
    let mut diags = Vec::new();
    for (ai, a_spans) in per_accel.iter().enumerate() {
        for (bi, b_spans) in per_accel.iter().enumerate().skip(ai + 1) {
            let overlap = a_spans
                .iter()
                .any(|&(alo, ahi)| b_spans.iter().any(|&(blo, bhi)| alo < bhi && blo < ahi));
            if overlap {
                diags.push(Diagnostic::warning(
                    codes::M004,
                    Span::func(accels[ai].0),
                    format!(
                        "accelerators `{}` and `{}` write overlapping ranges of the \
                         shared scratchpad [{:#x}, {:#x})",
                        accels[ai].0, accels[bi].0, shared_lo, shared_hi
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_ir::{FunctionBuilder, Type};

    // -- dynamic profiler (moved from crates/hls, tests move with it) --------

    #[test]
    fn nw_has_distance_one_recurrence() {
        let k = machsuite::nw::build(&machsuite::nw::Params { alen: 8, blen: 8 });
        let (_, deps) = profile_memdeps(&k.func, &k.args, &k.init);
        assert!(!deps.is_empty(), "NW's DP recurrence must be detected");
        let min_dist = deps.by_header_distances().into_iter().min().unwrap();
        assert_eq!(min_dist, 1, "m[i][j-1] is read one iteration later");
    }

    #[test]
    fn gemm_has_no_loop_carried_memory_raw() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        let (_, deps) = profile_memdeps(&k.func, &k.args, &k.init);
        assert!(deps.is_empty(), "GEMM reads A/B and writes C: {deps:?}");
    }

    #[test]
    fn fft_butterflies_do_not_conflict_across_iterations() {
        let k = machsuite::fft::build(&machsuite::fft::Params { n: 16 });
        let (_, deps) = profile_memdeps(&k.func, &k.args, &k.init);
        // Butterfly addresses within one stage are disjoint; the in-place
        // update conflicts only across *stages* (outer loop), giving large
        // or no distances inside the inner loop.
        let d1 = deps
            .by_header_distances()
            .into_iter()
            .filter(|&d| d == 1)
            .count();
        assert_eq!(d1, 0, "no distance-1 recurrences inside a stage");
    }

    // -- static analyzer -----------------------------------------------------

    /// `for i in 0..n { a[i+1] = a[i] }` — a distance-1 recurrence the
    /// static analyzer must prove without running anything.
    fn shift_kernel(base: u64, n: i64) -> Function {
        let mut fb = FunctionBuilder::new("shift", &[("a", Type::Ptr), ("n", Type::I64)]);
        let a = fb.arg(0);
        let n_v = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n_v, |fb, iv| {
            let src = fb.gep1(Type::I64, a, iv, "src");
            let x = fb.load(Type::I64, src, "x");
            let one = fb.i64c(1);
            let i1 = fb.add(iv, one, "i1");
            let dst = fb.gep1(Type::I64, a, i1, "dst");
            fb.store(x, dst);
        });
        fb.ret();
        let _ = (base, n);
        fb.finish()
    }

    #[test]
    fn static_raw_distance_matches_the_pattern() {
        let f = shift_kernel(0x1000, 8);
        let args = [RtVal::P(0x1000), RtVal::I(8)];
        let deps = static_memdeps(&f, &args);
        let raw: Vec<_> = deps
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Raw)
            .collect();
        assert_eq!(raw.len(), 1, "{:?}", deps.edges);
        assert_eq!(raw[0].distance, 1);
        assert!(deps.diags.iter().any(|d| d.code == codes::M001));
    }

    #[test]
    fn static_and_dynamic_agree_on_nw_distance_one() {
        let k = machsuite::nw::build(&machsuite::nw::Params { alen: 8, blen: 8 });
        let deps = static_memdeps(&k.func, &k.args);
        let static_d1 = deps
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Raw && e.distance == 1);
        assert!(
            static_d1,
            "static analysis must find NW's distance-1 RAW: {:?}",
            deps.edges
        );
    }

    #[test]
    fn oob_store_is_flagged_and_inbounds_is_not() {
        let f = shift_kernel(0x1000, 8);
        let args = [RtVal::P(0x1000), RtVal::I(8)];
        // a[8] is written by the final iteration: 9 slots needed.
        let tight = [MemRegion::new(0x1000, 0x1000 + 8 * 8, "spm")];
        let roomy = [MemRegion::new(0x1000, 0x1000 + 9 * 8, "spm")];
        let oob = check_bounds(&f, &args, &tight);
        assert_eq!(oob.len(), 1, "{oob:?}");
        assert_eq!(oob[0].code, codes::M003);
        assert!(check_bounds(&f, &args, &roomy).is_empty());
    }

    #[test]
    fn unresolvable_addresses_stay_silent() {
        let f = shift_kernel(0x1000, 8);
        // No argument values: the base pointer is unknown, nothing resolves.
        assert!(check_bounds(&f, &[], &[MemRegion::new(0, 8, "spm")]).is_empty());
        assert!(static_memdeps(&f, &[]).diags.is_empty());
    }

    #[test]
    fn waw_between_two_stores_is_flagged() {
        // for i in 0..8 { a[i] = 1; a[i] = 2 } — the first store is dead.
        let mut fb = FunctionBuilder::new("waw", &[("a", Type::Ptr)]);
        let a = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(8);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let p = fb.gep1(Type::I64, a, iv, "p");
            let one = fb.i64c(1);
            let two = fb.i64c(2);
            fb.store(one, p);
            fb.store(two, p);
        });
        fb.ret();
        let f = fb.finish();
        let deps = static_memdeps(&f, &[RtVal::P(0x2000)]);
        assert!(
            deps.diags.iter().any(|d| d.code == codes::M002),
            "{:?}",
            deps.diags
        );
    }

    #[test]
    fn shared_spm_race_is_flagged_across_accelerators() {
        let writer = |name: &str, base: i64| {
            let mut fb = FunctionBuilder::new(name, &[]);
            let addr = fb.i64c(base);
            let p = fb.inttoptr(addr, "p");
            let zero = fb.i64c(0);
            let n = fb.i64c(16);
            fb.counted_loop("i", zero, n, |fb, iv| {
                let dst = fb.gep1(Type::I64, p, iv, "dst");
                fb.store(iv, dst);
            });
            fb.ret();
            fb.finish()
        };
        let a = writer("prod_a", 0x2000_0000);
        let b = writer("prod_b", 0x2000_0040); // overlaps a's [0x..00, 0x..80)
        let c = writer("prod_c", 0x2000_1000); // disjoint
        let diags = check_shared_spm(
            &[
                ("prod_a", &a, &[]),
                ("prod_b", &b, &[]),
                ("prod_c", &c, &[]),
            ],
            0x2000_0000,
            0x2001_0000,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::M004);
        assert!(diags[0].message.contains("prod_a"));
        assert!(diags[0].message.contains("prod_b"));
    }

    // -- flow-based checks ---------------------------------------------------

    /// `for i in 0..16 { p[i & 7] = i }` — a masked index the affine
    /// resolver cannot fold but interval analysis bounds to `[0, 7]`.
    fn masked_writer(name: &str) -> Function {
        let mut fb = FunctionBuilder::new(name, &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(16);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let seven = fb.i64c(7);
            let m = fb.and(iv, seven, "m");
            let dst = fb.gep1(Type::I64, p, m, "dst");
            fb.store(iv, dst);
        });
        fb.ret();
        fb.finish()
    }

    #[test]
    fn masked_index_oob_is_proven_by_ranges() {
        let f = masked_writer("masked");
        let args = [RtVal::P(0x10_000)];
        let facts = salam_flow::analyze(&f, &args);
        // Affine analysis can't see through the mask: silent.
        let low = [MemRegion::new(0, 0x100, "spm")];
        assert!(check_bounds(&f, &args, &low).is_empty());
        // Flow proves the store lands in [0x10000, 0x10040) — fully
        // disjoint from the declared region on every path.
        let oob = check_bounds_flow(&f, &facts, &args, &low);
        assert_eq!(oob.len(), 1, "{oob:?}");
        assert_eq!(oob[0].code, codes::F001);
        // A region that actually covers the footprint stays silent.
        let roomy = [MemRegion::new(0x10_000, 0x10_000 + 8 * 8, "spm")];
        assert!(check_bounds_flow(&f, &facts, &args, &roomy).is_empty());
    }

    #[test]
    fn affine_resolved_oob_reports_once_as_m003() {
        let f = shift_kernel(0x1000, 8);
        let args = [RtVal::P(0x1000), RtVal::I(8)];
        let facts = salam_flow::analyze(&f, &args);
        let tight = [MemRegion::new(0x1000, 0x1000 + 8 * 8, "spm")];
        let affine = check_bounds(&f, &args, &tight);
        let flow = check_bounds_flow(&f, &facts, &args, &tight);
        // The affine path already proved this one; flow must not repeat it.
        assert_eq!(affine.len(), 1);
        assert!(flow.is_empty(), "{flow:?}");
    }

    #[test]
    fn dead_store_does_not_raise_a_flow_shared_spm_race() {
        // `if (5 < 3) { *(0x3000_0000) = 1 }` — the store never runs.
        let mut fb = FunctionBuilder::new("dead_w", &[]);
        let wr = fb.add_block("wr");
        let done = fb.add_block("done");
        let five = fb.i64c(5);
        let three = fb.i64c(3);
        let c = fb.icmp(salam_ir::IntPredicate::Slt, five, three, "c");
        fb.cond_br(c, wr, done);
        fb.position_at(wr);
        let addr = fb.i64c(0x3000_0000);
        let p = fb.inttoptr(addr, "p");
        let one = fb.i64c(1);
        fb.store(one, p);
        fb.br(done);
        fb.position_at(done);
        fb.ret();
        let dead = fb.finish();

        let mut fb = FunctionBuilder::new("live_w", &[]);
        let addr = fb.i64c(0x3000_0000);
        let p = fb.inttoptr(addr, "p");
        let one = fb.i64c(1);
        fb.store(one, p);
        fb.ret();
        let live = fb.finish();

        // Constant propagation proves the guarded store dead: suppressed.
        let flow = check_shared_spm(
            &[("dead_w", &dead, &[]), ("live_w", &live, &[])],
            0x3000_0000,
            0x3000_1000,
        );
        assert!(flow.is_empty(), "{flow:?}");
    }

    #[test]
    fn flow_shared_spm_covers_non_affine_writers() {
        let a = masked_writer("mask_a");
        let b = masked_writer("mask_b");
        let base_a = [RtVal::P(0x2000_0000)];
        let overlap_b = [RtVal::P(0x2000_0020)]; // overlaps a's [0x..00, 0x..40)
        let disjoint_b = [RtVal::P(0x2000_0100)];
        let racy = check_shared_spm(
            &[("mask_a", &a, &base_a), ("mask_b", &b, &overlap_b)],
            0x2000_0000,
            0x2001_0000,
        );
        assert_eq!(racy.len(), 1, "{racy:?}");
        assert_eq!(racy[0].code, codes::M004);
        let safe = check_shared_spm(
            &[("mask_a", &a, &base_a), ("mask_b", &b, &disjoint_b)],
            0x2000_0000,
            0x2001_0000,
        );
        assert!(safe.is_empty(), "{safe:?}");
    }

    #[test]
    fn machsuite_kernels_have_no_static_memory_errors() {
        use crate::diag::Severity;
        for bench in machsuite::Bench::ALL {
            let k = bench.build_standard();
            let deps = static_memdeps(&k.func, &k.args);
            let errors: Vec<_> = deps
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", k.name);
            let (lo, hi) = k.footprint;
            let oob = check_bounds(&k.func, &k.args, &[MemRegion::new(lo, hi, "footprint")]);
            assert!(oob.is_empty(), "{}: {oob:?}", k.name);
        }
    }
}
