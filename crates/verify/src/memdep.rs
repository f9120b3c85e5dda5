//! Memory-dependence analysis: the dynamic loop-carried profiler shared
//! with the HLS scheduler, plus the static memory lints.
//!
//! Two complementary views live here:
//!
//! * **Dynamic** ([`profile_memdeps`]) — runs the reference interpreter and
//!   records store→load conflicts with their iteration distance in each
//!   innermost loop of `salam_flow`'s loop nest, the way an HLS
//!   co-simulation would. The `salam-hls` scheduler takes its [`MemDeps`]
//!   and walks the same loop nest, so the two agree on loops by
//!   construction.
//! * **Static** — reads the [`FlowFacts`] of one `salam_flow::analyze`
//!   run: its loop nest, its counted induction variables, and per access
//!   the affine address form `base + Σ stride·iv`, its exact footprint
//!   and its range. [`static_memdeps`] proves RAW/WAR/WAW edges between
//!   affine accesses of each innermost loop (`M001`/`M002`);
//!   [`check_bounds`] flags exact footprints that escape every region
//!   (`M003`) and the other accesses whose range is disjoint from every
//!   region (`F001`), skipping dead blocks; and [`check_shared_spm`] flags
//!   overlapping store ranges of accelerators sharing a scratchpad
//!   (`M004`). Anything they cannot prove they stay silent about: the
//!   lints never guess.

use std::collections::HashMap;

use salam_flow::{AccessFact, Affine, FlowFacts};
use salam_ir::analysis::Cfg;
use salam_ir::interp::{run_function, Memory, Observer, ProfileObserver, RtVal, SparseMemory};
use salam_ir::{BlockId, Function, InstId, Opcode, ValueId};

use crate::diag::{codes, Diagnostic, Span};

// ---- dynamic profiling -------------------------------------------------------

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
    let nest = salam_flow::loop_nest(f, &Cfg::new(f));
    let mut inst_loop = HashMap::new();
    for l in salam_flow::innermost(&nest) {
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

// ---- static lints over salam-flow's access facts ----------------------------

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

/// Statically proves same-address relations between memory accesses of
/// each innermost loop and emits the hazard lints (`M001` loop-carried
/// RAW as info, `M002` same-address WAW as warning).
///
/// Only *exact* matches are reported: both accesses must have affine
/// addresses with the same terms, at most one of them over the loop's own
/// induction variable, and the base difference must be divisible by that
/// term's per-iteration address step. Accesses without an affine form
/// generate nothing.
pub fn static_memdeps(f: &Function, facts: &FlowFacts) -> StaticDeps {
    let mut deps = StaticDeps::default();
    for l in salam_flow::innermost(&facts.trips.loops) {
        // Phis of this loop's header are its induction variables.
        let header_phis: Vec<ValueId> = f
            .block(l.header)
            .insts
            .iter()
            .filter(|&&i| f.inst(i).op == Opcode::Phi)
            .filter_map(|&i| f.inst_result(i))
            .collect();
        // In program order, so `a` precedes `b` in every pair below.
        let in_loop: Vec<(&AccessFact, &Affine)> = facts
            .accesses
            .iter()
            .filter(|a| l.blocks.contains(&a.block))
            .filter_map(|a| Some((a, a.affine.as_ref()?)))
            .collect();
        for (i, &(a, fa)) in in_loop.iter().enumerate() {
            for &(b, fb) in &in_loop[i + 1..] {
                if (!a.is_store && !b.is_store) || a.size != b.size || fa.terms != fb.terms {
                    continue;
                }
                // At most one term may run over this loop's own induction
                // variable; its per-iteration address step (0 when the
                // address is invariant in this loop).
                let mut inner = fa.terms.iter().filter(|(v, _)| header_phis.contains(v));
                let iter_step = match (inner.next(), inner.next()) {
                    (None, _) => 0,
                    (Some(&(v, s)), None) => {
                        let step = facts.trips.ivs.get(&v);
                        let Some(step) = step.and_then(|r| i128::from(s).checked_mul(r.step))
                        else {
                            continue;
                        };
                        step
                    }
                    _ => continue,
                };
                let Some(diff) = fa.base.checked_sub(fb.base) else {
                    continue;
                };
                // addr_a(k1) = addr_b(k2)  ⇒  k2 = k1 + diff/iter_step, so
                // the sign of delta says which access executes first.
                let (src, dst, distance) = if iter_step == 0 {
                    if diff != 0 {
                        continue; // distinct fixed addresses, no overlap
                    }
                    // Same fixed address every iteration: program order
                    // decides; a load *before* the store re-reads the
                    // previous iteration's value (distance 1).
                    if !a.is_store && b.is_store {
                        (b, a, 1)
                    } else {
                        (a, b, 0)
                    }
                } else {
                    if diff % iter_step != 0 {
                        continue;
                    }
                    let delta = diff / iter_step;
                    let Ok(d) = u64::try_from(delta.unsigned_abs()) else {
                        continue;
                    };
                    if delta < 0 {
                        (b, a, d)
                    } else {
                        (a, b, d)
                    }
                };
                let kind = match (src.is_store, dst.is_store) {
                    (true, true) => DepKind::Waw,
                    (true, false) => DepKind::Raw,
                    _ => DepKind::War,
                };
                deps.edges.push(DepEdge {
                    kind,
                    from: src.inst,
                    to: dst.inst,
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

/// The bounds check: an error on every access proven to leave all of
/// `regions`, in two groups, each in access order.
///
/// * `M003` — the access's exact footprint escapes every region. Only
///   accesses whose *entire* address set is statically known trigger.
/// * `F001` — an access without an exact footprint (masked indices,
///   division-derived offsets, anything non-affine that interval analysis
///   still bounds) whose whole range is disjoint from every region. Ranges
///   over-approximate the address set, so disjointness proves the access
///   out of bounds on every path. Accesses in blocks `salam-flow`'s
///   constant propagation proves dead are skipped: they never execute.
///
/// An access reports at most once, and every finding is a proof, not a
/// guess.
pub fn check_bounds(f: &Function, facts: &FlowFacts, regions: &[MemRegion]) -> Vec<Diagnostic> {
    let names: Vec<&str> = regions.iter().map(|r| r.label.as_str()).collect();
    let names = names.join(", ");
    // `message` follows the access's kind (`store` or `load`).
    let error = |a: &AccessFact, code, message: String| {
        let kind = if a.is_store { "store" } else { "load" };
        let span = Span::block(&f.name, &f.block(a.block).name);
        Diagnostic::error(code, span, format!("{kind} {message}"))
    };
    let m003 = facts.accesses.iter().filter_map(|a| {
        let (lo, hi) = a.exact?;
        let contained = regions
            .iter()
            .any(|r| lo >= r.lo as i128 && hi <= r.hi as i128);
        (!contained).then(|| {
            let message =
                format!("touches [{lo:#x}, {hi:#x}) which escapes every declared region ({names})");
            error(a, codes::M003, message)
        })
    });
    let f001 = facts
        .accesses
        .iter()
        .filter(|a| a.exact.is_none() && facts.sccp.executable.contains(&a.block))
        .filter_map(|a| {
            let (lo, hi) = a.interval?;
            let disjoint = !regions.is_empty()
                && regions
                    .iter()
                    .all(|r| hi <= r.lo as i128 || lo >= r.hi as i128);
            disjoint.then(|| {
                let message = format!(
                    "range [{lo:#x}, {hi:#x}) is provably disjoint from every declared \
                     region ({names}); the access is out of bounds on every path"
                );
                error(a, codes::F001, message)
            })
        });
    m003.chain(f001).collect()
}

/// Cross-accelerator shared-SPM race lint (`M004`, warning): flags pairs
/// of accelerators whose store ranges into the shared region
/// `[shared_lo, shared_hi)` overlap. Driven by interval analysis, so it
/// covers non-affine addresses, drops stores in provably-dead blocks, and
/// stays silent for accelerator pairs whose bounded store footprints are
/// provably disjoint. Each accelerator supplies the facts of its function
/// under its own argument bindings (`&[]` when unknown).
pub fn check_shared_spm(
    accels: &[(&str, &FlowFacts)],
    shared_lo: u64,
    shared_hi: u64,
) -> Vec<Diagnostic> {
    let per_accel: Vec<Vec<(i128, i128)>> = accels
        .iter()
        .map(|(_, facts)| {
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
    use salam_flow::analyze;
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
        let deps = static_memdeps(&f, &analyze(&f, &args));
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
        let deps = static_memdeps(&k.func, &analyze(&k.func, &k.args));
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
        let oob = check_bounds(&f, &analyze(&f, &args), &tight);
        assert_eq!(oob.len(), 1, "{oob:?}");
        assert_eq!(oob[0].code, codes::M003);
        assert!(check_bounds(&f, &analyze(&f, &args), &roomy).is_empty());
    }

    #[test]
    fn unresolvable_addresses_stay_silent() {
        let f = shift_kernel(0x1000, 8);
        // No argument values: the base pointer is unknown, nothing resolves.
        assert!(check_bounds(&f, &analyze(&f, &[]), &[MemRegion::new(0, 8, "spm")]).is_empty());
        assert!(static_memdeps(&f, &analyze(&f, &[])).diags.is_empty());
    }

    #[test]
    fn overflowing_strides_stay_unresolved() {
        // for i in 0..8 { a[i << 62] = i } — the element stride 8·2⁶²
        // does not fit an i64, so the address has no affine form.
        let mut fb = FunctionBuilder::new("wide", &[("a", Type::Ptr)]);
        let a = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(8);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let k = fb.i64c(62);
            let x = fb.shl(iv, k, "x");
            let p = fb.gep1(Type::I64, a, x, "p");
            fb.store(iv, p);
        });
        fb.ret();
        let f = fb.finish();
        let args = [RtVal::P(0x1000)];
        assert!(static_memdeps(&f, &analyze(&f, &args)).edges.is_empty());
        assert!(check_bounds(
            &f,
            &analyze(&f, &args),
            &[MemRegion::new(0x1000, 0x1040, "spm")]
        )
        .is_empty());
    }

    #[test]
    fn a_multi_latch_loop_reports_each_edge_once() {
        // `for i in 0..8 { *p += 1 }` with two latches, one per parity of
        // i: one loop, so one edge, not one per latch.
        let mut fb = FunctionBuilder::new("two_latches", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let (zero, one, eight) = (fb.i64c(0), fb.i64c(1), fb.i64c(8));
        let pre = fb.current_block();
        let [header, body, even, odd, exit] =
            ["header", "body", "even", "odd", "exit"].map(|n| fb.add_block(n));
        fb.br(header);
        fb.position_at(header);
        let (phi, i) = fb.phi(Type::I64, "i");
        let c = fb.icmp(salam_ir::IntPredicate::Slt, i, eight, "c");
        fb.cond_br(c, body, exit);
        fb.position_at(body);
        let x = fb.load(Type::I64, p, "x");
        let y = fb.add(x, one, "y");
        fb.store(y, p);
        let next = fb.add(i, one, "next");
        let bit = fb.and(i, one, "bit");
        let c2 = fb.icmp(salam_ir::IntPredicate::Eq, bit, zero, "c2");
        fb.cond_br(c2, even, odd);
        for latch in [even, odd] {
            fb.position_at(latch);
            fb.br(header);
            fb.add_incoming(phi, next, latch);
        }
        fb.add_incoming(phi, zero, pre);
        fb.position_at(exit);
        fb.ret();
        let f = fb.finish();
        let deps = static_memdeps(&f, &analyze(&f, &[RtVal::P(0x1000)]));
        assert_eq!(deps.edges.len(), 1, "{:?}", deps.edges);
        assert_eq!(deps.edges[0].kind, DepKind::Raw);
        assert_eq!(deps.edges[0].distance, 1);
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
        let deps = static_memdeps(&f, &analyze(&f, &[RtVal::P(0x2000)]));
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
        let a = analyze(&writer("prod_a", 0x2000_0000), &[]);
        let b = analyze(&writer("prod_b", 0x2000_0040), &[]); // overlaps a's [0x..00, 0x..80)
        let c = analyze(&writer("prod_c", 0x2000_1000), &[]); // disjoint
        let diags = check_shared_spm(
            &[("prod_a", &a), ("prod_b", &b), ("prod_c", &c)],
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
        let facts = analyze(&f, &args);
        // Affine analysis can't see through the mask, but flow proves the
        // store lands in [0x10000, 0x10040) — fully disjoint from the
        // declared region on every path.
        let low = [MemRegion::new(0, 0x100, "spm")];
        let oob = check_bounds(&f, &facts, &low);
        assert_eq!(oob.len(), 1, "{oob:?}");
        assert_eq!(oob[0].code, codes::F001);
        // A region that actually covers the footprint stays silent.
        let roomy = [MemRegion::new(0x10_000, 0x10_000 + 8 * 8, "spm")];
        assert!(check_bounds(&f, &facts, &roomy).is_empty());
    }

    #[test]
    fn affine_resolved_oob_reports_once_as_m003() {
        let f = shift_kernel(0x1000, 8);
        let args = [RtVal::P(0x1000), RtVal::I(8)];
        let facts = analyze(&f, &args);
        let tight = [MemRegion::new(0x1000, 0x1000 + 8 * 8, "spm")];
        // The exact footprint proves this one; the range must not repeat it.
        let found: Vec<_> = check_bounds(&f, &facts, &tight)
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(found, [codes::M003]);
    }

    #[test]
    fn exact_escapes_report_before_range_escapes() {
        // `for i in 0..8 { p[i & 7] = i; p[i + 1] = i }`: the masked store
        // comes first in access order and is range-proven out of bounds
        // (F001); the affine one escapes exactly (M003) and reports first.
        let mut fb = FunctionBuilder::new("both", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let zero = fb.i64c(0);
        let n = fb.i64c(8);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let seven = fb.i64c(7);
            let m = fb.and(iv, seven, "m");
            let masked = fb.gep1(Type::I64, p, m, "masked");
            fb.store(iv, masked);
            let one = fb.i64c(1);
            let i1 = fb.add(iv, one, "i1");
            let shifted = fb.gep1(Type::I64, p, i1, "shifted");
            fb.store(iv, shifted);
        });
        fb.ret();
        let f = fb.finish();
        let facts = analyze(&f, &[RtVal::P(0x1000)]);
        // [0x1040, 0x1048) only: the masked store's [0x1000, 0x1040) misses
        // it entirely, the shifted store's [0x1008, 0x1048) overlaps it.
        let region = [MemRegion::new(0x1040, 0x1048, "spm")];
        let found: Vec<_> = check_bounds(&f, &facts, &region)
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(found, [codes::M003, codes::F001]);
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
            &[
                ("dead_w", &analyze(&dead, &[])),
                ("live_w", &analyze(&live, &[])),
            ],
            0x3000_0000,
            0x3000_1000,
        );
        assert!(flow.is_empty(), "{flow:?}");
    }

    #[test]
    fn flow_shared_spm_covers_non_affine_writers() {
        let a = analyze(&masked_writer("mask_a"), &[RtVal::P(0x2000_0000)]);
        let b = masked_writer("mask_b");
        // Overlaps a's [0x..00, 0x..40).
        let overlap_b = analyze(&b, &[RtVal::P(0x2000_0020)]);
        let disjoint_b = analyze(&b, &[RtVal::P(0x2000_0100)]);
        let racy = check_shared_spm(
            &[("mask_a", &a), ("mask_b", &overlap_b)],
            0x2000_0000,
            0x2001_0000,
        );
        assert_eq!(racy.len(), 1, "{racy:?}");
        assert_eq!(racy[0].code, codes::M004);
        let safe = check_shared_spm(
            &[("mask_a", &a), ("mask_b", &disjoint_b)],
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
            let facts = analyze(&k.func, &k.args);
            let deps = static_memdeps(&k.func, &facts);
            let errors: Vec<_> = deps
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", k.name);
            let (lo, hi) = k.footprint;
            let oob = check_bounds(&k.func, &facts, &[MemRegion::new(lo, hi, "footprint")]);
            assert!(oob.is_empty(), "{}: {oob:?}", k.name);
        }
    }
}
