//! The engine's data path allocates nothing per access: store payloads,
//! load results and each cycle's completions travel inline or in buffers
//! that are reused, so a run's heap allocations grow with the logarithm of
//! its length (amortised table growth), not with its loads, stores or
//! cycles.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hw_profile::HardwareProfile;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{FunctionBuilder, Type};
use salam_runtime::{Engine, EngineConfig, SimpleMem};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `c[i] = a[i] + b[i]` over `n` doubles on a `SimpleMem`: heap
/// allocations made by the run itself, and the dynamic instructions it
/// issued.
fn vadd_run(n: u64) -> (u64, u64) {
    let mut fb = FunctionBuilder::new(
        "vadd",
        &[
            ("a", Type::Ptr),
            ("b", Type::Ptr),
            ("c", Type::Ptr),
            ("n", Type::I64),
        ],
    );
    let (a, b, c, len) = (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3));
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, len, |fb, i| {
        let pa = fb.gep1(Type::F64, a, i, "pa");
        let pb = fb.gep1(Type::F64, b, i, "pb");
        let pc = fb.gep1(Type::F64, c, i, "pc");
        let x = fb.load(Type::F64, pa, "x");
        let y = fb.load(Type::F64, pb, "y");
        let s = fb.fadd(x, y, "s");
        fb.store(s, pc);
    });
    fb.ret();
    let f = fb.finish();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let (pa, pb, pc) = (0x10_0000, 0x20_0000, 0x30_0000);
    let mut mem = SimpleMem::new(2, 2, 2);
    mem.memory_mut().write_f64_slice(pa, &vec![1.0; n as usize]);
    mem.memory_mut().write_f64_slice(pb, &vec![2.0; n as usize]);
    // Map the output pages up front: first-touch page frames belong to
    // the memory model, not to the data path under test.
    mem.memory_mut().write_f64_slice(pc, &vec![0.0; n as usize]);
    let args = vec![RtVal::P(pa), RtVal::P(pb), RtVal::P(pc), RtVal::I(n as i64)];
    let mut engine = Engine::new(f, cdfg, profile, EngineConfig::default(), args);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_to_completion(&mut mem);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(mem
        .memory_mut()
        .read_f64_slice(pc, n as usize)
        .iter()
        .all(|&v| v == 3.0));
    (allocations, engine.stats().total_issued())
}

#[test]
fn engine_allocations_do_not_grow_with_accesses() {
    let (small, small_insts) = vadd_run(256);
    let (large, large_insts) = vadd_run(8192);
    let added = large.saturating_sub(small);
    let per_inst = added as f64 / (large_insts - small_insts) as f64;
    // 7 936 more iterations, each two loads, a store and at least one
    // cycle: one allocation per access would add ~24 000.
    assert!(
        per_inst < 0.005,
        "{added} more allocations for {} more dynamic instructions \
         ({small} → {large} allocations)",
        large_insts - small_insts
    );
}
