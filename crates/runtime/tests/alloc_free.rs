//! The engine's data path allocates nothing per access: store payloads,
//! load results and each cycle's completions travel inline or in buffers
//! that are reused, so a run's heap allocations grow with the logarithm of
//! its length (amortised table growth), not with its loads, stores or
//! cycles. Recording a depstream and decoding one allocate nothing per op
//! either: producers go to flat arrays, names are interned once per
//! instruction.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hw_profile::HardwareProfile;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{FunctionBuilder, Type};
use salam_obs::DepStream;
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

/// One `vadd_run`: heap allocations made by the run itself, the dynamic
/// instructions it issued and, when recorded, its depstream.
struct Run {
    allocations: u64,
    insts: u64,
    stream: Option<DepStream>,
}

/// `c[i] = a[i] + b[i]` over `n` doubles on a `SimpleMem`, recording the
/// depstream when `record` is set.
fn vadd_run(n: u64, record: bool) -> Run {
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
    let cfg = EngineConfig {
        record_depstream: record,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(f, cdfg, profile, cfg, args);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_to_completion(&mut mem);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(mem
        .memory_mut()
        .read_f64_slice(pc, n as usize)
        .iter()
        .all(|&v| v == 3.0));
    let insts = engine.stats().total_issued();
    Run {
        allocations,
        insts,
        stream: engine.into_stats().depstream,
    }
}

/// Heap allocations `f` makes.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocations added per dynamic instruction from the 256- to the
/// 8192-element run.
fn added_per_inst(record: bool) -> f64 {
    let (small, large) = (vadd_run(256, record), vadd_run(8192, record));
    let added = large.allocations.saturating_sub(small.allocations);
    let per_inst = added as f64 / (large.insts - small.insts) as f64;
    eprintln!(
        "record={record}: {added} more allocations for {} more dynamic instructions \
         ({} → {} allocations)",
        large.insts - small.insts,
        small.allocations,
        large.allocations
    );
    per_inst
}

#[test]
fn engine_allocations_do_not_grow_with_accesses() {
    // 7 936 more iterations, each two loads, a store and at least one
    // cycle: one allocation per access would add ~24 000.
    assert!(added_per_inst(false) < 0.005);

    // One allocation per recorded op would add one per dynamic
    // instruction.
    assert!(added_per_inst(true) < 0.01);

    // Decoding the recorded stream: the tables and the two flat arrays
    // grow by doubling; no row allocates.
    let stream = vadd_run(8192, true).stream.expect("recorded");
    let text = stream.to_json();
    let (decoding, back) = allocations_of(|| DepStream::from_json(&text));
    assert_eq!(back.as_ref(), Ok(&stream));
    let per_op = decoding as f64 / stream.len() as f64;
    assert!(
        per_op < 0.01,
        "{decoding} allocations decoding {} ops",
        stream.len()
    );
}
