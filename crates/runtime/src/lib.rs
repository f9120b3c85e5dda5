//! # salam-runtime
//!
//! The dynamic LLVM runtime engine — the "execute-in-execute" core of
//! gem5-SALAM (paper §III-B).
//!
//! The engine instantiates a *dynamic* CDFG at runtime from the static CDFG
//! elaborated by [`salam_cdfg`]:
//!
//! * a **reservation queue** imports instructions basic block by basic
//!   block, creating per-instance dynamic dependencies by searching earlier
//!   instances (RAW through SSA operands, WAW/WAR through destination
//!   registers, and address-based ordering through memory);
//! * a **compute queue** holds issued compute operations until their
//!   functional-unit latency elapses, enforcing user-imposed FU pool limits
//!   (reuse) and accounting dynamic energy per active unit;
//! * asynchronous **read/write queues** push memory operations into a
//!   [`MemPort`] (a scratchpad, cache hierarchy, or stream interface) and
//!   commit them when completions return — possibly between compute cycles.
//!
//! Because instructions execute with live values, control flow is resolved
//! *during* simulation: data-dependent branches take the path the data
//! dictates, which is exactly what trace-based simulators cannot re-create
//! (Table I of the paper).
//!
//! # Example
//!
//! ```
//! use hw_profile::HardwareProfile;
//! use salam_cdfg::{FuConstraints, StaticCdfg};
//! use salam_ir::{FunctionBuilder, Type, interp::RtVal};
//! use salam_runtime::{Engine, EngineConfig, SimpleMem};
//!
//! // a[i] *= 2 over 8 elements.
//! let mut fb = FunctionBuilder::new("scale", &[("a", Type::Ptr), ("n", Type::I64)]);
//! let (a, n) = (fb.arg(0), fb.arg(1));
//! let zero = fb.i64c(0);
//! fb.counted_loop("i", zero, n, |fb, iv| {
//!     let p = fb.gep1(Type::I64, a, iv, "p");
//!     let x = fb.load(Type::I64, p, "x");
//!     let two = fb.i64c(2);
//!     let y = fb.mul(x, two, "y");
//!     fb.store(y, p);
//! });
//! fb.ret();
//! let f = fb.finish();
//!
//! let profile = HardwareProfile::default_40nm();
//! let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
//! let mut mem = SimpleMem::new(2, 2, 2);
//! mem.memory_mut().write_i64_slice(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
//! let mut engine = Engine::new(f, cdfg, profile, EngineConfig::default(),
//!                              vec![RtVal::P(0x1000), RtVal::I(8)]);
//! while !engine.step(&mut mem) {}
//! assert_eq!(mem.memory_mut().read_i64_slice(0x1000, 8), vec![2, 4, 6, 8, 10, 12, 14, 16]);
//! assert!(engine.stats().cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod port;
pub mod sched;
mod stats;

pub use engine::{Engine, EngineConfig, CANCEL_BATCH};
pub use port::{FaultyPort, MemAccess, MemCompletion, MemPort, RejectCause, Rejection, SimpleMem};
pub use salam_fault::{ConfigError, FaultPlan, SimError, WatchdogSnapshot};
pub use stats::{CycleRecord, EngineStats, IssueClass, StallMix};
