//! # salam-ir
//!
//! An LLVM-like SSA intermediate representation, standing in for the real
//! LLVM IR that gem5-SALAM consumes from clang.
//!
//! gem5-SALAM's front end only depends on IR *structure*: opcodes with SSA
//! operand edges, basic blocks, and terminators. This crate provides exactly
//! that surface:
//!
//! * [`Module`], [`Function`], [`Block`], [`Inst`] — an arena-based IR with
//!   LLVM's common opcodes (integer/float arithmetic, comparisons, casts,
//!   `load`/`store`/`getelementptr`, `phi`/`select`, `br`/`ret`).
//! * [`FunctionBuilder`] — an ergonomic way to construct IR in Rust, used by
//!   the `machsuite` kernels in place of running clang.
//! * [`parse_module`] — a parser for a textual `.ll`-style subset, so kernels
//!   can also be written as LLVM-like assembly.
//! * [`check_function`] — the one IR well-formedness walk (SSA dominance,
//!   types, CFG structure, phi edges, cast widths, plus unreachable-block
//!   and dead-value lints), collecting every [`Finding`] by [`IrRule`];
//!   [`verify_function`] is its fail-fast view.
//! * [`interp`] — a reference interpreter with an observation hook, used for
//!   golden-result checks, trace generation (the Aladdin baseline) and
//!   basic-block trip-count profiling (the HLS reference model).
//! * [`passes`] — dominator-based analyses plus loop unrolling, constant
//!   folding and dead-code elimination, standing in for the clang `-O`
//!   pipeline and `#pragma unroll` knobs the paper uses for design-space
//!   exploration.
//!
//! # Example
//!
//! ```
//! use salam_ir::{FunctionBuilder, Module, Type, parse_module};
//!
//! // Build `c[0] = a[0] + b[0]` for 32-bit integers.
//! let mut m = Module::new("example");
//! let mut fb = FunctionBuilder::new("vadd1", &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr)]);
//! let entry = fb.entry();
//! fb.position_at(entry);
//! let a = fb.arg(0);
//! let b = fb.arg(1);
//! let c = fb.arg(2);
//! let x = fb.load(Type::I32, a, "x");
//! let y = fb.load(Type::I32, b, "y");
//! let s = fb.add(x, y, "s");
//! fb.store(s, c);
//! fb.ret();
//! let f = fb.finish();
//! salam_ir::verify_function(&f).unwrap();
//! m.add_function(f);
//!
//! // The same function, as textual IR.
//! let text = m.to_string();
//! let reparsed = parse_module(&text).unwrap();
//! assert_eq!(reparsed.to_string(), text);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod function;
mod inst;
pub mod interp;
mod parser;
mod printer;
mod types;
mod value;
mod verify;

pub mod analysis;
pub mod passes;

pub use builder::{BuildError, FunctionBuilder};
pub use function::{Block, BlockId, Function, InstId, Module, Param};
pub use inst::{FloatPredicate, Inst, IntPredicate, Opcode};
pub use parser::{parse_module, ParseError};
pub use types::Type;
pub use value::{Constant, ValueId, ValueKind};
pub use verify::{check_function, verify_function, Finding, IrRule, VerifyError};
