//! # salam-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! * [`exp`] — one function per paper table/figure, each returning its
//!   tables and its checked claims; the `exp` binary prints them and
//!   `tests/experiments.rs` holds them to EXPERIMENTS.md.
//! * [`table`] — the error metrics the validation experiments share.
//! * [`cli`] — the shared argument-parsing helper and exit-code
//!   conventions every workspace binary follows.
//! * [`bottleneck`] — profiled runs (cycle attribution + dynamic critical
//!   path) and the deterministic renderers behind `salam_report`.
//! * [`runners`] — timed runs of the three execution models (SALAM engine,
//!   HLS static schedule, Aladdin trace flow) on MachSuite kernels.
//! * [`cnn`] — the CNN layer-1 kernels (conv/ReLU/pool) of §IV-E, including
//!   streaming variants with a line-buffered pooler.
//! * [`fig16`] — the three producer-consumer integration scenarios of
//!   Fig. 16 as full-system simulations.
//! * [`table3`] — the end-to-end system-validation flow of Table III
//!   (DMA in → accelerate → DMA out) with its analytical reference model.
//!
//! [`microbench`] is the plain-timing harness of the engine and memory
//! system benches in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottleneck;
pub mod cli;
pub mod cnn;
pub mod exp;
pub mod fig16;
pub mod microbench;
pub mod runners;
pub mod table;
pub mod table3;
