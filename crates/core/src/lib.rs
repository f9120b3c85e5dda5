//! # salam
//!
//! The gem5-SALAM reproduction's public API: full-system modeling of
//! LLVM-based hardware accelerators.
//!
//! This crate composes the substrates into the architecture of the paper's
//! Fig. 1:
//!
//! * [`ComputeUnit`] — wraps the dynamic LLVM runtime engine
//!   ([`salam_runtime::Engine`]) as a clocked simulation component.
//! * [`CommConfig`] / the communications interface — MMR programming
//!   (through [`memsys::MmrBlock`] doorbells), up to two master memory
//!   ports (a private/local port and a global port), and completion
//!   interrupts; interchangeable across SPM, cache and stream memories
//!   without touching the compute unit.
//! * [`AcceleratorCluster`] — the hierarchical cluster construct: a pool of
//!   accelerators with a shared DMA and scratchpad behind a local crossbar,
//!   bridged to DRAM through a global crossbar (optionally via an LLC).
//! * [`Host`] — a programmed-IO host CPU model that drives accelerators the
//!   way the paper's bare-metal drivers do: write MMRs, kick DMAs, wait for
//!   interrupts/done signals.
//! * [`standalone`] — a one-call harness for datapath+SPM simulations (the
//!   configuration validated against HLS in Fig. 10) and design-space
//!   sweeps. [`standalone::run`] is its one entry point; a
//!   [`RunOptions`] switches on tracing, fault injection, the flight
//!   recorder and cooperative cancellation.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root, or the condensed
//! version:
//!
//! ```
//! use machsuite::{gemm, BuiltKernel};
//! use salam::standalone::{run_kernel, StandaloneConfig};
//!
//! let kernel = gemm::build(&gemm::Params { n: 4, unroll: 1 });
//! let report = run_kernel(&kernel, &StandaloneConfig::default());
//! assert!(report.cycles > 0);
//! assert!(report.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod cluster;
mod host;
mod report;
pub mod standalone;

pub use accel::{AcceleratorConfig, CommConfig, ComputeUnit, ACC_DONE};
pub use cluster::{
    build_system, build_system_with_llc, scratchpad_canonical_repr, AccelHandle,
    AcceleratorCluster, ClusterBuilder, ClusterConfig, MemoryStyle,
};
pub use host::{Host, HostConfig, HostOp};
pub use report::{PowerBreakdown, RunReport};
pub use salam_fault::{ConfigError, FaultPlan, SimError, WatchdogSnapshot};
pub use standalone::{
    run_kernel, run_kernel_cached, try_run_kernel, try_run_kernel_profiled, HierarchyPort,
    RunOptions, StandaloneConfig,
};
