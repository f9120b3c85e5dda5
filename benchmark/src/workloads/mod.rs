//! The four workloads. Each stresses different layers; see `README.md`
//! for why each exists and which end-to-end metric its layers move.

pub mod serve_mixed;
pub mod sim_memsys;
pub mod sim_spm;
pub mod sweep_replay;

use std::path::Path;

use salam_obs::SplitMix64;

use crate::golden::Golden;
use crate::harness::Workload;

/// Every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["sim_spm", "sim_memsys", "sweep_replay", "serve_mixed"];

/// Sets one workload up from scratch; `dir` is its private, empty
/// directory.
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_spm" => Box::new(sim_spm::SimSpm::setup(seed)?),
        "sim_memsys" => Box::new(sim_memsys::SimMemsys::setup(seed)?),
        "sweep_replay" => Box::new(sweep_replay::SweepReplay::setup(seed, dir)?),
        "serve_mixed" => Box::new(serve_mixed::ServeMixed::setup(seed, dir)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Regenerates every workload's golden entries.
pub fn bless(golden: &mut Golden) -> Result<(), String> {
    sim_spm::SimSpm::bless(golden)?;
    sim_memsys::SimMemsys::bless(golden);
    sweep_replay::SweepReplay::bless(golden);
    serve_mixed::ServeMixed::bless(golden)?;
    Ok(())
}

/// The kernel id the serve and dse layers use (`gemm`, `md-grid`, …).
pub fn kernel_id(bench: machsuite::Bench) -> String {
    bench.label().to_ascii_lowercase()
}

/// `0..n` in an order fixed by `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(9, 1);
        assert_eq!(a, shuffled(9, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert!((2..8).any(|s| shuffled(9, s) != a));
        assert!(shuffled(0, 3).is_empty());
    }
}
