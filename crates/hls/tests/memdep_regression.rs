//! Regression lock: the scheduler's output with the memory-dependence
//! profiler of `salam-verify`. The estimates below were produced before the
//! profiler moved out of this crate; it has to reproduce them exactly.

use hw_profile::HardwareProfile;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_hls::{estimate_cycles, BlockTrips, HlsConfig};
use salam_verify::profile_memdeps;

fn schedule(k: &machsuite::BuiltKernel) -> u64 {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
    let (prof, deps) = profile_memdeps(&k.func, &k.args, &k.init);
    let trips = BlockTrips::from_profile(&prof);
    estimate_cycles(&k.func, &cdfg, &HlsConfig::default(), &trips, Some(&deps)).cycles
}

#[test]
fn scheduler_output_is_unchanged_by_the_pass_move() {
    // Two kernels exercising both scheduler paths: NW's estimate is bound
    // by a memory recurrence found by the profiler, GEMM's by resources.
    let nw = machsuite::nw::build(&machsuite::nw::Params { alen: 8, blen: 8 });
    let gemm = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
    let (nw_cycles, gemm_cycles) = (schedule(&nw), schedule(&gemm));

    // Deterministic inputs + deterministic profiling: exact values, locked
    // at the commit that moved the pass.
    assert_eq!(nw_cycles, 432, "NW schedule drifted");
    assert_eq!(gemm_cycles, 270, "GEMM schedule drifted");
}
