//! Table IV — simulator setup and runtime execution timing: the Aladdin
//! trace flow vs. the gem5-SALAM flow, per benchmark (wall-clock).
//!
//! Run with `--release` for meaningful ratios.

use machsuite::Bench;
use salam_aladdin::AladdinMemModel;
use salam_bench::runners::{aladdin_run, salam_timed, StandaloneConfig};
use salam_bench::table::Table;

fn main() {
    let mut t = Table::new(
        "Table IV: setup + simulation wall-clock",
        &[
            "bench",
            "ala trace-gen",
            "ala sim",
            "ala trace KB",
            "salam compile",
            "salam sim",
            "prep speedup",
            "sim speedup",
        ],
    );
    let mut prep_speedups = Vec::new();
    let mut sim_speedups = Vec::new();
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let ala = aladdin_run(&k, &AladdinMemModel::default_spm());
        let sal = salam_timed(&k, &StandaloneConfig::default());
        let prep = ala.trace_gen.as_secs_f64() / sal.preprocess.as_secs_f64().max(1e-9);
        let sim = ala.simulation.as_secs_f64() / sal.simulation.as_secs_f64().max(1e-9);
        prep_speedups.push(prep);
        sim_speedups.push(sim);
        t.row(vec![
            bench.label().into(),
            format!("{:.2?}", ala.trace_gen),
            format!("{:.2?}", ala.simulation),
            format!("{}", ala.trace_len * 16 / 1024),
            format!("{:.2?}", sal.preprocess),
            format!("{:.2?}", sal.simulation),
            format!("{prep:.1}x"),
            format!("{sim:.1}x"),
        ]);
    }
    println!("{}", t.render_auto());
    let gmean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!(
        "geometric-mean speedup: preprocessing {:.0}x, simulation {:.1}x  (paper avg: 123x / 697x)",
        gmean(&prep_speedups),
        gmean(&sim_speedups)
    );
    println!(
        "\nNote: the preprocessing advantage reproduces directly. The paper's 697x\n\
         simulation speedup measures gem5-Aladdin's trace-I/O and DDDG-building\n\
         overheads; our from-scratch Aladdin baseline has none of those, so the\n\
         engine's lead here is only what its event-driven scheduler buys. On\n\
         memory: Aladdin must materialize the whole dynamic trace (column\n\
         'ala trace KB') before it can start, while the engine's scheduling\n\
         state is bounded by the ops in flight — but it keeps ~75 bytes of\n\
         history per dynamic instruction until the run ends."
    );
}
