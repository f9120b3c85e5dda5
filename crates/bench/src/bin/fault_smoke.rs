//! A seeded fault-injection campaign over two MachSuite kernels.
//!
//! Runs each kernel once clean (the baseline), then once per campaign seed
//! with FU bit flips, memory bit flips/delays/drops and DMA-path jitter
//! armed, and classifies every run:
//!
//! * `masked`   — completed, output verified (the flip hit dead data or
//!   timing only);
//! * `sdc`      — completed, output wrong (silent data corruption);
//! * `deadlock` — the no-progress watchdog fired ([`salam::SimError::Deadlock`]),
//!   e.g. a dropped memory response;
//! * `detected` — the kernel itself faulted ([`salam::SimError::KernelFault`]).
//!
//! The campaign is bit-for-bit reproducible: same seeds, same table, every
//! run. CI executes it twice and diffs the output, then asserts on the
//! trailing `fault_smoke: …` marker line.

use machsuite::BuiltKernel;
use salam::standalone::{run, run_kernel, RunOptions, StandaloneConfig};
use salam::{FaultPlan, SimError};
use salam_dse::SweepTable;

/// The armed campaign plan for one seed. Seeds rotate through three fault
/// modes — data flips, timing jitter, response drops — so one small
/// campaign exercises every outcome class: a per-response drop probability
/// compounds over the thousands of responses in a run, so a plan that
/// mixes drops into every seed deadlocks everywhere and shows nothing
/// else.
fn campaign_plan(seed: u64) -> FaultPlan {
    let zero = FaultPlan::seeded(seed);
    match seed % 3 {
        0 => FaultPlan {
            fu_bitflip_rate: 0.02,
            mem_bitflip_rate: 0.004,
            ..zero
        },
        1 => FaultPlan {
            fu_jitter_rate: 0.02,
            fu_jitter_cycles: 4,
            mem_delay_rate: 0.01,
            mem_delay_cycles: 8,
            ..zero
        },
        _ => FaultPlan {
            mem_drop_rate: 0.001,
            ..zero
        },
    }
}

fn classify(result: &Result<salam::RunReport, SimError>) -> &'static str {
    match result {
        Ok(r) if r.verified => "masked",
        Ok(_) => "sdc",
        Err(SimError::Deadlock(_)) => "deadlock",
        Err(SimError::KernelFault { .. }) => "detected",
        Err(e) => panic!("campaign run stopped unexpectedly: {e}"),
    }
}

fn main() {
    let mut args = salam_bench::cli::Args::parse("fault_smoke", "[--json]");
    let json = args.flag("--json");
    if !args.finish().is_empty() {
        eprintln!("fault_smoke: takes no positional arguments");
        std::process::exit(salam_bench::cli::EXIT_USAGE);
    }
    let kernels: Vec<(&str, BuiltKernel)> = vec![
        (
            "gemm[n=8,u=2]",
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 }),
        ),
        ("spmv", machsuite::Bench::SpmvCrs.build_standard()),
    ];
    let seeds: Vec<u64> = (1..=12).collect();

    // A short watchdog fuse: a dropped response stops all progress, so the
    // campaign detects hangs in thousands of cycles instead of a million.
    let mut cfg = StandaloneConfig::default();
    cfg.engine.deadlock_cycles = 5_000;

    let mut t = SweepTable::new(
        "fault-injection campaign",
        &["kernel", "seed", "outcome", "cycles", "faults", "detail"],
    );
    let (mut masked, mut sdc, mut deadlock, mut detected) = (0u32, 0u32, 0u32, 0u32);
    for (name, kernel) in &kernels {
        let baseline = run_kernel(kernel, &cfg);
        t.row(vec![
            name.to_string(),
            "-".into(),
            "baseline".into(),
            baseline.cycles.to_string(),
            "0".into(),
            String::new(),
        ]);
        for &seed in &seeds {
            let opts = RunOptions {
                fault: Some(campaign_plan(seed)),
                ..RunOptions::default()
            };
            let result = run(kernel, &cfg, &opts);
            let outcome = classify(&result);
            match outcome {
                "masked" => masked += 1,
                "sdc" => sdc += 1,
                "deadlock" => deadlock += 1,
                _ => detected += 1,
            }
            let (cycles, faults, detail) = match &result {
                Ok(r) => (
                    r.cycles.to_string(),
                    r.stats.total_faults().to_string(),
                    if r.cycles == baseline.cycles {
                        String::new()
                    } else {
                        format!(
                            "{:+} cycles vs baseline",
                            r.cycles as i64 - baseline.cycles as i64
                        )
                    },
                ),
                Err(SimError::Deadlock(snap)) => (
                    "-".into(),
                    "-".into(),
                    format!(
                        "no progress since cycle {} ({} outstanding mem)",
                        snap.last_progress_cycle, snap.mem_outstanding
                    ),
                ),
                Err(e) => ("-".into(), "-".into(), e.to_string()),
            };
            t.row(vec![
                name.to_string(),
                seed.to_string(),
                outcome.into(),
                cycles,
                faults,
                detail,
            ]);
        }
    }
    t.set_summary(vec![
        ("masked".into(), masked.to_string()),
        ("sdc".into(), sdc.to_string()),
        ("deadlock".into(), deadlock.to_string()),
        ("detected".into(), detected.to_string()),
    ]);
    if json {
        print!("{}", t.to_json());
    } else {
        println!("{}", t.render_auto());
    }
    // The stable marker CI asserts on — always the last line, in both
    // output modes.
    println!(
        "fault_smoke: kernels={} seeds={} masked={masked} sdc={sdc} deadlock={deadlock} detected={detected}",
        kernels.len(),
        seeds.len(),
    );
}
