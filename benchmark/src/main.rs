//! `salam-benchmark` — the repo's one performance yardstick.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --bless
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --agree DIR DIR
//! ```
//!
//! One run executes one workload, checks every result against
//! `golden.json`, prints each metric by name with its unit and ends with
//! one line of JSON: `{"correct", "attempted", "failed", "metrics"}`.
//! `README.md` beside this crate explains the workloads, the metrics and
//! how a run is measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agree;
mod golden;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use salam_bench::cli::{Args, EXIT_FINDINGS, EXIT_OK, EXIT_USAGE};

use crate::golden::Golden;
use crate::harness::{
    Metrics, Scratch, Workload, MAX_SETUPS, MIN_PASSES, MIN_SETUPS, SETUP_BUDGET,
};

const USAGE: &str =
    "--workload NAME [--seed N] [--seconds S] [--trace 0|1] | --bless | --agree DIR DIR";

/// Timed seconds when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;

fn main() {
    std::process::exit(real_main());
}

/// Environment variables the libraries fall back to when an option is
/// left unset. The benchmark passes every such option explicitly and drops
/// these before anything runs, so a stray export cannot change what is
/// measured.
const SCRUBBED_ENV: [&str; 4] = [
    "SALAM_JOBS",
    "SALAM_DSE_CACHE",
    "SALAM_DSE_CACHE_MAX_BYTES",
    "SALAM_DSE_NO_CACHE",
];

fn real_main() -> i32 {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let mut args = Args::parse("salam-benchmark", USAGE);
    if args.flag("--bless") {
        return match bless() {
            Ok(()) => EXIT_OK,
            Err(e) => {
                eprintln!("salam-benchmark: bless failed: {e}");
                EXIT_FINDINGS
            }
        };
    }
    if args.flag("--agree") {
        let dirs = args.finish();
        if dirs.len() != 2 {
            eprintln!("salam-benchmark: --agree takes two directories\nusage: {USAGE}");
            return EXIT_USAGE;
        }
        return agree::run(&dirs[0], &dirs[1]);
    }
    let Some(workload) = args.opt("--workload") else {
        args.fail("missing --workload");
    };
    let seed = args.opt_u64("--seed").unwrap_or(1);
    let seconds = args.opt_u64("--seconds").unwrap_or(DEFAULT_SECONDS);
    let traced = match args.opt("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => args.fail(&format!("--trace takes 0 or 1, not '{other}'")),
    };
    if !args.finish().is_empty() {
        eprintln!("salam-benchmark: unexpected positional arguments\nusage: {USAGE}");
        return EXIT_USAGE;
    }
    if !workloads::NAMES.contains(&workload.as_str()) {
        eprintln!(
            "salam-benchmark: unknown workload '{workload}'; one of: {}",
            workloads::NAMES.join(", ")
        );
        return EXIT_USAGE;
    }
    match run(&workload, seed, Duration::from_secs(seconds), traced) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("salam-benchmark: {workload}: {e}");
            EXIT_FINDINGS
        }
    }
}

/// Executes one run and prints its result; the scratch directory is gone
/// by the time this returns, on success and on error.
fn run(name: &str, seed: u64, seconds: Duration, traced: bool) -> Result<i32, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch dir: {e}"))?;

    // Set-up, repeated from scratch: the earlier instance is dropped (its
    // server shut down, its threads joined) before the next one is timed.
    let mut setups = Vec::new();
    let mut warm = harness::Tally::default();
    let mut w: Option<Box<dyn Workload>> = None;
    let setup_started = Instant::now();
    for rep in 0..MAX_SETUPS {
        if rep >= MIN_SETUPS && setup_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        drop(w.take());
        let dir = scratch
            .fresh(&format!("setup-{rep}"))
            .map_err(|e| format!("scratch dir: {e}"))?;
        // Set-up is everything before the first timed op, so it ends with
        // the warm-up pass (whose ops are checked like any other). Its
        // phases and the warm-up's steps are timed one by one: `setup_s`
        // takes each at its fastest repetition, like a timed pass.
        let mut fresh = workloads::setup(name, seed, &dir)?;
        let mut phases = fresh.setup_phases_ms().to_vec();
        phases.extend(fresh.pass(false, &mut warm));
        setups.push(phases);
        w = Some(fresh);
    }
    let mut w = w.expect("MIN_SETUPS >= 1");

    let mut m = Metrics::new();
    let timed = if traced {
        // Half the budget goes to passes (every other one traced, so the
        // run measures its own tracing overhead), half to layer probes.
        let timed = harness::run_passes(w.as_mut(), seconds / 2, MIN_PASSES, true);
        w.layer_metrics(seconds / 2, &mut m);
        harness::pass_metrics(&timed, &mut m);
        timed
    } else {
        let timed = harness::run_passes(w.as_mut(), seconds, MIN_PASSES, false);
        harness::end_to_end(&setups, &timed, w.as_ref(), &mut m);
        timed
    };

    if traced {
        let path = Scratch::output_dir().join(format!("trace_{name}.json"));
        std::fs::write(&path, w.chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    drop(w);
    drop(scratch);

    let attempted = warm.attempted + timed.tally.attempted;
    let failed = warm.failed + timed.tally.failed;
    println!(
        "workload {name} seed {seed} seconds {} trace {}",
        seconds.as_secs(),
        u8::from(traced)
    );
    if !traced {
        // Shown beside the gated numbers so a bimodal run is visible.
        let mut extra = Metrics::new();
        harness::pass_metrics(&timed, &mut extra);
        for (k, v) in &extra {
            println!("  {k:<34} {v:>16.4}");
        }
    }
    let table = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = metrics::result_line(&table, &m, attempted, failed)?;
    for spec in &table {
        println!(
            "  {:<34} {:>16.4} {}",
            spec.name,
            m.get(spec.name).copied().unwrap_or(0.0),
            spec.unit
        );
    }
    println!("{line}");
    Ok(EXIT_OK)
}

/// Regenerates `golden.json` from the current code.
fn bless() -> Result<(), String> {
    let mut golden = Golden::default();
    workloads::bless(&mut golden)?;
    let path = Golden::path();
    std::fs::write(&path, golden.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "blessed {} entries and {} sweep grids into {}",
        golden.entries.len(),
        golden.sweep_cycles.len(),
        path.display()
    );
    Ok(())
}
