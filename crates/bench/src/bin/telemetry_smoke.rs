//! `telemetry_smoke` — the telemetry non-perturbation gate for CI.
//!
//! Runs every MachSuite kernel twice through the full simulation entry
//! point: once with the flight recorder disabled (the telemetry-off
//! baseline) and once with an enabled recorder and a nonzero trace id —
//! the exact observer wiring `salam-serve` uses. The run fails (exit 1)
//! when any kernel's `RunReport` JSON is not byte-identical across the
//! two modes, or when the telemetry-on pass costs more than the wall-
//! clock overhead gate (default 5%, min-of-reps on both sides).
//!
//! `--reps N` (default 3) controls the timing repetitions;
//! `--max-overhead-pct N` moves the gate. The last stdout line is always
//! the stable `telemetry: …` marker CI greps.

use std::time::Instant;

use machsuite::Bench;
use salam::standalone::{run, try_run_kernel, RunOptions, StandaloneConfig};
use salam_bench::cli::{Args, EXIT_FINDINGS, EXIT_USAGE};
use salam_dse::SweepTable;
use salam_telemetry::{flight, FlightRecorder};

fn main() {
    let mut args = Args::parse("telemetry_smoke", "[--reps N] [--max-overhead-pct N]");
    let reps = args.opt_u64("--reps").unwrap_or(3).max(1) as usize;
    let max_overhead_pct = args.opt_u64("--max-overhead-pct").unwrap_or(5) as f64;
    if !args.finish().is_empty() {
        eprintln!("telemetry_smoke: takes no positional arguments");
        std::process::exit(EXIT_USAGE);
    }

    let cfg = StandaloneConfig::default();
    let kernels: Vec<_> = Bench::ALL
        .into_iter()
        .map(|b| (b.label().to_ascii_lowercase(), b.build_standard()))
        .collect();
    let recorder = FlightRecorder::enabled(flight::DEFAULT_CAPACITY);

    // Correctness first: per-kernel byte-identity of the report JSON.
    let mut findings: Vec<String> = Vec::new();
    let mut rows: Vec<(String, u64, bool)> = Vec::new();
    for (name, kernel) in &kernels {
        let off = try_run_kernel(kernel, &cfg).unwrap_or_else(|e| {
            eprintln!("telemetry_smoke: {name} failed telemetry-off: {e}");
            std::process::exit(EXIT_FINDINGS);
        });
        let opts = RunOptions {
            flight: recorder.clone(),
            trace_id: 0xfeed_0000 + rows.len() as u64,
            ..RunOptions::default()
        };
        let on = run(kernel, &cfg, &opts).unwrap_or_else(|e| {
            eprintln!("telemetry_smoke: {name} failed telemetry-on: {e}");
            std::process::exit(EXIT_FINDINGS);
        });
        let identical = off.to_json() == on.to_json();
        if !identical {
            findings.push(format!("{name}: report JSON differs with telemetry on"));
        }
        rows.push((name.clone(), off.stats.cycles, identical));
    }
    if !recorder.is_enabled() || recorder.tail_json(8) == "[]" {
        findings.push("flight recorder captured no events while enabled".into());
    }

    // Then the overhead gate: total wall time over all kernels, min of
    // `reps` repetitions per mode so scheduler noise can only help.
    let time_all = |opts: &RunOptions| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            for (_, kernel) in &kernels {
                let r = run(kernel, &cfg, opts);
                assert!(r.is_ok(), "timed pass must not fail");
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let off_s = time_all(&RunOptions::default());
    let on_s = time_all(&RunOptions {
        flight: recorder,
        trace_id: 1,
        ..RunOptions::default()
    });
    let overhead_pct = if off_s > 0.0 {
        100.0 * (on_s - off_s) / off_s
    } else {
        0.0
    };
    if overhead_pct > max_overhead_pct {
        findings.push(format!(
            "telemetry overhead {overhead_pct:.2}% exceeds the {max_overhead_pct:.0}% gate \
             (off {off_s:.3}s, on {on_s:.3}s)"
        ));
    }

    let mut t = SweepTable::new(
        "Telemetry non-perturbation smoke",
        &["kernel", "cycles", "identical"],
    );
    for (name, cycles, identical) in &rows {
        t.row(vec![
            name.clone(),
            cycles.to_string(),
            if *identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render_auto());

    let identical = rows.iter().filter(|(_, _, i)| *i).count();
    // Stable marker — always the last line.
    println!(
        "telemetry: kernels={} identical={identical}/{} overhead_pct={overhead_pct:.2} {}",
        rows.len(),
        rows.len(),
        if findings.is_empty() {
            "ok"
        } else {
            "FINDINGS"
        }
    );
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("telemetry_smoke: {f}");
        }
        std::process::exit(EXIT_FINDINGS);
    }
}
