//! `replay_smoke` — the trace-replay accuracy/speedup gate for CI.
//!
//! Runs every MachSuite kernel over a three-axis replay-safe grid in
//! *check mode*: each replay-eligible point is both re-scheduled
//! analytically and fully simulated, so the measured cycle error and
//! wall-clock speedup are real, not projected. The run fails (exit 1)
//! when any kernel's error exceeds 2%, any kernel's median speedup is
//! below [`SPEEDUP_FLOOR`], or any replayed point fell back below the
//! static lower bound.
//!
//! `--out PATH` writes the per-kernel rollup as `BENCH_replay.json`
//! (per-kernel max error + median/max speedup; the workflow uploads it
//! as an artifact). `--json` prints the result table as JSON instead of
//! the aligned text table. The last stdout line is always the stable
//! `replay: …` marker CI greps.

use machsuite::Bench;
use salam::standalone::StandaloneConfig;
use salam_bench::cli::{Args, EXIT_FINDINGS, EXIT_USAGE};
use salam_dse::{
    run_replay_sweep, Axis, DseOptions, EngineKind, KernelSpec, ReplayOptions, SweepSpec,
    SweepTable,
};

/// The least a kernel's median replay-vs-simulation speedup may be. A
/// replay barely faster than the engine is a rung of the fidelity ladder
/// that no longer earns its place.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Median of an unsorted sample (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One kernel's accuracy/speedup rollup over the grid.
struct KernelRollup {
    name: String,
    points: usize,
    replayed: usize,
    max_err_pct: f64,
    speedups: Vec<f64>,
}

fn main() {
    let mut args = Args::parse("replay_smoke", "[--json] [--out PATH]");
    let json = args.flag("--json");
    let out: Option<String> = args.opt("--out");
    if !args.finish().is_empty() {
        eprintln!("replay_smoke: takes no positional arguments");
        std::process::exit(EXIT_USAGE);
    }

    // Three replay-safe axes (ports, SPM latency, outstanding-read cap)
    // over all nine kernels — the acceptance grid from the paper issue.
    let reads = [8usize, 64].iter().fold(Axis::new("reads"), |a, &v| {
        a.setting(v.to_string(), move |c| c.engine.max_outstanding_reads = v)
    });
    let mut spec = SweepSpec::new("replay-smoke", StandaloneConfig::default())
        .axis(Axis::spm_ports(&[1, 2]))
        .axis(Axis::spm_latency(&[1, 3]))
        .axis(reads);
    for bench in Bench::ALL {
        spec = spec.kernel(KernelSpec::bench(bench));
    }
    let points = spec.points();
    let opts = ReplayOptions {
        // Check-mode timings are only honest when nothing hits a cache.
        inner: DseOptions::default().without_cache(),
        check: true,
    };
    let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);

    let mut rollups: Vec<KernelRollup> = Bench::ALL
        .into_iter()
        .map(|b| KernelRollup {
            name: b.label().to_ascii_lowercase(),
            points: 0,
            replayed: 0,
            max_err_pct: 0.0,
            speedups: Vec::new(),
        })
        .collect();
    for (point, prov) in points.iter().zip(&run.provenance) {
        let roll = rollups
            .iter_mut()
            .find(|r| r.name == point.kernel.id)
            .expect("every point belongs to a MachSuite kernel");
        roll.points += 1;
        if prov.engine == EngineKind::Replay {
            roll.replayed += 1;
            if let Some(err) = prov.err_pct {
                roll.max_err_pct = roll.max_err_pct.max(err);
            }
            if let Some(s) = prov.speedup {
                roll.speedups.push(s);
            }
        }
    }

    let mut findings: Vec<String> = Vec::new();
    if run.failed > 0 || run.invalid > 0 {
        findings.push(format!(
            "grid had failed={} invalid={} points",
            run.failed, run.invalid
        ));
    }
    if run.fallbacks > 0 {
        findings.push(format!(
            "{} replayed point(s) undercut the static lower bound and fell back to simulation",
            run.fallbacks
        ));
    }
    for roll in &rollups {
        if roll.max_err_pct > 2.0 {
            findings.push(format!(
                "{}: replay error {:.3}% exceeds the 2% gate",
                roll.name, roll.max_err_pct
            ));
        }
        if median(&roll.speedups) < SPEEDUP_FLOOR {
            findings.push(format!(
                "{}: median replay speedup {:.2}x is below the {SPEEDUP_FLOOR}x floor",
                roll.name,
                median(&roll.speedups)
            ));
        }
    }

    let mut t = SweepTable::new(
        "Trace-replay accuracy/speedup smoke",
        &[
            "kernel",
            "points",
            "replayed",
            "max_err_pct",
            "median_speedup",
            "max_speedup",
        ],
    );
    for roll in &rollups {
        let max_speedup = roll.speedups.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![
            roll.name.to_string(),
            roll.points.to_string(),
            roll.replayed.to_string(),
            format!("{:.3}", roll.max_err_pct),
            format!("{:.2}", median(&roll.speedups)),
            format!("{max_speedup:.2}"),
        ]);
    }
    t.set_summary(run.summary_pairs());
    if json {
        print!("{}", t.to_json());
    } else {
        println!("{}", t.render_auto());
    }

    // BENCH_replay.json: the machine-readable artifact the workflow
    // uploads — per-kernel max error and speedup distribution, plus the
    // grid-wide medians.
    let all_speedups: Vec<f64> = rollups.iter().flat_map(|r| r.speedups.clone()).collect();
    let max_err = rollups.iter().map(|r| r.max_err_pct).fold(0.0f64, f64::max);
    if let Some(path) = &out {
        let mut j = String::from("{\"bench\": \"replay\", \"grid\": {\"axes\": [\"ports\", \"spm-latency\", \"reads\"], \"points_per_kernel\": 8}, \"kernels\": [");
        for (i, roll) in rollups.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let max_speedup = roll.speedups.iter().cloned().fold(0.0f64, f64::max);
            j.push_str(&format!(
                "{{\"kernel\": \"{}\", \"points\": {}, \"replayed\": {}, \"max_err_pct\": {:.4}, \"median_speedup\": {:.2}, \"max_speedup\": {:.2}}}",
                roll.name,
                roll.points,
                roll.replayed,
                roll.max_err_pct,
                median(&roll.speedups),
                max_speedup
            ));
        }
        j.push_str(&format!(
            "], \"summary\": {{\"points\": {}, \"replayed\": {}, \"fallbacks\": {}, \"max_err_pct\": {:.4}, \"median_speedup\": {:.2}}}}}\n",
            run.outcomes.len(),
            run.replayed,
            run.fallbacks,
            max_err,
            median(&all_speedups)
        ));
        if let Err(e) = std::fs::write(path, &j) {
            eprintln!("replay_smoke: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("replay benchmark written to {path}");
    }

    // Stable marker — always the last line, in both output modes.
    println!(
        "replay: kernels={} points={} replayed={} fallbacks={} max_err_pct={:.3} median_speedup={:.2}x {}",
        rollups.len(),
        run.outcomes.len(),
        run.replayed,
        run.fallbacks,
        max_err,
        median(&all_speedups),
        if findings.is_empty() { "ok" } else { "FINDINGS" }
    );
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("replay_smoke: {f}");
        }
        std::process::exit(EXIT_FINDINGS);
    }
}
