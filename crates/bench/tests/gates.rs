//! Wall-clock gates. Timings are only meaningful in an optimized build,
//! so both tests are ignored by default and `scripts/ci.sh` runs them
//! with `cargo test --release -p salam-bench --test gates -- --ignored`.
//! `--nocapture` prints the measured figures.

use std::sync::Mutex;
use std::time::Instant;

use machsuite::Bench;
use salam::standalone::{run, RunOptions, StandaloneConfig};
use salam_dse::{
    run_replay_sweep, Axis, DseOptions, EngineKind, KernelSpec, ReplayOptions, SweepSpec,
};
use salam_telemetry::{flight, FlightRecorder};

/// Most the flight recorder may add to the wall time of all nine kernels.
const MAX_FLIGHT_OVERHEAD_PCT: f64 = 5.0;

/// Least a kernel's median replay-vs-simulation speedup may be: a replay
/// barely faster than the engine no longer earns its place.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Held by each gate for its whole run: the test harness runs tests on
/// parallel threads, and one gate's load would skew the other's clock.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

#[test]
#[ignore = "wall-clock gate: release only, run by scripts/ci.sh"]
fn flight_recorder_overhead_stays_within_five_percent() {
    let _clock = WALL_CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StandaloneConfig::default();
    let kernels = Bench::ALL.map(|b| b.build_standard());
    let plain = RunOptions::default();
    let recorded = RunOptions {
        flight: FlightRecorder::enabled(flight::DEFAULT_CAPACITY),
        trace_id: 1,
        ..RunOptions::default()
    };
    let time = |kernel, opts: &RunOptions| -> f64 {
        let t0 = Instant::now();
        run(kernel, &cfg, opts).expect("timed run must not fail");
        t0.elapsed().as_secs_f64()
    };
    // Per kernel: one warm-up run, then the min of three runs per mode,
    // so noise can only help; the modes alternate so drift hits both
    // alike.
    let (mut off, mut on) = (0.0, 0.0);
    for kernel in &kernels {
        time(kernel, &recorded);
        let (mut best_off, mut best_on) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            best_off = best_off.min(time(kernel, &plain));
            best_on = best_on.min(time(kernel, &recorded));
        }
        off += best_off;
        on += best_on;
    }
    let overhead_pct = 100.0 * (on - off) / off;
    println!("flight recorder overhead {overhead_pct:.2}% (off {off:.3}s, on {on:.3}s)");
    assert!(
        overhead_pct <= MAX_FLIGHT_OVERHEAD_PCT,
        "flight recorder overhead {overhead_pct:.2}% exceeds {MAX_FLIGHT_OVERHEAD_PCT}%"
    );
}

#[test]
#[ignore = "wall-clock gate: release only, run by scripts/ci.sh"]
fn replay_median_speedup_is_at_least_one_and_a_half_per_kernel() {
    let _clock = WALL_CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reads = [8usize, 64].iter().fold(Axis::new("reads"), |a, &v| {
        a.setting(v.to_string(), move |c| c.engine.max_outstanding_reads = v)
    });
    let mut spec = SweepSpec::new("replay-gate", StandaloneConfig::default())
        .axis(Axis::spm_ports(&[1, 2]))
        .axis(Axis::spm_latency(&[1, 3]))
        .axis(reads);
    for bench in Bench::ALL {
        spec = spec.kernel(KernelSpec::bench(bench));
    }
    let points = spec.points();
    // Check mode replays and simulates every eligible point, so the
    // speedup is measured; timings are only honest without a cache.
    let opts = ReplayOptions {
        inner: DseOptions::default().without_cache(),
        check: true,
    };
    let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
    for bench in Bench::ALL {
        let id = bench.label().to_ascii_lowercase();
        let mut speedups: Vec<f64> = points
            .iter()
            .zip(&run.provenance)
            .filter(|(p, prov)| p.kernel.id == id && prov.engine == EngineKind::Replay)
            .map(|(_, prov)| prov.speedup.expect("check mode measures the speedup"))
            .collect();
        assert!(!speedups.is_empty(), "{id}: no point replayed");
        speedups.sort_by(f64::total_cmp);
        let n = speedups.len();
        let median = (speedups[(n - 1) / 2] + speedups[n / 2]) / 2.0;
        println!("{id}: median replay speedup {median:.2}x over {n} points");
        assert!(
            median >= SPEEDUP_FLOOR,
            "{id}: median replay speedup {median:.2}x is below {SPEEDUP_FLOOR}x"
        );
    }
}
