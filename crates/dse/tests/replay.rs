//! End-to-end guarantees of the trace-replay fast path: cycle accuracy
//! against the event engine across every MachSuite kernel on a
//! three-axis grid, the engine selector's sim/replay split on mixed
//! sweeps, cache-domain separation between replayed and simulated
//! results, and the lookup-first order: a sweep loads a baseline and
//! replays only for the points its cache misses.

use std::path::PathBuf;

use machsuite::Bench;
use salam::standalone::{run_kernel, StandaloneConfig};
use salam_dse::{
    run_replay_sweep, Axis, CacheId, DseOptions, EngineKind, KernelSpec, ReplayOptions, ReplayRun,
    ResultCache, SweepSpec,
};

/// A fresh scratch cache directory unique to this test.
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-replay-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Outstanding-read-cap axis (a replay-safe knob without a stock helper).
fn reads_axis(values: &[usize]) -> Axis {
    values.iter().fold(Axis::new("reads"), |a, &v| {
        a.setting(v.to_string(), move |c| c.engine.max_outstanding_reads = v)
    })
}

/// The paper's acceptance grid: every MachSuite kernel over a three-axis
/// replay-safe grid, measured against the event engine in check mode.
/// Replay must stay within 2% of simulated cycles (it is in fact exact),
/// and no point may undercut the static lower bound (a bound violation
/// would surface as a `sim-fallback` row).
#[test]
fn nine_kernels_replay_within_two_percent_over_three_axis_grid() {
    let mut spec = SweepSpec::new("replay-accept", StandaloneConfig::default())
        .axis(Axis::spm_ports(&[1, 2]))
        .axis(Axis::spm_latency(&[1, 3]))
        .axis(reads_axis(&[4, 64]));
    for bench in Bench::ALL {
        spec = spec.kernel(KernelSpec::bench(bench));
    }
    let points = spec.points();
    let opts = ReplayOptions {
        inner: DseOptions::default().without_cache(),
        check: true,
    };
    let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);

    assert_eq!(run.outcomes.len(), 9 * 8);
    assert_eq!(run.failed, 0);
    assert_eq!(run.invalid, 0);
    assert_eq!(
        run.fallbacks, 0,
        "a fallback means replay undercut the static lower bound"
    );
    let mut max_err: f64 = 0.0;
    for (point, (outcome, prov)) in points.iter().zip(run.outcomes.iter().zip(&run.provenance)) {
        let report = outcome.payload().expect("point succeeded");
        assert!(report.cycles > 0);
        match prov.engine {
            EngineKind::Replay => {
                let err = prov.err_pct.expect("check mode measured the error");
                assert!(
                    err <= 2.0,
                    "{}: replay error {err:.3}% exceeds 2%",
                    point.label()
                );
                max_err = max_err.max(err);
                let bound = prov.bound.expect("replayed points carry a bound");
                assert!(
                    report.cycles >= bound,
                    "{}: replayed {} cycles below static bound {}",
                    point.label(),
                    report.cycles,
                    bound
                );
                // Attribution stays a full partition of the replayed run.
                assert_eq!(report.stats.attribution.total(), report.cycles);
            }
            // The ports=2/spm-lat=1/reads=64 point *is* the baseline.
            EngineKind::Sim => assert_eq!(
                point.config.canonical_repr(),
                salam_dse::baseline_config(&point.config).canonical_repr()
            ),
            EngineKind::SimFallback => unreachable!("fallbacks asserted zero"),
        }
    }
    // One baseline-equal point per kernel, everything else replayed.
    assert_eq!(run.simulated, 9);
    assert_eq!(run.replayed, 9 * 8 - 9);
    println!("max replay error over the acceptance grid: {max_err:.4}%");
}

/// The engine selector on a mixed sweep: points touching the unsafe
/// reservation-window axis simulate and are byte-identical to a plain
/// full-sim run; safe-axis points replay.
#[test]
fn mixed_sweep_selector_splits_sim_and_replay() {
    let spec = SweepSpec::new("mixed", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=8,u=2]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 })
        }))
        .axis(Axis::reservation_entries(&[8, 128]))
        .axis(Axis::spm_ports(&[1, 2]));
    let points = spec.points();
    let opts = ReplayOptions {
        inner: DseOptions::default().without_cache(),
        check: false,
    };
    let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);

    for (i, point) in points.iter().enumerate() {
        let is_default_window = point.config.engine.reservation_entries == 128;
        let is_baseline = point.config.spm_read_ports == 2;
        let expected = if !is_default_window || is_baseline {
            EngineKind::Sim
        } else {
            EngineKind::Replay
        };
        assert_eq!(run.provenance[i].engine, expected, "at {}", point.label());
        if expected == EngineKind::Sim {
            // Unsafe-axis (and baseline-reuse) rows are byte-identical to
            // a from-scratch full simulation.
            let sim = run_kernel(&point.kernel.build(), &point.config);
            assert_eq!(
                run.outcomes[i].payload().expect("sim point ok").to_json(),
                sim.to_json(),
                "at {}",
                point.label()
            );
        }
    }
    assert_eq!(run.simulated, 3);
    assert_eq!(run.replayed, 1);
}

/// Replay results cache under their own domain and are served back on a
/// second run without re-simulating — and the baseline bundle caches too,
/// so a warm second sweep does zero event-engine work.
#[test]
fn replay_results_cache_and_rerun_hits() {
    let dir = scratch_cache("rerun");
    let spec = SweepSpec::new("cache", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=8,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 })
        }))
        .axis(Axis::spm_ports(&[1, 2, 4]));
    let points = spec.points();
    let opts = ReplayOptions {
        inner: DseOptions::default().with_cache_dir(&dir),
        check: false,
    };
    let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
    assert_eq!(cold.hits, 0);
    let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
    assert_eq!(warm.misses, 0);
    assert_eq!(warm.baseline_misses, 0);
    // Warm rows are byte-identical to cold rows, engine labels included.
    for ((c, w), (pc, pw)) in cold
        .outcomes
        .iter()
        .zip(&warm.outcomes)
        .zip(cold.provenance.iter().zip(&warm.provenance))
    {
        assert_eq!(
            c.payload().expect("cold ok").to_json(),
            w.payload().expect("warm ok").to_json()
        );
        assert_eq!(pc.engine, pw.engine);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small gemm over four replay points, none equal to the baseline (the
/// default configuration has 2 ports and a 1-cycle SPM).
fn warm_grid() -> Vec<salam_dse::StandalonePoint> {
    SweepSpec::new("warm", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=8,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 })
        }))
        .axis(Axis::spm_ports(&[1, 4]))
        .axis(Axis::spm_latency(&[2, 3]))
        .points()
}

fn cached(dir: &std::path::Path) -> ReplayOptions {
    ReplayOptions {
        inner: DseOptions::default().with_cache_dir(dir).with_workers(2),
        check: false,
    }
}

/// Every row as text: the report JSON or failure label, then the engine,
/// bound and check-mode figures. `from_cache` is left out.
fn rows(run: &ReplayRun) -> Vec<String> {
    run.outcomes
        .iter()
        .zip(&run.provenance)
        .map(|(o, p)| {
            let result = match o.payload() {
                Some(r) => r.to_json(),
                None => o.failure_label().unwrap_or_default(),
            };
            format!(
                "{result} {} {:?} {:?} {:?}",
                p.engine.label(),
                p.bound,
                p.err_pct,
                p.speedup
            )
        })
        .collect()
}

fn from_cache(run: &ReplayRun) -> Vec<bool> {
    run.outcomes.iter().map(|o| o.from_cache).collect()
}

fn baseline_entry(cache: &ResultCache, kernel: &str) -> PathBuf {
    let base = salam_dse::baseline_config(&StandaloneConfig::default());
    cache.entry_path(&CacheId::new(
        format!("replay-baseline/{kernel}"),
        base.canonical_repr(),
    ))
}

fn point_entry(cache: &ResultCache, point: &salam_dse::StandalonePoint) -> PathBuf {
    cache.entry_path(&CacheId::new(
        format!("replay/{}", point.kernel.id),
        point.config.canonical_repr(),
    ))
}

/// A warm sweep looks its points up before anything else, so it answers
/// every point without its baseline: deleting the baseline entry costs
/// nothing, and the entry is not written back.
#[test]
fn warm_sweep_needs_no_baseline() {
    let dir = scratch_cache("no-baseline");
    let cache = ResultCache::at(&dir);
    let points = warm_grid();
    let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(cold.replayed, points.len());
    assert_eq!(cold.baseline_misses, 1);
    let baseline = baseline_entry(&cache, "gemm[n=8,u=1]");
    std::fs::remove_file(&baseline).expect("the cold sweep stored its baseline");

    let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(rows(&warm), rows(&cold));
    assert!(from_cache(&warm).iter().all(|&hit| hit));
    assert_eq!(warm.baseline_misses, 0);
    assert_eq!(
        warm.hits,
        points.len(),
        "one hit per point, none for a baseline"
    );
    assert_eq!((warm.misses, warm.corrupt), (0, 0));
    assert!(!baseline.exists(), "no baseline was recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A half-warm sweep replays only the points it misses, against a
/// baseline loaded once.
#[test]
fn half_warm_sweep_replays_only_its_misses() {
    let dir = scratch_cache("half-warm");
    let cache = ResultCache::at(&dir);
    let points = warm_grid();
    let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    for p in [&points[0], &points[3]] {
        std::fs::remove_file(point_entry(&cache, p)).expect("the cold sweep stored the point");
    }

    let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(rows(&warm), rows(&cold));
    assert_eq!(from_cache(&warm), [false, true, true, false]);
    assert_eq!(warm.baseline_misses, 0);
    assert_eq!(warm.hits, 2 + 1, "two points and one baseline load");
    assert_eq!(warm.misses, 2);
    assert_eq!(warm.replayed, points.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted point entry counts as corrupt, replays, and is rewritten.
#[test]
fn corrupt_point_entry_is_replayed() {
    let dir = scratch_cache("corrupt-point");
    let cache = ResultCache::at(&dir);
    let points = warm_grid();
    let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    std::fs::write(point_entry(&cache, &points[1]), "{\"version\": 0").unwrap();

    let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(rows(&warm), rows(&cold));
    assert_eq!(from_cache(&warm), [true, false, true, true]);
    assert_eq!((warm.hits, warm.misses, warm.corrupt), (3 + 1, 0, 1));
    assert_eq!(warm.provenance[1].engine, EngineKind::Replay);

    let again = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(again.hits, points.len(), "the replayed entry was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invalid points keep the `replay` label and never trigger a baseline;
/// a baseline-equal point keeps the `sim` label and the baseline's cache
/// provenance, cold and warm.
#[test]
fn invalid_and_baseline_equal_points_keep_their_rows() {
    let dir = scratch_cache("invalid-equal");
    let cache = ResultCache::at(&dir);
    let spec = |latencies: &[u64]| {
        SweepSpec::new("edge", StandaloneConfig::default())
            .kernel(KernelSpec::custom("gemm[n=8,u=1]", || {
                machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 })
            }))
            .axis(Axis::spm_latency(latencies))
            .points()
    };

    let only_invalid = run_replay_sweep(&spec(&[0]), &StandaloneConfig::default(), &cached(&dir));
    assert_eq!(only_invalid.invalid, 1);
    assert_eq!(only_invalid.provenance[0].engine, EngineKind::Replay);
    assert_eq!(only_invalid.baseline_misses, 0);
    assert_eq!(cache.entry_count(), 0, "an invalid point records nothing");

    // Latency 1 is the baseline itself; latency 0 is invalid.
    let points = spec(&[0, 1, 3]);
    let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    for run in [&cold, &warm] {
        assert_eq!(
            run.outcomes[0].failure_label().as_deref(),
            Some("invalid:C001")
        );
        let engines: Vec<EngineKind> = run.provenance.iter().map(|p| p.engine).collect();
        assert_eq!(
            engines,
            [EngineKind::Replay, EngineKind::Sim, EngineKind::Replay]
        );
        assert_eq!(run.invalid, 1);
    }
    assert_eq!(rows(&warm), rows(&cold));
    assert_eq!(from_cache(&cold), [false, false, false]);
    assert_eq!(from_cache(&warm), [false, true, true]);
    let sim = run_kernel(&points[1].kernel.build(), &points[1].config);
    assert_eq!(
        warm.outcomes[1]
            .payload()
            .expect("baseline-equal point ok")
            .to_json(),
        sim.to_json()
    );
    // The baseline-equal point loads the baseline: its one lookup is the
    // hit that stands for it.
    assert_eq!(warm.hits, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Check mode replays (and simulates) every point even on a warm cache.
#[test]
fn check_mode_replays_every_point_on_a_warm_cache() {
    let dir = scratch_cache("check-warm");
    let points = warm_grid();
    run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
    let opts = ReplayOptions {
        check: true,
        ..cached(&dir)
    };
    let run = run_replay_sweep(&points, &StandaloneConfig::default(), &opts);
    assert_eq!(run.replayed, points.len());
    assert!(from_cache(&run).iter().all(|&hit| !hit));
    assert!(run
        .provenance
        .iter()
        .all(|p| p.err_pct == Some(0.0) && p.speedup.is_some()));
    assert_eq!(run.hits, 1, "only the baseline comes from the cache");
    assert_eq!(run.misses, points.len());
    let _ = std::fs::remove_dir_all(&dir);
}
