//! End-to-end guarantees of the trace-replay fast path: cycle accuracy
//! against the event engine across every MachSuite kernel on a
//! three-axis grid, the engine selector's sim/replay split on mixed
//! sweeps, cache-domain separation between replayed and simulated
//! results, the lookup-first order (a sweep loads a baseline and replays
//! only for the points its cache misses), cap reuse (a point answered by
//! a looser point's replay is byte for byte its own replay) and the
//! process-wide prepared-baseline map (a changed entry file is never
//! served from it).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::{run_kernel, try_run_kernel_profiled, StandaloneConfig};
use salam_dse::{
    run_replay_sweep, Axis, CacheId, DseOptions, EngineKind, KernelSpec, ReplayBaseline,
    ReplayOptions, ReplayRun, ResultCache, StandalonePoint, SweepSpec,
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
            // Unsafe-axis (and baseline-equal) rows are byte-identical to
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

// ---- cap reuse and the prepared-baseline map --------------------------------

/// The `sweep_replay` benchmark's grid for one kernel: SPM ports × SPM
/// latency × two adder limits, every point off the baseline.
fn bench_grid(kernel: KernelSpec) -> Vec<StandalonePoint> {
    SweepSpec::new("sweep_replay", StandaloneConfig::default())
        .kernel(kernel)
        .axis(Axis::spm_ports(&[1, 2, 4, 8]))
        .axis(Axis::spm_latency(&[1, 2, 3, 4]))
        .axis(Axis::fu_limit(FuKind::IntAdder, &[2, 8]))
        .points()
}

/// One worker and a cache directory, as the benchmark runs its sweeps.
fn one_worker(dir: &Path) -> ReplayOptions {
    ReplayOptions {
        inner: DseOptions::default().with_cache_dir(dir).with_workers(1),
        check: false,
    }
}

/// Names of the files in a directory.
fn entry_files(dir: &Path) -> BTreeSet<std::ffi::OsString> {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.file_name()).collect())
        .unwrap_or_default()
}

/// Deletes every file of `dir` not in `keep`.
fn restore(dir: &Path, keep: &BTreeSet<std::ffi::OsString>) {
    for name in entry_files(dir).difference(keep) {
        std::fs::remove_file(dir.join(name)).expect("entry removable");
    }
}

/// Requires every point `run` answered by cap reuse to be its own replay:
/// the point swept alone, against `solo_dir`, gives the same row, and
/// writes the same cache entry file as the reused point wrote to `dir`.
/// Returns how many points were reused.
fn assert_reused_points_are_their_own_replays(
    points: &[StandalonePoint],
    run: &ReplayRun,
    dir: &Path,
    solo_dir: &Path,
) -> usize {
    let (cache, solo_cache) = (ResultCache::at(dir), ResultCache::at(solo_dir));
    let all = rows(run);
    let mut reused = 0;
    for (i, prov) in run.provenance.iter().enumerate() {
        let Some(from) = prov.reused_from else {
            continue;
        };
        reused += 1;
        let label = points[i].label();
        assert_eq!(prov.engine, EngineKind::Replay, "{label}");
        assert!(!run.outcomes[i].from_cache, "{label}");
        assert!(run.provenance[from].reused_from.is_none(), "{label}");
        let solo = run_replay_sweep(
            &points[i..=i],
            &StandaloneConfig::default(),
            &one_worker(solo_dir),
        );
        assert_eq!(solo.reused, 0);
        assert_eq!(
            rows(&solo)[0],
            all[i],
            "{label} reused from {}",
            points[from].label()
        );
        let read = |c: &ResultCache| std::fs::read(point_entry(c, &points[i])).expect("stored");
        assert!(
            read(&cache) == read(&solo_cache),
            "{label}: cache entry bytes differ"
        );
    }
    assert_eq!(reused, run.reused);
    reused
}

/// The benchmark's contract on a reusing sweep, over three small kernels:
/// set-up records one baseline per kernel into a fresh directory and
/// leaves only the baselines there; each pass deletes the point entries
/// and sweeps the grid, and every point must come back labelled `replay`
/// and not from the cache. The counts are the ones a sweep without reuse
/// or the prepared map reports: one hit (the baseline, from the map or
/// from its file, since the other tests of this binary share the map and
/// may evict it), no baseline recorded, 32 replayed. Sweeping all kernels
/// in one call gives the same rows: a point is never answered from
/// another kernel's replay, even one whose knobs are equal point for
/// point. (`tests/baseline_map.rs`, a binary of its own, checks that the
/// hit comes from the map.)
#[test]
fn reusing_sweeps_keep_the_benchmark_contract() {
    let dir = scratch_cache("contract");
    let solo_dir = scratch_cache("contract-solo");
    let kernels = [
        KernelSpec::custom("gemm[n=8,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 })
        }),
        // The same datapath, so its knobs equal gemm[n=8]'s point for point.
        KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        }),
        KernelSpec::custom("stencil2d[8x8]", || {
            machsuite::stencil2d::build(&machsuite::stencil2d::Params { rows: 8, cols: 8 })
        }),
    ];
    for kernel in &kernels {
        let at_baseline = [StandalonePoint {
            kernel: kernel.clone(),
            config: StandaloneConfig::default(),
            coords: Vec::new(),
        }];
        let run = run_replay_sweep(
            &at_baseline,
            &StandaloneConfig::default(),
            &one_worker(&dir),
        );
        assert_eq!(
            (run.baseline_misses, run.failed),
            (1, 0),
            "{}",
            run.summary()
        );
    }
    let baselines = entry_files(&dir);
    assert_eq!(baselines.len(), kernels.len());

    let mut first_pass = Vec::new();
    let mut reused = 0;
    for pass in 0..2 {
        restore(&dir, &baselines);
        for (k, kernel) in kernels.iter().enumerate() {
            let points = bench_grid(kernel.clone());
            let run = run_replay_sweep(&points, &StandaloneConfig::default(), &one_worker(&dir));
            assert!(run
                .outcomes
                .iter()
                .zip(&run.provenance)
                .all(|(o, p)| p.engine == EngineKind::Replay
                    && !o.from_cache
                    && o.payload().is_some()));
            assert_eq!(
                (run.baseline_misses, run.hits, run.replayed, run.misses),
                (0, 1, points.len(), points.len()),
                "{}",
                run.summary()
            );
            if pass == 0 {
                reused +=
                    assert_reused_points_are_their_own_replays(&points, &run, &dir, &solo_dir);
                first_pass.push(rows(&run));
            } else {
                assert_eq!(rows(&run), first_pass[k]);
            }
        }
    }
    assert!(reused > 0, "no point was answered by a looser one");

    // Every grid in one call, on two workers: the rows are the ones above.
    let both: Vec<StandalonePoint> = kernels.iter().flat_map(|k| bench_grid(k.clone())).collect();
    let mixed_dir = scratch_cache("contract-mixed");
    let run = run_replay_sweep(&both, &StandaloneConfig::default(), &cached(&mixed_dir));
    assert_eq!(rows(&run), first_pass.concat());
    assert!(assert_reused_points_are_their_own_replays(&both, &run, &mixed_dir, &solo_dir) > 0);
    for (i, prov) in run.provenance.iter().enumerate() {
        if let Some(from) = prov.reused_from {
            assert_eq!(both[from].kernel.id, both[i].kernel.id);
        }
    }
    for d in [&dir, &solo_dir, &mixed_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// On the benchmark's 288-point grid, every point answered by a looser
/// point's replay is byte for byte its own replay, row and cache entry;
/// at least 90 points are answered so.
#[test]
fn reused_points_equal_their_replays_on_the_benchmark_grid() {
    let dir = scratch_cache("grid288");
    let solo_dir = scratch_cache("grid288-solo");
    let mut reused = 0;
    for bench in Bench::ALL {
        let points = bench_grid(KernelSpec::bench(bench));
        let run = run_replay_sweep(&points, &StandaloneConfig::default(), &one_worker(&dir));
        assert_eq!(run.replayed, points.len(), "{}", run.summary());
        let n = assert_reused_points_are_their_own_replays(&points, &run, &dir, &solo_dir);
        println!("{bench:?}: {n} of {} points reused", points.len());
        reused += n;
    }
    println!("reused {reused} of 288 points");
    assert!(reused >= 90, "only {reused} of 288 points reused");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
}

/// Counts and rows of a sweep, for comparing two sweeps.
fn counts_and_rows(run: &ReplayRun) -> (Vec<usize>, Vec<String>) {
    let counts = vec![
        run.hits,
        run.misses,
        run.corrupt,
        run.baseline_misses,
        run.replayed,
        run.fallbacks,
        run.failed,
    ];
    (counts, rows(run))
}

/// Changes a baseline entry file the way `how` names: `store` a new
/// baseline over it, `delete` it or `truncate` it.
fn change_entry(how: &str, path: &Path) {
    match how {
        "store" => {
            let built = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
            let base = salam_dse::baseline_config(&StandaloneConfig::default());
            let (mut report, trace) = try_run_kernel_profiled(&built, &base).expect("records");
            // A report the rows inherit from, so a stale baseline shows.
            report.verified = !report.verified;
            let dir = path.parent().expect("in the cache directory");
            let id = CacheId::new("replay-baseline/gemm[n=8,u=1]", base.canonical_repr());
            ResultCache::at(dir)
                .store(&id, &ReplayBaseline { report, trace })
                .expect("stored");
        }
        "delete" => std::fs::remove_file(path).expect("removed"),
        _ => {
            let text = std::fs::read(path).expect("read");
            std::fs::write(path, &text[..text.len() / 2]).expect("truncated");
        }
    }
}

/// A baseline entry changed between two sweeps is never served from the
/// prepared map: whether a new baseline was stored over it, it was
/// deleted or it was truncated, the second sweep counts and answers what
/// a sweep of a process that never saw the entry does — a sweep against
/// a copy of the directory, whose path the map has never held.
#[test]
fn a_changed_baseline_entry_is_not_served_from_the_map() {
    let kernel = "gemm[n=8,u=1]";
    let points = warm_grid();
    for name in ["store", "delete", "truncate"] {
        let dir = scratch_cache(&format!("map-{name}"));
        let fresh = scratch_cache(&format!("map-{name}-fresh"));
        let cache = ResultCache::at(&dir);
        let cold = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
        assert_eq!(cold.baseline_misses, 1);
        for p in &points {
            std::fs::remove_file(point_entry(&cache, p)).expect("stored");
        }
        change_entry(name, &baseline_entry(&cache, kernel));
        std::fs::create_dir_all(&fresh).expect("fresh directory");
        for file in entry_files(&dir) {
            std::fs::copy(dir.join(&file), fresh.join(&file)).expect("copied");
        }

        let warm = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&dir));
        let want = run_replay_sweep(&points, &StandaloneConfig::default(), &cached(&fresh));
        assert_eq!(warm.baseline_memo_hits, 0, "{name}");
        assert_eq!(counts_and_rows(&warm), counts_and_rows(&want), "{name}");
        if name == "store" {
            assert_ne!(rows(&warm), rows(&cold), "the stored baseline must show");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh);
    }
}
