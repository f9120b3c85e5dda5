//! The process-wide prepared-baseline map, in a test binary of its own:
//! the one test here owns the map, so no other sweep of the process
//! evicts what it mapped between two calls.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hw_profile::FuKind;
use salam::standalone::StandaloneConfig;
use salam_dse::{
    run_replay_sweep, Axis, DseOptions, KernelSpec, ReplayOptions, ReplayRun, StandalonePoint,
    SweepSpec,
};

/// A fresh scratch cache directory unique to this test.
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-map-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One worker and a cache directory, as the `sweep_replay` benchmark runs
/// its sweeps.
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

/// Every row's report JSON.
fn rows(run: &ReplayRun) -> Vec<String> {
    run.outcomes
        .iter()
        .map(|o| o.payload().expect("replayed").to_json())
        .collect()
}

/// A baseline recorded in this process is served from the map by every
/// later sweep call of its kernel while its entry file is unchanged. Set
/// up as the `sweep_replay` benchmark does (one baseline recorded per
/// kernel into a fresh directory), each pass deletes the point entries
/// and sweeps each kernel: the call counts its baseline as one map hit,
/// which is the one cache hit, and records nothing. Its rows are the ones
/// a sweep against a fresh copy of the baselines answers, from a path the
/// map never held.
#[test]
fn a_recorded_baseline_is_served_from_the_map() {
    let dir = scratch_cache("recorded");
    let kernels = [
        KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        }),
        KernelSpec::custom("stencil2d[8x8]", || {
            machsuite::stencil2d::build(&machsuite::stencil2d::Params { rows: 8, cols: 8 })
        }),
    ];
    let grid = |kernel: &KernelSpec| {
        SweepSpec::new("map", StandaloneConfig::default())
            .kernel(kernel.clone())
            .axis(Axis::spm_ports(&[1, 4]))
            .axis(Axis::fu_limit(FuKind::IntAdder, &[2, 8]))
            .points()
    };
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
        assert_eq!((run.baseline_misses, run.baseline_memo_hits), (1, 0));
    }
    let baselines = entry_files(&dir);
    assert_eq!(baselines.len(), kernels.len());

    for pass in 0..2 {
        for name in entry_files(&dir).difference(&baselines) {
            std::fs::remove_file(dir.join(name)).expect("entry removable");
        }
        let copy = scratch_cache(&format!("copy{pass}"));
        std::fs::create_dir_all(&copy).expect("copy directory");
        for name in &baselines {
            std::fs::copy(dir.join(name), copy.join(name)).expect("copied");
        }
        for kernel in &kernels {
            let points = grid(kernel);
            let run = run_replay_sweep(&points, &StandaloneConfig::default(), &one_worker(&dir));
            assert_eq!(
                (run.baseline_memo_hits, run.hits, run.baseline_misses),
                (1, 1, 0),
                "{}",
                run.summary()
            );
            assert_eq!(run.replayed, points.len());
            let fresh = run_replay_sweep(&points, &StandaloneConfig::default(), &one_worker(&copy));
            assert_eq!(
                (fresh.baseline_memo_hits, fresh.hits, fresh.baseline_misses),
                (0, 1, 0)
            );
            assert_eq!(rows(&run), rows(&fresh));
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
