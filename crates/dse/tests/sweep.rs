//! End-to-end guarantees of the DSE engine: determinism across worker
//! counts, full cache reuse on re-runs, corruption recovery, and the
//! per-worker trace-recorder pattern enabled by the `Send` trace handle.

use std::path::PathBuf;
use std::sync::Arc;

use machsuite::Bench;
use salam::standalone::StandaloneConfig;
use salam_dse::{
    pareto_frontier, run_sweep, Axis, DseOptions, KernelSpec, SweepJob, SweepSpec, SweepTable,
};

/// A fresh scratch cache directory unique to this test.
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("salam-dse-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but non-trivial sweep: 2 kernels × (2 ports × 2 window) = 8 points.
fn smoke_spec() -> SweepSpec {
    SweepSpec::new("smoke", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=8,u=2]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 })
        }))
        .kernel(KernelSpec::bench(Bench::SpmvCrs))
        .axis(Axis::spm_ports(&[1, 2]))
        .axis(Axis::reservation_entries(&[8, 64]))
}

/// Renders the sweep's outcomes exactly the way the exp binaries do.
fn table_csv(spec: &SweepSpec, run: &salam_dse::SweepRun<salam::RunReport>) -> String {
    let points = spec.points();
    let mut cols = vec!["kernel".to_string()];
    cols.extend(spec.axis_names());
    cols.extend(["cycles", "stall%", "power(mW)"].map(String::from));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = SweepTable::new(&spec.name, &cols);
    for (point, outcome) in points.iter().zip(&run.outcomes) {
        let mut row = vec![point.kernel.id.clone()];
        row.extend(point.coords.iter().map(|(_, v)| v.clone()));
        match outcome.payload() {
            Some(r) => {
                row.push(r.cycles.to_string());
                row.push(format!("{:.2}", r.stats.stall_fraction() * 100.0));
                row.push(format!("{:.3}", r.power.total_mw()));
            }
            None => {
                let label = outcome.failure_label().unwrap();
                row.extend([label, String::new(), String::new()]);
            }
        }
        table.row(row);
    }
    table.to_csv()
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let spec = smoke_spec();
    let points = spec.points();

    let serial_dir = scratch_cache("serial");
    let serial = run_sweep(
        &points,
        &DseOptions::default()
            .with_workers(1)
            .with_cache_dir(&serial_dir),
    );
    let parallel_dir = scratch_cache("parallel");
    let parallel = run_sweep(
        &points,
        &DseOptions::default()
            .with_workers(4)
            .with_cache_dir(&parallel_dir),
    );

    assert_eq!(serial.outcomes.len(), points.len());
    assert_eq!(serial.misses, points.len());
    assert_eq!(parallel.misses, points.len());
    assert_eq!(
        table_csv(&spec, &serial),
        table_csv(&spec, &parallel),
        "sweep report must not depend on worker count"
    );
    // The full reports — not just the table projection — must agree, and
    // every point's output verifies.
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert!(s.expect_payload().verified);
        assert_eq!(s.expect_payload().to_json(), p.expect_payload().to_json());
    }

    let _ = std::fs::remove_dir_all(serial_dir);
    let _ = std::fs::remove_dir_all(parallel_dir);
}

#[test]
fn telemetry_histograms_are_identical_across_worker_counts() {
    // The sweep-wide `dse.point.cycles` histogram is accumulated in
    // per-worker shards and merged in completion order; element-wise
    // bucket addition makes that merge commutative, so 1 worker
    // (`SALAM_JOBS=1`) and 8 workers (`SALAM_JOBS=8`, here pinned via
    // `with_workers` to keep the env untouched) must produce identical
    // bucket counts and quantiles — and a warm cache must not change the
    // histogram either, since hits record the same per-point telemetry.
    let spec = smoke_spec();
    let points = spec.points();

    let serial_dir = scratch_cache("tel-serial");
    let serial = run_sweep(
        &points,
        &DseOptions::default()
            .with_workers(1)
            .with_cache_dir(&serial_dir),
    );
    let parallel_dir = scratch_cache("tel-parallel");
    let opts8 = DseOptions::default()
        .with_workers(8)
        .with_cache_dir(&parallel_dir);
    let parallel = run_sweep(&points, &opts8);

    let a = serial.telemetry.hist("dse.point.cycles").unwrap();
    let b = parallel.telemetry.hist("dse.point.cycles").unwrap();
    assert_eq!(a.count(), points.len() as u64);
    assert_eq!(a, b, "bucket counts must not depend on worker count");
    for q in [0.5, 0.95, 0.99, 1.0] {
        assert_eq!(a.quantile(q), b.quantile(q), "q{q} differs");
    }
    assert_eq!(
        serial.telemetry.counter("dse.points.simulated"),
        parallel.telemetry.counter("dse.points.simulated")
    );

    // Warm re-run: all hits, same histogram.
    let warm = run_sweep(&points, &opts8);
    assert_eq!(warm.hits, points.len());
    assert_eq!(
        warm.telemetry.hist("dse.point.cycles").unwrap(),
        a,
        "cache hits must record the same per-point telemetry as fresh runs"
    );
    assert_eq!(
        warm.telemetry.counter("dse.points.cache_hits"),
        points.len() as u64
    );

    let _ = std::fs::remove_dir_all(serial_dir);
    let _ = std::fs::remove_dir_all(parallel_dir);
}

#[test]
fn second_run_is_all_cache_hits_and_identical() {
    let spec = smoke_spec();
    let points = spec.points();
    let dir = scratch_cache("rerun");

    let opts = DseOptions::default().with_workers(2).with_cache_dir(&dir);
    let first = run_sweep(&points, &opts);
    assert_eq!(first.hits, 0);
    assert_eq!(first.misses, points.len());

    let second = run_sweep(&points, &opts);
    assert_eq!(
        second.hits,
        points.len(),
        "every point must be served from cache"
    );
    assert_eq!(second.misses, 0);
    assert_eq!(second.corrupt, 0);
    assert!(second.outcomes.iter().all(|o| o.from_cache));
    assert_eq!(
        table_csv(&spec, &first),
        table_csv(&spec, &second),
        "cached results must reproduce the fresh report byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_entry_is_detected_and_resimulated() {
    let spec = smoke_spec();
    let points = spec.points();
    let dir = scratch_cache("corrupt");

    let opts = DseOptions::default().with_workers(1).with_cache_dir(&dir);
    let first = run_sweep(&points, &opts);
    assert_eq!(first.misses, points.len());

    // Vandalize one entry: truncate it mid-payload.
    let victim = salam_dse::ResultCache::at(&dir).entry_path(&points[3].cache_id());
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();

    let second = run_sweep(&points, &opts);
    assert_eq!(second.corrupt, 1, "the truncated entry must be flagged");
    assert_eq!(second.hits, points.len() - 1);
    assert_eq!(second.misses, 0);
    assert_eq!(
        table_csv(&spec, &first),
        table_csv(&spec, &second),
        "re-simulation must restore the exact original result"
    );

    // The rewritten entry is healthy again.
    let third = run_sweep(&points, &opts);
    assert_eq!(third.hits, points.len());
    assert_eq!(third.corrupt, 0);

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn no_cache_mode_always_simulates() {
    let spec = SweepSpec::new("nocache", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        }))
        .axis(Axis::spm_latency(&[1, 2]));
    let points = spec.points();
    let opts = DseOptions::default().with_workers(1).without_cache();
    let a = run_sweep(&points, &opts);
    let b = run_sweep(&points, &opts);
    assert_eq!(a.hits + b.hits, 0);
    assert_eq!(a.misses + b.misses, 2 * points.len());
}

#[test]
fn pareto_frontier_over_sweep_objectives() {
    let spec = smoke_spec();
    let points = spec.points();
    let run = run_sweep(
        &points,
        &DseOptions::default().with_workers(2).without_cache(),
    );
    let objs: Vec<[f64; 3]> = run
        .outcomes
        .iter()
        .map(|o| salam_dse::objectives(o.expect_payload()))
        .collect();
    let frontier = pareto_frontier(&objs);
    assert!(!frontier.is_empty());
    // No frontier point may be dominated by any other point.
    for &i in &frontier {
        for (j, p) in objs.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = p.iter().zip(&objs[i]).all(|(a, b)| a <= b)
                && p.iter().zip(&objs[i]).any(|(a, b)| a < b);
            assert!(!dominates, "frontier point {i} dominated by {j}");
        }
    }
}

/// A job wrapper that panics for one designated point. Used to prove a
/// sweep survives a diverging design point: the point becomes a
/// `failed:<cause>` row, nothing else changes.
struct Sabotaged {
    inner: salam_dse::StandalonePoint,
    poisoned: bool,
}

impl SweepJob for Sabotaged {
    type Output = salam::RunReport;

    fn cache_id(&self) -> salam_dse::CacheId {
        self.inner.cache_id()
    }

    fn run(&self) -> salam::RunReport {
        if self.poisoned {
            panic!("deliberate divergence for test");
        }
        self.inner.run()
    }
}

#[test]
fn sweep_survives_a_panicking_job() {
    let spec = smoke_spec();
    let points = spec.points();
    let poisoned_idx = 3;
    let jobs: Vec<Sabotaged> = points
        .iter()
        .enumerate()
        .map(|(i, p)| Sabotaged {
            inner: p.clone(),
            poisoned: i == poisoned_idx,
        })
        .collect();

    let dir = scratch_cache("panic");
    let opts = DseOptions::default().with_workers(4).with_cache_dir(&dir);
    let run = run_sweep(&jobs, &opts);

    assert_eq!(run.outcomes.len(), points.len(), "sweep must complete");
    assert_eq!(run.failed, 1);
    let failed = &run.outcomes[poisoned_idx];
    assert!(failed.payload().is_none());
    assert_eq!(
        failed.failure_label().as_deref(),
        Some("failed:deliberate divergence for test")
    );
    assert_eq!(
        failed.failure().unwrap().attempts,
        2,
        "default retry budget is one extra attempt"
    );

    // Every healthy row is byte-identical to a clean sweep of the same spec.
    let clean_dir = scratch_cache("panic-clean");
    let clean = run_sweep(
        &points,
        &DseOptions::default()
            .with_workers(4)
            .with_cache_dir(&clean_dir),
    );
    for (i, (sab, ok)) in run.outcomes.iter().zip(&clean.outcomes).enumerate() {
        if i == poisoned_idx {
            continue;
        }
        assert_eq!(
            sab.expect_payload().to_json(),
            ok.expect_payload().to_json()
        );
    }

    // A failed point is never cached: re-running the same jobs fails the
    // point again as a miss while the rest hit.
    let second = run_sweep(&jobs, &opts);
    assert_eq!(second.hits, points.len() - 1);
    assert_eq!(second.failed, 1);
    assert!(!second.outcomes[poisoned_idx].from_cache);

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(clean_dir);
}

/// A statically invalid point — here a zero-port SPM, the kind of value an
/// axis grid sweeps through naturally — must become an `invalid:<code>` row
/// without ever simulating or touching the cache.
#[test]
fn invalid_point_consumes_no_simulation_slot_or_cache_entry() {
    let spec = SweepSpec::new("invalid", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        }))
        .axis(Axis::spm_ports(&[0, 2]));
    let points = spec.points();
    assert_eq!(points.len(), 2);

    let dir = scratch_cache("invalid");
    let opts = DseOptions::default().with_workers(2).with_cache_dir(&dir);
    let run = run_sweep(&points, &opts);

    assert_eq!(run.invalid, 1);
    assert_eq!(run.failed, 0, "a screened point is not a failure");
    assert_eq!(run.misses, 1, "only the valid point simulates");
    assert!(run.summary().contains("failed=0 invalid=1"));

    let bad = &run.outcomes[0];
    assert!(bad.payload().is_none());
    assert_eq!(bad.failure_label().as_deref(), Some("invalid:C001"));
    let diag = bad.invalid().expect("carries the rejecting diagnostic");
    assert_eq!(diag.code, "C001");
    assert!(diag.message.contains("spm_read_ports"), "{}", diag.message);
    run.outcomes[1].expect_payload();

    // No cache entry was written for the invalid point, and a re-run
    // screens it again rather than serving anything stale.
    let cache = salam_dse::ResultCache::at(&dir);
    assert!(!cache.entry_path(&points[0].cache_id()).exists());
    let second = run_sweep(&points, &opts);
    assert_eq!(second.invalid, 1);
    assert_eq!(second.hits, 1);
    assert!(!second.outcomes[0].from_cache);

    let _ = std::fs::remove_dir_all(dir);
}

/// The satellite-1 pattern end-to-end: each worker thread records into its
/// own `TraceRecorder` via a thread-local `SharedTrace` (now `Send + Sync`),
/// and the per-worker traces merge into one coherent, time-sorted timeline.
#[test]
fn per_worker_traces_merge_into_one_timeline() {
    use salam_obs::{SharedTrace, TraceRecorder};

    let kernels: Vec<KernelSpec> = vec![
        KernelSpec::custom("gemm[n=4,u=1]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
        }),
        KernelSpec::bench(Bench::SpmvCrs),
    ];
    let kernels = Arc::new(kernels);

    let recorders: Vec<TraceRecorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..kernels.len())
            .map(|i| {
                let kernels = kernels.clone();
                scope.spawn(move || {
                    // One recorder per worker — no sharing, no contention.
                    let mut trace = SharedTrace::enabled();
                    let track = trace.track(&format!("worker{i}"));
                    let span = trace.begin_span(track, &kernels[i].id, (i as u64 + 1) * 10);
                    let report = salam::standalone::run_kernel(
                        &kernels[i].build(),
                        &StandaloneConfig::default(),
                    );
                    trace.counter(track, "cycles", (i as u64 + 1) * 100, report.cycles as f64);
                    trace.end_span(span, (i as u64 + 1) * 1000);
                    trace
                        .take_recorder()
                        .expect("enabled handle owns a recorder")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut merged = TraceRecorder::new(4096);
    for rec in &recorders {
        merged.merge_from(rec);
    }
    assert_eq!(merged.tracks().len(), 2);
    // 2 workers × (begin + counter + end).
    assert_eq!(merged.len(), 6);
    let ts: Vec<u64> = merged.events().map(|e| e.ts_ps()).collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "merged timeline must be sorted"
    );
}

/// Flow-based pruning on real kernels: the verdict vector is a pure
/// function of the point set (identical across worker counts), pruned
/// points never simulate (no cache entry, no miss), and the pruned count
/// lands in the summary.
#[test]
fn pruned_sweep_is_deterministic_and_skips_simulation() {
    use salam_dse::{run_sweep_pruned, PrunableJob};

    // gemm only: 4 points, reference = ports=1/window=64.
    let spec = SweepSpec::new("prune", StandaloneConfig::default())
        .kernel(KernelSpec::custom("gemm[n=8,u=2]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 })
        }))
        .axis(Axis::spm_ports(&[1, 2]))
        .axis(Axis::reservation_entries(&[8, 64]));
    let points = spec.points();
    let refs: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.label().ends_with("/ports=1/window=64"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(refs, [1]);

    let serial = run_sweep_pruned(
        &points,
        &refs,
        &DseOptions::default().without_cache().with_workers(1),
    );
    let parallel = run_sweep_pruned(
        &points,
        &refs,
        &DseOptions::default().without_cache().with_workers(4),
    );
    let labels = |run: &salam_dse::SweepRun<salam::RunReport>| -> Vec<Option<String>> {
        run.outcomes.iter().map(|o| o.failure_label()).collect()
    };
    assert_eq!(labels(&serial), labels(&parallel));
    assert!(serial.pruned > 0, "the starved-window points should prune");
    assert_eq!(serial.pruned, parallel.pruned);
    // Pruned points never simulated: misses cover only the reference and
    // the survivors.
    assert_eq!(
        serial.misses,
        points.len() - serial.pruned,
        "each non-pruned point simulates exactly once"
    );
    assert!(serial
        .summary()
        .contains(&format!("pruned={}", serial.pruned)));
    // Every pruned verdict cites F005 and the reference point, and a
    // re-simulation proves the point never could have won: its cycles
    // respect the static bound and the reference is at least as fast.
    let reference = serial.outcomes[refs[0]].expect_payload().cycles;
    for (point, outcome) in points.iter().zip(&serial.outcomes) {
        if let Some(d) = outcome.pruned() {
            assert_eq!(d.code, "F005");
            assert!(d.message.contains("ports=1/window=64"), "{}", d.message);
            let bound = point.static_profile().unwrap().cycle_bound;
            let resim = point.run().cycles;
            assert!(bound <= resim, "{}: {resim} < bound {bound}", point.label());
            assert!(reference <= resim, "{}: beat the reference", point.label());
        }
    }
}
