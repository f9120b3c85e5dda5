//! `sweep_replay`: a design-space sweep answered by trace replay.
//!
//! An op is one sweep point. A pass is nine `run_replay_sweep` calls, one
//! per MachSuite kernel in seeded order, each over the same grid of
//! replay-safe axes (SPM ports × SPM latency × one FU limit), starting
//! from a cache directory restored to its post-set-up state: the nine
//! recorded baselines and no replayed points. Every replayed cycle count
//! must equal the full-simulation count in the golden, and no point may
//! fall back to simulation.
//!
//! Why it exists: `replay`, `dse`, the `verify` bounds and per-point
//! `cdfg` elaboration do the work and the engine runs only in set-up
//! (profiled baseline recording), so one resource model (ROADMAP item 2)
//! and a ladder driver (item 8) are visible here and invisible in
//! `sim_spm`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::{run_kernel, try_run_kernel, try_run_kernel_profiled, StandaloneConfig};
use salam_cdfg::StaticCdfg;
use salam_dse::{
    baseline_config, replay_config, run_replay_sweep, run_sweep, trips_from_trace, Axis, CacheId,
    DseOptions, EngineKind, KernelSpec, Lookup, ReplayBaseline, ReplayOptions, ResultCache,
    StandalonePoint, SweepSpec,
};
use salam_verify::{static_lower_bound, BoundConfig};

use crate::golden::Golden;
use crate::harness::{ms_since, Metrics, Tally, Workload};
use crate::stats;
use crate::trace::{chrome_json, Recorder};
use crate::workloads::{kernel_id, shuffled};

/// Grid values; all three axes are replay-safe, and the FU axis keeps
/// every point off the baseline configuration, so every point replays.
const PORTS: [u32; 4] = [1, 2, 4, 8];
const SPM_LATENCY: [u64; 4] = [1, 2, 3, 4];
const ADDERS: [u32; 2] = [2, 8];

/// The grid of one kernel, in sweep order.
pub fn grid(bench: Bench) -> Vec<StandalonePoint> {
    SweepSpec::new("sweep_replay", StandaloneConfig::default())
        .kernel(KernelSpec::bench(bench))
        .axis(Axis::spm_ports(&PORTS))
        .axis(Axis::spm_latency(&SPM_LATENCY))
        .axis(Axis::fu_limit(FuKind::IntAdder, &ADDERS))
        .points()
}

/// Sweep options with everything passed explicitly: one worker, the given
/// cache directory, no size cap.
fn options(cache_dir: &Path, workers: usize) -> DseOptions {
    DseOptions::default()
        .with_workers(workers)
        .with_cache_dir(cache_dir)
}

/// One kernel's slice of the pass.
struct KernelSweep {
    id: String,
    points: Vec<StandalonePoint>,
}

/// The `sweep_replay` workload.
pub struct SweepReplay {
    kernels: Vec<KernelSweep>,
    order: Vec<usize>,
    golden: Golden,
    cache_dir: PathBuf,
    probe_dir: PathBuf,
    /// Entry files present after set-up: the recorded baselines.
    baseline_files: BTreeSet<std::ffi::OsString>,
    rec: Recorder,
    next_op: u64,
    /// Across traced passes: worst replayed-vs-golden error, points
    /// replayed, points seen, fallbacks.
    max_err_pct: f64,
    replayed: u64,
    points_seen: u64,
    fallbacks: u64,
    setup_phases_ms: Vec<f64>,
}

impl SweepReplay {
    /// Set-up: golden load, grid enumeration and the profiled baseline
    /// recording of all nine kernels into a fresh cache directory.
    pub fn setup(seed: u64, dir: &Path) -> Result<SweepReplay, String> {
        let t = Instant::now();
        let golden = Golden::load()?;
        let cache_dir = dir.join("cache");
        let kernels: Vec<KernelSweep> = Bench::ALL
            .into_iter()
            .map(|b| KernelSweep {
                id: kernel_id(b),
                points: grid(b),
            })
            .collect();
        let mut setup_phases_ms = vec![ms_since(t)];

        // A point at the baseline configuration records the baseline and
        // reuses its report: nothing but the baseline is stored. One call
        // per kernel, so each recording is a set-up phase of its own.
        let opts = ReplayOptions {
            inner: options(&cache_dir, 1),
            check: false,
        };
        for bench in Bench::ALL {
            let t = Instant::now();
            let at_baseline = [StandalonePoint {
                kernel: KernelSpec::bench(bench),
                config: StandaloneConfig::default(),
                coords: Vec::new(),
            }];
            let run = run_replay_sweep(&at_baseline, &StandaloneConfig::default(), &opts);
            if run.baseline_misses != 1 || run.failed > 0 {
                return Err(format!("baseline recording: {}", run.summary()));
            }
            setup_phases_ms.push(ms_since(t));
        }
        let baseline_files = entry_files(&cache_dir);
        if baseline_files.len() != kernels.len() {
            return Err(format!(
                "expected {} baseline entries, found {}",
                kernels.len(),
                baseline_files.len()
            ));
        }
        Ok(SweepReplay {
            order: shuffled(kernels.len(), seed),
            kernels,
            golden,
            cache_dir,
            probe_dir: dir.join("probe"),
            baseline_files,
            rec: Recorder::new(Instant::now(), 0),
            next_op: 0,
            max_err_pct: 0.0,
            replayed: 0,
            points_seen: 0,
            fallbacks: 0,
            setup_phases_ms,
        })
    }

    /// Full-simulation cycles of every grid point (`--bless`).
    pub fn bless(golden: &mut Golden) {
        for bench in Bench::ALL {
            let kernel = bench.build_standard();
            let cycles = grid(bench)
                .iter()
                .map(|p| run_kernel(&kernel, &p.config).cycles)
                .collect();
            golden.sweep_cycles.insert(kernel_id(bench), cycles);
        }
    }

    /// Removes every replayed point from the cache, leaving the baselines.
    fn restore_cache(&self) {
        for name in entry_files(&self.cache_dir).difference(&self.baseline_files) {
            let _ = std::fs::remove_file(self.cache_dir.join(name));
        }
    }
}

/// Names of the entry files in a cache directory.
fn entry_files(dir: &Path) -> BTreeSet<std::ffi::OsString> {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.file_name()).collect())
        .unwrap_or_default()
}

impl Workload for SweepReplay {
    fn ops_per_pass(&self) -> u64 {
        self.kernels.iter().map(|k| k.points.len() as u64).sum()
    }

    fn setup_phases_ms(&self) -> &[f64] {
        &self.setup_phases_ms
    }

    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64> {
        self.restore_cache();
        let mut steps = Vec::with_capacity(self.order.len());
        self.rec.set_enabled(traced);
        let opts = ReplayOptions {
            inner: options(&self.cache_dir, 1),
            check: false,
        };
        for &k in &self.order {
            let sweep = &self.kernels[k];
            let op = self.next_op;
            self.next_op += sweep.points.len() as u64;
            let t = Instant::now();
            let run = self
                .rec
                .span(&format!("dse.replay_sweep.{}", sweep.id), op, || {
                    run_replay_sweep(&sweep.points, &StandaloneConfig::default(), &opts)
                });
            let ms = ms_since(t);

            let want = self.golden.sweep_cycles.get(&sweep.id);
            let mut ok = 0u64;
            for (j, (outcome, prov)) in run.outcomes.iter().zip(&run.provenance).enumerate() {
                let want = want.and_then(|w| w.get(j)).copied();
                let got = outcome.payload();
                let good = prov.engine == EngineKind::Replay
                    && !outcome.from_cache
                    && got.is_some_and(|r| r.verified && Some(r.cycles) == want);
                ok += u64::from(good);
                if traced {
                    self.points_seen += 1;
                    self.replayed += u64::from(prov.engine == EngineKind::Replay);
                    if let (Some(r), Some(w)) = (got, want) {
                        let err = (r.cycles as f64 - w as f64).abs() / w.max(1) as f64 * 100.0;
                        self.max_err_pct = self.max_err_pct.max(err);
                    }
                }
            }
            if traced {
                self.fallbacks += run.fallbacks as u64;
            }
            let n = sweep.points.len() as u64;
            tally.batch(ok, n - ok, ms / n as f64);
            steps.push(ms);
        }
        self.rec.set_enabled(false);
        steps
    }

    fn layer_metrics(&mut self, _budget: Duration, out: &mut Metrics) {
        let points = self.ops_per_pass();
        // A traced pass's sweep time: each kernel's fastest call, summed —
        // the same estimator as the headline.
        let pass_us: f64 = self
            .kernels
            .iter()
            .map(|k| {
                let name = format!("dse.replay_sweep.{}", k.id);
                stats::quantile(&self.rec.durations_us(&name), 0.0)
            })
            .sum();
        out.insert("dse.replay_point_us".into(), pass_us / points as f64);
        out.insert(
            "dse.replayed_share".into(),
            stats::ratio(self.replayed as f64, self.points_seen as f64),
        );
        out.insert("dse.fallbacks".into(), self.fallbacks as f64);
        out.insert("replay.err_pct".into(), self.max_err_pct);

        // Probe: the same work taken apart, once, with direct calls into
        // each layer.
        let base_cfg = baseline_config(&StandaloneConfig::default());
        let probe_cache = ResultCache::at(&self.probe_dir);
        let (mut plain_s, mut profiled_s) = (0.0, 0.0);
        let (mut load_s, mut prepare_s, mut replay_s) = (0.0, 0.0, 0.0);
        let (mut elaborate_s, mut bound_s) = (0.0, 0.0);
        let (mut sim_s, mut sim_replay_s) = (0.0, 0.0);
        let mut replayed_insts = 0u64;
        for sweep in &self.kernels {
            let kernel = sweep.points[0].kernel.build();
            let t = Instant::now();
            let plain = try_run_kernel(&kernel, &base_cfg);
            plain_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let profiled = try_run_kernel_profiled(&kernel, &base_cfg);
            profiled_s += t.elapsed().as_secs_f64();
            let (Ok(plain), Ok((report, trace))) = (plain, profiled) else {
                continue;
            };
            let dyn_insts: u64 = plain.stats.issued.values().sum();

            // What a sweep pays to fetch its baseline: lookup + decode.
            let id = CacheId::new(
                format!("probe-baseline/{}", sweep.id),
                base_cfg.canonical_repr(),
            );
            let _ = probe_cache.store(&id, &ReplayBaseline { report, trace });
            let t = Instant::now();
            let loaded = probe_cache.lookup::<ReplayBaseline>(&id);
            load_s += t.elapsed().as_secs_f64();
            let Lookup::Hit(baseline) = loaded else {
                continue;
            };

            let t = Instant::now();
            let prepared = salam_replay::Prepared::new(&baseline.trace);
            prepare_s += t.elapsed().as_secs_f64();
            let Ok(prepared) = prepared else { continue };
            let trips = trips_from_trace(&kernel.func, &baseline.trace);

            for (j, point) in sweep.points.iter().enumerate() {
                let cfg = &point.config;
                let t = Instant::now();
                let cdfg = StaticCdfg::elaborate(&kernel.func, &cfg.profile, &cfg.constraints);
                elaborate_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let replayed = salam_replay::replay_prepared(&prepared, &replay_config(cfg, &cdfg));
                let one_replay = t.elapsed().as_secs_f64();
                replay_s += one_replay;
                black_box(&replayed);
                replayed_insts += dyn_insts;
                let t = Instant::now();
                black_box(static_lower_bound(
                    &kernel.func,
                    &cdfg,
                    &trips,
                    &BoundConfig {
                        read_ports: cfg.spm_read_ports,
                        write_ports: cfg.spm_write_ports,
                        pipelined_fus: cfg.engine.pipelined_fus,
                        reservation_entries: cfg.engine.reservation_entries,
                    },
                ));
                bound_s += t.elapsed().as_secs_f64();
                if j == 0 {
                    // One full simulation per kernel, for the speed-up.
                    let t = Instant::now();
                    black_box(try_run_kernel(&kernel, cfg).is_ok());
                    sim_s += t.elapsed().as_secs_f64();
                    sim_replay_s += one_replay;
                }
            }
        }
        let kernels = self.kernels.len() as f64;
        out.insert(
            "runtime.profiled_ratio".into(),
            stats::ratio(profiled_s, plain_s),
        );
        out.insert("dse.baseline_load_ms".into(), load_s * 1e3 / kernels);
        out.insert("replay.prepare_us".into(), prepare_s * 1e6 / kernels);
        out.insert("replay.point_us".into(), replay_s * 1e6 / points as f64);
        out.insert(
            "replay.minst_per_s".into(),
            stats::ratio(replayed_insts as f64 / 1e6, replay_s),
        );
        out.insert(
            "replay.speedup_vs_sim".into(),
            stats::ratio(sim_s, sim_replay_s),
        );
        out.insert(
            "dse.replay_share".into(),
            stats::ratio(replay_s * 1e6, pass_us),
        );
        out.insert(
            "cdfg.elaborate_us".into(),
            elaborate_s * 1e6 / points as f64,
        );
        out.insert("verify.bound_us".into(), bound_s * 1e6 / points as f64);
        self.sweep_engine_probe(out);
    }

    fn chrome_trace(&self) -> String {
        chrome_json(&[&self.rec])
    }
}

impl SweepReplay {
    /// Probe of the plain sweep engine on eight equal-sized points (gemm
    /// under eight window depths — a replay-unsafe axis, so each is a full
    /// simulation): cold vs direct calls, one worker vs two, and warm.
    fn sweep_engine_probe(&self, out: &mut Metrics) {
        let points = SweepSpec::new("probe", StandaloneConfig::default())
            .kernel(KernelSpec::bench(Bench::GemmNcubed))
            .axis(Axis::reservation_entries(&[24, 32, 40, 48, 56, 64, 72, 80]))
            .points();
        let n = points.len() as f64;
        let kernel = Bench::GemmNcubed.build_standard();
        let t = Instant::now();
        for p in &points {
            black_box(run_kernel(&kernel, &p.config).cycles);
        }
        let direct_s = t.elapsed().as_secs_f64();

        let timed_sweep = |dir: &str, workers: usize| {
            let opts = options(&self.probe_dir.join(dir), workers);
            let t = Instant::now();
            let run = run_sweep(&points, &opts);
            (t.elapsed().as_secs_f64(), run)
        };
        let (cold1_s, _) = timed_sweep("cold1", 1);
        let (cold2_s, _) = timed_sweep("cold2", 2);
        let (warm_s, warm) = timed_sweep("cold1", 1);
        out.insert("dse.cold_point_ms".into(), cold1_s * 1e3 / n);
        out.insert(
            "dse.cold_overhead_ratio".into(),
            stats::ratio(cold1_s, direct_s),
        );
        out.insert(
            "dse.pool_efficiency".into(),
            stats::ratio(cold1_s, 2.0 * cold2_s),
        );
        if warm.hits == points.len() {
            out.insert("dse.warm_point_us".into(), warm_s * 1e6 / n);
        }

        // Raw cache entry cost, on report-sized payloads.
        let cache = ResultCache::at(self.probe_dir.join("entries"));
        let report = run_kernel(&kernel, &StandaloneConfig::default());
        let ids: Vec<CacheId> = (0..64)
            .map(|i| CacheId::new("probe-entry", format!("entry {i}")))
            .collect();
        let t = Instant::now();
        for id in &ids {
            let _ = cache.store(id, &report);
        }
        out.insert(
            "dse.cache.store_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / ids.len() as f64,
        );
        let t = Instant::now();
        for id in &ids {
            black_box(matches!(
                cache.lookup::<salam::RunReport>(id),
                Lookup::Hit(_)
            ));
        }
        out.insert(
            "dse.cache.lookup_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / ids.len() as f64,
        );
    }
}
