//! How a run is measured: set-up several times, then whole passes until
//! the time budget is spent, and the *fastest repetition of every step*.
//!
//! A *pass* executes a workload's seed-fixed op list once, so every pass
//! does byte-identical simulated work. A pass is a sequence of *steps* —
//! calls that run one after another (one op each on the single-thread
//! workloads; the whole pass on `serve_mixed`, whose jobs overlap). Step
//! `j` of every pass is the same call on the same input, so the spread of
//! its times is host noise by construction, and it is one-sided: a step is
//! only ever slowed down. On the shared box this runs on, slow-downs come
//! in bursts that last seconds and reach 1.8×, and no quantile of whole
//! passes survives them; the fastest repetition of each short step does.
//! The undisturbed pass time is therefore the sum over steps of each
//! step's minimum, reported raw (no calibration against a reference
//! host). The loop only looks at the clock between passes — a pass is
//! never cut.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats;

/// Fewest timed passes in a run, whatever `--seconds` says: the minimum of
/// fewer repetitions is not worth reporting.
pub const MIN_PASSES: usize = 10;

/// Set-up is repeated from scratch at least this often …
pub const MIN_SETUPS: usize = 4;
/// … and then until this much time has gone into it (a cheap set-up gets
/// more repetitions, so its fastest phases are as well sampled as a dear
/// one's), but never more often than [`MAX_SETUPS`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Most set-up repetitions in a run.
pub const MAX_SETUPS: usize = 20;

/// Named metric values of one run.
pub type Metrics = BTreeMap<String, f64>;

/// Op outcomes accumulated over passes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops executed.
    pub attempted: u64,
    /// Ops whose result was wrong: golden mismatch, `verified = false`,
    /// an `Err`, a rejection, a replay fallback.
    pub failed: u64,
    /// Latency of every *successful* op, milliseconds. A failed op never
    /// contributes a sample.
    pub op_ms: Vec<f64>,
}

impl Tally {
    /// Records one op.
    pub fn op(&mut self, ok: bool, ms: f64) {
        self.batch(u64::from(ok), u64::from(!ok), ms);
    }

    /// Records a batch of ops that one call executed together, `ms_each`
    /// being the call's time divided by the batch size. The batch gives
    /// one latency sample, so every call weighs the same in the
    /// percentiles whatever its size.
    pub fn batch(&mut self, ok: u64, failed: u64, ms_each: f64) {
        self.attempted += ok + failed;
        self.failed += failed;
        if ok > 0 {
            self.op_ms.push(ms_each);
        }
    }
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Ops in one pass (fixed by the seed).
    fn ops_per_pass(&self) -> u64;

    /// `true` when the ops of a pass overlap in time (concurrent clients).
    /// Then the whole pass is one step, and op latency is the measured
    /// distribution over all ops instead of each step's fastest time.
    fn ops_overlap(&self) -> bool {
        false
    }

    /// Wall time of every phase of this instance's set-up, milliseconds,
    /// in a fixed order (kernel builds, baseline recordings, server boot …).
    fn setup_phases_ms(&self) -> &[f64];

    /// Executes the whole op list once, in order, checking every result,
    /// and returns the wall time of each step in milliseconds — always the
    /// same number of steps, each the same call as in every other pass.
    /// Housekeeping between steps that is not the system's work (restoring
    /// a cache directory) is left out. With `traced` the workload records
    /// spans around its layer calls.
    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64>;

    /// Traced runs only: the per-layer metrics this workload exercises,
    /// from the spans recorded so far plus fixed-work probes that may
    /// spend about `budget`.
    fn layer_metrics(&mut self, budget: Duration, out: &mut Metrics);

    /// The recorded spans as Chrome trace JSON.
    fn chrome_trace(&self) -> String;
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The fastest repetition of each step: `repeats[i][j]` is step `j` of
/// repetition `i`; the result has one minimum per step.
pub fn fastest_steps(repeats: &[Vec<f64>]) -> Vec<f64> {
    let steps = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|j| repeats.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The undisturbed time of one repetition: the sum over steps of each
/// step's fastest time (0 without repetitions).
pub fn undisturbed_ms(repeats: &[Vec<f64>]) -> f64 {
    fastest_steps(repeats).iter().sum()
}

/// The timed region of a run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Step times of every untraced pass, milliseconds.
    pub passes: Vec<Vec<f64>>,
    /// Step times of every traced pass, milliseconds.
    pub traced_passes: Vec<Vec<f64>>,
    /// Outcomes of every op in the region.
    pub tally: Tally,
    /// Wall time of the region, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the region, seconds.
    pub cpu_s: f64,
}

/// Runs whole passes until `budget` has elapsed and at least `min_passes`
/// are done. With `alternate` every other pass is traced (a traced run
/// measures its own overhead that way); otherwise none is.
pub fn run_passes(
    w: &mut dyn Workload,
    budget: Duration,
    min_passes: usize,
    alternate: bool,
) -> Timed {
    let mut timed = Timed::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut n = 0usize;
    while n < min_passes || start.elapsed() < budget {
        let traced = alternate && n % 2 == 1;
        let steps = w.pass(traced, &mut timed.tally);
        if traced {
            timed.traced_passes.push(steps);
        } else {
            timed.passes.push(steps);
        }
        n += 1;
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.cpu_s = cpu_seconds() - cpu0;
    timed
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`; 0 where that file is unavailable.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name in
    // field 2 may contain spaces, so count from the closing parenthesis.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `bench.*` and `host.*` metrics every run can report. The pass
/// times are whole-pass wall times as measured, so the distance between
/// `bench.pass_ms_min` and `bench.pass_ms_p50` shows how disturbed the
/// run was.
pub fn pass_metrics(timed: &Timed, out: &mut Metrics) {
    let pass_ms: Vec<f64> = timed.passes.iter().map(|p| p.iter().sum()).collect();
    out.insert("bench.pass_ms_min".into(), stats::quantile(&pass_ms, 0.0));
    out.insert("bench.pass_ms_p50".into(), stats::median(&pass_ms));
    out.insert("bench.pass_ms_p90".into(), stats::quantile(&pass_ms, 0.9));
    out.insert(
        "bench.passes".into(),
        (timed.passes.len() + timed.traced_passes.len()) as f64,
    );
    out.insert(
        "bench.trace_overhead_ratio".into(),
        stats::ratio(
            undisturbed_ms(&timed.traced_passes),
            undisturbed_ms(&timed.passes),
        ),
    );
    out.insert("host.peak_rss_mb".into(), peak_rss_mb());
    out.insert(
        "host.cpu_ms_per_op".into(),
        stats::ratio(timed.cpu_s * 1e3, timed.tally.attempted as f64),
    );
    out.insert(
        "host.cpu_util".into(),
        stats::ratio(timed.cpu_s, timed.wall_s),
    );
}

/// The end-to-end metrics, from the set-up repetitions and the untraced
/// passes of the timed region.
pub fn end_to_end(setups: &[Vec<f64>], timed: &Timed, w: &dyn Workload, out: &mut Metrics) {
    out.insert("setup_s".into(), undisturbed_ms(setups) / 1e3);
    out.insert(
        "ops_per_s".into(),
        stats::ratio(w.ops_per_pass() as f64 * 1e3, undisturbed_ms(&timed.passes)),
    );
    let (p50, p90) = if w.ops_overlap() {
        (
            stats::median(&timed.tally.op_ms),
            stats::quantile(&timed.tally.op_ms, 0.9),
        )
    } else {
        // One op in flight at a time: an op's latency is its step's time
        // (shared evenly when one call executes several ops), taken at its
        // fastest, and the percentiles run over the ops of one pass.
        let fastest = fastest_steps(&timed.passes);
        let ops_per_step = w.ops_per_pass() as f64 / fastest.len().max(1) as f64;
        let per_op: Vec<f64> = fastest.iter().map(|ms| ms / ops_per_step).collect();
        (
            stats::nearest_rank(&per_op, 0.5),
            stats::nearest_rank(&per_op, 0.9),
        )
    };
    out.insert("op_ms_p50".into(), p50);
    out.insert("op_ms_p90".into(), p90);
}

/// A scratch directory under `target/benchmark/` that is removed when the
/// guard drops — on success and on a panic that unwinds through `main`.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Where every benchmark output goes: `<repo>/target/benchmark`.
    pub fn output_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("target")
            .join("benchmark")
    }

    /// Creates `target/benchmark/tmp-<pid>`.
    pub fn create() -> std::io::Result<Scratch> {
        let root = Scratch::output_dir().join(format!("tmp-{}", std::process::id()));
        // A stale directory of a recycled pid must not leak cache entries
        // into this run.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake workload: three ops per pass, each a short sleep.
    struct Sleepy {
        started: u64,
        finished: u64,
        traced_passes: u64,
        overlap: bool,
    }

    impl Sleepy {
        fn new() -> Sleepy {
            Sleepy {
                started: 0,
                finished: 0,
                traced_passes: 0,
                overlap: false,
            }
        }
    }

    impl Workload for Sleepy {
        fn ops_per_pass(&self) -> u64 {
            3
        }
        fn ops_overlap(&self) -> bool {
            self.overlap
        }
        fn setup_phases_ms(&self) -> &[f64] {
            &[]
        }
        fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64> {
            self.started += 1;
            self.traced_passes += u64::from(traced);
            let mut steps = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                std::thread::sleep(Duration::from_millis(4));
                let ms = ms_since(t);
                tally.op(true, ms);
                steps.push(ms);
            }
            self.finished += 1;
            steps
        }
        fn layer_metrics(&mut self, _: Duration, _: &mut Metrics) {}
        fn chrome_trace(&self) -> String {
            String::new()
        }
    }

    #[test]
    fn pass_loop_never_cuts_a_pass_and_honours_the_minimum() {
        let mut w = Sleepy::new();
        // The budget ends in the middle of a pass: the pass still finishes.
        let timed = run_passes(&mut w, Duration::from_millis(30), 1, false);
        assert_eq!(w.started, w.finished);
        assert!(w.finished >= 3, "30 ms of 12 ms passes");
        assert_eq!(timed.tally.attempted, w.finished * 3);
        assert_eq!(timed.passes.len() as u64, w.finished);
        assert!(timed.wall_s >= 0.030);
        assert!(timed
            .passes
            .iter()
            .all(|p| p.len() == 3 && p.iter().all(|ms| *ms >= 4.0)));

        // A zero budget still runs the minimum number of whole passes.
        let mut w = Sleepy::new();
        let timed = run_passes(&mut w, Duration::ZERO, 4, true);
        assert_eq!(w.finished, 4);
        assert_eq!(w.traced_passes, 2);
        assert_eq!(timed.passes.len(), 2);
        assert_eq!(timed.traced_passes.len(), 2);
    }

    #[test]
    fn failed_ops_never_contribute_a_latency_sample() {
        let mut t = Tally::default();
        t.op(true, 1.0);
        t.op(false, 99.0);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.op_ms, vec![1.0]);
        t.batch(63, 1, 0.5);
        t.batch(0, 64, 0.7);
        assert_eq!((t.attempted, t.failed), (130, 66));
        assert_eq!(t.op_ms, vec![1.0, 0.5]);
    }

    #[test]
    fn undisturbed_time_takes_each_step_at_its_fastest() {
        // Three passes of three steps; every pass has one disturbed step,
        // so no whole pass is undisturbed, yet every step is seen clean.
        let passes = vec![
            vec![10.0, 20.0, 55.0],
            vec![19.0, 20.0, 30.0],
            vec![10.0, 41.0, 30.0],
        ];
        assert_eq!(fastest_steps(&passes), vec![10.0, 20.0, 30.0]);
        assert_eq!(undisturbed_ms(&passes), 60.0);
        assert_eq!(undisturbed_ms(&[]), 0.0);
    }

    #[test]
    fn end_to_end_metrics_follow_the_fastest_steps() {
        let timed = Timed {
            passes: vec![
                vec![10.0, 20.0, 55.0],
                vec![19.0, 20.0, 30.0],
                vec![10.0, 41.0, 30.0],
            ],
            tally: Tally {
                attempted: 9,
                failed: 0,
                op_ms: vec![10.0, 20.0, 55.0, 19.0, 20.0, 30.0, 10.0, 41.0, 30.0],
            },
            ..Timed::default()
        };
        let setups = vec![vec![100.0, 300.0], vec![150.0, 250.0]];
        let mut w = Sleepy::new();
        let mut m = Metrics::new();
        end_to_end(&setups, &timed, &w, &mut m);
        assert_eq!(m["setup_s"], 0.35);
        assert_eq!(m["ops_per_s"], 50.0);
        assert_eq!(m["op_ms_p50"], 20.0);
        assert_eq!(m["op_ms_p90"], 30.0);

        // Overlapping ops: the measured latency distribution instead.
        w.overlap = true;
        end_to_end(&setups, &timed, &w, &mut m);
        assert_eq!(m["ops_per_s"], 50.0);
        assert_eq!(m["op_ms_p50"], 20.0);
        assert_eq!(m["op_ms_p90"], stats::quantile(&timed.tally.op_ms, 0.9));
    }

    #[test]
    fn host_counters_read_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let s = Scratch::create().unwrap();
        let sub = s.fresh("x").unwrap();
        std::fs::write(sub.join("f"), "1").unwrap();
        let root = s.root.clone();
        drop(s);
        assert!(!root.exists());
    }
}
