//! Campaign-level properties of the fault-injection layer.
//!
//! * Observers are free: with a zero-rate fault plan armed, or with an
//!   enabled flight recorder and a trace id attached, the `RunReport`
//!   JSON is byte-identical to a plain run — for every MachSuite kernel.
//! * A seeded campaign is deterministic: the same seed replays the same
//!   fault schedule and outcome across repeated runs and across worker
//!   counts, because every injection site derives its own decision stream
//!   from the plan seed alone.
//! * A small mixed campaign reaches every silent outcome class: masked,
//!   silent data corruption and deadlock.

use machsuite::Bench;
use salam::standalone::{run, run_kernel, RunOptions, StandaloneConfig};
use salam::{FaultPlan, RunReport, SimError};
use salam_dse::{CacheId, DseOptions, SweepJob};
use salam_telemetry::{flight, FlightRecorder};

fn run_faulted(
    kernel: &machsuite::BuiltKernel,
    cfg: &StandaloneConfig,
    plan: FaultPlan,
) -> Result<RunReport, SimError> {
    let opts = RunOptions {
        fault: Some(plan),
        ..RunOptions::default()
    };
    run(kernel, cfg, &opts)
}

#[test]
fn zero_rate_plan_is_observationally_free_for_every_kernel() {
    let cfg = StandaloneConfig::default();
    let recorder = FlightRecorder::enabled(flight::DEFAULT_CAPACITY);
    let observers = [
        (
            "armed-but-zero fault layer",
            RunOptions {
                fault: Some(FaultPlan::seeded(7)),
                ..RunOptions::default()
            },
        ),
        (
            "enabled flight recorder",
            RunOptions {
                flight: recorder.clone(),
                trace_id: 0xfeed,
                ..RunOptions::default()
            },
        ),
    ];
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let clean = run_kernel(&kernel, &cfg).to_json();
        for (observer, opts) in &observers {
            let observed = run(&kernel, &cfg, opts)
                .unwrap_or_else(|e| panic!("{}: {observer}: run failed: {e}", bench.label()));
            assert_eq!(
                clean,
                observed.to_json(),
                "{}: {observer} must not perturb the report",
                bench.label()
            );
        }
    }
    assert_ne!(recorder.tail_json(8), "[]", "the recorder captured nothing");
}

/// A data-corruption plan with no drops: every seed completes, so the
/// replay comparison can use the full report JSON.
fn flip_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        fu_bitflip_rate: 0.02,
        mem_bitflip_rate: 0.004,
        fu_jitter_rate: 0.01,
        fu_jitter_cycles: 3,
        ..FaultPlan::seeded(seed)
    }
}

/// One campaign point: gemm under `flip_plan(seed)`.
struct CampaignPoint {
    seed: u64,
}

impl SweepJob for CampaignPoint {
    type Output = RunReport;

    fn cache_id(&self) -> CacheId {
        CacheId::new(
            "fault-campaign/gemm[n=8,u=2]",
            flip_plan(self.seed).canonical_repr(),
        )
    }

    fn run(&self) -> RunReport {
        let kernel = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 });
        run_faulted(&kernel, &StandaloneConfig::default(), flip_plan(self.seed))
            .expect("flip plan has no drops; the run completes")
    }
}

#[test]
fn same_seed_campaign_replays_identically_across_runs_and_workers() {
    let jobs: Vec<CampaignPoint> = (1..=6).map(|seed| CampaignPoint { seed }).collect();

    let serial = salam_dse::run_sweep(
        &jobs,
        &DseOptions::default().with_workers(1).without_cache(),
    );
    let parallel = salam_dse::run_sweep(
        &jobs,
        &DseOptions::default().with_workers(4).without_cache(),
    );
    let replay = salam_dse::run_sweep(
        &jobs,
        &DseOptions::default().with_workers(4).without_cache(),
    );
    for ((s, p), r) in serial
        .outcomes
        .iter()
        .zip(&parallel.outcomes)
        .zip(&replay.outcomes)
    {
        let s = s.expect_payload().to_json();
        assert_eq!(
            s,
            p.expect_payload().to_json(),
            "worker count changed a faulted run"
        );
        assert_eq!(
            s,
            r.expect_payload().to_json(),
            "re-run changed a faulted run"
        );
    }
    // The campaign injected something — these are not just clean runs.
    assert!(serial
        .outcomes
        .iter()
        .any(|o| o.expect_payload().stats.total_faults() > 0));
}

#[test]
fn same_seed_deadlock_replays_the_same_snapshot() {
    let kernel = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 });
    let mut cfg = StandaloneConfig::default();
    cfg.engine.deadlock_cycles = 2_000;
    let plan = FaultPlan {
        mem_drop_rate: 1.0,
        ..FaultPlan::seeded(11)
    };
    let snap = |r: Result<RunReport, SimError>| match r {
        Err(SimError::Deadlock(s)) => s,
        other => panic!("expected deadlock, got {other:?}"),
    };
    let a = snap(run_faulted(&kernel, &cfg, plan));
    let b = snap(run_faulted(&kernel, &cfg, plan));
    assert_eq!(a.cycle, b.cycle);
    assert_eq!(a.last_progress_cycle, b.last_progress_cycle);
    assert_eq!(a.mem_outstanding, b.mem_outstanding);
    assert_eq!(a.dominant_reject_cause, b.dominant_reject_cause);
}

/// The mixed campaign's plan for one seed. Seeds rotate through data
/// flips, timing jitter and response drops: a per-response drop rate
/// compounds over thousands of responses, so mixing drops into every seed
/// would deadlock everywhere and show nothing else.
fn campaign_plan(seed: u64) -> FaultPlan {
    let zero = FaultPlan::seeded(seed);
    match seed % 3 {
        0 => FaultPlan {
            fu_bitflip_rate: 0.02,
            mem_bitflip_rate: 0.004,
            ..zero
        },
        1 => FaultPlan {
            fu_jitter_rate: 0.02,
            fu_jitter_cycles: 4,
            mem_delay_rate: 0.01,
            mem_delay_cycles: 8,
            ..zero
        },
        _ => FaultPlan {
            mem_drop_rate: 0.001,
            ..zero
        },
    }
}

fn classify(result: &Result<RunReport, SimError>) -> &'static str {
    match result {
        Ok(r) if r.verified => "masked",
        Ok(_) => "sdc",
        Err(SimError::Deadlock(_)) => "deadlock",
        Err(SimError::KernelFault { .. }) => "detected",
        Err(e) => panic!("campaign run stopped unexpectedly: {e}"),
    }
}

#[test]
fn mixed_campaign_reaches_masked_sdc_and_deadlock() {
    let kernels = [
        machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 2 }),
        Bench::SpmvCrs.build_standard(),
    ];
    // A short watchdog fuse: a dropped response is caught in thousands of
    // cycles instead of a million.
    let mut cfg = StandaloneConfig::default();
    cfg.engine.deadlock_cycles = 5_000;
    let mut seen = std::collections::BTreeMap::new();
    for kernel in &kernels {
        for seed in 1..=12 {
            let outcome = classify(&run_faulted(kernel, &cfg, campaign_plan(seed)));
            *seen.entry(outcome).or_insert(0u32) += 1;
        }
    }
    for class in ["masked", "sdc", "deadlock"] {
        assert!(seen.contains_key(class), "no {class} outcome in {seen:?}");
    }
}
