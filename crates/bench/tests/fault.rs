//! Campaign-level properties of the fault-injection layer.
//!
//! * A zero-rate plan is observationally free: with the hooks installed
//!   but no fault able to fire, the `RunReport` JSON is byte-identical to
//!   a run without the fault layer — for every MachSuite kernel.
//! * A seeded campaign is deterministic: the same seed replays the same
//!   fault schedule and outcome across repeated runs and across worker
//!   counts, because every injection site derives its own decision stream
//!   from the plan seed alone.

use machsuite::Bench;
use salam::standalone::{run, run_kernel, RunOptions, StandaloneConfig};
use salam::{FaultPlan, RunReport, SimError};
use salam_dse::{CacheId, DseOptions, SweepJob};

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
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let clean = run_kernel(&kernel, &cfg);
        let faulted = run_faulted(&kernel, &cfg, FaultPlan::seeded(7))
            .unwrap_or_else(|e| panic!("{}: zero-rate run failed: {e}", bench.label()));
        assert_eq!(
            clean.to_json(),
            faulted.to_json(),
            "{}: armed-but-zero fault layer must not perturb the report",
            bench.label()
        );
    }
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
