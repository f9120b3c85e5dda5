//! Flow-based pre-flight pruning for minimize-cycles sweeps.
//!
//! A design point that is provably slower than an already-simulated,
//! no-costlier point can never win the sweep, so simulating it is wasted
//! work. The proof chain is entirely static: `salam-flow` infers loop trip
//! counts without running anything, `salam_verify::flow_lower_bound` turns
//! them into a sound cycle lower bound for the point's exact configuration
//! (ports, FU limits, reservation window), and the hardware models give the
//! point's area and leakage as pure functions of the config. A point `P` is
//! pruned when some same-kernel reference `Q` with a measured result
//! satisfies
//!
//! 1. `cycles(Q) <= bound(P)` — `P` is at least as slow as `Q` on every
//!    possible execution (`bound(P) <= cycles(P)` by soundness), and
//! 2. `area(Q) <= area(P)` and `leakage(Q) <= leakage(P)` — `Q` is
//!    no costlier in the static objectives.
//!
//! Pruning is deliberately restricted to the *cycles* objective plus the
//! static cost guard: dynamic power is a rate, and a slower design can
//! average less power over its longer runtime, so sweeps that rank points
//! by measured power must use plain [`crate::run_sweep`].
//!
//! Pruned rows appear as `pruned:F005` with the summary's `pruned=` count;
//! the `pruned_sweep_is_deterministic_and_skips_simulation` test
//! re-simulates every pruned point and asserts the dominance chain held.

use salam_verify::{codes, Diagnostic, Span};

use crate::{DseOptions, PointError, PointOutcome, SweepJob, SweepRun};

/// The simulation-free profile pruning decisions are made from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticProfile {
    /// Sound lower bound on the point's cycle count (flow-tightened).
    pub cycle_bound: u64,
    /// Total area (datapath + SPM) in square micrometres.
    pub area_um2: f64,
    /// Static leakage (FUs + registers + SPM) in milliwatts — a lower
    /// bound on the point's total power.
    pub leakage_mw: f64,
}

/// A sweep job that can be screened against references without simulating.
pub trait PrunableJob: SweepJob {
    /// Points compete only within a group (one kernel, one workload);
    /// cross-group cycle comparisons are meaningless.
    fn prune_group(&self) -> String;

    /// Human-readable point label for the `F005` diagnostic.
    fn prune_label(&self) -> String;

    /// The point's simulation-free profile; `None` opts the point out of
    /// pruning (and disqualifies it as a cost reference).
    fn static_profile(&self) -> Option<StaticProfile>;

    /// Cycle count of a completed output.
    fn measured_cycles(out: &Self::Output) -> u64;
}

/// Like [`crate::run_sweep`], but simulates the `refs` points first and
/// prunes every other point a reference provably dominates (see the module
/// docs for the criterion). Outcomes come back in job order regardless of
/// phase; pruned points get `Err(PointError::Pruned)` with an `F005`
/// diagnostic naming the dominating reference, and are counted in
/// [`SweepRun::pruned`] and the `dse.points.pruned` telemetry counter.
///
/// The pruning verdict is a pure function of the job set and the reference
/// results, so — like everything else in the engine — the outcome vector is
/// identical for any worker count or cache state. Out-of-range or duplicate
/// reference indices are ignored; with no usable references the call
/// degenerates to [`crate::run_sweep`].
pub fn run_sweep_pruned<J: PrunableJob>(
    jobs: &[J],
    refs: &[usize],
    opts: &DseOptions,
) -> SweepRun<J::Output> {
    let t0 = std::time::Instant::now();
    let mut is_ref = vec![false; jobs.len()];
    for &i in refs {
        if i < jobs.len() {
            is_ref[i] = true;
        }
    }
    let ref_idx: Vec<usize> = (0..jobs.len()).filter(|&i| is_ref[i]).collect();
    let ref_jobs: Vec<&J> = ref_idx.iter().map(|&i| &jobs[i]).collect();
    let ref_run = crate::run_sweep(&ref_jobs, opts);

    // A reference can vouch for a pruning only if it finished and its own
    // static cost is known (the cost guard compares like with like).
    struct Reference {
        group: String,
        label: String,
        cycles: u64,
        profile: StaticProfile,
    }
    let references: Vec<Reference> = ref_idx
        .iter()
        .zip(&ref_run.outcomes)
        .filter_map(|(&i, outcome)| {
            let out = outcome.payload()?;
            let profile = jobs[i].static_profile()?;
            Some(Reference {
                group: jobs[i].prune_group(),
                label: jobs[i].prune_label(),
                cycles: J::measured_cycles(out),
                profile,
            })
        })
        .collect();

    // Screen the non-reference points; survivors simulate.
    let mut verdicts: Vec<Option<Diagnostic>> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if is_ref[i] {
            verdicts.push(None);
            continue;
        }
        let dominated = job.static_profile().and_then(|p| {
            references
                .iter()
                .find(|q| {
                    q.group == job.prune_group()
                        && q.cycles <= p.cycle_bound
                        && q.profile.area_um2 <= p.area_um2
                        && q.profile.leakage_mw <= p.leakage_mw
                })
                .map(|q| {
                    Diagnostic::info(
                        codes::F005,
                        Span::default(),
                        format!(
                            "static cycle bound {} can never beat reference {} \
                             ({} measured cycles, no costlier: {:.0} <= {:.0} um^2, \
                             {:.3} <= {:.3} mW leakage)",
                            p.cycle_bound,
                            q.label,
                            q.cycles,
                            q.profile.area_um2,
                            p.area_um2,
                            q.profile.leakage_mw,
                            p.leakage_mw,
                        ),
                    )
                })
        });
        verdicts.push(dominated);
    }
    let survivor_idx: Vec<usize> = (0..jobs.len())
        .filter(|&i| !is_ref[i] && verdicts[i].is_none())
        .collect();
    let survivor_jobs: Vec<&J> = survivor_idx.iter().map(|&i| &jobs[i]).collect();
    let surv_run = crate::run_sweep(&survivor_jobs, opts);

    // Stitch the three classes back into job order.
    let mut ref_outcomes = ref_run.outcomes.into_iter();
    let mut surv_outcomes = surv_run.outcomes.into_iter();
    let mut run = SweepRun {
        outcomes: Vec::with_capacity(jobs.len()),
        hits: ref_run.hits + surv_run.hits,
        misses: ref_run.misses + surv_run.misses,
        corrupt: ref_run.corrupt + surv_run.corrupt,
        failed: ref_run.failed + surv_run.failed,
        invalid: ref_run.invalid + surv_run.invalid,
        pruned: 0,
        workers: ref_run.workers.max(surv_run.workers),
        wall: t0.elapsed(),
        telemetry: ref_run.telemetry,
    };
    run.telemetry.merge_from(&surv_run.telemetry);
    for (i, verdict) in verdicts.into_iter().enumerate() {
        let outcome = if is_ref[i] {
            ref_outcomes.next().expect("one outcome per reference")
        } else if let Some(d) = verdict {
            run.pruned += 1;
            PointOutcome {
                result: Err(PointError::Pruned(d)),
                from_cache: false,
            }
        } else {
            surv_outcomes.next().expect("one outcome per survivor")
        };
        run.outcomes.push(outcome);
    }
    if run.pruned > 0 {
        run.telemetry
            .counter_add("dse.points.pruned", run.pruned as u64);
    }
    run
}

impl PrunableJob for crate::StandalonePoint {
    fn prune_group(&self) -> String {
        self.kernel.id.clone()
    }

    fn prune_label(&self) -> String {
        self.label()
    }

    /// Builds the kernel (cheap, deterministic) but never simulates it:
    /// trip counts come from `salam-flow`'s static inference, the cycle
    /// bound from `flow_lower_bound` under the point's exact port / FU /
    /// reservation-window configuration, and area and leakage from the
    /// same hardware models [`salam::RunReport::assemble`] uses — the SPM
    /// sized by [`salam::StandaloneConfig::spm_spec`], as a real run sizes
    /// it — so the cost guard compares the numbers a real run would report.
    fn static_profile(&self) -> Option<StaticProfile> {
        use std::collections::HashMap;

        use salam_cdfg::StaticCdfg;
        use salam_verify::{flow_lower_bound, static_memdeps, BoundConfig};

        if self.config.validate().is_err() {
            return None;
        }
        let k = self.kernel.build();
        let cdfg = StaticCdfg::elaborate(&k.func, &self.config.profile, &self.config.constraints);
        let facts = salam_flow::analyze(&k.func, &k.args);
        let trips: HashMap<_, _> = facts
            .trips
            .block_trips
            .iter()
            .map(|(&b, &t)| (b, t))
            .collect();
        let deps = static_memdeps(&k.func, &k.args);
        let bc = BoundConfig {
            read_ports: self.config.spm_read_ports,
            write_ports: self.config.spm_write_ports,
            pipelined_fus: self.config.engine.pipelined_fus,
            reservation_entries: self.config.engine.reservation_entries,
        };
        let bound = flow_lower_bound(&k.func, &cdfg, &trips, &bc, &deps.edges);
        let spm = self.config.spm_spec(&k);
        let area = cdfg.area_report(&self.config.profile);
        let leak = cdfg.static_power_report(&self.config.profile);
        Some(StaticProfile {
            cycle_bound: bound.lower_bound,
            area_um2: area.total_um2 + spm.area_um2(),
            leakage_mw: leak.fu_mw + leak.register_mw + spm.leakage_mw(),
        })
    }

    fn measured_cycles(out: &Self::Output) -> u64 {
        out.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheId, CachePayload};

    #[derive(Debug, Clone, PartialEq)]
    struct Cycles(u64);

    impl CachePayload for Cycles {
        fn payload_to_json(&self) -> String {
            format!("{{\"cycles\": {}}}", self.0)
        }

        fn payload_from_json(r: &mut salam_obs::json::Reader<'_>) -> Result<Self, String> {
            r.value()?
                .get("cycles")
                .and_then(salam_obs::json::Value::as_f64)
                .map(|c| Cycles(c as u64))
                .ok_or_else(|| "missing cycles".into())
        }
    }

    struct Fake {
        group: &'static str,
        label: &'static str,
        cycles: u64,
        profile: Option<StaticProfile>,
    }

    impl SweepJob for Fake {
        type Output = Cycles;

        fn cache_id(&self) -> CacheId {
            CacheId::new("fake", self.label)
        }

        fn run(&self) -> Cycles {
            Cycles(self.cycles)
        }
    }

    impl PrunableJob for Fake {
        fn prune_group(&self) -> String {
            self.group.into()
        }

        fn prune_label(&self) -> String {
            self.label.into()
        }

        fn static_profile(&self) -> Option<StaticProfile> {
            self.profile
        }

        fn measured_cycles(out: &Cycles) -> u64 {
            out.0
        }
    }

    fn profile(cycle_bound: u64, area_um2: f64, leakage_mw: f64) -> Option<StaticProfile> {
        Some(StaticProfile {
            cycle_bound,
            area_um2,
            leakage_mw,
        })
    }

    fn opts() -> DseOptions {
        DseOptions::default().without_cache().with_workers(2)
    }

    #[test]
    fn dominated_points_are_pruned_and_outcomes_stay_in_job_order() {
        let jobs = [
            // Reference: 100 cycles, cheap.
            Fake {
                group: "a",
                label: "ref",
                cycles: 100,
                profile: profile(90, 10.0, 1.0),
            },
            // Bound 150 >= 100, no cheaper: pruned.
            Fake {
                group: "a",
                label: "slow",
                cycles: 170,
                profile: profile(150, 10.0, 1.0),
            },
            // Bound 150 but *cheaper* area: must simulate (could win on cost).
            Fake {
                group: "a",
                label: "small",
                cycles: 160,
                profile: profile(150, 5.0, 1.0),
            },
            // Bound below the reference's cycles: must simulate.
            Fake {
                group: "a",
                label: "fast",
                cycles: 80,
                profile: profile(60, 10.0, 1.0),
            },
            // Same numbers as "slow" but another group: must simulate.
            Fake {
                group: "b",
                label: "other",
                cycles: 170,
                profile: profile(150, 10.0, 1.0),
            },
            // No profile: never pruned.
            Fake {
                group: "a",
                label: "opaque",
                cycles: 500,
                profile: None,
            },
        ];
        let run = run_sweep_pruned(&jobs, &[0], &opts());
        let labels: Vec<Option<String>> = run
            .outcomes
            .iter()
            .map(PointOutcome::failure_label)
            .collect();
        assert_eq!(labels[0], None);
        assert_eq!(labels[1].as_deref(), Some("pruned:F005"));
        assert_eq!(labels[2], None);
        assert_eq!(labels[3], None);
        assert_eq!(labels[4], None);
        assert_eq!(labels[5], None);
        assert_eq!(run.pruned, 1);
        assert_eq!(run.outcomes[3].payload(), Some(&Cycles(80)));
        let diag = run.outcomes[1].pruned().unwrap();
        assert!(
            diag.message.contains("ref"),
            "cites the reference: {}",
            diag.message
        );
        assert!(run.summary().contains("pruned=1"));
        assert_eq!(
            run.telemetry.counter("dse.points.pruned"),
            1,
            "pruning is counted in telemetry"
        );
    }

    #[test]
    fn no_references_degenerates_to_a_plain_sweep() {
        let jobs = [
            Fake {
                group: "a",
                label: "x",
                cycles: 10,
                profile: profile(1000, 1.0, 1.0),
            },
            Fake {
                group: "a",
                label: "y",
                cycles: 20,
                profile: profile(1000, 1.0, 1.0),
            },
        ];
        // Out-of-range indices are ignored; nothing can be pruned without
        // a simulated reference.
        let run = run_sweep_pruned(&jobs, &[99], &opts());
        assert_eq!(run.pruned, 0);
        assert_eq!(run.outcomes[0].payload(), Some(&Cycles(10)));
        assert_eq!(run.outcomes[1].payload(), Some(&Cycles(20)));
    }

    #[test]
    fn a_costlier_reference_cannot_vouch() {
        let jobs = [
            // Fast but huge reference.
            Fake {
                group: "a",
                label: "big",
                cycles: 100,
                profile: profile(90, 100.0, 9.0),
            },
            // Provably slower, but smaller: may still win on area.
            Fake {
                group: "a",
                label: "small",
                cycles: 300,
                profile: profile(200, 10.0, 1.0),
            },
        ];
        let run = run_sweep_pruned(&jobs, &[0], &opts());
        assert_eq!(run.pruned, 0);
        assert_eq!(run.outcomes[1].payload(), Some(&Cycles(300)));
    }
}
