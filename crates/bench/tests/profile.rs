//! Acceptance invariants of the profiling subsystem, locked across every
//! MachSuite kernel:
//!
//! * attribution buckets sum *exactly* to total engine cycles (the taxonomy
//!   is mutually exclusive and exhaustive by construction);
//! * the dynamic critical path never exceeds the run;
//! * rendered reports are byte-identical across repeat runs.

use machsuite::Bench;
use salam::standalone::StandaloneConfig;
use salam_bench::bottleneck::{check_invariants, profile, render_csv, render_json, render_table};

#[test]
fn attribution_and_critical_path_invariants_hold_for_every_kernel() {
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let run = profile(&k, &StandaloneConfig::default());
        let st = &run.report.stats;
        assert!(run.report.verified, "{} failed verification", bench.label());
        assert_eq!(
            st.attribution.total(),
            st.cycles,
            "{}: attribution buckets must sum to total cycles",
            bench.label()
        );
        assert!(
            run.critpath.length <= st.cycles,
            "{}: critical path {} exceeds the {}-cycle run",
            bench.label(),
            run.critpath.length,
            st.cycles
        );
        check_invariants(&run).unwrap_or_else(|e| panic!("{}: {e}", bench.label()));
        // The stream is populated and the analysis covers it.
        assert!(!run.depstream.is_empty(), "{}: empty stream", bench.label());
        assert_eq!(run.critpath.slack.len(), run.depstream.len());
        assert!(!run.critpath.path.is_empty());
    }
}

#[test]
fn reports_are_byte_identical_across_repeat_runs() {
    for bench in [Bench::GemmNcubed, Bench::SpmvCrs, Bench::Bfs] {
        let k = bench.build_standard();
        let cfg = StandaloneConfig::default();
        let (a, b) = (profile(&k, &cfg), profile(&k, &cfg));
        assert_eq!(render_table(&a), render_table(&b), "{}", bench.label());
        assert_eq!(render_csv(&a), render_csv(&b), "{}", bench.label());
        assert_eq!(render_json(&a), render_json(&b), "{}", bench.label());
    }
}

#[test]
fn profiling_never_changes_the_schedule() {
    // record_depstream is observability-only: cycle counts (and every
    // attribution bucket) match a plain run exactly.
    for bench in [Bench::FftStrided, Bench::Nw] {
        let k = bench.build_standard();
        let cfg = StandaloneConfig::default();
        let plain = salam::standalone::run_kernel(&k, &cfg);
        let profiled = profile(&k, &cfg);
        assert_eq!(plain.cycles, profiled.report.cycles, "{}", bench.label());
        assert_eq!(
            plain.stats.attribution,
            profiled.report.stats.attribution,
            "{}",
            bench.label()
        );
    }
}

#[test]
fn a_zero_knob_is_a_usage_error_not_a_clamp_or_a_panic() {
    for argv in [["gemm", "--ports", "0"], ["gemm", "--diff", "window=0"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_salam_report"))
            .args(argv)
            .output()
            .expect("salam_report runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("must be nonzero"), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}
