//! Golden tests for the observability subsystem: traced engine runs must
//! export well-formed Chrome trace_event JSON, the metrics registry must
//! agree with the raw engine counters, and tracing must be deterministic.

use std::collections::HashMap;

use salam::standalone::{run, run_kernel, RunOptions, StandaloneConfig};
use salam_bench::runners::run_kernel_observed;
use salam_obs::{export_chrome_json, json, MetricsRegistry, SharedTrace};

fn gemm() -> machsuite::BuiltKernel {
    machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 })
}

fn traced_gemm() -> (salam::RunReport, String) {
    let opts = RunOptions {
        trace: SharedTrace::enabled(),
        ..RunOptions::default()
    };
    let report = run(&gemm(), &StandaloneConfig::default(), &opts).expect("traced run");
    let text = opts
        .trace
        .with_recorder(export_chrome_json)
        .expect("trace enabled");
    (report, text)
}

/// Walks the exported JSON and checks the structural invariants of the
/// trace_event format: every event carries ph/pid/tid, each thread's B/E
/// stream is balanced and properly nested, and timestamps never go
/// backwards within a thread.
fn validate_chrome_json(text: &str) -> usize {
    let root = json::parse(text).expect("exported trace parses as JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");

    // tid -> stack of open span names; tid -> last B/E timestamp.
    let mut open: HashMap<i64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    let mut begins = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph present");
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid present") as i64;
        assert!(ev.get("pid").is_some(), "pid present");
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .expect("name present");
        if ph == "M" {
            continue; // metadata has no timestamp
        }
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts present");
        assert!(ts.is_finite() && ts >= 0.0, "timestamps are non-negative");
        match ph {
            "B" => {
                let prev = last_ts.entry(tid).or_insert(ts);
                assert!(ts >= *prev, "B at {ts} after {prev} on tid {tid}");
                *prev = ts;
                open.entry(tid).or_default().push(name.to_string());
                begins += 1;
            }
            "E" => {
                let prev = last_ts.entry(tid).or_insert(ts);
                assert!(ts >= *prev, "E at {ts} after {prev} on tid {tid}");
                *prev = ts;
                let top = open
                    .get_mut(&tid)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| panic!("E without matching B on tid {tid}"));
                assert_eq!(top, name, "E name matches the innermost open B");
            }
            "i" | "C" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &open {
        assert!(
            stack.is_empty(),
            "tid {tid} left {} spans open",
            stack.len()
        );
    }
    begins
}

#[test]
fn traced_run_exports_wellformed_chrome_json() {
    let (report, text) = traced_gemm();
    let begins = validate_chrome_json(&text);
    // Every issued op opened exactly one span.
    assert_eq!(begins as u64, report.stats.total_issued());
    // The engine's tracks are present and named for the kernel's function.
    let func = gemm().func.name.clone();
    assert!(
        text.contains(&format!("engine.{func}.ops")),
        "ops track named after the kernel"
    );
    assert!(
        text.contains(&format!("engine.{func}.sched")),
        "scheduler track present"
    );
    // Stall instants and per-cycle counters made it through.
    if report.stats.stall_cycles > 0 {
        assert!(
            text.contains("stall:"),
            "stalled run must carry stall instants"
        );
    }
    assert!(text.contains("reservation_depth"));
}

#[test]
fn registry_totals_match_engine_stats() {
    let (report, _) = traced_gemm();
    let mut reg = MetricsRegistry::new();
    report.export_metrics(&mut reg, "accel.gemm");
    let st = &report.stats;
    assert_eq!(reg.get("accel.gemm.engine.cycles"), Some(st.cycles as f64));
    assert_eq!(
        reg.get("accel.gemm.engine.stall_cycles"),
        Some(st.stall_cycles as f64)
    );
    assert_eq!(
        reg.get("accel.gemm.engine.issued.total"),
        Some(st.total_issued() as f64)
    );
    assert_eq!(
        reg.get("accel.gemm.engine.mem.loads"),
        Some(st.loads as f64)
    );
    assert_eq!(
        reg.get("accel.gemm.engine.mem.stores"),
        Some(st.stores as f64)
    );
    assert_eq!(reg.get("accel.gemm.cycles"), Some(report.cycles as f64));
    for (label, n) in &st.stall_breakdown {
        assert_eq!(
            reg.get(&format!("accel.gemm.engine.stall.{label}")),
            Some(*n as f64)
        );
    }
    // The registry dump round-trips through its own JSON export.
    let dumped = json::parse(&reg.to_json()).expect("registry JSON parses");
    assert_eq!(
        dumped
            .get("accel.gemm.engine.cycles")
            .and_then(|v| v.as_f64()),
        Some(st.cycles as f64)
    );
}

#[test]
fn tracing_does_not_change_simulation_results() {
    let (traced, _) = traced_gemm();
    let plain = run_kernel(&gemm(), &StandaloneConfig::default());
    assert_eq!(
        traced.cycles, plain.cycles,
        "tracing must not perturb timing"
    );
    assert!(traced.verified && plain.verified);
    assert_eq!(traced.stats.stall_cycles, plain.stats.stall_cycles);
    assert_eq!(traced.stats.total_issued(), plain.stats.total_issued());
}

#[test]
fn identical_traced_runs_produce_identical_traces() {
    let (ra, ta) = traced_gemm();
    let (rb, tb) = traced_gemm();
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ta, tb, "seeded runs must trace byte-identically");
}

#[test]
fn observed_runner_writes_a_validated_trace_file() {
    let path = std::env::temp_dir().join(format!("salam_obs_test_{}.json", std::process::id()));
    let kernel = gemm();
    let (report, reg) = run_kernel_observed(&kernel, &StandaloneConfig::default(), Some(&path));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let begins = validate_chrome_json(&text);
    assert_eq!(begins as u64, report.stats.total_issued());
    assert_eq!(
        reg.get(&format!("accel.{}.engine.cycles", kernel.name)),
        Some(report.cycles as f64)
    );
}

#[test]
fn traced_cluster_run_covers_memsys_components() {
    use hw_profile::HardwareProfile;
    use memsys::{DmaCmd, MemMsg, MemReq, ScratchpadConfig};
    use salam::{AcceleratorConfig, ClusterBuilder, ClusterConfig, MemoryStyle};
    use salam_ir::{FunctionBuilder, Type};
    use sim_core::Simulation;

    let mut fb = FunctionBuilder::new("incr", &[("p", Type::Ptr), ("n", Type::I64)]);
    let (p, n) = (fb.arg(0), fb.arg(1));
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let g = fb.gep1(Type::I64, p, iv, "g");
        let x = fb.load(Type::I64, g, "x");
        let one = fb.i64c(1);
        let y = fb.add(x, one, "y");
        fb.store(y, g);
    });
    fb.ret();
    let func = fb.finish();

    let mut sim: Simulation<MemMsg> = Simulation::new();
    let mut b = ClusterBuilder::new(ClusterConfig::default(), HardwareProfile::default_40nm());
    b.add_accelerator(
        AcceleratorConfig::new("incr0"),
        func,
        MemoryStyle::PrivateSpm {
            base: 0x1000_0000,
            size: 0x1000,
            spm: ScratchpadConfig::default().with_ports(2, 2),
        },
        0x4000_0000,
        None,
    );
    let (cluster, dram, _gx) = salam::build_system(&mut sim, b, 0x8000_0000, 1 << 20);
    sim.component_as_mut::<memsys::Dram>(dram).unwrap().poke(
        0x8000_0000,
        &[3i64.to_le_bytes(), 4i64.to_le_bytes()].concat(),
    );

    let trace = SharedTrace::enabled();
    cluster.set_trace(&mut sim, &trace);

    let h = cluster.accels[0];
    let col = sim.add_component(memsys::test_util::Collector::new());
    // Stage inputs into the private SPM via the cluster DMA, then program
    // and kick the accelerator.
    sim.post(
        cluster.dma,
        0,
        MemMsg::DmaStart(DmaCmd::new(1, 0x8000_0000, 0x1000_0000, 16, col)),
    );
    for (reg, v) in [(2u64, 0x1000_0000u64), (3, 2)] {
        sim.post(
            cluster.local_xbar,
            100_000,
            MemMsg::Req(MemReq::write(
                reg,
                h.mmr_base + reg * 8,
                v.to_le_bytes().to_vec(),
                col,
            )),
        );
    }
    sim.post(
        cluster.local_xbar,
        200_000,
        MemMsg::Req(MemReq::write(
            9,
            h.mmr_base,
            1u64.to_le_bytes().to_vec(),
            col,
        )),
    );
    sim.run();

    let text = trace.with_recorder(export_chrome_json).expect("enabled");
    validate_chrome_json(&text);
    // Engine, DMA and fabric all contributed tracks.
    assert!(text.contains("engine.incr.ops"));
    assert!(
        text.contains("dma.cluster.dma"),
        "DMA transfer track present"
    );
    assert!(text.contains("\"xfer"), "DMA transfer span present");
    assert!(text.contains("xbar.cluster.local_xbar"));
    assert!(text.contains("spm."), "scratchpad track present");

    // And the unified registry picks up every component's stats.
    let mut reg = MetricsRegistry::new();
    cluster.export_metrics(&sim, &mut reg, "system");
    assert_eq!(reg.get("system.cluster.dma.bytes_moved"), Some(16.0));
    assert!(reg.get("system.incr0.cycles").unwrap_or(0.0) > 0.0);
}
