//! `salam_report` — the bottleneck-report CLI.
//!
//! Runs one MachSuite kernel with cycle attribution and dependency-stream
//! recording on, checks the accounting invariant (attribution buckets sum
//! exactly to total cycles; critical path fits in the run), and renders a
//! bottleneck report.
//!
//! ```text
//! salam_report gemm                                  # aligned table
//! salam_report gemm --format csv --out report.csv    # CSV to a file
//! salam_report gemm --format json --trace gemm.json  # JSON + Chrome trace
//! salam_report gemm --ports 1 --diff ports=8         # this run vs variant
//! salam_report gemm --ports 1 --diff replay          # simulated vs replayed
//! salam_report spmv --limit fp_mul_f64=2 --window 32
//! salam_report --spans gemm.trace.json               # span table from a trace
//! ```
//!
//! Knobs: `--ports N` (symmetric SPM ports), `--spm-latency N`,
//! `--window N` (reservation entries), `--reads N` / `--writes N`
//! (outstanding memory limits), `--limit FU=N` (functional-unit pool,
//! repeatable). `--diff key=val[,key=val...]` reruns with the overrides
//! applied on top of the base configuration and prints a side-by-side
//! delta table. The special form `--diff replay` compares the simulated
//! run (column `a`) against the trace-replay re-schedule of the same
//! configuration (column `b`), so replay error is debuggable per
//! attribution class. Output is byte-identical across repeat runs.
//!
//! `--spans PATH` is a standalone mode: it loads a Chrome trace_event JSON
//! file — typically a serve job's `trace` artifact (`GET /trace?id=N`) —
//! and prints the per-stage span table (track, span, start, duration and
//! share of the end-to-end extent), so a job's latency breakdown is
//! readable without opening Perfetto. Full engine traces carry tens of
//! thousands of op spans, so the table keeps the `--top N` longest
//! (default 50, `--top 0` for all); the e2e extent and the marker line
//! always cover every span.

use hw_profile::FuKind;
use machsuite::Bench;
use salam::standalone::StandaloneConfig;
use salam_bench::bottleneck::{
    check_invariants, profile, render_csv, render_diff, render_json, render_table, replay_profile,
};
use salam_bench::cli::{Args, EXIT_FINDINGS};

const USAGE: &str = "<bench> [--ports N] [--spm-latency N] [--window N]\n\
     \x20            [--reads N] [--writes N] [--limit FU=N]...\n\
     \x20            [--format table|csv|json] [--json] [--out PATH] [--trace PATH]\n\
     \x20            [--diff key=val[,key=val...] | --diff replay]\n\
     salam_report --spans TRACE_JSON [--top N]    # span table from a trace file\n\
     benches: bfs, fft, gemm, md-grid, md-knn, nw, spmv, stencil2d, stencil3d";

/// One closed span recovered from a Chrome trace_event stream.
#[derive(Clone)]
struct TraceSpan {
    track: String,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Rebuilds spans from a Chrome trace_event JSON document.
///
/// The exporter emits per-`tid` balanced, time-monotonic `B`/`E` streams
/// (lanes), so a per-tid stack pairs them exactly. `thread_name` metadata
/// supplies the track label for each lane.
fn spans_from_chrome(text: &str) -> Result<Vec<TraceSpan>, String> {
    let doc = salam_obs::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("no traceEvents array — not a Chrome trace file")?;
    let mut track_of: Vec<(f64, String)> = Vec::new(); // tid -> label
    let mut open: Vec<(f64, String, f64)> = Vec::new(); // stack of (tid, name, start)
    let mut spans = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let tid = ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
        match ph {
            "M" if name == "thread_name" => {
                if let Some(label) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                {
                    track_of.push((tid, label.to_string()));
                }
            }
            "B" => {
                let ts = ev.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
                open.push((tid, name.to_string(), ts));
            }
            "E" => {
                let ts = ev.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
                if let Some(i) = open.iter().rposition(|(t, _, _)| *t == tid) {
                    let (_, name, start) = open.remove(i);
                    let track = track_of
                        .iter()
                        .find(|(t, _)| *t == tid)
                        .map_or("?", |(_, l)| l.as_str());
                    spans.push(TraceSpan {
                        track: track.to_string(),
                        name,
                        start_us: start,
                        end_us: ts.max(start),
                    });
                }
            }
            _ => {}
        }
    }
    spans.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                b.end_us
                    .partial_cmp(&a.end_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(spans)
}

/// Renders the span table: one row per span, widths fitted, a `% e2e`
/// column against the trace's full `[t0, t1]` extent (which may cover
/// more spans than are shown).
fn render_spans_against(spans: &[TraceSpan], t0: f64, t1: f64) -> String {
    let e2e = (t1 - t0).max(f64::MIN_POSITIVE);
    let rows: Vec<[String; 5]> = spans
        .iter()
        .map(|s| {
            [
                s.track.clone(),
                s.name.clone(),
                format!("{:.3}", s.start_us - t0),
                format!("{:.3}", s.end_us - s.start_us),
                format!("{:.1}", 100.0 * (s.end_us - s.start_us) / e2e),
            ]
        })
        .collect();
    let head = ["track", "span", "start_us", "dur_us", "% e2e"];
    let mut w: [usize; 5] = [0; 5];
    for (i, h) in head.iter().enumerate() {
        w[i] = rows
            .iter()
            .map(|r| r[i].len())
            .max()
            .unwrap_or(0)
            .max(h.len());
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}  {:>w4$}\n",
        head[0],
        head[1],
        head[2],
        head[3],
        head[4],
        w0 = w[0],
        w1 = w[1],
        w2 = w[2],
        w3 = w[3],
        w4 = w[4],
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}  {:>w4$}\n",
            r[0],
            r[1],
            r[2],
            r[3],
            r[4],
            w0 = w[0],
            w1 = w[1],
            w2 = w[2],
            w3 = w[3],
            w4 = w[4],
        ));
    }
    out
}

/// Applies one `key=val` knob to a config. Shared by the CLI flags and the
/// `--diff` override list so both spell knobs identically. Values are
/// taken as given: `StandaloneConfig::validate` rejects a zero.
fn apply_knob(cfg: &mut StandaloneConfig, key: &str, val: &str) -> Result<(), String> {
    let parse_u32 = |v: &str| v.parse::<u32>().map_err(|_| format!("bad number '{v}'"));
    let parse_u64 = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number '{v}'"));
    match key {
        "ports" => {
            let n = parse_u32(val)?;
            cfg.spm_read_ports = n;
            cfg.spm_write_ports = n;
        }
        "spm-latency" => cfg.spm_latency = parse_u64(val)?,
        "window" => cfg.engine.reservation_entries = parse_u64(val)? as usize,
        "reads" => cfg.engine.max_outstanding_reads = parse_u64(val)? as usize,
        "writes" => cfg.engine.max_outstanding_writes = parse_u64(val)? as usize,
        "limit" => {
            let (fu, n) = val
                .split_once([':', '='])
                .ok_or_else(|| format!("--limit expects FU=N, got '{val}'"))?;
            let kind =
                FuKind::from_name(fu).ok_or_else(|| format!("unknown functional unit '{fu}'"))?;
            cfg.constraints = cfg.constraints.clone().with_limit(kind, parse_u32(n)?);
        }
        other => return Err(format!("unknown knob '{other}'")),
    }
    Ok(())
}

fn main() {
    let mut args = Args::parse("salam_report", USAGE);
    if let Some(path) = args.opt("--spans") {
        let top = args.opt_u64("--top").unwrap_or(50) as usize;
        if !args.finish().is_empty() {
            eprintln!("salam_report: --spans takes no other arguments");
            std::process::exit(salam_bench::cli::EXIT_USAGE);
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("salam_report: cannot read {path}: {e}");
            std::process::exit(EXIT_FINDINGS);
        });
        let spans = spans_from_chrome(&text).unwrap_or_else(|e| {
            eprintln!("salam_report: cannot parse {path}: {e}");
            std::process::exit(EXIT_FINDINGS);
        });
        if spans.is_empty() {
            eprintln!("salam_report: {path} contains no closed spans");
            std::process::exit(EXIT_FINDINGS);
        }
        // e2e (and the marker) always cover every span; the table may be
        // trimmed to the longest `top` to stay readable on engine traces.
        let t0 = spans.iter().map(|s| s.start_us).fold(f64::MAX, f64::min);
        let t1 = spans.iter().map(|s| s.end_us).fold(0.0f64, f64::max);
        let shown = if top > 0 && spans.len() > top {
            let mut by_dur: Vec<&TraceSpan> = spans.iter().collect();
            by_dur.sort_by(|a, b| {
                (b.end_us - b.start_us)
                    .partial_cmp(&(a.end_us - a.start_us))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            by_dur.truncate(top);
            let mut shown: Vec<TraceSpan> = by_dur
                .into_iter()
                .map(|s| TraceSpan {
                    track: s.track.clone(),
                    name: s.name.clone(),
                    start_us: s.start_us,
                    end_us: s.end_us,
                })
                .collect();
            shown.sort_by(|a, b| {
                a.start_us
                    .partial_cmp(&b.start_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            println!(
                "showing the {top} longest of {} spans (--top 0 for all)",
                spans.len()
            );
            shown
        } else {
            spans.clone()
        };
        print!("{}", render_spans_against(&shown, t0, t1));
        println!("spans: {} spans, e2e {:.3} us", spans.len(), t1 - t0);
        return;
    }
    let mut cfg = StandaloneConfig::default();
    for knob in ["ports", "spm-latency", "window", "reads", "writes"] {
        if let Some(val) = args.opt(&format!("--{knob}")) {
            if let Err(e) = apply_knob(&mut cfg, knob, &val) {
                args.fail(&e);
            }
        }
    }
    for val in args.opts("--limit") {
        if let Err(e) = apply_knob(&mut cfg, "limit", &val) {
            args.fail(&e);
        }
    }
    let mut format = args.opt("--format").unwrap_or_else(|| "table".to_string());
    if args.flag("--json") {
        format = "json".to_string();
    }
    let out: Option<String> = args.opt("--out");
    let trace: Option<String> = args.opt("--trace");
    let diff: Option<String> = args.opt("--diff");
    if !matches!(format.as_str(), "table" | "csv" | "json") {
        args.fail(&format!("unknown format '{format}'"));
    }
    let fail = |msg: &str| -> ! {
        eprintln!("salam_report: {msg}");
        eprintln!("usage: salam_report {USAGE}");
        std::process::exit(salam_bench::cli::EXIT_USAGE);
    };
    if let Err(e) = cfg.validate() {
        fail(&e.to_string());
    }
    let bench = match args.finish().as_slice() {
        [id] => Bench::from_label(id).unwrap_or_else(|| fail(&format!("unknown bench '{id}'"))),
        [] => fail("a bench is required"),
        _ => fail("more than one bench given"),
    };

    let kernel = bench.build_standard();
    let run = profile(&kernel, &cfg);
    if let Err(e) = check_invariants(&run) {
        eprintln!("salam_report: INVARIANT VIOLATION: {e}");
        std::process::exit(EXIT_FINDINGS);
    }

    let rendered = match diff {
        // Simulated vs replayed at the *same* configuration: the delta
        // column is the replay model's per-class attribution error.
        Some(mode) if mode == "replay" => {
            let replayed = match replay_profile(&kernel, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("salam_report: replay diff failed: {e}");
                    std::process::exit(EXIT_FINDINGS);
                }
            };
            render_diff(&run, &replayed)
        }
        Some(overrides) => {
            let mut other = cfg.clone();
            for kv in overrides.split(',').filter(|s| !s.is_empty()) {
                let Some((k, v)) = kv.split_once('=') else {
                    fail(&format!("--diff expects key=val, got '{kv}'"));
                };
                if let Err(e) = apply_knob(&mut other, k, v) {
                    fail(&e);
                }
            }
            if let Err(e) = other.validate() {
                fail(&e.to_string());
            }
            let vs = profile(&kernel, &other);
            if let Err(e) = check_invariants(&vs) {
                eprintln!("salam_report: INVARIANT VIOLATION (diff run): {e}");
                std::process::exit(1);
            }
            render_diff(&run, &vs)
        }
        None => match format.as_str() {
            "csv" => render_csv(&run),
            "json" => render_json(&run),
            _ => render_table(&run),
        },
    };

    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("salam_report: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("report written to {path}");
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = &trace {
        let rec = salam_obs::depstream_to_trace(
            &run.depstream,
            &run.critpath.path,
            cfg.engine.clock_period_ps,
        );
        match salam_obs::write_chrome_trace(&rec, std::path::Path::new(path)) {
            Ok(()) => println!("chrome trace written to {path}"),
            Err(e) => {
                eprintln!("salam_report: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Stable marker for CI: grep-able proof the accounting invariant held.
    println!(
        "invariant: attribution==cycles ok ({} cycles, critical path {})",
        run.report.stats.cycles, run.critpath.length
    );
}
