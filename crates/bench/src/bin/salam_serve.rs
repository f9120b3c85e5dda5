//! `salam_serve` — the multi-tenant simulation server.
//!
//! Hosts the whole simulation stack behind `salam-serve`'s line-JSON/HTTP
//! listener and runs until a client sends the `shutdown` op (or
//! `POST /shutdown`). Prints one `salam_serve: listening on ADDR` line once
//! the socket is bound, so scripts can wait for readiness, and one final
//! `salam_serve: STATS` line on exit.
//!
//! ```text
//! salam_serve [--addr HOST:PORT] [--slots N] [--chunk N]
//!             [--cache-dir PATH] [--no-cache] [--no-verify]
//!             [--max-queued N] [--max-running N] [--max-sweep-points N]
//!             [--metrics-out PATH] [--journal PATH] [--retries N]
//!             [--max-pending N] [--degrade-pressure N] [--io-timeout-ms N]
//!             [--no-breaker] [--chaos] [--chaos-panics N]
//! ```
//!
//! `--metrics-out` writes the final metrics registry JSON on shutdown,
//! latency histograms included (`serve.latency.e2e_us.class.<c>.p99` and
//! the like).
//!
//! `--journal PATH` makes admissions crash-safe — on restart with the
//! same path, jobs admitted but not yet terminal are re-admitted exactly
//! once; a journal that cannot be opened exits 1 before listening.
//! `--chaos` enables the `__chaos-panic` fault-injection bench and
//! `--chaos-panics N` arms N injected worker panics (both are for the
//! chaos harness; never use them in production).

use salam_bench::cli::Args;
use salam_serve::{ServeConfig, Server, TenantQuota};

const USAGE: &str = "[--addr HOST:PORT] [--slots N] [--chunk N]\n\
     \x20           [--cache-dir PATH] [--no-cache] [--no-verify]\n\
     \x20           [--max-queued N] [--max-running N] [--max-sweep-points N]\n\
     \x20           [--metrics-out PATH] [--journal PATH] [--retries N]\n\
     \x20           [--max-pending N] [--degrade-pressure N] [--io-timeout-ms N]\n\
     \x20           [--no-breaker] [--chaos] [--chaos-panics N]";

fn main() {
    let mut args = Args::parse("salam_serve", USAGE);
    let addr = args
        .opt("--addr")
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mut quota = TenantQuota::default();
    if let Some(n) = args.opt_u64("--max-queued") {
        quota.max_queued = n as usize;
    }
    if let Some(n) = args.opt_u64("--max-running") {
        quota.max_running = n as usize;
    }
    if let Some(n) = args.opt_u64("--max-sweep-points") {
        quota.max_sweep_points = n as usize;
    }
    let mut cfg = ServeConfig {
        quota,
        no_cache: args.flag("--no-cache"),
        verify: !args.flag("--no-verify"),
        cache_dir: args.opt("--cache-dir").map(Into::into),
        journal: args.opt("--journal").map(Into::into),
        chaos: args.flag("--chaos"),
        ..ServeConfig::default()
    };
    if args.flag("--no-breaker") {
        cfg.breaker = None;
    }
    if let Some(n) = args.opt_u64("--slots") {
        cfg.slots = (n as usize).max(1);
    }
    if let Some(n) = args.opt_u64("--chunk") {
        cfg.sweep_chunk = (n as usize).max(1);
    }
    if let Some(n) = args.opt_u64("--retries") {
        cfg.retries = n as u32;
    }
    if let Some(n) = args.opt_u64("--max-pending") {
        cfg.max_pending = n as usize;
    }
    if let Some(n) = args.opt_u64("--degrade-pressure") {
        cfg.degrade_pressure = n as usize;
    }
    if let Some(n) = args.opt_u64("--io-timeout-ms") {
        cfg.io_timeout_ms = n;
    }
    let chaos_panics = args.opt_u64("--chaos-panics");
    let metrics_out = args.opt("--metrics-out");
    if !args.finish().is_empty() {
        eprintln!("salam_serve: takes no positional arguments");
        std::process::exit(salam_bench::cli::EXIT_USAGE);
    }

    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("salam_serve: cannot start on {addr}: {e}");
            std::process::exit(salam_bench::cli::EXIT_FINDINGS);
        }
    };
    if let Some(n) = chaos_panics {
        server.core().inject_panics(n);
    }
    println!("salam_serve: listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    while !server.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    // Drain in-flight work before the final metrics snapshot, then tear
    // down the listener (idempotent with the drain).
    server.core().shutdown();
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, server.core().metrics().to_json()) {
            eprintln!("salam_serve: cannot write {path}: {e}");
        }
    }
    println!("salam_serve: {}", server.core().stats_line());
    server.shutdown();
}
