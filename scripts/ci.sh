#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
# The workspace has zero external dependencies, so every step runs with
# --offline and never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo "+ $*"; "$@"; }

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo build --workspace --release --offline
run cargo test --workspace -q --offline
# The benchmark package is a workspace of its own, out of reach of
# `--workspace`: its smoke tests run all four workloads against the report
# digests in benchmark/golden.json, so a change that moves any simulated
# result fails here (next to tests/engine_golden.rs, which the line above
# already runs).
run env CARGO_TARGET_DIR=target/benchmark \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

# DSE smoke sweep: 2 kernels x 4 points on 2 workers, twice against a
# scratch cache. The first run simulates everything; the second must be
# served entirely from the cache.
dse_cache="$(mktemp -d)"
trap 'rm -rf "$dse_cache"' EXIT
smoke() {
  SALAM_JOBS=2 SALAM_DSE_CACHE="$dse_cache" \
    cargo run --release -q --offline -p salam-bench --bin dse_smoke
}
echo "+ dse_smoke (cold cache)"
smoke | tail -n 1
echo "+ dse_smoke (warm cache)"
warm="$(smoke | tail -n 1)"
echo "$warm"
case "$warm" in
  *"hits=8 misses=0 corrupt=0"*) ;;
  *) echo "ci: DSE cache re-run was not fully served from cache" >&2; exit 1 ;;
esac

# Panic isolation: one deliberately-panicking design point must not kill
# the sweep — it becomes a failed row, counted in the summary, and is
# never cached (a fresh cache dir keeps this independent of the run
# above).
echo "+ dse_smoke --inject-panic (panic isolation)"
panic_cache="$(mktemp -d)"
panicked="$(SALAM_JOBS=2 SALAM_DSE_CACHE="$panic_cache" \
  cargo run --release -q --offline -p salam-bench --bin dse_smoke -- --inject-panic \
  2>/dev/null | tail -n 1)"
rm -rf "$panic_cache"
echo "$panicked"
case "$panicked" in
  *"failed=1"*) ;;
  *) echo "ci: panicking job did not surface as failed=1" >&2; exit 1 ;;
esac

# Static screening: one design point with a statically invalid config
# (zero SPM read ports) must be rejected pre-flight as an invalid row,
# counted in the summary, and never handed a simulation slot or a cache
# entry.
echo "+ dse_smoke --inject-invalid (static screening)"
invalid_cache="$(mktemp -d)"
screened="$(SALAM_JOBS=2 SALAM_DSE_CACHE="$invalid_cache" \
  cargo run --release -q --offline -p salam-bench --bin dse_smoke -- --inject-invalid \
  | tail -n 1)"
rm -rf "$invalid_cache"
echo "$screened"
case "$screened" in
  *"failed=0 invalid=1"*) ;;
  *) echo "ci: invalid point did not surface as invalid=1" >&2; exit 1 ;;
esac

# Flow-based pruning: dominated design points must be screened out as
# pruned rows without simulating; the probe itself re-simulates each
# pruned point once and asserts the dominance chain held (a pruned row
# was provably never a winner).
echo "+ dse_smoke --prune (flow-based pruning)"
prune_cache="$(mktemp -d)"
pruned="$(SALAM_JOBS=2 SALAM_DSE_CACHE="$prune_cache" \
  cargo run --release -q --offline -p salam-bench --bin dse_smoke -- --prune \
  2>/dev/null | tail -n 1)"
rm -rf "$prune_cache"
echo "$pruned"
case "$pruned" in
  *"pruned=0"*) echo "ci: prune probe pruned nothing" >&2; exit 1 ;;
  *"pruned="*) ;;
  *) echo "ci: prune probe reported no pruned= summary" >&2; exit 1 ;;
esac

# Lint smoke: the checked-in textual-IR fixtures must parse, verify and
# stay free of diagnostics — salam_lint exits non-zero on any error (or,
# with --deny warnings, on any warning).
echo "+ salam_lint examples/ir (deny warnings)"
lint="$(cargo run --release -q --offline -p salam-bench --bin salam_lint -- \
  examples/ir/gemm.ll examples/ir/spmv.ll examples/ir/nw.ll --deny warnings)"
echo "$lint" | tail -n 1
case "$lint" in
  *"lint: targets=3"*"errors=0"*) ;;
  *) echo "ci: salam_lint marker line missing" >&2; exit 1 ;;
esac

# Dataflow report determinism: the flow facts (ranges, trips, bound
# decomposition) are a pure function of the kernel — byte-identical
# regardless of the worker-pool environment.
echo "+ salam_lint --flow determinism (SALAM_JOBS=1 vs 8)"
flow_1="$(SALAM_JOBS=1 cargo run --release -q --offline -p salam-bench --bin salam_lint -- \
  gemm nw md-grid --flow)"
flow_8="$(SALAM_JOBS=8 cargo run --release -q --offline -p salam-bench --bin salam_lint -- \
  gemm nw md-grid --flow)"
if [ "$flow_1" != "$flow_8" ]; then
  echo "ci: flow facts differ across SALAM_JOBS settings" >&2; exit 1
fi
case "$flow_1" in
  *"flow: "*"bound base="*) ;;
  *) echo "ci: salam_lint --flow emitted no bound decomposition" >&2; exit 1 ;;
esac

# Fault-injection smoke: a seeded campaign over two kernels. The outcome
# table and counts are a pure function of the seeds, so two runs must be
# byte-identical and the marker line must show the expected mix of
# outcome classes.
echo "+ fault_smoke (seeded campaign, twice)"
fault_a="$(cargo run --release -q --offline -p salam-bench --bin fault_smoke)"
fault_b="$(cargo run --release -q --offline -p salam-bench --bin fault_smoke)"
echo "$fault_a" | tail -n 1
if [ "$fault_a" != "$fault_b" ]; then
  echo "ci: fault campaign is not reproducible across runs" >&2; exit 1
fi
case "$fault_a" in
  *"fault_smoke: kernels=2 seeds=12"*) ;;
  *) echo "ci: fault_smoke marker line missing" >&2; exit 1 ;;
esac
case "$fault_a" in
  *"masked=0"*|*"sdc=0"*|*"deadlock=0"*)
    echo "ci: fault campaign must exercise masked, sdc and deadlock outcomes" >&2
    exit 1 ;;
esac

# Bottleneck-report smoke: one MachSuite kernel with profiling on. The
# binary self-checks the accounting invariant (attribution buckets sum
# exactly to total cycles, critical path fits in the run) and prints a
# stable marker line on success.
echo "+ salam_report gemm (invariant smoke)"
prof="$(cargo run --release -q --offline -p salam-bench --bin salam_report -- gemm)"
echo "$prof" | tail -n 1
case "$prof" in
  *"invariant: attribution==cycles ok"*) ;;
  *) echo "ci: salam_report invariant marker missing" >&2; exit 1 ;;
esac

# Trace-replay smoke: every MachSuite kernel over a replay-safe grid in
# check mode — each eligible point is both replayed and fully simulated,
# so the ≤2% error and ≥1.5x per-kernel median-speedup gates are measured,
# not projected; a replayed point undercutting the static lower bound counts
# as a fallback and fails the binary. The benchmark JSON lands in
# REPLAY_BENCH_OUT when set (the workflow uploads it as an artifact).
echo "+ replay_smoke (trace-replay accuracy/speedup gate)"
replay_tmp="$(mktemp -d)"
replay_json="${REPLAY_BENCH_OUT:-$replay_tmp/BENCH_replay.json}"
replayed="$(cargo run --release -q --offline -p salam-bench --bin replay_smoke -- \
  --out "$replay_json")"
rm -rf "$replay_tmp"
echo "$replayed" | tail -n 1
case "$replayed" in
  *"replay: kernels=9"*"fallbacks=0"*" ok"*) ;;
  *) echo "ci: replay_smoke marker line missing or not ok" >&2; exit 1 ;;
esac

# Telemetry smoke: every MachSuite kernel simulated with the flight
# recorder off and on — the RunReport JSON must be byte-identical in both
# modes (telemetry must never perturb simulated time) and the enabled
# pass must stay within the wall-clock overhead gate.
echo "+ telemetry_smoke (non-perturbation + overhead gate)"
telem="$(cargo run --release -q --offline -p salam-bench --bin telemetry_smoke)"
echo "$telem" | tail -n 1
case "$telem" in
  *"telemetry: kernels=9 identical=9/9"*" ok"*) ;;
  *) echo "ci: telemetry_smoke marker line missing or not ok" >&2; exit 1 ;;
esac

# Serve smoke: boot the multi-tenant job server on an ephemeral port and
# drive the whole wire surface with salam_client — two tenants submit a
# kernel run and a sweep, a statically invalid config is rejected with a
# typed code before it ever becomes a job, a forced-deadlock job leaves a
# flight-recorder post-mortem, the Prometheus exposition and per-job span
# trace are scraped, and the server drains and shuts down cleanly via the
# wire op. The final metrics snapshot lands in SERVE_METRICS_OUT and the
# per-class latency percentiles in BENCH_SERVE_OUT when set (the workflow
# uploads both as artifacts).
echo "+ salam_serve / salam_client (serve smoke)"
serve_tmp="$(mktemp -d)"
serve_metrics="${SERVE_METRICS_OUT:-$serve_tmp/serve-metrics.json}"
serve_bench="${BENCH_SERVE_OUT:-$serve_tmp/BENCH_serve.json}"
serve_pid=""
trap 'rm -rf "$dse_cache" "$serve_tmp"; { [ -n "$serve_pid" ] && kill "$serve_pid"; } 2>/dev/null || true' EXIT
cargo run --release -q --offline -p salam-bench --bin salam_serve -- \
  --addr 127.0.0.1:0 --cache-dir "$serve_tmp/cache" --metrics-out "$serve_metrics" \
  --bench-out "$serve_bench" \
  >"$serve_tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 200); do
  addr="$(sed -n 's/^salam_serve: listening on //p' "$serve_tmp/serve.log")"
  if [ -n "$addr" ]; then break; fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "ci: salam_serve never reported its address" >&2
  cat "$serve_tmp/serve.log" >&2
  exit 1
fi
client() {
  cargo run --release -q --offline -p salam-bench --bin salam_client -- "$addr" "$@"
}
client submit alice '{"type":"kernel","bench":"gemm","knobs":{"ports":2}}'
client submit bob '{"type":"sweep","name":"ports","kernels":["spmv"],"axes":[{"knob":"ports","values":[1,2]}]}'
# salam_client exits 1 on a rejection by design; the typed code is the check.
rejected="$(client submit alice '{"type":"kernel","bench":"gemm","knobs":{"ports":0}}' || true)"
echo "$rejected"
case "$rejected" in
  *'"code": "invalid-config"'*) ;;
  *) echo "ci: invalid config was not rejected with a typed code" >&2; exit 1 ;;
esac
for id in 1 2; do
  finished="$(client wait "$id")"
  case "$finished" in
    *'"state": "done"'*) ;;
    *) echo "ci: job $id did not finish: $finished" >&2; exit 1 ;;
  esac
done
sweep_csv="$(client result 2 csv)"
case "$sweep_csv" in
  *"points=2 ok=2 failed=0 invalid=0"*) ;;
  *) echo "ci: sweep summary row missing from the csv artifact" >&2; exit 1 ;;
esac

# A certain deadlock (100% response drops) is caught by the dataflow gate
# before a cycle runs: typed flow-deadlock rejection carrying the F004
# prediction.
predicted="$(client submit alice '{"type":"faulted","bench":"gemm","knobs":{"deadlock-cycles":200},"plan":{"seed":3,"mem_drop_rate":1.0}}' || true)"
case "$predicted" in
  *'"code": "flow-deadlock"'*'F004'*) ;;
  *) echo "ci: certain-deadlock plan was not rejected by the flow gate: $predicted" >&2; exit 1 ;;
esac

# A near-certain deadlock (aggressive watchdog + 99.9% response drops) is
# only `Possible` statically, so it is admitted — and must then fail the
# job dynamically and leave a post-mortem artifact carrying the watchdog
# snapshot and the flight-recorder tail.
client submit alice '{"type":"faulted","bench":"gemm","knobs":{"deadlock-cycles":200},"plan":{"seed":3,"mem_drop_rate":0.999}}'
deadlocked="$(client wait 3)"
case "$deadlocked" in
  *'"state": "failed"'*) ;;
  *) echo "ci: forced-deadlock job did not fail: $deadlocked" >&2; exit 1 ;;
esac
postmortem="$(client result 3 postmortem)"
case "$postmortem" in
  *'deadlock'*) ;;
  *) echo "ci: post-mortem does not name the deadlock" >&2; exit 1 ;;
esac
case "$postmortem" in
  *'last_progress_cycle'*) ;;
  *) echo "ci: post-mortem is missing the watchdog snapshot" >&2; exit 1 ;;
esac

# Prometheus exposition: histogram families with cumulative buckets.
prom="$(client prom)"
for needle in '# TYPE serve_latency_e2e_us histogram' \
              'serve_latency_e2e_us_bucket' 'le="+Inf"' \
              'serve_latency_e2e_us_sum' 'serve_latency_e2e_us_count'; do
  case "$prom" in
    *"$needle"*) ;;
    *) echo "ci: prometheus exposition missing '$needle'" >&2; exit 1 ;;
  esac
done

# Per-job span trace over the HTTP shim, rendered as a latency table:
# an untraced kernel job carries exactly its three lifecycle spans.
serve_host="${addr%:*}"; serve_port="${addr##*:}"
exec 3<>"/dev/tcp/$serve_host/$serve_port"
printf 'GET /trace?id=1 HTTP/1.1\r\nHost: ci\r\n\r\n' >&3
timeout 10 cat <&3 >"$serve_tmp/trace.http" || true
exec 3>&- 3<&-
awk 'body{print} /^\r?$/{body=1}' "$serve_tmp/trace.http" >"$serve_tmp/job1-trace.json"
spans="$(cargo run --release -q --offline -p salam-bench --bin salam_report -- \
  --spans "$serve_tmp/job1-trace.json")"
echo "$spans" | tail -n 1
case "$spans" in
  *"spans: 3 spans"*) ;;
  *) echo "ci: span table did not recover the job's lifecycle spans" >&2; exit 1 ;;
esac

client shutdown
wait "$serve_pid"
serve_pid=""
serve_final="$(tail -n 1 "$serve_tmp/serve.log")"
echo "$serve_final"
case "$serve_final" in
  *"jobs=3 done=2 failed=1 rejected=2"*) ;;
  *) echo "ci: serve final stats line unexpected" >&2; exit 1 ;;
esac
case "$serve_final" in
  *"e2e_p50_ms="*) ;;
  *) echo "ci: serve stats line is missing latency percentiles" >&2; exit 1 ;;
esac
grep -q '"serve.jobs.done": 2' "$serve_metrics" || {
  echo "ci: serve metrics snapshot missing or wrong" >&2; exit 1
}
grep -q '"p99_us"' "$serve_bench" || {
  echo "ci: serve latency summary (BENCH_serve.json) missing percentiles" >&2; exit 1
}

# Chaos / resilience gate (PR 9): in-process fault drills — a deadline
# that expires mid-run fails typed `timeout`, queued and running jobs are
# cancelled cooperatively, injected worker panics trip the circuit
# breaker open -> half-open -> closed with a transition log that must be
# byte-identical at 1 and 8 workers, a full accept queue sheds with a
# retry hint, queue pressure degrades a sweep to the replay engine, and
# eviction is a typed condition — plus the crash-recovery drill: a
# journaled salam_serve is SIGKILLed mid-flight and restarted, and every
# open job must complete exactly once with byte-identical artifacts
# (lost=0 dup=0 identical=1 on the marker line). CHAOS_OUT captures the
# drill facts as a JSON artifact when set (the workflow uploads it).
echo "+ chaos_smoke (resilience + crash-recovery gate)"
chaos="$(CHAOS_OUT="${CHAOS_OUT:-$serve_tmp/chaos.json}" \
  cargo run --release -q --offline -p salam-bench --bin chaos_smoke)"
echo "$chaos" | tail -n 1
case "$chaos" in
  *"chaos: "*"lost=0 dup=0 identical=1"*" ok") ;;
  *) echo "ci: chaos_smoke invariants not satisfied" >&2; exit 1 ;;
esac

# Code size, for the record (ROADMAP: net-negative LOC is a success
# metric): shipped Rust lines, tests and comments excluded. No gate.
echo "+ scripts/loc.sh"
scripts/loc.sh | tail -n 1

echo "ci: all checks passed"
