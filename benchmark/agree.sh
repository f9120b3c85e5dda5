#!/usr/bin/env bash
# Two sets of runs of the same code, then `--agree` on them: per workload
# three untraced runs (seeds 1-3) and one traced run, twice over. Exits
# non-zero when the sets disagree beyond the bounds in BENCHMARK.json.
#
#   benchmark/agree.sh [SECONDS]      (default: run_seconds of BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
secs="${1:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
out=target/benchmark

run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for set in agree-a agree-b; do
    rm -rf "${out:?}/$set"
    mkdir -p "$out/$set"
    for w in sim_spm sim_memsys sweep_replay serve_mixed; do
        for seed in 1 2 3; do
            run --workload "$w" --seed "$seed" --seconds "$secs" | tail -n 1 >>"$out/$set/$w.jsonl"
        done
        run --workload "$w" --seed 1 --seconds "$secs" --trace 1 | tail -n 1 >>"$out/$set/$w.jsonl"
    done
done
run --agree "$out/agree-a" "$out/agree-b"
