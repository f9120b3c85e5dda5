#!/usr/bin/env bash
# Paired benchmark runs of two commits, summarised as one row appended to
# BENCH_history.json.
#
#   scripts/bench.sh [SECONDS] [REV]     (defaults: 5, HEAD's parent)
#
# Builds the benchmark of REV and of HEAD once each, from `git archive`
# copies under target/bench/ (a build is reused while its commit's binary
# exists). For every workload in BENCHMARK.json it then runs five
# alternating pairs, seeds 1-5, with REV first on odd seeds and HEAD first
# on even ones, and one traced pair. The untraced pairs give the four
# end-to-end metrics, the traced pair the per-layer ones. The row holds
# commit, parent, date, nproc and seconds, the failed-op count over every
# run, and per workload and metric both sides' median and quartiles and
# the number of pairs HEAD won. A metric that reads 0 in every run (a
# layer the workload never calls) is left out. Only pairs from this one
# invocation enter the row, so host drift between sessions cancels.
#
# REV = HEAD measures the noise floor: both sides run the same binary.
set -euo pipefail
cd "$(dirname "$0")/.."

secs="${1:-5}"
parent="$(git rev-parse --verify "${2:-HEAD~1}^{commit}")"
commit="$(git rev-parse --verify 'HEAD^{commit}')"
pairs=5
work=target/bench
history=BENCH_history.json

# Prints the path of REV's benchmark binary, building it first if needed.
build() {
    local rev="$1" src="$work/src-$1" out="$work/build-$1"
    if [ ! -x "$out/release/salam-benchmark" ]; then
        rm -rf "$src"
        mkdir -p "$src"
        git archive "$rev" | tar -x -C "$src"
        CARGO_TARGET_DIR="$out" cargo build --release --quiet --offline \
            --manifest-path "$src/benchmark/Cargo.toml" >&2
    fi
    echo "$out/release/salam-benchmark"
}

parent_bin="$(build "$parent")"
commit_bin="$(build "$commit")"

workloads="$(awk -F'"' '/"workloads"/ { on = 1 } on && $2 == "name" { print $4 } on && /\]/ { exit }' BENCHMARK.json)"
raw="$work/raw-$$"
rm -rf "$raw"
mkdir -p "$raw"

# One run: appends its failed-op count to `failed` and one
# `workload side seed metric value` line per metric to `records`.
run() {
    local w="$1" side="$2" seed="$3" traced="$4" bin line
    bin="$parent_bin"
    [ "$side" = change ] && bin="$commit_bin"
    line="$("$bin" --workload "$w" --seed "$seed" --seconds "$secs" --trace "$traced" | tail -n 1)"
    case "$line" in
        '{"correct"'*) ;;
        *) echo "bench.sh: $w ($side, seed $seed) printed no result line" >&2; exit 1 ;;
    esac
    echo "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p' >>"$raw/failed"
    echo "$line" | awk -v w="$w" -v side="$side" -v seed="$seed" '{
        rest = $0
        while (match(rest, /"[A-Za-z0-9_.-]+": \{"value": [^,}]+/)) {
            rec = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            split(rec, f, "\"")
            value = rec
            sub(/.*"value": /, "", value)
            print w, side, seed, f[2], value
        }
    }' >>"$raw/records"
}

for w in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run "$w" parent "$seed" 0
            run "$w" change "$seed" 0
        else
            run "$w" change "$seed" 0
            run "$w" parent "$seed" 0
        fi
    done
    run "$w" parent 1 1
    run "$w" change 1 1
done

row="$(awk -v commit="$commit" -v parent="$parent" -v failed="$(awk '{ s += $1 } END { print s + 0 }' "$raw/failed")" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$(nproc)" -v secs="$secs" '
    # Linear-interpolation quantile of the n sorted values in s.
    function quantile(s, n, q,    pos, lo) {
        pos = (n - 1) * q
        lo = int(pos)
        return lo + 1 < n ? s[lo] + (pos - lo) * (s[lo + 1] - s[lo]) : s[lo]
    }
    # Median and quartiles of the space-separated values in list.
    function stats(list,    v, s, n, i, j, t) {
        n = split(list, v, " ")
        for (i = 1; i <= n; i++) s[i - 1] = v[i] + 0
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        return sprintf("{\"median\": %.8g, \"q1\": %.8g, \"q3\": %.8g}",
            quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75))
    }
    FNR == NR {
        # BENCHMARK.json: which way each metric is better.
        if (match($0, /"name": "[^"]+"/) && match($0, /"better": "[a-z]+"/)) {
            split($0, f, "\"")
            for (i = 1; i in f; i++) {
                if (f[i] == "name") name = f[i + 2]
                if (f[i] == "better") better[name] = f[i + 2]
            }
        }
        next
    }
    {
        w = $1; side = $2; seed = $3; m = $4; v = $5
        if (!((w, m) in seen)) {
            seen[w, m] = 1
            order[++count] = w SUBSEP m
        }
        vals[w, m, side] = vals[w, m, side] " " v
        at[w, m, side, seed] = v
        seeds[w, m, seed] = 1
        if (v + 0 != 0) nonzero[w, m] = 1
    }
    END {
        printf "{\"commit\": \"%s\", \"parent\": \"%s\", \"date\": \"%s\", \"nproc\": %d, \"seconds\": %d, \"failed\": %d, \"workloads\": {", \
            commit, parent, date, nproc, secs, failed
        for (k = 1; k <= count; k++) {
            split(order[k], key, SUBSEP)
            w = key[1]; m = key[2]
            if (!((w, m) in nonzero)) continue
            if (w != open) {
                printf "%s\n\"%s\": {", open == "" ? "" : "},", w
                open = w; first = 1
            }
            wins = 0; n = 0
            for (s = 1; (w, m, s) in seeds; s++) {
                n++
                a = at[w, m, "parent", s] + 0; b = at[w, m, "change", s] + 0
                if (better[m] == "higher" ? b > a : b < a) wins++
            }
            printf "%s\n  \"%s\": {\"parent\": %s, \"change\": %s, \"wins\": %d, \"pairs\": %d}", \
                first ? "" : ",", m, stats(vals[w, m, "parent"]), stats(vals[w, m, "change"]), wins, n
            first = 0
        }
        print "}}}"
    }' BENCHMARK.json "$raw/records")"
rm -rf "$raw"

# Append the row, keeping the file one JSON array.
if [ -s "$history" ]; then
    sed -i '$d' "$history"
    sed -i '$ s/$/,/' "$history"
else
    echo "[" >"$history"
fi
printf '%s\n]\n' "$row" >>"$history"
echo "bench.sh: appended ${commit:0:12} vs ${parent:0:12} to $history"
