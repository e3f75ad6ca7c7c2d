#!/usr/bin/env bash
# Two full sets of runs of the same build, back to back, held against each
# other by `compare`: the benchmark's own noise check.  Exits non-zero when
# a metric of the second set is worse than the first by more than its bound
# in BENCHMARK.json, or a simulated hwsim.sim.* value differs.
#
#   benchmark/repeat.sh [runs per workload, default 10] [seconds per run, default run_seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-10}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out=benchmark/out
mkdir -p "$out"

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for set in a b; do
    rm -f "$out/set-$set.jsonl"
    for workload in wiki_np wiki_base gdelt_np_paced wiki_np_prod; do
        for seed in $(seq 1 "$runs"); do
            bench run --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace 0 --history "$out/set-$set.jsonl" >/dev/null
        done
        # One traced run per set: compare checks its simulated values repeat.
        bench run --workload "$workload" --seed 1 --seconds "$seconds" \
            --trace 1 --history "$out/set-$set.jsonl" >/dev/null
    done
done

bench compare "$out/set-a.jsonl" "$out/set-b.jsonl"
