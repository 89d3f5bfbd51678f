#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself?
#
#   bench/aa.sh [RUNS]        (default 10, at least 5)
#
# Runs two interleaved sets of RUNS full runs of the same build
# (A1 B1 A2 B2 ...), every run with another seed, the way the benchmark
# driver compares a parent commit with a change. Then runs the traced pass
# on spill_join twice with one seed to check that the spill counters repeat
# exactly. Raw results go to bench/out/aa/; the report (markdown) goes to
# stdout and is committed as bench/AA_RESULTS.md. Exits non-zero if a
# metric's spread or the difference between the two sets exceeds its bound.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-10}"
[ "$runs" -ge 5 ] || { echo "aa.sh: at least 5 runs per set" >&2; exit 2; }
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$runs"); do
    for set in A B; do
        if [ "$set" = A ]; then seed=$((100 + i)); else seed=$((200 + i)); fi
        for w in $workloads; do
            echo "aa.sh: $set$i $w seed $seed" >&2
            bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$set-$i-$w.json"
        done
    done
done
for rep in 1 2; do
    bench/run.sh --workload spill_join --seed 23 --seconds "$seconds" --trace 1 \
        | tail -n 1 > "$out/T-$rep-spill_join.json"
done

python3 bench/aa_report.py "$out" BENCHMARK.json
