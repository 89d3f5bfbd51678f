#!/usr/bin/env bash
# Paired benchmark of two revisions: alternating `bench/run.sh` runs.
#
#   scripts/bench_pair.sh <base-rev> <new-rev> [--workload W] [--pairs N]
#       [--seeds a,b] [--seconds S] [--layers] [--workdir DIR] [--no-ledger]
#
# Exports both revisions with `git archive` into DIR (default: a fresh
# temporary directory) and builds each into its own target directory. Then
# runs N pairs (default 10) per workload: odd pairs run the base first,
# even pairs the new revision first, and pair i uses seed i of the list
# (cycling; default 23,7). `--seconds` (default 6) is passed to
# `bench/run.sh`; `--layers` runs its traced pass instead of the end-to-end
# one. Default workloads: every one `BENCHMARK.json` lists.
#
# Prints, per workload and metric, a markdown table row: both sides'
# medians, the median change, "new better in k of n" pairs, and the base's
# range and quartiles. Appends one entry per workload x metric to
# BENCH_e2e.json at the repository root (unless `--no-ledger`); each entry
# records the new revision's commit and its tree (`git rev-parse
# <rev>^{tree}`), which survives the revision being re-committed. Raw run
# output stays in DIR. A revision may be any commit, e.g. `HEAD`, or the
# output of `git stash create` for uncommitted work.
set -euo pipefail

usage() {
    sed -n '4,5p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base="$(git -C "$root" rev-parse --verify "$1^{commit}")"
new="$(git -C "$root" rev-parse --verify "$2^{commit}")"
tree="$(git -C "$root" rev-parse --verify "$new^{tree}")"
shift 2
workloads="" pairs=10 seeds="23,7" seconds=6 trace=0 workdir="" ledger=1
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads="$workloads $2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --layers) trace=1; shift ;;
        --workdir) workdir="$2"; shift 2 ;;
        --no-ledger) ledger=0; shift ;;
        *) usage ;;
    esac
done
[ "$pairs" -ge 1 ] || usage
workloads="${workloads:-$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")}"
IFS=, read -r -a seed_list <<< "$seeds"
workdir="${workdir:-$(mktemp -d)}"
mkdir -p "$workdir"

for side in base new; do
    rev="${!side}"
    rm -rf "${workdir:?}/$side"
    mkdir -p "$workdir/$side"
    git -C "$root" archive "$rev" | tar -x -C "$workdir/$side"
    echo "bench_pair: building $side ${rev:0:10}" >&2
    CARGO_TARGET_DIR="$workdir/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$workdir/$side/bench/Cargo.toml" --bins >&2
done

# One run: bench/run.sh in the side's tree, its own target directory.
run() {
    local side="$1" w="$2" seed="$3" i="$4"
    echo "bench_pair: pair $i $w $side seed $seed" >&2
    (cd "$workdir/$side" && CARGO_TARGET_DIR="$workdir/target-$side" bash bench/run.sh \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") \
        > "$workdir/out-$w-$i-$side.txt"
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed="${seed_list[$(( (i - 1) % ${#seed_list[@]} ))]}"
        if [ $((i % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi
        for side in $order; do
            run "$side" "$w" "$seed" "$i"
        done
    done
done

python3 - "$workdir" "$root" "$base" "$new" "$tree" "$pairs" "$seeds" "$seconds" "$trace" \
    "$ledger" "$workloads" <<'EOF'
import json, os, statistics, sys

workdir, root, base, new, tree, pairs, seeds, seconds, trace, ledger, workloads = sys.argv[1:]
pairs, trace, ledger = int(pairs), trace == "1", ledger == "1"
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def metrics(path, workload):
    """`workload metric value unit` lines of one run."""
    out = {}
    for line in open(path):
        f = line.split()
        if len(f) == 4 and f[0] == workload:
            try:
                out[f[1]] = (float(f[2]), f[3])
            except ValueError:
                pass
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def g(x):
    return f"{x:.4g}"


entries = []
print("| workload | metric | parent | change | Δ median | change better | parent's runs | parent's quartiles |")
print("|---|---|---|---|---|---|---|---|")
for w in workloads.split():
    runs = {
        side: [metrics(f"{workdir}/out-{w}-{i}-{side}.txt", w) for i in range(1, pairs + 1)]
        for side in ("base", "new")
    }
    names = [m for m in runs["base"][0] if all(m in r for s in runs.values() for r in s)]
    for m in names:
        b = [r[m][0] for r in runs["base"]]
        n = [r[m][0] for r in runs["new"]]
        unit = runs["base"][0][m][1]
        lower = better.get(m, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, n))
        bm, nm = statistics.median(b), statistics.median(n)
        change = (nm - bm) / bm * 100 if bm else 0.0
        q1, q3 = quartiles(b)
        print(f"| `{w}` | `{m}` | {g(bm)} | {g(nm)} | {change:+.1f} % | {wins}/{pairs} "
              f"| {g(min(b))} .. {g(max(b))} | {g(q1)} .. {g(q3)} |")
        entries.append({
            "workload": w, "metric": m, "unit": unit,
            "better": "lower" if lower else "higher",
            "commit": new, "tree": tree, "parent": base,
            "seeds": [int(s) for s in seeds.split(",")], "pairs": pairs,
            "seconds": float(seconds), "traced": trace,
            "parent_median": bm, "parent_quartiles": [q1, q3],
            "change_median": nm, "change_quartiles": list(quartiles(n)),
            "change_pct": round(change, 2), "change_better_in": [wins, pairs],
            "parent_runs": b, "change_runs": n,
        })

if ledger:
    path = os.path.join(root, "BENCH_e2e.json")
    ledger_entries = json.load(open(path)) if os.path.exists(path) else []
    ledger_entries.extend(entries)
    # One entry per line, so a new run's entries read as a diff of lines.
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(e) for e in ledger_entries) + "\n]\n")
    print(f"\nbench_pair: {len(entries)} entries appended to {path}")
EOF
