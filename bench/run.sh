#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--layers]
#
# Builds the benchmark package in release mode, then runs one workload (or
# all five, one after another). For each workload it prints
# `workload metric value unit` lines and, last, one JSON object. `--trace 1`
# (or `--layers`) runs the traced per-layer pass instead of the end-to-end
# one and writes bench/out/trace-<workload>.json. Exits non-zero if the
# build fails or any query failed or answered wrongly.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Engine defaults apply (batch 256, thread budgets from each workload's own
# service and optimizer configuration), whatever the caller had exported.
for var in $(compgen -e | grep '^TUKWILA_' || true); do
    unset "$var"
done

workload=""
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --layers) passthrough+=(--trace 1); shift ;;
        *) passthrough+=("$1"); shift ;;
    esac
done

# Cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# which is now the repository root; the default shares the root's target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --bins >&2

status=0
for w in ${workload:-cpu_join spill_join small_queries wan_mix dist_join}; do
    "$CARGO_TARGET_DIR/release/e2e_bench" --workload "$w" --out bench/out "${passthrough[@]}" || status=$?
done
exit "$status"
