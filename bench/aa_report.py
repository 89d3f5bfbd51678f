"""Report of bench/aa.sh: per end-to-end metric and workload, the medians of
the two sets, how much worse the second is than the first, and each set's
spread (distance between the first and third quartile as a share of the
median, quartiles as statistics.quantiles(values, n=4) gives them). Fails
when a spread (setup_s excepted) or the worsening exceeds the metric's bound,
or when a spill counter differs between two traced runs of one seed."""

import glob
import json
import statistics
import sys

out_dir, benchmark_path = sys.argv[1], sys.argv[2]
benchmark = json.load(open(benchmark_path))
failures = []


def values(set_name, workload, metric):
    paths = sorted(glob.glob(f"{out_dir}/{set_name}-*-{workload}.json"))
    runs = [json.load(open(p)) for p in paths]
    for path, run in zip(paths, runs):
        if not run["correct"] or run["failed"]:
            failures.append(f"{path}: {run['failed']} of {run['attempted']} queries failed")
    return [run["metrics"][metric]["value"] for run in runs]


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


runs = len(glob.glob(f"{out_dir}/A-*-{benchmark['workloads'][0]['name']}.json"))
print(f"Two interleaved sets (A, B) of {runs} runs of one build, every run with")
print(f"another seed, {benchmark['run_seconds']} s per run. `worse` is how much worse B's median is")
print("than A's (negative: better); `spread` is (Q3 - Q1) / median of a set's runs.")
print()
print("| workload | metric | unit | median A | median B | worse | spread A | spread B | bound | |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in benchmark["workloads"]:
    for m in benchmark["end_to_end"]:
        a, b = values("A", w["name"], m["name"]), values("B", w["name"], m["name"])
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        sp_a, sp_b = spread(a), spread(b)
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sp_a, sp_b) <= m["bound"])
        if not ok:
            failures.append(f"{w['name']} {m['name']}: worse {worse:.3f}, spread {sp_a:.3f}/{sp_b:.3f}, bound {m['bound']}")
        print(
            f"| {w['name']} | {m['name']} | {m['unit']} | {med_a:.6g} | {med_b:.6g} | {worse:+.1%} "
            f"| {sp_a:.1%} | {sp_b:.1%} | {m['bound']:.0%} | {'ok' if ok else 'FAIL'} |"
        )

print()
print("Spill counters of two traced `spill_join` runs with seed 23 (must repeat exactly):")
print()
print("| counter | run 1 | run 2 | |")
print("|---|---|---|---|")
traced = [json.load(open(f"{out_dir}/T-{rep}-spill_join.json"))["metrics"] for rep in (1, 2)]
for name in ("storage.spill_tuple_io", "storage.spill_bytes_written", "storage.spill_bytes_read"):
    one, two = (t[name]["value"] for t in traced)
    if one != two or one == 0:
        failures.append(f"{name}: {one} then {two}")
    print(f"| {name} | {one:g} | {two:g} | {'ok' if one == two and one else 'FAIL'} |")

print()
if failures:
    print("**FAILED**")
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print("**PASSED**: every spread and every difference between the sets is within its bound.")
