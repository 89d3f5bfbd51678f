#!/usr/bin/env python3
"""Re-key `BENCH_e2e.json` entries to the commits that landed.

    scripts/ledger_rekey.py            # rewrites BENCH_e2e.json in place
    scripts/ledger_rekey.py --check    # writes nothing; exits 1 if an entry needs a re-key

`scripts/bench_pair.sh` keys an entry by the revision it measured, usually
a `git stash create` snapshot of uncommitted work. That snapshot never
lands on `main`, and its objects do not survive a fresh clone, so neither
its commit nor its tree can be looked up later. The entry does record its
base, `"parent"`, and a change lands as the one commit on HEAD's
first-parent chain whose first parent is that base. This script keys each
entry whose commit is not on the chain by that landed commit, and moves
the snapshot's commit into `"measured_at"`. An entry already keyed by a
commit on the chain, or whose change has not landed yet (its parent is
HEAD, or not on the chain), is left as it is.

`--check` lists every entry whose commit is off HEAD's first-parent chain
while its parent is on it, and exits 1 if there is one: such an entry is
either re-keyable now or belongs to a change that has not landed yet.
"""
import argparse
import json
import os
import subprocess
import sys

parser = argparse.ArgumentParser(
    description="Re-key BENCH_e2e.json entries to the commits that landed.")
parser.add_argument("--check", action="store_true",
                    help="write nothing; exit 1 if an entry's commit is off HEAD's "
                         "first-parent chain while its parent is on it")
args = parser.parse_args()

root = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                      capture_output=True, text=True).stdout.strip()
chain = subprocess.run(["git", "-C", root, "rev-list", "--first-parent", "--parents", "HEAD"],
                       check=True, capture_output=True, text=True).stdout.split("\n")
landed_on = {}  # first parent -> the commit that landed on it
on_chain = set()
for line in filter(None, chain):
    commit, *parents = line.split()
    on_chain.add(commit)
    if parents:
        landed_on[parents[0]] = commit

path = os.path.join(root, "BENCH_e2e.json")
entries = json.load(open(path))
if args.check:
    stale = [e for e in entries if e["commit"] not in on_chain and e["parent"] in on_chain]
    for e in stale:
        print(f"ledger_rekey: {e['workload']} {e['metric']} keyed by {e['commit'][:12]} "
              f"(off the chain; parent {e['parent'][:12]} on it)", file=sys.stderr)
    print(f"ledger_rekey: {len(stale)} of {len(entries)} entries off the chain", file=sys.stderr)
    sys.exit(1 if stale else 0)
moved = 0
for e in entries:
    landed = landed_on.get(e["parent"])
    if e["commit"] not in on_chain and landed:
        e["measured_at"], e["commit"] = e["commit"], landed
        moved += 1
# One entry per line, as bench_pair.sh writes them.
with open(path, "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
print(f"ledger_rekey: {moved} of {len(entries)} entries re-keyed", file=sys.stderr)
