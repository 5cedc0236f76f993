#!/usr/bin/env bash
# Parent-commit ledger: runs the SAME benchmark code and settings on the
# parent commit and on the working tree, in alternating order, and writes
# each side's median and quartiles per workload and metric.
#
#   bash perfbench/ledger.sh [-p parent-rev] [-n pairs] [-s first-seed]
#                            [-w "workload ..."] [-t 0|1] [-o ledger.json]
#
# Run it from the repository root. The parent is exported with `git archive`
# into .bench_build/ledger/parent (no worktree metadata is added to the
# repository), and this tree's perfbench/ directory is copied over it, so
# both sides run identical benchmark code against their own program. Pair i
# uses seed first-seed+i on both sides; even pairs run the parent first, odd
# pairs the change first. The output JSON holds every run's metrics, each
# side's median and quartiles, and per metric the pairs the change won.
set -euo pipefail

parent=HEAD~1
pairs=10
seed0=1
trace=0
out=.bench_build/ledger/ledger.json
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while getopts "p:n:s:w:t:o:" opt; do
	case $opt in
	p) parent=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seed0=$OPTARG ;;
	w) workloads=$OPTARG ;;
	t) trace=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done

root=$(pwd)
work="$root/.bench_build/ledger"
rm -rf "$work/parent"
mkdir -p "$work/parent" "$work/runs"
git archive "$(git rev-parse "$parent")" | tar -x -C "$work/parent"
rm -rf "$work/parent/perfbench"
cp -R "$root/perfbench" "$work/parent/perfbench"
cp "$root/BENCHMARK.json" "$work/parent/BENCHMARK.json"

# run_side <side> <dir> <workload> <seed>: one benchmark run; its last
# stdout line is kept as runs/<side>-<workload>-<seed>.json.
run_side() {
	local side=$1 dir=$2 w=$3 seed=$4
	local dst="$work/runs/$side-$w-$seed.json"
	echo "ledger: $side $w seed $seed" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") |
		tail -n 1 >"$dst" || echo "ledger: $side $w seed $seed failed" >&2
}

for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then
			run_side parent "$work/parent" "$w" "$seed"
			run_side change "$root" "$w" "$seed"
		else
			run_side change "$root" "$w" "$seed"
			run_side parent "$work/parent" "$w" "$seed"
		fi
	done
done

python3 - "$work/runs" "$out" "$pairs" "$seed0" "$parent" $workloads <<'EOF'
import json, os, statistics, sys

runs, out, pairs, seed0, parent, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5], sys.argv[6:]

def load(side, w, seed):
    try:
        with open(os.path.join(runs, f"{side}-{w}-{seed}.json")) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

def stats(values):
    if not values:
        return None
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}

with open("BENCHMARK.json") as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

def wins(k, ps, cs):
    """Pairs (same seed) the change won on an end-to-end metric; ties count for neither."""
    n = won = 0
    for p, c in zip(ps, cs):
        if not (p and c and k in p["metrics"] and k in c["metrics"]):
            continue
        pv, cv = p["metrics"][k]["value"], c["metrics"][k]["value"]
        n += 1
        won += (cv < pv) if better[k] == "lower" else (cv > pv)
    return {"change_won": won, "pairs": n}

ledger = {"parent": parent, "pairs": pairs, "first_seed": seed0, "workloads": {}}
for w in workloads:
    sides = {s: [load(s, w, seed0 + i) for i in range(pairs)] for s in ("parent", "change")}
    metrics = {}
    names = sorted({k for s in sides.values() for r in s if r for k in r["metrics"]})
    for k in names:
        entry = {}
        for s, rs in sides.items():
            vals = [r["metrics"][k]["value"] for r in rs if r and k in r["metrics"]]
            entry[s] = stats(vals)
            entry[s + "_values"] = vals
        if k in better:
            entry["wins"] = wins(k, sides["parent"], sides["change"])
        metrics[k] = entry
    ledger["workloads"][w] = {
        "correct": {s: [bool(r and r["correct"]) for r in rs] for s, rs in sides.items()},
        "metrics": metrics,
    }
os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
with open(out, "w") as f:
    json.dump(ledger, f, indent=1)
print(f"ledger written to {out}")
EOF
