#!/usr/bin/env bash
# A/A check: run BENCHMARK.json's workloads as two sets of RUNS invocations
# each, every invocation with another seed, and tabulate for each end-to-end metric the
# two medians, their gap in the worse direction, and each set's spread
# (interquartile range over median). Fails when a gap exceeds half the
# metric's bound in BENCHMARK.json or a spread exceeds the bound.
#
#   perfbench/aa.sh [RUNS]          # default 10; results in perfbench/out/aa/
#   perfbench/aa.sh table           # tabulate the results already there
#
# AA.md is the committed output of one such run.
set -euo pipefail
cd "$(dirname "$0")/.."
out=perfbench/out/aa
if [ "${1:-}" != table ]; then
runs=${1:-10}
rm -rf "$out"
mkdir -p "$out"

read -r -a cmd < <(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in A B; do
  for w in $workloads; do
    for i in $(seq 1 "$runs"); do
      # Set B takes seeds the set A never saw: the harder test.
      if [ "$set" = A ]; then seed=$i; else seed=$((runs + i)); fi
      "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tee "$out/$set.$w.$seed.log" | tail -n 1 > "$out/$set.$w.$seed.json"
    done
    echo "set $set $w done" >&2
  done
done
fi

python3 - "$out" <<'EOF'
import glob, json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bad = 0
print("| workload | metric | unit | median A | median B | gap | spread A | spread B | bound |")
print("|---|---|---|---|---|---|---|---|---|")
for w in (w["name"] for w in bench["workloads"]):
    for m in bench["end_to_end"]:
        med, spread = [], []
        for s in "AB":
            runs = [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{s}.{w}.*.json"))]
            assert runs and all(r["correct"] and r["failed"] == 0 for r in runs), (s, w)
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q = statistics.quantiles(vals, n=4)
            med.append(statistics.median(vals))
            spread.append((q[2] - q[0]) / med[-1])
        worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        ok = abs(worse) <= m["bound"] / 2 and (m["name"] == "setup_s" or max(spread) <= m["bound"])
        bad += not ok
        print(f"| {w} | {m['name']} | {m['unit']} | {med[0]:.6g} | {med[1]:.6g} | {worse:+.2%} | "
              f"{spread[0]:.2%} | {spread[1]:.2%} | {m['bound']:.0%}{'' if ok else ' **FAIL**'} |")
print()
print("Stolen share of CPU time while measuring (`meta stolen_share`), run by run:")
print()
for w in (w["name"] for w in bench["workloads"]):
    for s in "AB":
        shares = [l.split()[2] for f in sorted(glob.glob(f"{out}/{s}.{w}.*.log"))
                  for l in open(f) if l.startswith("meta stolen_share")]
        print(f"* {w}, set {s}: {' '.join(shares)}")
sys.exit(1 if bad else 0)
EOF
