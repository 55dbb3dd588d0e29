#!/usr/bin/env bash
# Smoke check of the benchmark against its manifest: builds it, runs every
# workload of BENCHMARK.json and the two it does not gate in --quick mode
# (feeds / 20, two repetitions; never for reported numbers) with tracing off
# and on, and checks that the result line carries exactly the manifest's
# metrics with their units. Then
# checks that the command fails in a directory holding only BENCHMARK.json
# and the benchmark's own files.
#
#   perfbench/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=perfbench/out/check
rm -rf "$out"
mkdir -p "$out"

read -r -a cmd < <(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $workloads triangle_hub skewed_durable; do
  for trace in 0 1; do
    "${cmd[@]}" --workload "$w" --quick --trace "$trace" > "$out/$w.$trace.log"
    python3 - "$out/$w.$trace.log" "$trace" <<'EOF'
import json, sys
log, trace = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
lines = open(log).read().splitlines()
result = json.loads(lines[-1])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, lines[-1]
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, (sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                     {n: (got[n], want[n]) for n in got.keys() & want.keys() if got[n] != want[n]})
printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
assert printed == want, "metric lines differ from the result line"
assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
EOF
    echo "ok $w --trace $trace"
  done
done

bare="$out/bare"
mkdir -p "$bare"
cp BENCHMARK.json "$bare/"
find perfbench -type f -not -path 'perfbench/out/*' -not -path 'perfbench/target/*' \
  -exec cp --parents {} "$bare/" \;
if (cd "$bare" && "${cmd[@]}" --workload trades_watermark --quick --trace 0 > bare.log 2>&1); then
  echo "the command succeeded without the repository around it" >&2
  exit 1
fi
echo "ok fails outside the repository"
rm -rf "$out"
