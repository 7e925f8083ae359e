#!/usr/bin/env bash
# A/A check: runs benchmark/run.sh for seeds 1-10 of every workload twice
# (set A, then set B, each interleaved by workload) on the same code, and
# prints per workload and end-to-end metric both spreads (IQR / median, the
# quartiles as Python's statistics.quantiles(values, n=4) gives them), the
# A-to-B median gap, and the bound the rule in README.md yields: the smallest
# of 0.10, 0.15, 0.20, 0.25 that is at least three times the worst spread.
#
#   bash benchmark/aa.sh              # both sets back to back (about 40 min)
#   AA_GAP_SECONDS=3600 bash benchmark/aa.sh   # set B an hour after set A
#
# Results go to benchmark/out/aa/<set>-<workload>-<seed>.json.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out/aa
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for set in A B; do
  if [ "$set" = B ] && [ "${AA_GAP_SECONDS:-0}" -gt 0 ]; then sleep "$AA_GAP_SECONDS"; fi
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    for w in $workloads; do
      echo "set $set seed $seed $w" >&2
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$out/$set-$w-$seed.json"
    done
  done
done

python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
def spread(vs):
    q = statistics.quantiles(vs, n=4)
    return (q[2] - q[0]) / statistics.median(vs)
worst = {}
print(f"{'workload':<16} {'metric':<22} {'median A':>12} {'IQR/med A':>10} {'IQR/med B':>10} {'A->B gap':>9}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        sets = {s: [json.load(open(f"{out}/{s}-{w['name']}-{seed}.json"))["metrics"][m["name"]]["value"] for seed in range(1, 11)] for s in "AB"}
        ma, mb = statistics.median(sets["A"]), statistics.median(sets["B"])
        gap = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)  # positive: B worse
        sa, sb = spread(sets["A"]), spread(sets["B"])
        worst[m["name"]] = max(worst.get(m["name"], 0), sa, sb)
        print(f"{w['name']:<16} {m['name']:<22} {ma:>12.4f} {sa:>10.4f} {sb:>10.4f} {gap:>+9.4f}")
print()
timing = {"setup_s", "request_p95_us", "requests_per_s", "cpu_us_per_request"}  # the rule sets these four
print(f"{'metric':<22} {'worst IQR/med':>14} {'rule bound':>11} {'BENCHMARK.json':>15}")
for m in spec["end_to_end"]:
    rule = next((b for b in (0.10, 0.15, 0.20, 0.25) if b >= 3 * worst[m["name"]]), 0.25)
    shown = f"{rule:.2f}" if m["name"] in timing else "-"
    print(f"{m['name']:<22} {worst[m['name']]:>14.4f} {shown:>11} {m['bound']:>15.2f}")
PY
