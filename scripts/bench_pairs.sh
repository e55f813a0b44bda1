#!/usr/bin/env bash
# Paired runs of the repository benchmark (perfbench) for a base revision
# against the working tree.
#
# Usage: scripts/bench_pairs.sh <base-rev> <workload> [pairs] [seconds]
#
#   <base-rev>  any git revision, e.g. HEAD or main
#   <workload>  compile-zoo | infer-bert | serve-bert
#   [pairs]     number of base/change pairs (default 10)
#   [seconds]   seconds per run (default: run_seconds in BENCHMARK.json)
#
# perfbench is built from <base-rev> (exported with `git archive`) and from
# the working tree, each into its own CARGO_TARGET_DIR under
# $BENCH_PAIRS_DIR (default: a new temporary directory). Pair i runs both
# sides untraced on seed $BENCH_PAIRS_SEED+i (default first seed 1000);
# even pairs run the base first, odd pairs the change first. Each side's
# median and quartiles of setup_s, op_ms and ops_per_s are printed, with
# the number of pairs the change won on each (ties count for neither).
# The per-run result lines are kept in $BENCH_PAIRS_DIR/runs.tsv.
#
# The script asserts nothing about timings. It exits non-zero if any run
# reports "correct": false or fails to produce a result line.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '4,10p' "$0" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")}
first_seed=${BENCH_PAIRS_SEED:-1000}
work=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$work"

echo "== building perfbench at $base_rev and at the working tree (in $work)"
rev=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
# Re-export only for a new revision, so repeated calls reuse the build.
if [[ $(cat "$work/base-src.rev" 2>/dev/null) != "$rev" ]]; then
  rm -rf "$work/base-src"
  mkdir -p "$work/base-src"
  git -C "$root" archive "$rev" | tar -x -C "$work/base-src"
  echo "$rev" > "$work/base-src.rev"
fi
CARGO_TARGET_DIR="$work/base-target" cargo build --release --offline --quiet \
  --manifest-path "$work/base-src/perfbench/Cargo.toml"
CARGO_TARGET_DIR="$work/change-target" cargo build --release --offline --quiet \
  --manifest-path "$root/perfbench/Cargo.toml"
declare -A bin=(
  [base]="$work/base-target/release/souffle-perfbench"
  [change]="$work/change-target/release/souffle-perfbench"
)
declare -A dir=([base]="$work/base-src" [change]="$root")

runs="$work/runs.tsv"
: > "$runs"
wrong=0
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
  for side in "${order[@]}"; do
    log="$work/$side-$seed.log"
    status=0
    (cd "${dir[$side]}" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0) > "$log" 2>&1 || status=$?
    line=$(tail -n 1 "$log")
    if ! fields=$(printf '%s' "$line" | python3 -c '
import json, sys
r = json.load(sys.stdin)
m = r["metrics"]
print(r["correct"], m["setup_s"]["value"], m["op_ms"]["value"], m["ops_per_s"]["value"], sep="\t")
' 2>/dev/null); then
      echo "pair $i $side seed $seed: no result line (exit $status), see $log" >&2
      wrong=1
      continue
    fi
    printf '%s\t%s\t%s\t%s\n' "$side" "$i" "$seed" "$fields" >> "$runs"
    printf 'pair %d %-6s seed %d: %s\n' "$i" "$side" "$seed" "$fields"
    if [[ $status -ne 0 || $fields != True* ]]; then
      echo "pair $i $side seed $seed: wrong output (exit $status), see $log" >&2
      wrong=1
    fi
  done
done

python3 - "$runs" <<'EOF'
import sys

rows = [line.rstrip("\n").split("\t") for line in open(sys.argv[1]) if line.strip()]
metrics = [("setup_s", 4, "lower"), ("op_ms", 5, "lower"), ("ops_per_s", 6, "higher")]


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


by_pair = {}
for row in rows:
    by_pair.setdefault(row[1], {})[row[0]] = row
print()
print(f"{'metric':<10} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}   n")
for name, col, better in metrics:
    for side in ("base", "change"):
        xs = [float(r[col]) for r in rows if r[0] == side]
        print(f"{name:<10} {side:<7} {quantile(xs, 0.25):>10.4g} {quantile(xs, 0.5):>10.4g} "
              f"{quantile(xs, 0.75):>10.4g}   {len(xs)}")
    wins = 0
    full = [p for p in by_pair.values() if "base" in p and "change" in p]
    for p in full:
        b, c = float(p["base"][col]), float(p["change"][col])
        if (c < b) if better == "lower" else (c > b):
            wins += 1
    print(f"{name:<10} change wins {wins}/{len(full)} pairs ({better} is better)")
EOF

exit "$wrong"
