#!/usr/bin/env bash
# Byte-identity check of the working tree against a base commit.
#
#   tools/parent_identity.sh <base-ref>
#
# Builds example_scenario_runner and decision_server twice, from <base-ref>
# (exported with `git archive` into a temporary directory, so the
# repository itself is left untouched) and from the working tree.  Both
# builds run the same scenario set, each in its own output directory, and
# every output file of the base run is cmp'd against the working tree's.
#
# The scenario set is CI sweep-identity's (paper-grid policy x arrival
# sweep, the sharded handover storm, the 100- and 1000-cell sparse grids,
# the FACS-P/FACS-PR/SCC storm sweep and the FACS/SCC paper-grid sweep),
# each at 1 and 4 workers, plus a recorded paper-grid trace replayed through
# `decision_server --replay` at 1 and 4 threads.  Compared: every CSV and
# JSON result table, every captured stdout, the recorded trace and the
# replay telemetry CSVs.  decision_server's _latency.csv and _summary.json
# report wall-clock latencies, which differ from run to run, so they are
# not compared.
#
# Exit status: 0 when every file is identical; 1 naming the first file that
# differs or exists on one side only; 2 on a usage or build error; a run
# that fails stops the script with its own status.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi

repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") || {
  echo "parent_identity: '$1' is not a commit" >&2
  exit 2
}
work=$(mktemp -d -t parent_identity.XXXXXX)
trap 'rm -rf "$work"' EXIT
jobs=$(nproc 2>/dev/null || echo 2)

build() {  # <source dir> <build dir>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
           -DFACSP_BUILD_TESTS=OFF -DFACSP_BUILD_BENCHMARKS=OFF &&
         cmake --build "$2" -j "$jobs" \
           --target example_scenario_runner decision_server; } \
       > "$2.log" 2>&1; then
    tail -n 30 "$2.log" >&2
    echo "parent_identity: build of $1 failed" >&2
    exit 2
  fi
}

run_set() {  # <build dir> <output dir>
  local sr="$1/example_scenario_runner" ds="$1/decision_server"
  mkdir -p "$2"
  cd "$2"
  for t in 1 4; do
    "$sr" --scenario paper-grid --policies facs-p,gc \
      --sweep traffic.arrival.kind=uniform,onoff --sweep n=10,20 --reps 2 \
      --threads "$t" --out "sweep-t$t" > "sweep-t$t.out"
    "$sr" --scenario multicell-handover-storm --cell-threads "$t" \
      --out "multicell-t$t" facs-p 100 3 > "multicell-t$t.out"
    "$sr" --scenario multicell-sparse-100 --cell-threads "$t" \
      --out "sparse100-t$t" facs-p 60 2 > "sparse100-t$t.out"
    "$sr" --scenario multicell-handover-storm --cells 1000 \
      --workload-cells 1 --cell-threads "$t" \
      --out "sparse1000-t$t" facs-p 60 3 > "sparse1000-t$t.out"
    "$sr" --scenario multicell-handover-storm --cells 7 \
      --policies facs-p,facs-pr,scc --sweep n=20,40 --reps 2 \
      --threads "$t" --out "storm-sweep-t$t" > "storm-sweep-t$t.out"
    "$sr" --scenario paper-grid --policies facs,scc --sweep n=20,40 \
      --reps 2 --threads "$t" --out "paper-scc-t$t" > "paper-scc-t$t.out"
  done
  "$sr" trace record --out trace.csv --scenario paper-grid --seed 7 \
    --duration 30 > trace-record.out
  for t in 1 4; do
    "$ds" --replay trace.csv --threads "$t" --out "replay-t$t" > /dev/null
    rm "replay-t${t}_latency.csv" "replay-t${t}_summary.json"
  done
}

echo "parent_identity: base $base"
mkdir -p "$work/base-src"
git -C "$repo" archive "$base" | tar -x -C "$work/base-src"
build "$work/base-src" "$work/base-build"
build "$repo" "$work/head-build"
(run_set "$work/base-build" "$work/base-out")
(run_set "$work/head-build" "$work/head-out")

cd "$work"
count=0
while IFS= read -r f; do
  if [[ ! -f "head-out/$f" ]]; then
    echo "parent_identity: $f is missing from the working tree's outputs"
    exit 1
  fi
  if ! cmp -s "base-out/$f" "head-out/$f"; then
    echo "parent_identity: $f differs"
    cmp "base-out/$f" "head-out/$f" || true
    exit 1
  fi
  count=$((count + 1))
done < <(cd base-out && find . -type f | sed 's|^\./||' | LC_ALL=C sort)
extra=$(cd head-out && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
        while IFS= read -r f; do [[ -f "../base-out/$f" ]] || echo "$f"; done)
if [[ -n "$extra" ]]; then
  echo "parent_identity: $(head -n 1 <<< "$extra") exists only in the" \
       "working tree's outputs"
  exit 1
fi
echo "parent_identity: all $count output files are identical"
