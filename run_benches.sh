#!/bin/sh
# Regenerates every paper table/figure; used to produce bench_output.txt.
# Also runs the compile-throughput benchmark, which writes BENCH_compile.json.
set -e
cd "$(dirname "$0")"

# Refuse to produce a partial report: every bench binary must exist.
ALL_BENCHES="table1_loop_exit table2_if_then_else fig1_natural_loops \
         fig2_overlap paper_tables bench_compile bench_report \
         micro_algorithms"
MISSING=""
for b in $ALL_BENCHES; do
  if [ ! -x "./build/bench/$b" ]; then
    MISSING="$MISSING $b"
  fi
done
if [ -n "$MISSING" ]; then
  echo "error: missing bench binaries:$MISSING" >&2
  echo "build them first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

for b in table1_loop_exit table2_if_then_else fig1_natural_loops \
         fig2_overlap paper_tables; do
  echo "##### bench/$b #####"
  ./build/bench/$b
  echo
done
echo "##### bench/bench_compile #####"
./build/bench/bench_compile BENCH_compile.json
echo

# Analyze the history trail the run above just appended to: per-metric
# deltas against a median-of-window baseline, with the machine-normalized
# ratios reference_speedup and obs_overhead gating. A regression beyond
# the threshold exits nonzero and fails the whole bench run.
echo "##### bench/bench_report #####"
if [ -f BENCH_history.jsonl ]; then
  ./build/bench/bench_report BENCH_history.jsonl \
      --markdown-out=BENCH_report.md
  echo
fi

echo "##### bench/micro_algorithms #####"
./build/bench/micro_algorithms --benchmark_min_time=0.05
