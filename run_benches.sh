#!/bin/sh
# Regenerates every paper table/figure; used to produce bench_output.txt.
# Also runs the compile-throughput benchmark, which writes BENCH_compile.json.
set -e
cd "$(dirname "$0")"

# Refuse to produce a partial report: every bench binary must exist.
ALL_BENCHES="table1_loop_exit table2_if_then_else fig1_natural_loops \
         fig2_overlap fig3_phase_order table4_jump_fraction \
         table5_instructions table6_cache sec52_branch_stats \
         ablation_heuristics ablation_length_cap bench_compile \
         bench_report micro_algorithms"
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
         fig2_overlap fig3_phase_order table4_jump_fraction \
         table5_instructions table6_cache sec52_branch_stats \
         ablation_heuristics ablation_length_cap; do
  echo "##### bench/$b #####"
  ./build/bench/$b
  echo
done
# The server sweep inside bench_compile runs against a real codrepd when
# one is up; start one on a private socket with a fresh disk cache, let
# bench_compile drive it, then drain it with SIGTERM. Falls back to
# bench_compile's in-process server when the daemon is not built.
echo "##### bench/bench_compile #####"
CODREPD_SOCK="/tmp/coderep-bench-$$.sock"
CODREPD_CACHE="/tmp/coderep-bench-cache-$$"
CODREPD_PID=""
if [ -x ./build/examples/codrepd ]; then
  ./build/examples/codrepd --socket="$CODREPD_SOCK" \
      --pipeline-cache="$CODREPD_CACHE" --cache-budget=256M &
  CODREPD_PID=$!
  # The daemon prints "serving on" once the socket is live; give it a
  # moment rather than racing the bind.
  i=0
  while [ ! -S "$CODREPD_SOCK" ] && [ $i -lt 50 ]; do
    sleep 0.1; i=$((i + 1))
  done
  ./build/bench/bench_compile BENCH_compile.json \
      --server-socket="$CODREPD_SOCK"
  kill -TERM "$CODREPD_PID"
  wait "$CODREPD_PID"
  CODREPD_PID=""
  rm -rf "$CODREPD_CACHE" "$CODREPD_SOCK"
else
  ./build/bench/bench_compile BENCH_compile.json
fi
echo

# Headline server numbers: this run vs the previous history record.
if [ -f BENCH_history.jsonl ]; then
  python3 - <<'EOF' || true
import json
recs = []
for line in open("BENCH_history.jsonl"):
    line = line.strip()
    if line:
        recs.append(json.loads(line))
withsrv = [r for r in recs if "server_p50_us" in r]
if withsrv:
    cur = withsrv[-1]
    prev = withsrv[-2] if len(withsrv) > 1 else None
    def delta(key, fmt="{:+.1f}%"):
        if not prev or not prev.get(key):
            return "(no previous record)"
        return fmt.format(100.0 * (cur[key] - prev[key]) / prev[key])
    print("compile server: p50 %d us %s, p99 %d us %s, hit rate %.1f%% %s"
          % (cur["server_p50_us"], delta("server_p50_us"),
             cur["server_p99_us"], delta("server_p99_us"),
             100.0 * cur["server_hit_rate"],
             delta("server_hit_rate")))
EOF
  echo
fi

# Analyze the history trail the run above just appended to: per-metric
# deltas against a median-of-window baseline, with machine-normalized
# ratio metrics (reference_speedup, verify_final_overhead, obs_overhead,
# server_tail_ratio) gating. A regression beyond the threshold exits
# nonzero and fails the whole bench run.
echo "##### bench/bench_report #####"
if [ -f BENCH_history.jsonl ]; then
  ./build/bench/bench_report BENCH_history.jsonl \
      --markdown-out=BENCH_report.md
  echo
fi

echo "##### bench/micro_algorithms #####"
./build/bench/micro_algorithms --benchmark_min_time=0.05
