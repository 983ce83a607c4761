#!/bin/sh
# The single command of the benchmark of record: builds build-e2e/, runs
# every workload untraced then traced, writes build-e2e/results/, prints
# every metric with its unit, and exits non-zero on a failed operation, a
# missing metric, or a one-shot trace residual above 5%.
#
#   sh bench/e2e/run.sh [--seed=S] [--smoke] [--out=DIR]
exec python3 "$(dirname "$0")/run.py" "$@"
