#!/usr/bin/env bash
# benchmark/repeat.sh [N] [extra args]: two alternating sets of N
# (default 5) full runs of the same code; prints, per metric and
# workload, both medians and quartiles and the gap against the bound,
# and writes benchmark/out/repeat.json. E.g. `repeat.sh 5 --seed 7`.
set -euo pipefail
n="${1:-5}"
shift || true
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" repeat --n "$n" "$@"
