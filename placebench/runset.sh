#!/usr/bin/env bash
# Runs every workload once per seed and keeps each run's standard output,
# one file per run, for the comparator:
#
#   bash placebench/runset.sh <out-dir> [seconds] [seeds...]
#   bash placebench/run.sh compare <set-a-dir> <set-b-dir>
set -euo pipefail
out="$1"
seconds="${2:-20}"
shift $(( $# >= 2 ? 2 : $# ))
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$out"
for w in offline-sweep json-feedback routed-binary; do
	for s in "${seeds[@]}"; do
		bash "$root/placebench/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$w.$s.out"
		tail -n 1 "$out/$w.$s.out"
	done
done
