#!/usr/bin/env bash
# Runs the benchmark repeatedly and appends each result line, tagged with
# its workload, seed and trace flag, to OUT — a set for
# `isf-benchmark compare`. Every workload runs RUNS times untraced (seeds
# 1..RUNS) and TRACED times traced (seeds 1..TRACED). Run it from the
# repository root:
#
#   bash isf-benchmark/sweep.sh OUT [RUNS [TRACED [SECONDS [WORKLOAD...]]]]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"
runs="${2:-10}"
traced="${3:-2}"
seconds="${4:-28}"
shift $(($# < 4 ? $# : 4))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(suite suite-jobs2 suite-pgo pipeline)
fi

one() {
    local w="$1" seed="$2" trace="$3" line
    line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" | tail -n 1)" || true
    case "$line" in
    "{"*) echo "{\"workload\":\"$w\",\"seed\":$seed,\"trace\":$trace,${line#\{}" >>"$out" ;;
    *)
        echo "sweep: $w seed $seed trace $trace printed no result" >&2
        exit 1
        ;;
    esac
}

for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do one "$w" "$seed" 0; done
    for seed in $(seq 1 "$traced"); do one "$w" "$seed" 1; done
done
