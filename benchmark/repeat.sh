#!/usr/bin/env bash
# benchmark/repeat.sh N [--seed S] [--seconds S] [--quick] [--workload W]
#
# Runs the full benchmark N times, alternating the workload order between
# passes (so no workload always runs on a cold or a warm host), then prints
# min / median / max and the quartile spread of every metric against its
# bound — calibrated values and their *_raw twins side by side, so the
# calibration's benefit is itself measured. Pass records are kept in
# benchmark/out/repeat-<stamp>/ for `run.sh compare`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [[ $# -lt 1 || ! "$1" =~ ^[0-9]+$ || "$1" -lt 1 ]]; then
    echo "usage: benchmark/repeat.sh N [--seed S] [--seconds S] [--quick] [--workload W]" >&2
    exit 2
fi
passes=$1
shift

dir="benchmark/out/repeat-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$dir"
files=()
for ((i = 1; i <= passes; i++)); do
    order=()
    if ((i % 2 == 0)); then
        order=(--reverse)
    fi
    file="$dir/pass-$i.json"
    echo "== pass $i of $passes ${order[*]:-} ==" >&2
    benchmark/run.sh suite "$@" "${order[@]}" --out "$file" >"$dir/pass-$i.log"
    files+=("$file")
done
echo "== $passes passes in $dir =="
benchmark/run.sh summarize "${files[@]}"
