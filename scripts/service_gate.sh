#!/usr/bin/env bash
# Service gate: short nocbench runs against committed floors. For each
# row of scripts/service_gate_floors.txt it runs
#
#   bash nocbench/run.sh --workload W --seed S --seconds 8 --trace 0
#
# and fails when
#   - nocbench exits non-zero (a wrong answer, or the run could not
#     finish),
#   - the run reports failed > 0 or ok_ratio < 1,
#   - the probe-scaled peak_rps is below the row's floor, or
#   - the probe-scaled p50_ms is above the row's ceiling.
# nocbench builds nocmapd, nocmapsh and itself from this checkout under
# .bench_build/. CI runs this via `make bench-service-gate`; it takes
# about a minute.
set -euo pipefail
cd "$(dirname "$0")/.."

floors=scripts/service_gate_floors.txt
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# metric NAME FILE -> the value of one nocbench end-to-end metric.
metric() {
	sed -n "s/.*\"$1\":{\"value\":\([-0-9.eE+]*\).*/\1/p" "$2"
}

rows=$(awk '!/^#/ && NF >= 4' "$floors")
[[ -n "$rows" ]] || { echo "FAIL: no workloads listed in $floors"; exit 1; }

fail=0
while read -r workload seed min_rps max_p50; do
	echo "== nocbench $workload seed $seed, 8 s"
	res="$out/$workload.json"
	if ! bash nocbench/run.sh --workload "$workload" --seed "$seed" --seconds 8 --trace 0 \
		</dev/null >"$res" 2>"$out/$workload.log"; then
		cat "$out/$workload.log" "$res"
		echo "FAIL: $workload: nocbench exited non-zero (a wrong answer, or the run did not finish)"
		fail=1
		continue
	fi
	last="$out/$workload.last"
	tail -n 1 "$res" | tee "$last"
	failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$last")
	ok=$(metric ok_ratio "$last")
	rps=$(metric peak_rps "$last")
	p50=$(metric p50_ms "$last")
	if [[ -z "$failed" || -z "$ok" || -z "$rps" || -z "$p50" ]]; then
		echo "FAIL: $workload: the result line lacks failed, ok_ratio, peak_rps or p50_ms"
		fail=1
		continue
	fi
	if awk -v f="$failed" -v o="$ok" 'BEGIN { exit !(f > 0 || o < 1) }'; then
		echo "FAIL: $workload: $failed requests failed (ok_ratio $ok)"
		fail=1
	fi
	if awk -v g="$rps" -v f="$min_rps" 'BEGIN { exit !(g < f) }'; then
		echo "FAIL: $workload: peak_rps $rps is below the floor $min_rps"
		fail=1
	else
		echo "ok: $workload peak_rps $rps >= $min_rps"
	fi
	if awk -v g="$p50" -v c="$max_p50" 'BEGIN { exit !(g > c) }'; then
		echo "FAIL: $workload: p50_ms $p50 is above the ceiling $max_p50"
		fail=1
	else
		echo "ok: $workload p50_ms $p50 <= $max_p50"
	fi
done <<<"$rows"

if [[ "$fail" -ne 0 ]]; then
	echo "service gate FAILED (floors in $floors)"
	exit 1
fi
echo "service gate OK"
