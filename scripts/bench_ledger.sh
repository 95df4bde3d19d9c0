#!/usr/bin/env bash
# bench_ledger.sh — writes the performance ledger BENCH_<UTC date>.json at
# the repository root (`make bench`; docs/PERFORMANCE.md §5 is the schema).
# It takes no options. It records a host descriptor and, for each run of
# the repository benchmark, the arguments, the CPU affinity, the wall-time
# summary lines from standard error and the unmodified result line:
#
#   bash bench/run.sh -seed 1 | -seed 2 | -seed 3   every workload, end to end
#   bash bench/run.sh -seed 1 -trace 1              per-layer metrics
#   taskset -c 0 bash bench/run.sh -workload campaign-fig7 -seed 1
#                                                   the campaign on one CPU
#
# A failing run (a failed rep or a digest mismatch) fails the script, and
# no ledger is written. About 6 minutes on a 2-CPU host.
set -euo pipefail
cd "$(dirname "$0")/.."
out="BENCH_$(date -u +%Y-%m-%d).json"
err="$(mktemp)"
trap 'rm -f "$err" "$out.tmp"' EXIT

runs=""
# run AFFINITY ARGS... runs the benchmark with ARGS on the CPUs AFFINITY
# names (a taskset list, or "all") and appends its entry to runs.
run() {
	local affinity=$1 cmd line walls args
	shift
	cmd=(bash bench/run.sh "$@")
	[ "$affinity" = all ] || cmd=(taskset -c "$affinity" "${cmd[@]}")
	echo "bench_ledger: ${cmd[*]}" >&2
	if ! line="$("${cmd[@]}" 2>"$err" | tail -n 1)"; then
		cat "$err" >&2
		echo "bench_ledger: run failed, no ledger written" >&2
		exit 1
	fi
	cat "$err" >&2
	walls="$(awk '/^== set /{w=$4} /^  wall p50/{sub(/^  /, ""); printf "%s\"%s: %s\"", sep, w, $0; sep=", "}' "$err")"
	args="$(printf '"%s", ' "$@")"
	runs+="${runs:+,
}    {\"args\": [${args%, }], \"affinity\": \"$affinity\", \"walls\": [$walls],
     \"result\": $line}"
}

run all -seed 1
run all -seed 2
run all -seed 3
run all -seed 1 -trace 1
run 0 -workload campaign-fig7 -seed 1

cpu="$(awk -F': *' '/^model name/{print $2; exit}' /proc/cpuinfo)"
cat >"$out.tmp" <<EOF
{
  "schema": 2,
  "generated": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": {"cpu_model": "$cpu", "cpus": $(nproc), "go": "$(GOTOOLCHAIN=local go version)",
           "goos": "$(go env GOOS)", "goarch": "$(go env GOARCH)"},
  "runs": [
$runs
  ]
}
EOF
mv "$out.tmp" "$out"
echo "bench_ledger: wrote $out" >&2
