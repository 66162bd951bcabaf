#!/bin/sh
# Runs one google-benchmark binary as a smoke test and fails unless at
# least one benchmark ran. google-benchmark prints "Failed to match any
# benchmarks" and still exits 0 when the filter matches nothing, so the
# exit status alone proves nothing; the JSON output is checked instead.
#
#   tools/bench_smoke.sh ./build/bench/bench_micro --benchmark_filter='BM_DpStep/./64/1$'
set -eu
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" --benchmark_out="$out" --benchmark_out_format=json
python3 - "$out" "$*" <<'EOF'
import json
import sys

path, command = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        runs = json.load(f).get("benchmarks", [])
except ValueError:  # empty file: nothing ran
    runs = []
if not runs:
    sys.exit("bench smoke: no benchmark ran: " + command)
print(f"bench smoke: {len(runs)} benchmark run(s)")
EOF
