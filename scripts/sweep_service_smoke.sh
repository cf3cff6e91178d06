#!/usr/bin/env bash
# Sweep-service smoke gate: run the example request batch against a
# throwaway store and compare its JSONL byte-for-byte with the committed
# expectation. The service's exit status asserts that every request
# evaluated ok; the comparison also pins every compile metric,
# Monte-Carlo count and DEM size, so a change that moves any of them,
# even in the same way on every line, shows up here.
set -euo pipefail

usage="usage: sweep_service_smoke.sh <tiqec_sweep_service> <requests.txt> <expected.jsonl> <workdir>"
service=${1:?$usage}
requests=${2:?$usage}
expected=${3:?$usage}
workdir=${4:?$usage}

rm -rf "$workdir"
mkdir -p "$workdir"
"$service" "$requests" "$workdir/results.jsonl" --store "$workdir/store" \
    | tee "$workdir/summary.txt"
cmp "$workdir/results.jsonl" "$expected"
echo "sweep service smoke: every request ok; results match $expected"
