#!/usr/bin/env bash
# Certify smoke gate (DESIGN.md §6.5): certify the acceptance workloads
# (memory, stability and surgery at d=3 and d=5) and compare the JSONL
# report byte-for-byte against the committed expectation. The tool's
# exit status asserts that every request certified at effective
# distance == d; the comparison also pins each observable's distance,
# exactness flag, witness and the DEM sizes, so a change that moves any
# of them shows up here.
set -euo pipefail

usage="usage: certify_smoke.sh <tiqec_certify> <requests.txt> <expected.jsonl> <workdir>"
certify=${1:?$usage}
requests=${2:?$usage}
expected=${3:?$usage}
workdir=${4:?$usage}

mkdir -p "$workdir"
"$certify" "$requests" "$workdir/report.jsonl" \
    | tee "$workdir/summary.txt"
cmp "$workdir/report.jsonl" "$expected"
echo "certify smoke: every request certified; report matches $expected"
