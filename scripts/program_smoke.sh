#!/usr/bin/env bash
# Program-workload smoke gate (DESIGN.md §5.4): run the canonical
# logical-program request batch twice against one artifact store. The
# cold run compiles each program phase code once and persists every
# artifact and distance certificate; its JSONL must equal the committed
# expectation byte for byte, so a stitching change that moves every
# program's results shows up even when both runs move together. The
# warm run must evaluate the whole batch off the store — zero compiles,
# zero annotates, zero sim builds, zero certifies, nothing corrupt —
# and reproduce the cold run's JSONL byte-for-byte. This pins the
# program-aware sim-store key (the `|program={...}` canonical-text
# extension) end-to-end: a key collision or a non-deterministic stitch
# shows up as a byte diff here before it can skew any sweep.
set -euo pipefail

usage="usage: program_smoke.sh <tiqec_sweep_service> <requests.txt> <expected.jsonl> <workdir>"
service=${1:?$usage}
requests=${2:?$usage}
expected=${3:?$usage}
workdir=${4:?$usage}

mkdir -p "$workdir"
store="$workdir/program_store"
rm -rf "$store"

"$service" "$requests" "$workdir/cold.jsonl" --store "$store" \
    | tee "$workdir/cold_summary.txt"
cmp "$workdir/cold.jsonl" "$expected"
"$service" "$requests" "$workdir/warm.jsonl" --store "$store" \
    | tee "$workdir/warm_summary.txt"

grep -F '"compiles":0' "$workdir/warm_summary.txt"
grep -F '"annotates":0' "$workdir/warm_summary.txt"
grep -F '"sim_builds":0' "$workdir/warm_summary.txt"
grep -F '"certifies":0' "$workdir/warm_summary.txt"
grep -F '"store_corrupt":0' "$workdir/warm_summary.txt"
cmp "$workdir/cold.jsonl" "$workdir/warm.jsonl"
echo "program smoke: cold run matches $expected; warm run byte-identical with zero compiles and certifies"
