#!/usr/bin/env bash
# Program-workload smoke gate (DESIGN.md §5.4): run the canonical
# logical-program request batch twice against one artifact store. The
# cold run compiles each program phase code once and persists every
# artifact and distance certificate; the warm run must evaluate the
# whole batch off the store — zero compiles, zero annotates, zero sim
# builds, zero certifies, nothing corrupt — and reproduce the cold
# run's JSONL byte-for-byte. This pins the
# program-aware sim-store key (the `|program={...}` canonical-text
# extension) end-to-end: a key collision or a non-deterministic stitch
# shows up as a byte diff here before it can skew any sweep.
set -euo pipefail

usage="usage: program_smoke.sh <tiqec_sweep_service> <requests.txt> <workdir>"
service=${1:?$usage}
requests=${2:?$usage}
workdir=${3:?$usage}

mkdir -p "$workdir"
store="$workdir/program_store"
rm -rf "$store"

"$service" "$requests" "$workdir/cold.jsonl" --store "$store" \
    | tee "$workdir/cold_summary.txt"
"$service" "$requests" "$workdir/warm.jsonl" --store "$store" \
    | tee "$workdir/warm_summary.txt"

grep -F '"compiles":0' "$workdir/warm_summary.txt"
grep -F '"annotates":0' "$workdir/warm_summary.txt"
grep -F '"sim_builds":0' "$workdir/warm_summary.txt"
grep -F '"certifies":0' "$workdir/warm_summary.txt"
grep -F '"store_corrupt":0' "$workdir/warm_summary.txt"
cmp "$workdir/cold.jsonl" "$workdir/warm.jsonl"
echo "program smoke: warm run byte-identical with zero compiles and certifies"
