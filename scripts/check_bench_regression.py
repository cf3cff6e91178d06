#!/usr/bin/env python3
"""Bench-regression gate: diff fresh bench JSON against the committed
BENCH_*.json snapshots and fail on a >15% throughput regression.

Absolute throughput (rounds/sec, shots/sec) is machine-dependent — the
committed snapshots and a CI runner are different hosts — so the gate
compares *within-host ratios*, which are portable:

  compile: speedup = fast_rounds_per_sec / reference_rounds_per_sec
           per (distance, topology, capacity, wiring) row; a row without
           a wiring field measured standard wiring (both sides measured
           in the same process on the same host; the ratio is the
           hot-path overhaul's figure of merit)
  decode:  path_ratio = shots_per_sec[path] / shots_per_sec[legacy]
           per (workload, distance, gate_improvement) config, for the
           scalar / batch / batch_correlated paths

Gating is two-level, because a single config's best-of-N ratio still
carries several percent of run-to-run noise on a shared box:

  - the geometric mean of fresh/baseline ratio quotients per metric
    group must not drop more than --threshold (a real regression moves
    every config; noise averages out), and
  - no single config may drop more than 2x the threshold (a
    catastrophic one-config regression must not hide in the mean).

A config is gated only when it appears in both the baseline and the
fresh run (smoke runs measure a subset of the committed full-run axes).
Correctness flags are hard failures regardless of threshold: a fresh
compile record with identical=false or a decode record with
errors_agree=false means the measured configuration is broken, not slow.

Usage:
  check_bench_regression.py --baseline-dir . --fresh-dir build \
      [--threshold 0.15]

Exit status: 0 = all gates pass, 1 = regression or correctness failure,
2 = usage/input error (missing or malformed JSON).
"""

import argparse
import json
import math
import os
import sys


def load_results(path):
    """Returns the results list of one BENCH_*.json document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if "results" not in doc or not isinstance(doc["results"], list):
        print(f"error: {path} has no results array", file=sys.stderr)
        sys.exit(2)
    return doc["results"]


def positive_finite(value):
    """True for a usable ratio operand: a finite number > 0. JSON null
    (None), 0, negatives, NaN, and Inf all fail — each means the
    measurement is broken, not slow."""
    return (isinstance(value, (int, float)) and
            not isinstance(value, bool) and
            math.isfinite(value) and value > 0)


class RatioGate:
    """Collects (config, baseline_ratio, fresh_ratio) points for one
    metric group and applies the geomean + per-config gates."""

    def __init__(self, name, threshold):
        self.name = name
        self.threshold = threshold
        self.points = []
        self.invalid = []

    def add(self, config, base_ratio, fresh_ratio):
        # A non-positive (or null/NaN) ratio is a correctness failure,
        # not a slow config: the old code divided by base_ratio and later
        # took math.log(quotient) unguarded, so a zero-throughput record
        # crashed the gate (ZeroDivisionError / math domain error)
        # instead of failing it.
        if not positive_finite(base_ratio) or \
                not positive_finite(fresh_ratio):
            self.invalid.append(
                f"{self.name} {config}: non-positive ratio "
                f"(base={base_ratio!r}, fresh={fresh_ratio!r}) — "
                f"broken measurement, not a slowdown")
            print(f"  {config:44s} base={base_ratio!r} "
                  f"fresh={fresh_ratio!r}  <-- INVALID")
            return
        quotient = fresh_ratio / base_ratio
        per_config_floor = 1.0 - 2.0 * self.threshold
        flag = "" if quotient >= per_config_floor else "  <-- LOW"
        print(f"  {config:44s} base={base_ratio:8.3f} "
              f"fresh={fresh_ratio:8.3f} ({quotient:6.1%}){flag}")
        self.points.append((config, quotient))

    def verdict(self, failures):
        failures.extend(self.invalid)
        if not self.points and self.invalid:
            return
        if not self.points:
            failures.append(
                f"{self.name}: no overlapping configs were gated (axis "
                f"mismatch between baseline and fresh run?)")
            return
        geomean = math.exp(
            sum(math.log(q) for _, q in self.points) /
            len(self.points))
        floor = 1.0 - self.threshold
        print(f"  {self.name}: geomean fresh/baseline = {geomean:.1%} "
              f"over {len(self.points)} configs "
              f"(floor {floor:.0%})")
        if geomean < floor:
            failures.append(
                f"{self.name}: geometric-mean ratio dropped to "
                f"{geomean:.1%} of baseline (floor {floor:.0%})")
        per_config_floor = 1.0 - 2.0 * self.threshold
        for config, quotient in self.points:
            if quotient < per_config_floor:
                failures.append(
                    f"{self.name} {config}: dropped to {quotient:.1%} "
                    f"of baseline (per-config floor "
                    f"{per_config_floor:.0%})")


def check_compile(baseline_dir, fresh_dir, threshold, failures):
    base = load_results(os.path.join(baseline_dir, "BENCH_compile.json"))
    fresh = load_results(os.path.join(fresh_dir, "BENCH_compile.json"))

    def key(r):
        # Rows written before the wiring axis existed measured standard
        # wiring.
        return (r["distance"], r["topology"], r.get("trap_capacity"),
                r.get("wiring", "standard"))

    base_by_key = {key(r): r for r in base}
    print("compile_throughput (fast/reference speedup):")
    gate = RatioGate("compile_speedup", threshold)
    for r in fresh:
        if not r.get("identical", False):
            failures.append(
                f"compile {key(r)}: fast pipeline output is not "
                f"bit-identical to the reference pipeline")
            continue
        b = base_by_key.get(key(r))
        if b is None:
            continue  # axis mismatch (smoke subset), not a failure
        # gate.add flags a missing/zero/null speedup as a correctness
        # failure; the old `<= 0` pre-check silently skipped it.
        gate.add(f"d={r['distance']} {r['topology']} "
                 f"c{r.get('trap_capacity')} {r.get('wiring', 'standard')}",
                 b.get("speedup"), r.get("speedup"))
    gate.verdict(failures)


def check_decode(baseline_dir, fresh_dir, threshold, failures):
    base = load_results(os.path.join(baseline_dir, "BENCH_decode.json"))
    fresh = load_results(os.path.join(fresh_dir, "BENCH_decode.json"))

    def config_key(r):
        return (r["workload"], r["distance"], r["gate_improvement"])

    def by_path(results):
        out = {}
        for r in results:
            out.setdefault(config_key(r), {})[r["decode_path"]] = r
        return out

    base_cfg = by_path(base)
    fresh_cfg = by_path(fresh)
    print("decode_throughput (per-path shots/sec vs legacy):")
    gate = RatioGate("decode_vs_legacy", threshold)
    for cfg, paths in sorted(fresh_cfg.items()):
        for r in paths.values():
            if not r.get("errors_agree", False):
                failures.append(
                    f"decode {cfg} {r['decode_path']}: decode paths "
                    f"disagree on error counts")
        legacy = paths.get("legacy")
        base_paths = base_cfg.get(cfg)
        if legacy is None or base_paths is None:
            continue  # axis mismatch (smoke subset), not a failure
        base_legacy = base_paths.get("legacy")
        if base_legacy is None:
            continue
        for path_name, r in sorted(paths.items()):
            if path_name == "legacy" or path_name not in base_paths:
                continue
            # Ratios stay None when a denominator or numerator is
            # unusable; gate.add turns that into a correctness failure.
            # The old code divided by legacy["value"] unguarded — a
            # zero-shot fresh legacy record crashed the gate with
            # ZeroDivisionError (and a JSON null with TypeError).
            base_ratio = None
            if positive_finite(base_legacy.get("value")) and \
                    positive_finite(base_paths[path_name].get("value")):
                base_ratio = base_paths[path_name]["value"] / \
                    base_legacy["value"]
            fresh_ratio = None
            if positive_finite(legacy.get("value")) and \
                    positive_finite(r.get("value")):
                fresh_ratio = r["value"] / legacy["value"]
            gate.add(
                f"{cfg[0]} d={cfg[1]} {cfg[2]}x path={path_name}",
                base_ratio, fresh_ratio)
    gate.verdict(failures)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--fresh-dir", default="build",
                        help="directory with freshly generated JSON")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional ratio drop (0.15 = 15%%)")
    parser.add_argument("--skip-decode", action="store_true",
                        help="gate only the compile snapshot")
    args = parser.parse_args()

    failures = []
    check_compile(args.baseline_dir, args.fresh_dir, args.threshold,
                  failures)
    if not args.skip_decode:
        check_decode(args.baseline_dir, args.fresh_dir, args.threshold,
                     failures)

    if failures:
        print("\nFAIL: bench regression gate", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nPASS: all bench-regression gates within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
