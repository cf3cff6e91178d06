#!/usr/bin/env python3
"""Benchmark of the tiqec design-space sweep service (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate

Run from the repository root. The first run builds the library, the
shipped `tiqec_sweep_service` and the traced driver (`trace.cc`) from
source under `$CARGO_TARGET_DIR` (default `.bench_build`).

`--trace 0` generates the workload's request file from the seed, then
replays it through `tiqec_sweep_service` (one process, a pool of at most
four threads) until `--seconds` have passed, and reports the end-to-end
metrics as medians over those batches. `--trace 1` replays the same
requests through the untraced service on one thread until `--seconds`
have passed, runs them once through the traced driver, writes the Chrome trace-event JSON to
`<build>/traces/`, and reports the per-layer ledger. Both modes check
every result line against `expected.json` and print, as the last line,
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.

`--calibrate` regenerates `expected.json` from a large-budget run of
every workload.
"""

import argparse
import fcntl
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

THREADS = min(4, len(os.sched_getaffinity(0)))
SETUP_REPS = 9
SETUP_BLOCK_S = 0.05
MIN_BATCHES = 3
# Width of the Wilson interval an observed logical-error count must put
# around the calibrated rate. A 99% interval (z = 2.58) would fail about
# one seed in ten on a batch of ten Monte-Carlo requests; z = 5 fails
# about one request in two million, yet a decoder that is off by tens of
# percent still fails every d >= 5 request.
WILSON_Z = 5.0
CALIBRATION_SEED = 987654321
COMPILE_KEYS = ("round_time_us", "movement_ops_per_round", "num_traps_used")


# ------------------------------------------------------------- workloads

def _mc_sweep():
    base = dict(family="rotated", distance=5, topology="grid", capacity=2,
                shots=262144, target_errors=0)
    variants = [
        ("mem_d3", dict(distance=3)),
        ("mem_d5", {}),
        ("mem_d7", dict(distance=7)),
        ("mem_d5_switch", dict(topology="switch")),
        ("mem_d5_c3", dict(capacity=3)),
        ("mem_d5_wise", dict(wiring="wise")),
        ("mem_d5_5x", dict(improvement=5)),
        ("surg_xx_d5", dict(family="merged_xx", workload="surgery")),
    ]
    return [dict(base, **extra, label=label) for label, extra in variants]


def _compile_sweep():
    requests = []
    for improvement in (1, 5):
        for d in (3, 5, 7, 9):
            for topology in ("linear", "grid", "switch"):
                for capacity in (2, 3, 5, 12, 20):
                    for wiring in ("standard", "wise"):
                        requests.append(dict(
                            family="rotated", distance=d, topology=topology,
                            capacity=capacity, wiring=wiring,
                            improvement=improvement, compile_only=1,
                            label=f"d{d}_{topology}_c{capacity}_{wiring}_"
                                  f"{improvement}x"))
    for d in (11, 13, 15, 17):
        for topology in ("grid", "switch"):
            for capacity in (2, 5):
                requests.append(dict(
                    family="rotated", distance=d, topology=topology,
                    capacity=capacity, compile_rounds=d, compile_only=1,
                    validate=1, label=f"block_d{d}_{topology}_c{capacity}"))
    # One small Monte-Carlo request keeps mc_shots_per_s defined (never
    # zero) on this workload without making it sampling-bound.
    requests.append(dict(family="rotated", distance=3, topology="grid",
                         capacity=2, shots=4096, target_errors=0,
                         label="mc_probe_d3"))
    return requests


def _store_warm():
    # Certification (about 3 s for surgery_xx d=5 alone) dominates the
    # warm replay: it is the work a warm run still repeats because
    # certificates are not stored. The shots=0 requests add DEM-heavy
    # artifacts to the store's load path and to the cold set-up pass.
    certified = dict(topology="grid", capacity=2, shots=4096,
                     target_errors=0, validate=1, certify=1)
    requests = []
    for d in (3, 5):
        requests += [
            dict(certified, family="rotated", distance=d, workload="memory",
                 label=f"mem_d{d}"),
            dict(certified, family="merged_zz", distance=d,
                 workload="stability", label=f"stab_d{d}"),
            dict(certified, family="merged_xx", distance=d,
                 workload="surgery", label=f"surg_xx_d{d}"),
        ]
    for program in ("single_merge", "cnot", "bell"):
        requests.append(dict(certified, workload="program", program=program,
                             distance=3, label=f"{program}_d3"))
    dem_only = dict(topology="grid", capacity=2, shots=0)
    return requests + [
        dict(dem_only, family="rotated", distance=7, label="mem_d7"),
        dict(dem_only, family="rotated", distance=9, label="mem_d9"),
        dict(dem_only, family="merged_xx", distance=7, workload="surgery",
             label="surg_xx_d7"),
        dict(dem_only, workload="program", program="cnot", distance=5,
             label="cnot_d5"),
    ]


WORKLOADS = {
    "mc_sweep": _mc_sweep,
    "compile_sweep": _compile_sweep,
    "store_warm": _store_warm,
}
STORE_WORKLOADS = {"store_warm"}


def render(requests, seed, workload):
    """Request-file text: every request gets a `seed=` drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    lines = [f"# {workload}, seed {seed}"]
    for request in requests:
        fields = dict(request, seed=rng.randrange(1, 2**31))
        lines.append(" ".join(f"{k}={v}" for k, v in fields.items()))
    return "\n".join(lines) + "\n"


def populate_text(requests):
    """The store-filling pass of a request set: the same candidates with
    no Monte Carlo, validation or certification (none of which the
    store keys depend on)."""
    skip = {"shots", "target_errors", "validate", "certify"}
    return "\n".join(
        " ".join(f"{k}={v}" for k, v in r.items() if k not in skip)
        + " shots=0" for r in requests) + "\n"


# ----------------------------------------------------------------- build

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tiqec sources under {ROOT}")
    cmake_dir = build_dir / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "tiqec_sweep_service", "perfbench_trace",
                      "-j", str(len(os.sched_getaffinity(0)))])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return (cmake_dir / "tiqec" / "tiqec_sweep_service",
            cmake_dir / "perfbench_trace")


# --------------------------------------------------------------- running

def run_process(args):
    """Runs `args` to exit; returns (exit code, stdout, wall s, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage


def run_service(exe, requests, output, threads, store=None):
    args = [exe, requests, output, "--threads", threads]
    if store is not None:
        args += ["--store", store]
    code, out, wall, usage = run_process(args)
    if code not in (0, 1):
        fail(f"tiqec_sweep_service exited with {code}")
    summary = json.loads(out.strip().splitlines()[-1])
    with open(output) as f:
        lines = f.read().splitlines()
    return dict(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, summary=summary,
                lines=lines)


def wilson(k, n, z):
    p = k / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def check_lines(lines, expected, requests):
    """Failure messages, one per request that fails the output check."""
    if len(lines) != len(requests):
        return [f"{len(lines)} result lines for {len(requests)} requests"]
    failures = []
    for line, request in zip(lines, requests):
        result = json.loads(line)
        label = request["label"]
        want = expected.get(label)
        if want is None:
            failures.append(f"{label}: no committed expectation")
        elif not result.get("ok"):
            failures.append(f"{label}: {result.get('error')}")
        elif any(result.get(k) != want[k] for k in COMPILE_KEYS):
            got = {k: result.get(k) for k in COMPILE_KEYS}
            failures.append(f"{label}: compile metrics {got} != "
                            f"{ {k: want[k] for k in COMPILE_KEYS} }")
        elif "ler" in want:
            lo, hi = wilson(result["logical_errors"], result["shots"],
                            WILSON_Z)
            if not lo <= want["ler"] <= hi:
                failures.append(
                    f"{label}: {result['logical_errors']}/{result['shots']} "
                    f"logical errors, calibrated rate {want['ler']:.6g} "
                    f"outside [{lo:.6g}, {hi:.6g}]")
    return failures


class Run:
    """One benchmark run's working files, removed when it ends."""

    def __init__(self, build_dir, workload, seed):
        self.dir = build_dir / "runs" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.workload = workload
        self.seed = seed
        self.requests = WORKLOADS[workload]()
        self.request_path = self.dir / "requests.txt"
        self.populate_path = self.dir / "populate.txt"

    def path(self, name):
        return self.dir / name

    def setup(self, service):
        """Generates the request file (and fills a fresh store for a store
        workload)."""
        self.request_path.write_text(
            render(self.requests, self.seed, self.workload))
        if self.workload in STORE_WORKLOADS:
            self.populate_path.write_text(populate_text(self.requests))
            store = self.store()
            shutil.rmtree(store, ignore_errors=True)
            result = run_service(service, self.populate_path,
                                 self.path("populate.jsonl"), THREADS, store)
            if result["summary"]["ok"] != len(self.requests):
                fail("store-populating pass failed")

    def store(self):
        return self.path("store") if self.workload in STORE_WORKLOADS else None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ------------------------------------------------------ end-to-end mode

def tail_percentile(values):
    """The highest whole percentile with at least ten samples above it,
    as (percentile, value), or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def time_setup(run, service):
    """Median seconds per set-up over SETUP_REPS samples. Each sample
    averages back-to-back set-ups over at least SETUP_BLOCK_S, so a
    sub-millisecond request generation is not lost in timer jitter."""
    samples = []
    for _ in range(SETUP_REPS):
        count = 0
        start = time.perf_counter()
        while count == 0 or time.perf_counter() - start < SETUP_BLOCK_S:
            run.setup(service)
            count += 1
        samples.append((time.perf_counter() - start) / count)
    return statistics.median(samples)


def end_to_end(run, service, seconds, expected):
    setup_s = time_setup(run, service)
    batches = []
    failed = 0
    first_lines = None
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        result = run_service(service, run.request_path,
                             run.path("results.jsonl"), THREADS, run.store())
        batches.append(result)
        failures = check_lines(result["lines"], expected, run.requests)
        if first_lines is None:
            first_lines = result["lines"]
        elif result["lines"] != first_lines:
            failures.append("result lines differ from the first batch")
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        failed += min(len(failures), len(run.requests))

    walls = [b["wall"] for b in batches]
    shots = sum(json.loads(line).get("shots", 0) for line in first_lines)
    attempted = len(batches) * len(run.requests)
    print(f"{run.workload}: {len(batches)} batches of {len(run.requests)} "
          f"requests, {THREADS} threads; batch wall s min/median/max "
          f"{min(walls):.4f}/{statistics.median(walls):.4f}/"
          f"{max(walls):.4f}")
    tail = tail_percentile(walls)
    print(f"batch_wall_s p{tail[0]} = {tail[1]} s" if tail else
          f"batch_wall_s: no percentile has ten of the {len(walls)} "
          "batches above it; the run-to-run spread is the tail")
    print(f"failed_fraction = {failed / attempted} ({failed} of "
          f"{attempted} requests)")
    metrics = {
        "batch_wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(b["cpu"] for b in batches), "s"),
        "peak_rss_mb": (statistics.median(b["rss_mb"] for b in batches),
                        "MB"),
        "mc_shots_per_s": (statistics.median(shots / w for w in walls),
                           "1/s"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, attempted, failed


# ---------------------------------------------------------- traced mode

LAYERS = ("compiler", "noise", "sim", "decoder", "analysis", "store")


def ledger(events, workload, service_1t):
    """Per-layer metrics from the trace's spans (see README.md).

    Everything is taken from the measured pass (trace ids
    `<workload>/<index>`), except the store's persist time and bytes,
    which a store workload pays in its set-up pass
    (`<workload>.setup/<index>`). Spans marked `extra` (the plain-decoder
    probe) are work the service does not do: they feed only
    `decoder.decode_plain_ms` and `decoder.correlated_over_plain`.
    """
    def in_pass(name):
        return [e for e in events
                if e["args"]["trace_id"].startswith(name + "/")]

    measured = in_pass(workload)
    setup = in_pass(workload + ".setup")
    plain = [e for e in measured if e["args"]["extra"]]
    stages = [e for e in measured
              if e["cat"] != "core" and not e["args"]["extra"]]
    requests = [e for e in measured if e["name"] == "request"]

    def named(name, spans=stages):
        return [e for e in spans if e["name"] == name]

    def ms(spans):
        return sum(e["dur"] for e in spans) / 1000.0

    def max_ms(spans):
        return max((e["dur"] for e in spans), default=0.0) / 1000.0

    def total(name, arg):
        return sum(e["args"][arg] for e in named(name))

    # A layer's self time is its spans' time: stage spans have no
    # children. The request span's self time is the core layer's.
    extra_ms = ms(plain)
    trace_total = ms(requests) - extra_ms
    self_ms = {layer: ms([e for e in stages if e["cat"] == layer])
               for layer in LAYERS}
    stage_ms = sum(self_ms.values())

    summary = service_1t["summary"]
    wall_1t_ms = service_1t["wall"] * 1000.0
    sampled = total("sample", "shots")
    decoded = total("decode", "decoded_shots")
    decode_ms = ms(named("decode"))
    plain_ms = ms(named("decode_plain", plain))
    loads = [e for e in stages if e["cat"] == "store" and "hit" in e["args"]]
    hits = sum(e["args"]["hit"] for e in loads)
    persists = [e for e in setup + stages
                if e["cat"] == "store" and "bytes" in e["args"]]
    compiles_1t = summary["compiles"]
    unique_compile_keys = len({
        e["args"]["key"] for e in stages
        if e["name"] in ("compile", "compile_load")})
    certify = named("certify")
    return {
        "compiler.compile_ms": (ms(named("compile")), "ms"),
        "compiler.compile_max_ms": (max_ms(named("compile")), "ms"),
        "compiler.compiles": (len(named("compile")), "count"),
        "compiler.scheduled_ops": (total("compile", "scheduled_ops"),
                                   "count"),
        "noise.annotate_ms": (ms(named("annotate")), "ms"),
        "sim.experiment_ms": (ms(named("experiment")), "ms"),
        "sim.dem_ms": (ms(named("dem")), "ms"),
        "sim.dem_detectors": (total("dem", "detectors"), "count"),
        "sim.dem_edges": (total("dem", "edges"), "count"),
        "sim.dem_hyperedges": (total("dem", "hyperedges"), "count"),
        "sim.sample_ms": (ms(named("sample")), "ms"),
        "sim.sampled_shots": (sampled, "count"),
        "decoder.build_ms": (ms(named("decoder_build")), "ms"),
        "decoder.decode_ms": (decode_ms, "ms"),
        "decoder.decode_plain_ms": (plain_ms, "ms"),
        "decoder.decoded_shots": (decoded, "count"),
        "decoder.nontrivial_fraction": (decoded / sampled if sampled else 0.0,
                                        "ratio"),
        "decoder.us_per_decoded_shot": (
            decode_ms * 1000.0 / decoded if decoded else 0.0, "us"),
        "decoder.correlated_over_plain": (
            decode_ms / plain_ms if plain_ms else 0.0, "ratio"),
        "analysis.validate_compile_ms": (ms(named("validate_compile")), "ms"),
        "analysis.validate_sim_ms": (ms(named("validate_sim")), "ms"),
        "analysis.certify_ms": (ms(certify), "ms"),
        "analysis.certify_max_ms": (max_ms(certify), "ms"),
        "analysis.certify_searched_weight": (
            max((e["args"]["searched_weight"] for e in certify), default=0),
            "count"),
        "analysis.certify_failures": (total("certify", "failed"), "count"),
        "store.load_ms": (ms(loads), "ms"),
        "store.persist_ms": (ms(persists), "ms"),
        "store.hits": (hits, "count"),
        "store.misses": (len(loads) - hits, "count"),
        "store.bytes_written": (sum(e["args"]["bytes"] for e in persists),
                                "B"),
        "core.compiles": (compiles_1t, "count"),
        "core.annotates": (summary["annotates"], "count"),
        "core.sim_builds": (summary["sim_builds"], "count"),
        "core.validations": (summary["validations"], "count"),
        "core.certifies": (summary["certifies"], "count"),
        "core.compile_useful_ratio": (
            unique_compile_keys / compiles_1t if compiles_1t else 1.0,
            "ratio"),
        "core.batch_wall_1t_ms": (wall_1t_ms, "ms"),
        "core.overhead_ms": (wall_1t_ms - stage_ms, "ms"),
        **{f"{layer}.share": (self_ms[layer] / trace_total, "ratio")
           for layer in LAYERS},
        "core.share": ((trace_total - stage_ms) / trace_total, "ratio"),
        "trace.total_ms": (trace_total, "ms"),
        "trace.overhead_ratio": (trace_total / wall_1t_ms, "ratio"),
    }


def traced(run, service, tracer, build_dir, seconds, expected):
    run.setup(service)
    # The untraced 1-thread reference is replayed until `seconds` have
    # passed; its median wall is the base of core.overhead_ms and
    # trace.overhead_ratio.
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        service_1t = run_service(service, run.request_path,
                                 run.path("results_1t.jsonl"), 1, run.store())
        walls.append(service_1t["wall"])
    service_1t["wall"] = statistics.median(walls)
    failures = check_lines(service_1t["lines"], expected, run.requests)

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{run.workload}-seed{run.seed}.json"
    args = [tracer, "--trace", trace_path, "--results",
            run.path("traced.jsonl")]
    if run.workload in STORE_WORKLOADS:
        # The traced run fills its own store in a set-up pass, as the
        # end-to-end set-up does, then replays against it.
        args += ["--store", run.path("traced_store"),
                 f"{run.workload}.setup={run.populate_path}"]
    args.append(f"{run.workload}={run.request_path}")
    code, _, _, _ = run_process(args)
    if code != 0:
        fail(f"perfbench_trace exited with {code}")

    # Traced-vs-untraced agreement: the trace must have computed what
    # the service did, request by request. `ok` carries the
    # certification verdict: a certify failure fails the request.
    traced_lines = [
        json.loads(line)
        for line in run.path("traced.jsonl").read_text().splitlines()]
    traced_lines = [r for r in traced_lines
                    if r["trace_id"].startswith(run.workload + "/")]
    keys = ("ok",) + COMPILE_KEYS + ("logical_errors",)
    for service_line, mine in zip(service_1t["lines"], traced_lines):
        theirs = json.loads(service_line)
        if any(theirs.get(k) != mine.get(k) for k in keys):
            failures.append(f"{mine['label']}: traced "
                            f"{ {k: mine.get(k) for k in keys} } != service "
                            f"{ {k: theirs.get(k) for k in keys} }")
    if len(traced_lines) != len(service_1t["lines"]):
        failures.append("traced run covered a different request count")
    if run.workload in STORE_WORKLOADS and service_1t["summary"]["compiles"]:
        failures.append("warm replay compiled")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    events = json.loads(trace_path.read_text())["traceEvents"]
    metrics = ledger(events, run.workload, service_1t)
    ledger_path = trace_path.with_suffix(".ledger.json")
    ledger_path.write_text(json.dumps(
        {name: {"value": value, "unit": unit}
         for name, (value, unit) in metrics.items()}, indent=1) + "\n")
    print(f"{run.workload}: traced {len(traced_lines)} requests on one "
          f"thread against {len(walls)} untraced 1-thread batches; trace "
          f"written to {trace_path}, ledger to {ledger_path}")
    return metrics, len(run.requests), min(len(failures), len(run.requests))


# ------------------------------------------------------------ calibrate

def calibrate(service, build_dir):
    """Rewrites expected.json: compile metrics per request, and each
    Monte-Carlo request's logical-error rate over a large budget."""
    expected = {}
    run = None
    for workload, make in WORKLOADS.items():
        run = Run(build_dir, workload, CALIBRATION_SEED)
        try:
            requests = make()
            factor = 16 if workload == "mc_sweep" else 64
            big = [dict((k, v) for k, v in r.items()
                        if k not in ("validate", "certify")) for r in requests]
            for r in big:
                if r.get("shots", 0) > 0:
                    r["shots"] *= factor
            run.request_path.write_text(render(big, CALIBRATION_SEED,
                                               workload))
            result = run_service(service, run.request_path,
                                 run.path("calibrate.jsonl"), THREADS)
            table = {}
            for line, request in zip(result["lines"], requests):
                r = json.loads(line)
                if not r["ok"]:
                    fail(f"calibration: {request['label']}: {r['error']}")
                entry = {k: r[k] for k in COMPILE_KEYS}
                if r.get("shots", 0) > 0:
                    entry["ler"] = r["logical_errors"] / r["shots"]
                    entry["ler_shots"] = r["shots"]
                table[request["label"]] = entry
            expected[workload] = table
            print(f"calibrated {workload}: {len(table)} requests in "
                  f"{result['wall']:.1f} s", file=sys.stderr)
        finally:
            run.close()
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    if not args.calibrate and args.workload is None:
        parser.error("--workload is required")

    build_dir = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    service, tracer = build(build_dir)
    if args.calibrate:
        calibrate(service, build_dir)
        return
    if not EXPECTED_PATH.is_file():
        fail(f"missing {EXPECTED_PATH}; run with --calibrate")
    expected = json.loads(EXPECTED_PATH.read_text())[args.workload]

    run = Run(build_dir, args.workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, failed = traced(run, service, tracer,
                                                build_dir, args.seconds,
                                                expected)
        else:
            metrics, attempted, failed = end_to_end(run, service,
                                                    args.seconds, expected)
    finally:
        run.close()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"output check: {'PASS' if failed == 0 else 'FAIL'} "
          f"({failed} of {attempted} request results failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
