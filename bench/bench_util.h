/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries: aligned
 * table printing, logical-error-rate sweeps (routed through the cached
 * parallel sweep engine), and the sweep-engine bench mode that pins the
 * engine's serial-equivalence and speedup claims.
 *
 * Every binary regenerates one table or figure from the paper's
 * evaluation (§7); the printed rows mirror the paper's and EXPERIMENTS.md
 * records the paper-vs-measured comparison.
 */
#ifndef TIQEC_BENCH_BENCH_UTIL_H
#define TIQEC_BENCH_BENCH_UTIL_H

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/json.h"
#include "core/projection.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/code.h"
#include "store/keys.h"

namespace tiqec::bench {

/** Prints a horizontal rule sized to `width`. */
inline void
Rule(int width)
{
    for (int i = 0; i < width; ++i) {
        std::putchar('-');
    }
    std::putchar('\n');
}

/** Formats a double as "NaN" when invalid (the paper's failed cells). */
inline std::string
NumOrNan(double value, bool ok, const char* fmt = "%.0f")
{
    if (!ok) {
        return "NaN";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

/** LER sweep over code distances for one architecture. */
struct LerSweep
{
    std::vector<int> distances;
    std::vector<double> ler_per_shot;
    std::vector<double> ler_per_round;
    std::vector<double> round_time;
    std::vector<std::int64_t> errors;

    /** Statistically usable points only: at least `min_errors` observed
     *  logical failures (undersampled points flatten the fit). */
    core::LerProjection
    ProjectPerRound(std::int64_t min_errors = 10) const
    {
        std::vector<int> ds;
        std::vector<double> ys;
        for (size_t i = 0; i < distances.size(); ++i) {
            if (errors[i] >= min_errors) {
                ds.push_back(distances[i]);
                ys.push_back(ler_per_round[i]);
            }
        }
        return core::LerProjection(ds, ys);
    }
};

/**
 * Monte-Carlo worker threads for the bench drivers: `TIQEC_THREADS` if
 * set to a positive integer, else 0 (= hardware concurrency). The sharded
 * sampler guarantees identical figures for every value; the knob only
 * trades wall-clock. Garbage, negative, or zero values are rejected with
 * a warning instead of silently becoming 0 threads (std::atoi turned
 * `TIQEC_THREADS=abc` into 0 and let negatives straight through).
 */
inline int
MonteCarloThreads()
{
    const char* env = std::getenv("TIQEC_THREADS");
    if (!env) {
        return 0;
    }
    int parsed = 0;
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec != std::errc() || ptr != end || parsed <= 0) {
        std::fprintf(stderr,
                     "warning: TIQEC_THREADS=\"%s\" is not a positive "
                     "integer; falling back to hardware concurrency\n",
                     env);
        return 0;
    }
    return parsed;
}

/** The distance sweep as sweep-engine candidates (one per distance,
 *  seeded `seed + d` exactly as the historical serial loop). */
inline std::vector<core::SweepCandidate>
LerSweepCandidates(const std::string& family,
                   const std::vector<int>& distances,
                   const core::ArchitectureConfig& arch,
                   std::int64_t max_shots, std::int64_t target_errors,
                   std::uint64_t seed)
{
    std::vector<core::SweepCandidate> candidates;
    candidates.reserve(distances.size());
    for (const int d : distances) {
        core::SweepCandidate c;
        c.code = qec::MakeCode(family, d);
        c.arch = arch;
        c.options.max_shots = max_shots;
        c.options.target_logical_errors = target_errors;
        c.options.seed = seed + d;
        c.label = family + "_d" + std::to_string(d);
        candidates.push_back(std::move(c));
    }
    return candidates;
}

inline LerSweep
RunLerSweep(const std::string& family, const std::vector<int>& distances,
            const core::ArchitectureConfig& arch, std::int64_t max_shots,
            std::int64_t target_errors = 100, std::uint64_t seed = 0x5EED,
            int num_threads = -1)
{
    core::SweepRunnerOptions sopts;
    sopts.num_threads =
        num_threads >= 0 ? num_threads : MonteCarloThreads();
    const std::vector<core::Metrics> metrics =
        core::SweepRunner(sopts).Run(LerSweepCandidates(
            family, distances, arch, max_shots, target_errors, seed));

    LerSweep sweep;
    for (size_t i = 0; i < distances.size(); ++i) {
        const core::Metrics& m = metrics[i];
        if (!m.ok) {
            continue;
        }
        sweep.distances.push_back(distances[i]);
        sweep.ler_per_shot.push_back(m.ler_per_shot.rate);
        sweep.ler_per_round.push_back(m.ler_per_round);
        sweep.round_time.push_back(m.round_time);
        sweep.errors.push_back(m.logical_errors);
    }
    return sweep;
}

/** Field-exact Metrics comparison (doubles compared bit-for-bit): the
 *  sweep engine's contract is *bit*-identity with the serial loop, not
 *  closeness. Covers the per-observable breakdown and the DEM
 *  decomposition diagnostics alongside the combined figures. */
inline bool
MetricsBitIdentical(const core::Metrics& a, const core::Metrics& b)
{
    auto same_double = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    auto same_estimate = [&](const BinomialEstimate& x,
                             const BinomialEstimate& y) {
        return same_double(x.rate, y.rate) && same_double(x.low, y.low) &&
               same_double(x.high, y.high);
    };
    if (a.per_observable_errors != b.per_observable_errors ||
        a.per_observable_ler.size() != b.per_observable_ler.size()) {
        return false;
    }
    for (size_t o = 0; o < a.per_observable_ler.size(); ++o) {
        if (!same_estimate(a.per_observable_ler[o],
                           b.per_observable_ler[o])) {
            return false;
        }
    }
    return a.ok == b.ok && a.error == b.error &&
           same_double(a.round_time, b.round_time) &&
           same_double(a.shot_time, b.shot_time) &&
           a.movement_ops_per_round == b.movement_ops_per_round &&
           same_double(a.movement_time_per_round,
                       b.movement_time_per_round) &&
           a.num_traps_used == b.num_traps_used &&
           same_double(a.mean_two_qubit_error, b.mean_two_qubit_error) &&
           same_double(a.max_two_qubit_error, b.max_two_qubit_error) &&
           same_double(a.idle_dephasing_data_qubit,
                       b.idle_dephasing_data_qubit) &&
           a.shots == b.shots && a.logical_errors == b.logical_errors &&
           same_estimate(a.ler_per_shot, b.ler_per_shot) &&
           same_double(a.ler_per_round, b.ler_per_round) &&
           a.dem_hyperedges == b.dem_hyperedges &&
           a.dem_undecomposable == b.dem_undecomposable &&
           same_double(a.dem_dropped_probability,
                       b.dem_dropped_probability) &&
           same_double(a.dem_undecomposable_probability,
                       b.dem_undecomposable_probability);
}

/** JSON emitter for machine-readable bench snapshots (`BENCH_decode.json`,
 *  `BENCH_surgery.json`) — now the shared locale-independent
 *  `common::JsonRecord` (doubles via std::to_chars; the old snprintf
 *  "%.17g" emitted "1,5" under comma-decimal locales and produced
 *  invalid JSON). One document per bench binary:
 *
 *   { "bench": ..., "toolchain": {...}, "results": [ {record}, ... ] }
 */
using JsonRecord = common::JsonRecord;

/** The toolchain record every bench snapshot carries: compiler banner,
 *  language standard, build type, and the source-tree fingerprint the
 *  artifact store keys by (store/keys.h) — the snapshot states exactly
 *  what produced it. */
inline JsonRecord
ToolchainRecord()
{
    JsonRecord toolchain;
    toolchain.Add("compiler", __VERSION__);
    toolchain.Add("cplusplus", static_cast<std::int64_t>(__cplusplus));
#ifdef NDEBUG
    toolchain.Add("build_type", "release");
#else
    toolchain.Add("build_type", "debug");
#endif
    toolchain.Add("source_fingerprint", store::SourceFingerprint());
    return toolchain;
}

/** Writes `{ "bench": name, "toolchain": {...}, "results": [...] }` to
 *  `path`. Returns false (with a stderr warning) if the file cannot be
 *  written; benches treat the snapshot as best-effort output. The write
 *  is atomic (temp file + checked close + rename), so a full disk or a
 *  crash mid-write can no longer pass off a truncated snapshot as a
 *  valid one — the old fopen/fprintf/fclose path never checked any of
 *  its I/O and always reported success. */
inline bool
WriteBenchJson(const std::string& path, const std::string& bench_name,
               const std::vector<JsonRecord>& results)
{
    std::string doc = "{\"bench\":\"" + JsonRecord::Escape(bench_name) +
                      "\",\"toolchain\":{" + ToolchainRecord().body() +
                      "},\"results\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        if (i > 0) {
            doc += ",";
        }
        doc += "{" + results[i].body() + "}";
    }
    doc += "]}\n";
    std::string error;
    if (!common::AtomicWriteFile(path, doc, &error)) {
        std::fprintf(stderr, "warning: cannot write %s: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    std::printf("wrote %s (%zu records)\n", path.c_str(), results.size());
    return true;
}

/** Strips every occurrence of `flag` from argv and reports whether it
 *  was present. The figure drivers call this before
 *  `benchmark::Initialize` so the shared `--smoke` flag never reaches
 *  Google Benchmark's parser. */
inline bool
StripFlag(int* argc, char** argv, const char* flag)
{
    bool found = false;
    int w = 1;
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            found = true;
        } else {
            argv[w++] = argv[i];
        }
    }
    *argc = w;
    return found;
}

/** Flattens the sweep-metrics fields shared by the figure drivers into
 *  `r`, after the caller's config keys so records stay grep-able by
 *  config first. Failed candidates record ok=false plus the error text;
 *  Monte-Carlo fields appear only when shots were actually run. */
inline void
AddMetrics(JsonRecord& r, const core::Metrics& m)
{
    r.Add("ok", m.ok);
    if (!m.ok) {
        r.Add("error", m.error);
        return;
    }
    r.Add("round_time_us", m.round_time);
    r.Add("shot_time_us", m.shot_time);
    r.Add("movement_ops_per_round", m.movement_ops_per_round);
    r.Add("movement_time_per_round_us", m.movement_time_per_round);
    r.Add("num_traps_used", m.num_traps_used);
    if (m.shots > 0) {
        r.Add("shots", m.shots);
        r.Add("logical_errors", m.logical_errors);
        r.Add("ler_per_shot", m.ler_per_shot.rate);
        r.Add("ler_per_round", m.ler_per_round);
    }
}

/** Outcome of `RunSweepEngineBench`. */
struct SweepEngineBenchResult
{
    int num_candidates = 0;
    bool bit_identical = false;
    double serial_seconds = 0.0;
    double sweep_seconds = 0.0;

    double
    speedup() const
    {
        return sweep_seconds > 0.0 ? serial_seconds / sweep_seconds : 0.0;
    }
};

/**
 * Sweep-engine bench mode: the Figure 9 capacity sweep — (trap capacity
 * x code distance) on the grid at 5X, replicated across
 * `seeds_per_point` Monte-Carlo seeds the way a threshold scan
 * replicates points — run once as one runner call per candidate
 * (`core::Evaluate`, nothing shared between candidates) and once as a
 * single `core::SweepRunner` batch, both on `num_threads` threads.
 * Verifies that no candidate's metrics depend on the batch it runs in
 * and reports both wall-clocks; the batch's edge is the keyed artifact
 * cache (per-candidate runs recompile, re-annotate, and rebuild the DEM
 * for every seed replica) plus cross-candidate shard interleaving.
 */
inline SweepEngineBenchResult
RunSweepEngineBench(int num_threads, std::int64_t max_shots = 1 << 12,
                    int seeds_per_point = 6)
{
    const std::vector<int> capacities = {2, 3, 5};
    const std::vector<int> distances = {3, 5};
    std::vector<core::SweepCandidate> candidates;
    for (const int d : distances) {
        const std::shared_ptr<const qec::StabilizerCode> code =
            qec::MakeCode("rotated", d);
        for (const int cap : capacities) {
            for (int s = 0; s < seeds_per_point; ++s) {
                core::SweepCandidate c;
                c.code = code;
                c.arch.topology = qccd::TopologyKind::kGrid;
                c.arch.trap_capacity = cap;
                c.arch.gate_improvement = 5.0;
                c.options.max_shots = max_shots;
                // No early stop: a fixed budget keeps the two runs'
                // work identical, so the comparison is pure overhead.
                c.options.target_logical_errors = 0;
                c.options.seed = 0x5EED + static_cast<std::uint64_t>(s);
                c.label = "cap" + std::to_string(cap) + "_d" +
                          std::to_string(d) + "_s" + std::to_string(s);
                candidates.push_back(std::move(c));
            }
        }
    }

    SweepEngineBenchResult result;
    result.num_candidates = static_cast<int>(candidates.size());
    using clock = std::chrono::steady_clock;

    std::vector<core::Metrics> serial;
    serial.reserve(candidates.size());
    const auto serial_begin = clock::now();
    for (const core::SweepCandidate& c : candidates) {
        core::EvaluationOptions opts = c.options;
        opts.num_threads = num_threads;
        serial.push_back(core::Evaluate(*c.code, c.arch, opts));
    }
    const auto serial_end = clock::now();

    core::SweepRunnerOptions sopts;
    sopts.num_threads = num_threads;
    const auto sweep_begin = clock::now();
    const std::vector<core::Metrics> swept =
        core::SweepRunner(sopts).Run(candidates);
    const auto sweep_end = clock::now();

    result.serial_seconds =
        std::chrono::duration<double>(serial_end - serial_begin).count();
    result.sweep_seconds =
        std::chrono::duration<double>(sweep_end - sweep_begin).count();
    result.bit_identical = serial.size() == swept.size();
    for (size_t i = 0; result.bit_identical && i < serial.size(); ++i) {
        result.bit_identical = MetricsBitIdentical(serial[i], swept[i]);
    }
    return result;
}

/** Prints the `RunSweepEngineBench` verdict in bench-table style. */
inline void
PrintSweepEngineBench(int num_threads)
{
    std::printf("\n=== Sweep engine: fig9 capacity sweep, one run per "
                "candidate vs one batch (%d threads) ===\n",
                num_threads);
    const SweepEngineBenchResult r = RunSweepEngineBench(num_threads);
    std::printf("%d candidates: per candidate %.3f s, batch %.3f s -> "
                "%.2fx; bit-identical: %s\n",
                r.num_candidates, r.serial_seconds, r.sweep_seconds,
                r.speedup(), r.bit_identical ? "yes" : "NO");
}

}  // namespace tiqec::bench

#endif  // TIQEC_BENCH_BENCH_UTIL_H
