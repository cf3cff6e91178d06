/**
 * @file
 * Compile-throughput benchmark: rounds-compiled/sec for one parity-check
 * round of the rotated surface code at d=3/5/7/9 on the grid and switch
 * topologies (trap capacity 2, the paper's optimal design point,
 * standard wiring), plus WISE wiring on the linear topology at capacity
 * 2 (d=7 in smoke mode, d=7 and d=9 in the full run), where the
 * scheduler's cross-kind conflict search does the most work — before vs
 * after the router/scheduler hot-path overhaul.
 *
 * "Before" is the pre-overhaul compiler preserved verbatim behind
 * `CompilerOptions::reference_pipeline` (reference router + scheduler +
 * placer, including the original DAG representation); "after" is the
 * default fast pipeline. Both produce byte-identical output — verified
 * here on every measured configuration, and pinned exhaustively by
 * compiler_golden_test — so the ratio is pure implementation speed.
 *
 * Methodology: alternating batches, best-of-N trials per side (standard
 * microbenchmark practice; interleaving cancels thermal/frequency drift).
 *
 * Modes:
 *   (default)   full sweep, ~1 minute
 *   --smoke     trimmed reps for CI under `ctest --timeout`; exits
 *               non-zero only on a bit-identity violation (timing is
 *               reported, not asserted — CI boxes are noisy)
 *
 * This binary intentionally has no Google Benchmark dependency so the
 * smoke mode runs in every CI configuration.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "qec/code.h"

namespace {

using namespace tiqec;
using clk = std::chrono::steady_clock;

bool
SameOp(const qccd::PrimitiveOp& a, const qccd::PrimitiveOp& b)
{
    return a.kind == b.kind && a.ion0 == b.ion0 && a.ion1 == b.ion1 &&
           a.node == b.node && a.segment == b.segment &&
           a.source_gate == b.source_gate && a.pass == b.pass;
}

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Byte-identity of the full compiler output (ops + bitwise times). */
bool
BitIdentical(const compiler::CompilationResult& a,
             const compiler::CompilationResult& b)
{
    if (a.ok != b.ok || a.error != b.error) {
        return false;
    }
    if (!a.ok) {
        return true;
    }
    if (a.routing.ops.size() != b.routing.ops.size() ||
        a.routing.num_passes != b.routing.num_passes ||
        a.routing.num_movement_ops != b.routing.num_movement_ops ||
        a.schedule.ops.size() != b.schedule.ops.size() ||
        !SameDouble(a.schedule.makespan, b.schedule.makespan) ||
        !SameDouble(a.schedule.movement_time, b.schedule.movement_time)) {
        return false;
    }
    for (size_t i = 0; i < a.routing.ops.size(); ++i) {
        if (!SameOp(a.routing.ops[i], b.routing.ops[i])) {
            return false;
        }
    }
    for (size_t i = 0; i < a.schedule.ops.size(); ++i) {
        if (!SameDouble(a.schedule.ops[i].start, b.schedule.ops[i].start) ||
            !SameDouble(a.schedule.ops[i].duration,
                        b.schedule.ops[i].duration)) {
            return false;
        }
    }
    return true;
}

/** Compiler options for one side of a row: the reference or fast
 *  pipeline, under WISE wiring (which implies its cooling) when `wise`. */
compiler::CompilerOptions
OptionsFor(bool wise, bool reference)
{
    compiler::CompilerOptions opts;
    opts.reference_pipeline = reference;
    opts.wise = wise;
    return opts;
}

double
BatchSeconds(const qec::StabilizerCode& code,
             const qccd::DeviceGraph& graph, bool wise, bool reference,
             int reps)
{
    const qccd::TimingModel timing;
    const compiler::CompilerOptions opts = OptionsFor(wise, reference);
    const auto t0 = clk::now();
    for (int i = 0; i < reps; ++i) {
        const auto r =
            compiler::CompileParityCheckRounds(code, 1, graph, timing, opts);
        if (!r.ok) {
            return -1.0;
        }
    }
    return std::chrono::duration<double>(clk::now() - t0).count();
}

struct Config
{
    int distance;
    qccd::TopologyKind topology;
    bool wise;
};

struct Row
{
    Config config;
    double ref_rounds_per_sec;
    double fast_rounds_per_sec;
    bool identical;
};

constexpr int kCapacity = 2;

Row
MeasureOne(const Config& config, bool smoke)
{
    const int distance = config.distance;
    const qec::RotatedSurfaceCode code(distance);
    const auto graph =
        compiler::MakeDeviceFor(code, config.topology, kCapacity);
    const qccd::TimingModel timing;

    Row row{config, 0.0, 0.0, false};

    // Bit-identity first: the ratio is only meaningful for equal output.
    // A configuration that fails to compile at all is a hard failure too
    // (identical brokenness must not keep CI green).
    const auto ref_out = compiler::CompileParityCheckRounds(
        code, 1, graph, timing, OptionsFor(config.wise, true));
    const auto fast_out = compiler::CompileParityCheckRounds(
        code, 1, graph, timing, OptionsFor(config.wise, false));
    if (!ref_out.ok || !fast_out.ok) {
        std::fprintf(stderr, "d=%d %s: compilation failed: %s\n", distance,
                     qccd::TopologyKindName(config.topology).c_str(),
                     (!ref_out.ok ? ref_out.error : fast_out.error).c_str());
        return row;
    }
    row.identical = BitIdentical(ref_out, fast_out);
    if (!row.identical) {
        return row;
    }

    const int base = smoke ? 60 : 2000;
    int reps = distance <= 3   ? base
               : distance == 5 ? base * 3 / 10
               : distance == 7 ? base / 8
                               : base / 16;
    if (config.wise && config.topology == qccd::TopologyKind::kLinear) {
        // A linear WISE round costs about ten grid rounds of equal d; the
        // floor keeps a smoke batch long enough to time.
        reps = std::max(8, reps / 8);
    }
    const int trials = smoke ? 2 : 5;
    const bool wise = config.wise;
    BatchSeconds(code, graph, wise, true, std::max(1, reps / 4));  // warm-up
    BatchSeconds(code, graph, wise, false, std::max(1, reps / 4));
    double best_ref = 1e300;
    double best_fast = 1e300;
    for (int t = 0; t < trials; ++t) {
        const double ref_s = BatchSeconds(code, graph, wise, true, reps);
        const double fast_s = BatchSeconds(code, graph, wise, false, reps);
        if (ref_s < 0.0 || fast_s < 0.0) {
            row.identical = false;  // mid-run compile failure
            return row;
        }
        best_ref = std::min(best_ref, ref_s);
        best_fast = std::min(best_fast, fast_s);
    }
    row.ref_rounds_per_sec = reps / best_ref;
    row.fast_rounds_per_sec = reps / best_fast;
    return row;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    std::printf("=== Compile throughput: one parity-check round, rotated "
                "surface code, capacity 2 ===\n");
    std::printf("=== reference (pre-overhaul) vs overhauled pipeline, "
                "best of %d interleaved trials ===\n\n", smoke ? 2 : 5);
    std::printf("%-4s %-8s %-8s %16s %16s %10s %10s\n", "d", "topology",
                "wiring", "ref rounds/s", "fast rounds/s", "speedup",
                "identical");
    tiqec::bench::Rule(79);

    using tiqec::qccd::TopologyKind;
    // The regression gate compares a smoke run with the committed full
    // run, so the full run measures the smoke WISE row too, and both
    // measure it first: the fast WISE path's speed depends on how warm
    // the allocator is, which the rows before it would change.
    std::vector<Config> configs;
    for (const int d : smoke ? std::vector<int>{7} : std::vector<int>{7, 9}) {
        configs.push_back({d, TopologyKind::kLinear, true});
    }
    for (const int d :
         smoke ? std::vector<int>{3, 7} : std::vector<int>{3, 5, 7, 9}) {
        for (const auto topology :
             {TopologyKind::kGrid, TopologyKind::kSwitch}) {
            configs.push_back({d, topology, false});
        }
    }

    bool all_identical = true;
    std::vector<tiqec::bench::JsonRecord> records;
    for (const Config& config : configs) {
        const Row row = MeasureOne(config, smoke);
        all_identical = all_identical && row.identical;
        const double speedup =
            row.ref_rounds_per_sec > 0.0
                ? row.fast_rounds_per_sec / row.ref_rounds_per_sec
                : 0.0;
        const std::string topology =
            tiqec::qccd::TopologyKindName(config.topology);
        const char* wiring = config.wise ? "wise" : "standard";
        std::printf("%-4d %-8s %-8s %16.0f %16.0f %9.2fx %10s\n",
                    config.distance, topology.c_str(), wiring,
                    row.ref_rounds_per_sec, row.fast_rounds_per_sec,
                    speedup, row.identical ? "yes" : "NO");
        tiqec::bench::JsonRecord r;
        r.Add("distance", config.distance);
        r.Add("topology", topology);
        r.Add("trap_capacity", kCapacity);
        r.Add("wiring", wiring);
        r.Add("metric", "rounds_per_sec");
        r.Add("reference", row.ref_rounds_per_sec);
        r.Add("fast", row.fast_rounds_per_sec);
        // The speedup ratio is the machine-portable figure: the
        // regression gate compares it across hosts, where absolute
        // rounds/sec are not comparable.
        r.Add("speedup", speedup);
        r.Add("identical", row.identical);
        r.Add("best_of", smoke ? 2 : 5);
        r.Add("smoke", smoke);
        records.push_back(std::move(r));
    }
    std::printf("\n(the overhaul targets >= 3x at d=7; output "
                "byte-identity is the hard invariant — timing is "
                "reported, not asserted)\n");
    tiqec::bench::WriteBenchJson("BENCH_compile.json",
                                 "compile_throughput", records);
    return all_identical ? 0 : 1;
}
