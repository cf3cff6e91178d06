/**
 * @file
 * Reproduces paper Figure 9: QEC shot time (five parity-check rounds) as
 * a function of trap capacity and code distance on the grid topology,
 * with the figure's lower bound (full parallelism, no reconfiguration)
 * and upper bound (single fully-serialised chain).
 *
 * Expected shapes (paper §7.3): capacity 2 is near the lower bound and
 * flat in distance; larger capacities grow with distance towards the
 * serialised bound.
 */
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "compiler/bounds.h"
#include "compiler/compiler.h"

namespace {

using namespace tiqec;
using qccd::TimingModel;
using qccd::TopologyKind;

void
PrintFigure9(bool smoke)
{
    const TimingModel timing;
    const int rounds = 5;
    const std::vector<int> capacities =
        smoke ? std::vector<int>{2, 5, 12}
              : std::vector<int>{2, 3, 5, 8, 12, 20, 30};
    const std::vector<int> distances =
        smoke ? std::vector<int>{3, 5} : std::vector<int>{3, 5, 7, 9, 11};

    std::printf("\n=== Figure 9: QEC shot time (us, %d rounds) vs trap "
                "capacity and code distance (grid) ===\n",
                rounds);

    // Multi-round compile-only sweep: every (d, capacity) cell compiles
    // a five-round block; the engine runs them all on one pool.
    std::vector<std::shared_ptr<const qec::StabilizerCode>> codes;
    std::vector<core::SweepCandidate> candidates;
    for (const int d : distances) {
        codes.push_back(qec::MakeCode("rotated", d));
        for (const int cap : capacities) {
            core::SweepCandidate c;
            c.code = codes.back();
            c.arch.topology = TopologyKind::kGrid;
            c.arch.trap_capacity = cap;
            c.options.compile_only = true;
            c.compile_rounds = rounds;
            candidates.push_back(std::move(c));
        }
    }
    core::SweepRunnerOptions sopts;
    sopts.num_threads = tiqec::bench::MonteCarloThreads();
    const std::vector<core::Metrics> metrics =
        core::SweepRunner(sopts).Run(candidates);

    std::printf("%-6s %12s", "d", "lower(us)");
    for (const int cap : capacities) {
        std::printf(" %10s", ("cap" + std::to_string(cap)).c_str());
    }
    std::printf(" %12s\n", "upper(us)");
    tiqec::bench::Rule(32 + 11 * static_cast<int>(capacities.size()));
    size_t cell = 0;
    std::vector<tiqec::bench::JsonRecord> records;
    for (size_t di = 0; di < distances.size(); ++di) {
        const qec::StabilizerCode& code = *codes[di];
        const double lower =
            rounds * compiler::ParallelLowerBoundRoundTime(code, timing);
        const double upper =
            rounds * compiler::SerialUpperBoundRoundTime(code, timing);
        std::printf("%-6d %12.0f", distances[di], lower);
        for (size_t k = 0; k < capacities.size(); ++k) {
            const core::Metrics& m = metrics[cell++];
            // shot_time is the compiled five-round block's makespan.
            std::printf(" %10s",
                        tiqec::bench::NumOrNan(m.shot_time, m.ok).c_str());
            tiqec::bench::JsonRecord r;
            r.Add("distance", distances[di]);
            r.Add("trap_capacity", capacities[k]);
            r.Add("rounds", rounds);
            r.Add("lower_bound_us", lower);
            r.Add("upper_bound_us", upper);
            r.Add("smoke", smoke);
            tiqec::bench::AddMetrics(r, m);
            records.push_back(std::move(r));
        }
        std::printf(" %12.0f\n", upper);
    }
    std::printf("\n(paper: capacity 2 flat and near the lower bound; "
                "larger capacities approach the serialised bound)\n");
    tiqec::bench::WriteBenchJson("BENCH_fig9.json",
                                 "fig9_capacity_shot_time", records);
}

void
BM_FiveRoundCompile(benchmark::State& state)
{
    const int cap = static_cast<int>(state.range(0));
    const qec::RotatedSurfaceCode code(5);
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, TopologyKind::kGrid, cap);
    for (auto _ : state) {
        auto result =
            compiler::CompileParityCheckRounds(code, 5, graph, timing);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_FiveRoundCompile)->Arg(2)->Arg(5)->Arg(12);

}  // namespace

int
main(int argc, char** argv)
{
    // --smoke: trimmed axes + JSON snapshot only (see fig8a).
    const bool smoke = tiqec::bench::StripFlag(&argc, argv, "--smoke");
    PrintFigure9(smoke);
    if (smoke) {
        return 0;
    }
    // Sweep-engine bench mode: one runner call per candidate vs one
    // batch over the fig9 capacity sweep (bit-identity + wall-clock).
    tiqec::bench::PrintSweepEngineBench(8);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
