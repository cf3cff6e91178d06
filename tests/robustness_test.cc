/**
 * @file
 * Robustness and stress tests across the stack: randomized multi-error
 * decoding checks, repetition-code logical memory, failure injection
 * (degenerate devices, saturated noise), and broader compile sweeps
 * covering rectangular patches and WISE scheduling.
 */
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "core/toolflow.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"

namespace tiqec {
namespace {

using qccd::TimingModel;
using qccd::TopologyKind;

sim::DetectorErrorModel
CompiledDem(const qec::StabilizerCode& code, int rounds, double improvement)
{
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    const auto experiment =
        sim::BuildMemory(code, result.qec_circuit, profile, params, rounds,
                         sim::MemoryBasis::kZ);
    return sim::BuildDem(experiment);
}

TEST(DecoderStressTest, RandomEdgePairsDecodeConsistently)
{
    // Two simultaneous independent error mechanisms: the decoder must
    // predict the XOR of their observable effects whenever their
    // syndromes do not interact (disjoint detector sets with graph
    // distance > 2). Interacting pairs are legitimately ambiguous.
    const qec::RotatedSurfaceCode code(5);
    const auto dem = CompiledDem(code, 5, 10.0);
    decoder::UnionFindDecoder decoder(dem);
    // Detector adjacency for the interaction filter.
    std::vector<std::set<int>> adjacent(dem.num_detectors);
    for (const auto& e : dem.edges) {
        if (e.d1 != sim::DemEdge::kBoundary) {
            adjacent[e.d0].insert(e.d1);
            adjacent[e.d1].insert(e.d0);
        }
    }
    auto interacts = [&](const std::set<int>& a, const std::set<int>& b) {
        for (const int d : a) {
            if (b.count(d)) {
                return true;
            }
            for (const int n : adjacent[d]) {
                if (b.count(n)) {
                    return true;
                }
            }
        }
        return false;
    };
    Rng rng(1234);
    int tested = 0;
    int failures = 0;
    for (int trial = 0; trial < 4000 && tested < 600; ++trial) {
        const auto& e1 = dem.edges[rng.NextBelow(dem.edges.size())];
        const auto& e2 = dem.edges[rng.NextBelow(dem.edges.size())];
        std::set<int> s1 = {e1.d0};
        if (e1.d1 != sim::DemEdge::kBoundary) {
            s1.insert(e1.d1);
        }
        std::set<int> s2 = {e2.d0};
        if (e2.d1 != sim::DemEdge::kBoundary) {
            s2.insert(e2.d1);
        }
        if (interacts(s1, s2)) {
            continue;
        }
        std::vector<int> syndrome(s1.begin(), s1.end());
        syndrome.insert(syndrome.end(), s2.begin(), s2.end());
        std::sort(syndrome.begin(), syndrome.end());
        const std::uint32_t expected = e1.obs_mask ^ e2.obs_mask;
        failures += decoder.Decode(syndrome) != expected ? 1 : 0;
        ++tested;
    }
    ASSERT_GE(tested, 300) << "filter too aggressive";
    // Far-separated pairs must essentially always decode correctly.
    EXPECT_LE(failures, tested / 50)
        << failures << " of " << tested << " disjoint pairs misdecoded";
}

TEST(DecoderStressTest, DecoderNeverCrashesOnRandomSyndromes)
{
    const qec::RotatedSurfaceCode code(3);
    const auto dem = CompiledDem(code, 3, 5.0);
    decoder::UnionFindDecoder decoder(dem);
    Rng rng(99);
    for (int trial = 0; trial < 2000; ++trial) {
        std::set<int> syndrome;
        const int weight = 1 + static_cast<int>(rng.NextBelow(8));
        while (static_cast<int>(syndrome.size()) < weight) {
            syndrome.insert(
                static_cast<int>(rng.NextBelow(dem.num_detectors)));
        }
        const std::vector<int> s(syndrome.begin(), syndrome.end());
        const std::uint32_t obs = decoder.Decode(s);
        EXPECT_LE(obs, 1u);
    }
}

TEST(RepetitionMemoryTest, StrongSuppression)
{
    // The repetition code only fights bit flips, so its memory-Z
    // suppression is much stronger than the surface code's at equal
    // distance - a sanity anchor for the whole pipeline.
    double ler[2] = {0, 0};
    const int dists[2] = {3, 7};
    for (int i = 0; i < 2; ++i) {
        const qec::RepetitionCode code(dists[i]);
        core::ArchitectureConfig arch;
        arch.topology = TopologyKind::kLinear;
        arch.gate_improvement = 5.0;
        core::EvaluationOptions opts;
        opts.max_shots = 1 << 15;
        opts.target_logical_errors = 1 << 30;
        const auto m = core::Evaluate(code, arch, opts);
        ASSERT_TRUE(m.ok) << m.error;
        ler[i] = m.ler_per_shot.rate;
    }
    EXPECT_LT(ler[1], ler[0] + 1e-4);
}

TEST(FailureInjectionTest, SaturatedNoiseStillDecodes)
{
    // Error probabilities near the clamp: nothing crashes and the LER
    // approaches the 50% coin-flip ceiling instead of exceeding it.
    const qec::RotatedSurfaceCode code(3);
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams params;
    params.a0 = 0.3;  // absurdly hot
    params.p_reset = 0.4;
    params.p_measure = 0.4;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    const auto experiment = sim::BuildMemory(
        code, result.qec_circuit, profile, params, 3, sim::MemoryBasis::kZ);
    const auto dem = sim::BuildDem(experiment);
    decoder::UnionFindDecoder decoder(dem);
    sim::FrameSimulator simulator(experiment, 5);
    const auto batch = simulator.Sample(4000);
    int errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted = decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1 : 0)) & 1;
    }
    const double ler = static_cast<double>(errors) / batch.shots();
    EXPECT_GT(ler, 0.2);
    EXPECT_LT(ler, 0.65);
}

TEST(FailureInjectionTest, TinyDeviceRejectedCleanly)
{
    const qec::RotatedSurfaceCode code(5);
    const TimingModel timing;
    const auto graph = qccd::DeviceGraph::MakeGrid(2, 2, 2);
    const auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("too few traps"), std::string::npos);
}

struct SweepCase
{
    int dx;
    int dy;
    TopologyKind topology;
    int capacity;
    bool wise;
};

class ExtendedCompileSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(ExtendedCompileSweep, CompilesValidates)
{
    const SweepCase& c = GetParam();
    const qec::RectangularSurfaceCode code(c.dx, c.dy);
    const TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, c.topology, c.capacity);
    compiler::CompilerOptions options;
    options.wise = c.wise;
    const auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing, options);
    ASSERT_TRUE(result.ok) << result.error;
    qccd::DeviceState state(graph, code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        state.LoadIon(QubitId(q), result.placement.qubit_trap[q]);
    }
    for (const auto& op : result.routing.ops) {
        const auto err = state.TryApply(op);
        ASSERT_FALSE(err.has_value()) << *err;
    }
    EXPECT_TRUE(state.TransportComponentsEmpty());
}

INSTANTIATE_TEST_SUITE_P(
    Rectangles, ExtendedCompileSweep,
    ::testing::Values(
        SweepCase{5, 3, TopologyKind::kGrid, 2, false},
        SweepCase{3, 5, TopologyKind::kGrid, 2, false},
        SweepCase{7, 3, TopologyKind::kGrid, 2, false},
        SweepCase{7, 3, TopologyKind::kGrid, 5, false},
        SweepCase{5, 3, TopologyKind::kSwitch, 2, false},
        SweepCase{5, 3, TopologyKind::kGrid, 2, true},
        SweepCase{3, 3, TopologyKind::kGrid, 2, true},
        SweepCase{3, 3, TopologyKind::kGrid, 12, true},
        SweepCase{4, 6, TopologyKind::kGrid, 3, false},
        // Capacities far above the ion count: the router's slot blocks
        // and the cluster counts must not overflow.
        SweepCase{3, 3, TopologyKind::kGrid, 357913942, false},
        SweepCase{3, 3, TopologyKind::kGrid, 2147483647, false},
        SweepCase{3, 3, TopologyKind::kLinear, 2147483647, false}),
    [](const auto& info) {
        const SweepCase& c = info.param;
        return "dx" + std::to_string(c.dx) + "dy" + std::to_string(c.dy) +
               "_" + qccd::TopologyKindName(c.topology) + "_c" +
               std::to_string(c.capacity) + (c.wise ? "_wise" : "");
    });

}  // namespace
}  // namespace tiqec
