/**
 * @file
 * Tests for the library extensions beyond the paper's headline
 * experiments: rectangular (lattice-surgery) surface-code patches and
 * the memory-X experiment, plus cross-validation properties between the
 * frame simulator and the DEM (sampled detector rates vs summed edge
 * probabilities).
 */
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "core/toolflow.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"

namespace tiqec {
namespace {

/** Symplectic commutation checker shared with qec_code_test. */
int
Overlap(const std::set<int>& a, const std::set<int>& b)
{
    int n = 0;
    for (const int v : a) {
        n += b.count(v) ? 1 : 0;
    }
    return n;
}

class RectangularCodeTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(RectangularCodeTest, CountsAndAlgebra)
{
    const auto [dx, dy] = GetParam();
    const qec::RectangularSurfaceCode code(dx, dy);
    EXPECT_EQ(code.num_data(), dx * dy);
    EXPECT_EQ(code.num_ancillas(), dx * dy - 1);
    EXPECT_EQ(code.distance(), std::min(dx, dy));
    EXPECT_EQ(static_cast<int>(code.logical_z().size()), dx);
    EXPECT_EQ(static_cast<int>(code.logical_x().size()), dy);

    // Pairwise check commutation and logical algebra via symplectic
    // products on the X/Z supports.
    std::vector<std::set<int>> x_supp, z_supp;
    for (const auto& chk : code.checks()) {
        std::set<int> support;
        for (const QubitId q : chk.data_order) {
            if (q.valid()) {
                support.insert(q.value);
            }
        }
        if (chk.type == qec::CheckType::kX) {
            x_supp.push_back(std::move(support));
        } else {
            z_supp.push_back(std::move(support));
        }
    }
    for (const auto& x : x_supp) {
        for (const auto& z : z_supp) {
            EXPECT_EQ(Overlap(x, z) % 2, 0);
        }
    }
    std::set<int> lx(code.logical_x().begin() != code.logical_x().end()
                         ? std::set<int>{}
                         : std::set<int>{});
    for (const QubitId q : code.logical_x()) {
        lx.insert(q.value);
    }
    std::set<int> lz;
    for (const QubitId q : code.logical_z()) {
        lz.insert(q.value);
    }
    for (const auto& z : z_supp) {
        EXPECT_EQ(Overlap(lx, z) % 2, 0) << "X_L anticommutes with Z check";
    }
    for (const auto& x : x_supp) {
        EXPECT_EQ(Overlap(lz, x) % 2, 0) << "Z_L anticommutes with X check";
    }
    EXPECT_EQ(Overlap(lx, lz) % 2, 1) << "X_L and Z_L must anticommute";
}

INSTANTIATE_TEST_SUITE_P(
    Patches, RectangularCodeTest,
    ::testing::Values(std::make_pair(2, 3), std::make_pair(3, 2),
                      std::make_pair(3, 5), std::make_pair(5, 3),
                      std::make_pair(7, 3), std::make_pair(4, 6),
                      std::make_pair(11, 5)),
    [](const auto& info) {
        return "dx" + std::to_string(info.param.first) + "_dy" +
               std::to_string(info.param.second);
    });

TEST(RectangularCodeTest, SquareIsRotatedSurfaceCode)
{
    const qec::RotatedSurfaceCode square(3);
    const qec::RectangularSurfaceCode rect(3, 3);
    EXPECT_EQ(square.name(), "rotated_surface");
    EXPECT_EQ(rect.name(), "rotated_surface");
    EXPECT_EQ(square.num_qubits(), rect.num_qubits());
    EXPECT_EQ(square.checks().size(), rect.checks().size());
}

TEST(RectangularCodeTest, MergedLatticeSurgeryPatchCompiles)
{
    // Paper §8: a lattice-surgery merge of two distance-3 patches is a
    // (2*3+1) x 3 rectangle; its parity-check structure is locally
    // identical, so the capacity-2 grid keeps its constant round time.
    const qec::RectangularSurfaceCode merged(7, 3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(merged, qccd::TopologyKind::kGrid, 2);
    const auto result =
        compiler::CompileParityCheckRounds(merged, 1, graph, timing);
    ASSERT_TRUE(result.ok) << result.error;
    const qec::RotatedSurfaceCode single(3);
    const auto sgraph =
        compiler::MakeDeviceFor(single, qccd::TopologyKind::kGrid, 2);
    const auto sresult =
        compiler::CompileParityCheckRounds(single, 1, sgraph, timing);
    ASSERT_TRUE(sresult.ok);
    EXPECT_LT(result.schedule.makespan,
              1.3 * sresult.schedule.makespan)
        << "merged patch must keep the single-patch round time";
}

// ---------------------------------------------------------------------------
// Memory-X
// ---------------------------------------------------------------------------

TEST(MemoryXTest, NoiselessDeterministic)
{
    const qec::RotatedSurfaceCode code(3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams zero;
    zero.p_reset = 0.0;
    zero.p_measure = 0.0;
    zero.gamma_per_us = 0.0;
    zero.a0 = 0.0;
    zero.t2_us = 1e30;
    const auto profile =
        noise::ProfileRound(code, graph, result, zero, timing);
    const auto experiment = sim::BuildMemory(
        code, result.qec_circuit, profile, zero, 3, sim::MemoryBasis::kX);
    sim::FrameSimulator simulator(experiment, 3);
    const auto batch = simulator.Sample(512);
    EXPECT_EQ(batch.CountNonTrivialShots(), 0);
}

TEST(MemoryXTest, DetectorCountsMirrorMemoryZ)
{
    const qec::RotatedSurfaceCode code(3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams params;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    const int rounds = 4;
    const auto x_exp = sim::BuildMemory(code, result.qec_circuit, profile,
                                        params, rounds, sim::MemoryBasis::kX);
    const auto z_exp = sim::BuildMemory(code, result.qec_circuit, profile,
                                        params, rounds, sim::MemoryBasis::kZ);
    // The rotated code has equal numbers of X and Z checks at odd d, so
    // the detector counts coincide.
    EXPECT_EQ(x_exp.num_detectors(), z_exp.num_detectors());
    EXPECT_EQ(x_exp.num_measurements(), z_exp.num_measurements());
}

TEST(MemoryXTest, SuppressionWithDistance)
{
    double ler[2] = {0, 0};
    const int dists[2] = {3, 5};
    for (int i = 0; i < 2; ++i) {
        const qec::RotatedSurfaceCode code(dists[i]);
        core::ArchitectureConfig arch;
        arch.gate_improvement = 10.0;
        core::EvaluationOptions opts;
        opts.max_shots = 1 << 16;
        opts.target_logical_errors = 1 << 30;
        opts.workload.basis = sim::MemoryBasis::kX;
        const auto m = core::Evaluate(code, arch, opts);
        ASSERT_TRUE(m.ok) << m.error;
        ler[i] = m.ler_per_shot.rate;
    }
    EXPECT_GT(ler[0], 0.0);
    EXPECT_LT(ler[1], 0.7 * ler[0]);
}

TEST(MemoryXTest, BothBasesComparableAtSymmetricNoise)
{
    // The rotated code is symmetric under exchanging X and Z up to
    // boundary orientation; the two memories should fail at comparable
    // (same order of magnitude) rates.
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    arch.gate_improvement = 5.0;
    core::EvaluationOptions opts;
    opts.max_shots = 1 << 15;
    opts.target_logical_errors = 1 << 30;
    const auto mz = core::Evaluate(code, arch, opts);
    opts.workload.basis = sim::MemoryBasis::kX;
    const auto mx = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(mz.ok && mx.ok);
    ASSERT_GT(mz.ler_per_shot.rate, 0.0);
    ASSERT_GT(mx.ler_per_shot.rate, 0.0);
    const double ratio = mx.ler_per_shot.rate / mz.ler_per_shot.rate;
    EXPECT_GT(ratio, 0.1);
    EXPECT_LT(ratio, 10.0);
}

// ---------------------------------------------------------------------------
// Simulator-vs-DEM cross validation
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, SampledDetectorRatesMatchDemEdgeMass)
{
    // For each detector, the probability that it fires is (to first
    // order) the sum of probabilities of its incident DEM edges. With
    // error rates ~1e-3 the first-order approximation holds to a few
    // percent; this catches mismatches between the sampler and the DEM
    // builder (they share the circuit but not the propagation code path).
    const qec::RotatedSurfaceCode code(3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams params;
    params.gate_improvement = 5.0;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    const auto experiment = sim::BuildMemory(
        code, result.qec_circuit, profile, params, 3, sim::MemoryBasis::kZ);
    const auto dem = sim::BuildDem(experiment);

    std::vector<double> expected(experiment.num_detectors(), 0.0);
    for (const auto& e : dem.edges) {
        expected[e.d0] += e.p;
        if (e.d1 != sim::DemEdge::kBoundary) {
            expected[e.d1] += e.p;
        }
    }
    const int shots = 400000;
    sim::FrameSimulator simulator(experiment, 77);
    const auto batch = simulator.Sample(shots);
    for (int d = 0; d < experiment.num_detectors(); ++d) {
        int fired = 0;
        for (int s = 0; s < shots; ++s) {
            fired += batch.Detector(d, s) ? 1 : 0;
        }
        const double rate = static_cast<double>(fired) / shots;
        const double sigma =
            std::sqrt(std::max(expected[d], 1e-6) / shots);
        EXPECT_NEAR(rate, expected[d],
                    0.15 * expected[d] + 6.0 * sigma)
            << "detector " << d;
    }
}

TEST(CrossValidationTest, DemCoversAllSampledSyndromeBits)
{
    // Every detector that can fire in sampling must have at least one
    // incident DEM edge, or the decoder would reject its syndromes.
    const qec::RotatedSurfaceCode code(3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::NoiseParams params;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    const auto experiment = sim::BuildMemory(
        code, result.qec_circuit, profile, params, 3, sim::MemoryBasis::kZ);
    const auto dem = sim::BuildDem(experiment);
    std::set<int> covered;
    for (const auto& e : dem.edges) {
        covered.insert(e.d0);
        if (e.d1 != sim::DemEdge::kBoundary) {
            covered.insert(e.d1);
        }
    }
    EXPECT_EQ(static_cast<int>(covered.size()),
              experiment.num_detectors());
}

}  // namespace
}  // namespace tiqec
