/**
 * @file
 * Integration tests for the core tool flow (paper Figure 2) and the
 * LER projection fits (Figure 10 methodology).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "core/projection.h"
#include "core/toolflow.h"
#include "noise/annotator.h"
#include "sim/frame_simulator.h"
#include "workloads/experiment.h"

namespace tiqec::core {
namespace {

TEST(ToolflowTest, CompileOnlyMetrics)
{
    const qec::RotatedSurfaceCode code(3);
    ArchitectureConfig arch;
    EvaluationOptions opts;
    opts.compile_only = true;
    const Metrics m = Evaluate(code, arch, opts);
    ASSERT_TRUE(m.ok) << m.error;
    EXPECT_GT(m.round_time, 0.0);
    EXPECT_DOUBLE_EQ(m.shot_time, 3.0 * m.round_time);
    EXPECT_GT(m.movement_ops_per_round, 0);
    EXPECT_EQ(m.num_traps_used, code.num_qubits());
    EXPECT_GT(m.resources.num_electrodes, 0);
    EXPECT_EQ(m.shots, 0);
}

TEST(ToolflowTest, FullEvaluationProducesLer)
{
    const qec::RotatedSurfaceCode code(3);
    ArchitectureConfig arch;
    arch.gate_improvement = 5.0;
    EvaluationOptions opts;
    opts.max_shots = 1 << 14;
    opts.target_logical_errors = 50;
    const Metrics m = Evaluate(code, arch, opts);
    ASSERT_TRUE(m.ok) << m.error;
    EXPECT_GT(m.shots, 0);
    EXPECT_GE(m.ler_per_shot.rate, 0.0);
    EXPECT_LE(m.ler_per_shot.rate, 1.0);
    EXPECT_LE(m.ler_per_round, m.ler_per_shot.rate + 1e-12);
}

TEST(ToolflowTest, DeterministicWithSeed)
{
    const qec::RotatedSurfaceCode code(3);
    ArchitectureConfig arch;
    arch.gate_improvement = 5.0;
    EvaluationOptions opts;
    opts.max_shots = 1 << 13;
    opts.target_logical_errors = 1 << 30;
    opts.seed = 42;
    const Metrics a = Evaluate(code, arch, opts);
    const Metrics b = Evaluate(code, arch, opts);
    EXPECT_EQ(a.logical_errors, b.logical_errors);
    EXPECT_EQ(a.shots, b.shots);
}

TEST(ToolflowTest, GateImprovementLowersLer)
{
    const qec::RotatedSurfaceCode code(3);
    EvaluationOptions opts;
    opts.max_shots = 1 << 15;
    opts.target_logical_errors = 1 << 30;
    ArchitectureConfig pessimistic;
    pessimistic.gate_improvement = 1.0;
    ArchitectureConfig optimistic;
    optimistic.gate_improvement = 10.0;
    const Metrics bad = Evaluate(code, pessimistic, opts);
    const Metrics good = Evaluate(code, optimistic, opts);
    ASSERT_TRUE(bad.ok && good.ok);
    EXPECT_LT(good.ler_per_shot.rate, 0.5 * bad.ler_per_shot.rate);
}

TEST(ToolflowTest, CapacityTwoBeatsCapacityFive)
{
    // Paper §7.3 headline: capacity 2 gives lower logical error rates.
    const qec::RotatedSurfaceCode code(3);
    EvaluationOptions opts;
    opts.max_shots = 1 << 15;
    opts.target_logical_errors = 1 << 30;
    ArchitectureConfig cap2;
    cap2.gate_improvement = 5.0;
    ArchitectureConfig cap5 = cap2;
    cap5.trap_capacity = 5;
    const Metrics m2 = Evaluate(code, cap2, opts);
    const Metrics m5 = Evaluate(code, cap5, opts);
    ASSERT_TRUE(m2.ok && m5.ok);
    EXPECT_LT(m2.round_time, m5.round_time);
    EXPECT_LT(m2.ler_per_shot.rate, m5.ler_per_shot.rate);
}

TEST(ToolflowTest, WiseSlowerButLighter)
{
    const qec::RotatedSurfaceCode code(3);
    EvaluationOptions opts;
    opts.compile_only = true;
    ArchitectureConfig standard;
    ArchitectureConfig wise = standard;
    wise.wiring = WiringKind::kWise;
    const Metrics ms = Evaluate(code, standard, opts);
    const Metrics mw = Evaluate(code, wise, opts);
    ASSERT_TRUE(ms.ok && mw.ok);
    EXPECT_GT(mw.round_time, 1.5 * ms.round_time);
    EXPECT_LT(mw.resources.wise_data_rate_gbps,
              ms.resources.standard_data_rate_gbps / 5.0);
}

TEST(ToolflowTest, NoiseParamsForWiring)
{
    ArchitectureConfig arch;
    EXPECT_FALSE(NoiseParamsFor(arch).cooled);
    arch.wiring = WiringKind::kWise;
    EXPECT_TRUE(NoiseParamsFor(arch).cooled);
    arch.gate_improvement = 5.0;
    EXPECT_DOUBLE_EQ(NoiseParamsFor(arch).gate_improvement, 5.0);
}

TEST(ToolflowTest, ArchitectureName)
{
    ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 5.0;
    EXPECT_EQ(arch.Name(), "grid_c2_standard_5x");
}

TEST(ProjectionTest, ExactExponentialFit)
{
    // p_L = 0.1 * 10^(-d/2): slope -0.5, intercept -1.
    std::vector<int> ds = {3, 5, 7, 9};
    std::vector<double> lers;
    for (const int d : ds) {
        lers.push_back(0.1 * std::pow(10.0, -d / 2.0));
    }
    const LerProjection proj(ds, lers);
    ASSERT_TRUE(proj.valid());
    EXPECT_NEAR(proj.fit().slope, -0.5, 1e-9);
    EXPECT_NEAR(proj.LerAt(11.0), 0.1 * std::pow(10.0, -5.5), 1e-12);
    // 1e-9 requires -1 - d/2 <= -9 -> d >= 16 -> first odd is 17.
    EXPECT_EQ(proj.DistanceForTarget(1e-9), 17);
}

TEST(ProjectionTest, SkipsZeroRates)
{
    const LerProjection proj({3, 5, 7}, {1e-2, 1e-3, 0.0});
    ASSERT_TRUE(proj.valid());
    EXPECT_NEAR(proj.fit().slope, -0.5, 1e-9);
}

TEST(ProjectionTest, InvalidWhenGrowing)
{
    const LerProjection proj({3, 5}, {1e-3, 1e-2});
    EXPECT_FALSE(proj.valid());
    EXPECT_EQ(proj.DistanceForTarget(1e-9), 0);
}

TEST(ProjectionTest, InvalidWithOnePoint)
{
    const LerProjection proj({3}, {1e-3});
    EXPECT_FALSE(proj.valid());
}

TEST(MemoryExperimentTest, DetectorCounts)
{
    // d rounds: Z checks give d time-like + 1 space-like layers, X checks
    // give d-1 layers.
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
    const auto experiment =
        workloads::BuildExperiment(code, result.qec_circuit, profile,
                                   params, rounds,
                                   workloads::WorkloadKind::kMemory);
    int z_checks = 0, x_checks = 0;
    for (const auto& chk : code.checks()) {
        (chk.type == qec::CheckType::kZ ? z_checks : x_checks) += 1;
    }
    EXPECT_EQ(experiment.num_detectors(),
              z_checks * (rounds + 1) + x_checks * (rounds - 1));
    EXPECT_EQ(experiment.num_measurements(),
              rounds * code.num_ancillas() + code.num_data());
    EXPECT_EQ(experiment.num_observables(), 1);
}

TEST(MemoryExperimentTest, NoiselessExperimentIsDeterministic)
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
    noise::RoundNoiseProfile profile =
        noise::ProfileRound(code, graph, result, zero, timing);
    const auto experiment = workloads::BuildExperiment(
        code, result.qec_circuit, profile, zero, 3,
        workloads::WorkloadKind::kMemory);
    sim::FrameSimulator simulator(experiment, 5);
    const auto batch = simulator.Sample(512);
    EXPECT_EQ(batch.CountNonTrivialShots(), 0);
}

}  // namespace
}  // namespace tiqec::core
