/**
 * @file
 * Per-observable error accounting: one surgery run tracks the joint
 * parity and both patch logicals at once. The counts are pinned
 * bit-exactly against three independent single-observable recounts over
 * the same shard streams, against a per-shot recount of an early-stopped
 * run's committed shots, and across 1/2/8 worker threads (the
 * determinism contract of DESIGN.md §3.4).
 */
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "compiler/compiler.h"
#include "core/toolflow.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/surgery.h"
#include "sim/dem.h"
#include "sim/parallel_sampler.h"
#include "workloads/experiment.h"

namespace tiqec {
namespace {

/** A compiled d=3 kXX surgery experiment (3 observables) and its DEM. */
struct SurgeryWorkload
{
    sim::DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
};

SurgeryWorkload
BuildSurgery(int distance, double improvement)
{
    SurgeryWorkload out;
    const qec::MergedPatchCode code(distance, qec::SurgeryParity::kXX);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    workloads::WorkloadSpec spec(workloads::WorkloadKind::kSurgery,
                                 sim::MemoryBasis::kZ);
    out.circuit = workloads::BuildExperiment(code, result.qec_circuit,
                                             profile, params, distance, spec);
    out.dem = sim::BuildDem(out.circuit);
    return out;
}

/** Acceptance pin: the three per-observable counts from ONE run equal
 *  three separate single-observable recounts over the same sampled
 *  shots, bit-exactly. */
TEST(PerObservableTest, OneRunMatchesThreeSingleObservableRuns)
{
    const SurgeryWorkload w = BuildSurgery(3, 1.0);
    ASSERT_EQ(w.circuit.num_observables(), 3);

    const std::int64_t max_shots = 1 << 13;
    sim::ParallelSamplerOptions sopts;
    sopts.seed = 0xC0FFEE;
    sopts.num_threads = 2;
    sim::ParallelSampler sampler(w.circuit, sopts);
    // A zero target is a fixed budget: no early stop.
    const sim::LogicalErrorEstimate est =
        sampler.EstimateLogicalErrors(w.dem, max_shots, 0);
    ASSERT_EQ(est.shots, max_shots);
    ASSERT_EQ(est.per_observable_errors.size(), 3u);

    // Recount each observable independently over the identical shard
    // streams (ParallelSampler::Sample reproduces them byte-exactly).
    const sim::SampleBatch batch = sampler.Sample(max_shots);
    for (int target = 0; target < 3; ++target) {
        decoder::UnionFindDecoder decoder(w.dem);
        std::int64_t errors = 0;
        for (int s = 0; s < batch.shots(); ++s) {
            const std::uint32_t predicted =
                decoder.Decode(batch.SyndromeOf(s));
            const std::uint32_t actual =
                batch.Observable(target, s) ? 1u : 0u;
            errors += ((predicted >> target) & 1u) != actual;
        }
        EXPECT_EQ(errors, est.per_observable_errors[target])
            << "observable " << target;
    }
}

/** The combined any-observable count and the per-observable breakdown
 *  of a surgery evaluation must be consistent: max(per_obs) <= any <=
 *  sum(per_obs), and each per-observable Wilson interval the runner
 *  reports derives from its own count. */
TEST(PerObservableTest, SumAndAnyObservableConsistency)
{
    const qec::MergedPatchCode code(3, qec::SurgeryParity::kXX);
    core::EvaluationOptions opts;
    opts.max_shots = 1 << 13;
    opts.target_logical_errors = 0;
    opts.seed = 99;
    opts.workload = workloads::WorkloadKind::kSurgery;
    const core::Metrics est = core::Evaluate(code, {}, opts);
    ASSERT_TRUE(est.ok) << est.error;
    ASSERT_EQ(est.per_observable_errors.size(), 3u);
    ASSERT_EQ(est.per_observable_ler.size(), 3u);
    ASSERT_GT(est.logical_errors, 0);
    std::int64_t max_obs = 0;
    std::int64_t sum_obs = 0;
    for (const std::int64_t e : est.per_observable_errors) {
        max_obs = std::max(max_obs, e);
        sum_obs += e;
    }
    EXPECT_LE(max_obs, est.logical_errors);
    EXPECT_GE(sum_obs, est.logical_errors);
    for (size_t o = 0; o < 3; ++o) {
        EXPECT_EQ(est.per_observable_ler[o].rate,
                  WilsonInterval(
                      static_cast<std::uint64_t>(
                          est.per_observable_errors[o]),
                      static_cast<std::uint64_t>(est.shots))
                      .rate)
            << "observable " << o;
    }
}

/** Acceptance pin: the any-observable and per-observable counts of an
 *  early-stopped run equal a per-shot SyndromeOf + Decode recount of its
 *  committed shots, and are bit-identical across 1/2/8 worker threads. */
TEST(PerObservableTest, BatchMatchesScalarAcrossThreads)
{
    const SurgeryWorkload w = BuildSurgery(3, 1.0);

    const std::int64_t max_shots = 1 << 13;
    const std::int64_t target_errors = 60;
    sim::ParallelSamplerOptions sopts;
    sopts.seed = 0xD15EA5E;
    sopts.num_threads = 1;
    const sim::LogicalErrorEstimate reference =
        sim::ParallelSampler(w.circuit, sopts)
            .EstimateLogicalErrors(w.dem, max_shots, target_errors);
    ASSERT_TRUE(reference.early_stopped);

    const sim::SampleBatch batch =
        sim::ParallelSampler(w.circuit, sopts).Sample(reference.shots);
    decoder::UnionFindDecoder decoder(w.dem);
    std::int64_t errors = 0;
    std::vector<std::int64_t> per_observable(3, 0);
    for (int s = 0; s < batch.shots(); ++s) {
        std::uint32_t diff = decoder.Decode(batch.SyndromeOf(s));
        for (int o = 0; o < 3; ++o) {
            diff ^= (batch.Observable(o, s) ? 1u : 0u) << o;
            per_observable[o] += (diff >> o) & 1u;
        }
        errors += diff != 0;
    }
    EXPECT_EQ(reference.logical_errors, errors);
    EXPECT_EQ(reference.per_observable_errors, per_observable);

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        sopts.num_threads = threads;
        const sim::LogicalErrorEstimate est =
            sim::ParallelSampler(w.circuit, sopts)
                .EstimateLogicalErrors(w.dem, max_shots, target_errors);
        EXPECT_EQ(est.shots, reference.shots);
        EXPECT_EQ(est.logical_errors, reference.logical_errors);
        EXPECT_EQ(est.shards, reference.shards);
        EXPECT_EQ(est.early_stopped, reference.early_stopped);
        EXPECT_EQ(est.per_observable_errors,
                  reference.per_observable_errors);
    }
}

/** The correlated decoder strictly improves the d=3 surgery LER over
 *  the elementary-graph baseline at 1X noise — the PR-5 floor the
 *  hyperedge stage exists to remove. */
TEST(PerObservableTest, CorrelatedImprovesSurgeryLer)
{
    const SurgeryWorkload w = BuildSurgery(3, 1.0);
    const std::int64_t max_shots = 1 << 14;
    sim::ParallelSamplerOptions sopts;
    sopts.seed = 7;
    const sim::LogicalErrorEstimate correlated =
        sim::ParallelSampler(w.circuit, sopts)
            .EstimateLogicalErrors(w.dem, max_shots, 0);
    sopts.correlated = false;
    const sim::LogicalErrorEstimate plain =
        sim::ParallelSampler(w.circuit, sopts)
            .EstimateLogicalErrors(w.dem, max_shots, 0);
    ASSERT_EQ(plain.shots, correlated.shots);
    EXPECT_LT(correlated.logical_errors, plain.logical_errors);
    // The joint parity (observable 0) itself must improve, not just the
    // any-observable union.
    EXPECT_LT(correlated.per_observable_errors[0],
              plain.per_observable_errors[0]);
}

}  // namespace
}  // namespace tiqec
