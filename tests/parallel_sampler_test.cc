/**
 * @file
 * Tests for the sharded multi-threaded Monte-Carlo sampling engine:
 * the determinism contract (bit-identical results for every thread
 * count), deterministic cooperative early stopping, RNG stream
 * independence, and the end-to-end memory-Z acceptance check through
 * core::Evaluate.
 */
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "core/toolflow.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/code.h"
#include "sim/dem.h"
#include "sim/parallel_sampler.h"
#include "workloads/experiment.h"

namespace tiqec::sim {
namespace {

/** Small hand-built noisy circuit: a 3-bit repetition-style layer with
 *  every channel kind the frame simulator supports, so the byte-identity
 *  checks exercise all RNG consumption paths. */
NoisyCircuit
MakeNoisyChain()
{
    NoisyCircuit c(3);
    for (int q = 0; q < 3; ++q) {
        c.AddReset(q, 0.01);
    }
    c.AddXError(0, 0.05);
    c.AddZError(1, 0.05);
    c.AddDepolarize1(1, 0.04);
    c.AddDepolarize2(0, 1, 0.03);
    c.AddCnot(0, 1);
    c.AddH(2);
    c.AddH(2);
    const int m0 = c.AddMeasure(0, 0.02);
    const int m1 = c.AddMeasure(1, 0.02);
    const int m2 = c.AddMeasure(2, 0.02);
    c.AddDetector({m0, m1}, {0, 0}, 0);
    c.AddDetector({m1, m2}, {1, 0}, 0);
    c.AddObservableInclude(0, {m0});
    return c;
}

/** Chain decoding graph matching MakeNoisyChain's two detectors. */
DetectorErrorModel
ChainDem()
{
    DetectorErrorModel dem;
    dem.num_detectors = 2;
    dem.num_observables = 1;
    dem.edges.push_back({0, DemEdge::kBoundary, 0.05, 1});
    dem.edges.push_back({0, 1, 0.05, 0});
    dem.edges.push_back({1, DemEdge::kBoundary, 0.05, 0});
    return dem;
}

ParallelSamplerOptions
Opts(int num_threads, int shard_shots = 256,
     std::uint64_t seed = 0xFEED5EED)
{
    ParallelSamplerOptions o;
    o.seed = seed;
    o.num_threads = num_threads;
    o.shard_shots = shard_shots;
    return o;
}

void
ExpectBatchesIdentical(const SampleBatch& a, const SampleBatch& b)
{
    ASSERT_EQ(a.shots(), b.shots());
    ASSERT_EQ(a.num_detectors(), b.num_detectors());
    ASSERT_EQ(a.num_observables(), b.num_observables());
    ASSERT_EQ(a.words(), b.words());
    for (int d = 0; d < a.num_detectors(); ++d) {
        for (int w = 0; w < a.words(); ++w) {
            ASSERT_EQ(a.DetectorWord(d, w), b.DetectorWord(d, w))
                << "detector " << d << " word " << w;
        }
    }
    for (int o = 0; o < a.num_observables(); ++o) {
        for (int w = 0; w < a.words(); ++w) {
            ASSERT_EQ(a.ObservableWord(o, w), b.ObservableWord(o, w))
                << "observable " << o << " word " << w;
        }
    }
}

TEST(RngStreamTest, StreamsAreDeterministicAndDistinct)
{
    Rng a(42, 0);
    Rng a2(42, 0);
    Rng b(42, 1);
    Rng other_seed(43, 0);
    bool differs_b = false;
    bool differs_seed = false;
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t va = a.Next();
        EXPECT_EQ(va, a2.Next());
        differs_b |= va != b.Next();
        differs_seed |= va != other_seed.Next();
    }
    EXPECT_TRUE(differs_b);
    EXPECT_TRUE(differs_seed);
}

TEST(ParallelSamplerTest, SampleByteIdenticalAcrossThreadCounts)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    // 5000 is deliberately neither a multiple of the shard size nor of
    // 64, so the tail shard and tail word are both exercised.
    const std::int64_t shots = 5000;
    ParallelSampler one(circuit, Opts(1));
    const SampleBatch reference = one.Sample(shots);
    EXPECT_EQ(reference.shots(), shots);
    for (const int threads : {2, 8}) {
        ParallelSampler many(circuit, Opts(threads));
        const SampleBatch batch = many.Sample(shots);
        ExpectBatchesIdentical(reference, batch);
    }
}

TEST(ParallelSamplerTest, SampleNotAllTrivial)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    ParallelSampler sampler(circuit, Opts(2));
    const SampleBatch batch = sampler.Sample(4096);
    EXPECT_GT(batch.CountNonTrivialShots(), 0);
    EXPECT_LT(batch.CountNonTrivialShots(), 4096);
}

TEST(ParallelSamplerTest, EstimateIdenticalAcrossThreadCounts)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    const DetectorErrorModel dem = ChainDem();
    ParallelSampler one(circuit, Opts(1));
    const LogicalErrorEstimate reference =
        one.EstimateLogicalErrors(dem, 1 << 14, 50);
    EXPECT_GT(reference.shots, 0);
    EXPECT_GT(reference.logical_errors, 0);
    for (const int threads : {2, 8}) {
        ParallelSampler many(circuit, Opts(threads));
        const LogicalErrorEstimate est =
            many.EstimateLogicalErrors(dem, 1 << 14, 50);
        EXPECT_EQ(est.shots, reference.shots) << threads << " threads";
        EXPECT_EQ(est.logical_errors, reference.logical_errors)
            << threads << " threads";
        EXPECT_EQ(est.shards, reference.shards) << threads << " threads";
        EXPECT_EQ(est.early_stopped, reference.early_stopped)
            << threads << " threads";
    }
}

TEST(ParallelSamplerTest, EarlyStopHonorsTarget)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    const DetectorErrorModel dem = ChainDem();
    // The chain's per-shot failure rate is a few percent, so a target of
    // 5 errors must stop long before the 1M-shot budget. An INT64_MAX
    // budget must still split into whole shards without overflow.
    const std::pair<std::int64_t, std::int64_t> budget_targets[] = {
        {1 << 20, 5}, {std::numeric_limits<std::int64_t>::max(), 1}};
    for (const auto& [budget, target] : budget_targets) {
        for (const int threads : {1, 8}) {
            SCOPED_TRACE("budget " + std::to_string(budget) + ", " +
                         std::to_string(threads) + " threads");
            ParallelSampler sampler(circuit, Opts(threads));
            const LogicalErrorEstimate est =
                sampler.EstimateLogicalErrors(dem, budget, target);
            EXPECT_TRUE(est.early_stopped);
            EXPECT_GE(est.logical_errors, target);
            EXPECT_GT(est.shots, 0);
            EXPECT_LT(est.shots, budget);
            // Totals are a contiguous shard prefix: full shards except
            // possibly the last.
            EXPECT_EQ(est.shots, est.shards * sampler.shard_shots());
        }
    }
}

TEST(ParallelSamplerTest, NoEarlyStopWhenTargetUnreachable)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    const DetectorErrorModel dem = ChainDem();
    ParallelSampler sampler(circuit, Opts(4));
    const LogicalErrorEstimate est =
        sampler.EstimateLogicalErrors(dem, 1000, 1 << 30);
    EXPECT_FALSE(est.early_stopped);
    EXPECT_EQ(est.shots, 1000);  // budget exhausted exactly
}

TEST(ParallelSamplerTest, ShardShotsRoundedUpToWordMultiple)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    ParallelSamplerOptions o;
    o.shard_shots = 100;
    ParallelSampler sampler(circuit, o);
    EXPECT_EQ(sampler.shard_shots(), 128);
}

TEST(ParallelSamplerTest, OptionsClampedWithoutOverflow)
{
    const NoisyCircuit circuit = MakeNoisyChain();
    // Rounding INT_MAX-adjacent shard sizes up to a multiple of 64 in
    // int arithmetic is signed overflow; the ctor must clamp instead.
    const int max_shard = std::numeric_limits<int>::max() & ~63;
    for (const int requested : {std::numeric_limits<int>::max(),
                                std::numeric_limits<int>::max() - 10,
                                max_shard}) {
        ParallelSamplerOptions o;
        o.shard_shots = requested;
        ParallelSampler sampler(circuit, o);
        EXPECT_EQ(sampler.shard_shots(), max_shard) << requested;
    }
    ParallelSamplerOptions o;
    o.shard_shots = -100;
    o.num_threads = -3;
    ParallelSampler sampler(circuit, o);
    EXPECT_EQ(sampler.shard_shots(), 64);
    EXPECT_GE(sampler.num_threads(), 1);
}

TEST(ParallelSamplerTest, NonPositiveTargetDisablesEarlyStop)
{
    // A caller asking for "no early stop" (target <= 0) must get the
    // full budget, not one shard with early_stopped = true.
    const NoisyCircuit circuit = MakeNoisyChain();
    const DetectorErrorModel dem = ChainDem();
    const std::int64_t budget = 1 << 13;
    for (const std::int64_t target : {std::int64_t{0}, std::int64_t{-7}}) {
        for (const int threads : {1, 8}) {
            ParallelSampler sampler(circuit, Opts(threads));
            const LogicalErrorEstimate est =
                sampler.EstimateLogicalErrors(dem, budget, target);
            EXPECT_EQ(est.shots, budget)
                << "target " << target << ", " << threads << " threads";
            EXPECT_FALSE(est.early_stopped)
                << "target " << target << ", " << threads << " threads";
            EXPECT_GT(est.logical_errors, 0);
        }
    }
}

TEST(ParallelSamplerTest, WorkerExceptionPropagates)
{
    // A DEM whose only component has no boundary edge: single-detector
    // syndromes (measurement flips produce them constantly) make the
    // decoder throw inside the workers. The exception must surface on
    // the calling thread instead of std::terminate-ing the process.
    const NoisyCircuit circuit = MakeNoisyChain();
    DetectorErrorModel boundaryless;
    boundaryless.num_detectors = 2;
    boundaryless.num_observables = 1;
    boundaryless.edges.push_back({0, 1, 0.05, 0});
    for (const int threads : {1, 4}) {
        ParallelSampler sampler(circuit, Opts(threads));
        EXPECT_THROW(
            sampler.EstimateLogicalErrors(boundaryless, 1 << 12, 1 << 30),
            std::runtime_error)
            << threads << " threads";
    }
}

TEST(ParallelSamplerTest, EarlyStopMatchesPerShotRecount)
{
    // The per-shot reference: Sample reproduces the committed shards
    // byte-exactly, and each shot is decoded with SyndromeOf + Decode.
    const NoisyCircuit circuit = MakeNoisyChain();
    const DetectorErrorModel dem = ChainDem();
    ParallelSampler sampler(circuit, Opts(4));
    const LogicalErrorEstimate est =
        sampler.EstimateLogicalErrors(dem, 1 << 14, 50);
    ASSERT_TRUE(est.early_stopped);
    const SampleBatch batch = sampler.Sample(est.shots);
    decoder::UnionFindDecoder decoder(dem);
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        errors += decoder.Decode(batch.SyndromeOf(s)) !=
                  (batch.Observable(0, s) ? 1u : 0u);
    }
    EXPECT_EQ(est.logical_errors, errors);
}

/** Acceptance check: the full memory-Z tool flow at d=5 returns the
 *  identical Monte-Carlo counts for 1 and 8 worker threads. */
TEST(ParallelSamplerTest, EvaluateMemoryZDistance5ThreadInvariant)
{
    const qec::RotatedSurfaceCode code(5);
    core::ArchitectureConfig arch;
    arch.gate_improvement = 10.0;

    core::EvaluationOptions opts;
    opts.max_shots = 1 << 14;
    opts.target_logical_errors = 50;
    opts.seed = 0xD15EA5E;
    opts.num_threads = 1;
    const core::Metrics one = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_GT(one.shots, 0);

    opts.num_threads = 8;
    const core::Metrics eight = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(eight.ok) << eight.error;
    EXPECT_EQ(eight.shots, one.shots);
    EXPECT_EQ(eight.logical_errors, one.logical_errors);
    EXPECT_DOUBLE_EQ(eight.ler_per_shot.rate, one.ler_per_shot.rate);
    EXPECT_DOUBLE_EQ(eight.ler_per_round, one.ler_per_round);
}

/** The sampler's own driver of a shard run and the sweep runner's
 *  shared pool must commit the same shots: on the hand-built d=3
 *  experiment, EstimateLogicalErrors agrees with Evaluate. */
TEST(ParallelSamplerTest, EstimateLogicalErrorsMatchesEvaluate)
{
    const qec::RotatedSurfaceCode code(3);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto compiled =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(compiled.ok);

    core::ArchitectureConfig arch;
    const noise::NoiseParams params = core::NoiseParamsFor(arch);
    const auto profile =
        noise::ProfileRound(code, graph, compiled, params, timing);
    const int rounds = code.distance();
    const NoisyCircuit experiment = workloads::BuildExperiment(
        code, compiled.qec_circuit, profile, params, rounds,
        workloads::WorkloadKind::kMemory);

    core::EvaluationOptions opts;
    opts.max_shots = 1 << 13;
    opts.target_logical_errors = 25;
    opts.num_threads = 2;
    ParallelSamplerOptions sopts;
    sopts.seed = opts.seed;
    sopts.num_threads = opts.num_threads;
    const LogicalErrorEstimate direct =
        ParallelSampler(experiment, sopts)
            .EstimateLogicalErrors(BuildDem(experiment), opts.max_shots,
                                   opts.target_logical_errors);
    const core::Metrics via_evaluate = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(via_evaluate.ok) << via_evaluate.error;
    EXPECT_EQ(direct.shots, via_evaluate.shots);
    EXPECT_EQ(direct.logical_errors, via_evaluate.logical_errors);
}

}  // namespace
}  // namespace tiqec::sim
