/**
 * @file
 * Equivalence tests for the word-parallel batch decode pipeline: the
 * non-trivial-shot mask, the transposed sparse syndrome extraction, and
 * UnionFindDecoder::DecodeBatch are pinned bit-exactly against the
 * scalar SyndromeOf + Decode path — on hand-packed words and on
 * compiled memory-Z experiments up to the full d=5 case. End to end,
 * sim::ParallelSampler::EstimateLogicalErrors's early-stopped count
 * equals a per-shot recount of its committed shots and is identical at
 * 1/2/8 threads.
 */
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/code.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"
#include "sim/parallel_sampler.h"

namespace tiqec {
namespace {

/** A compiled memory-Z experiment and its DEM. */
struct Workload
{
    sim::DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
};

Workload
BuildWorkload(int distance, int rounds, double improvement)
{
    Workload out;
    const qec::RotatedSurfaceCode code(distance);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    out.circuit = sim::BuildMemory(code, result.qec_circuit, profile,
                                   params, rounds, sim::MemoryBasis::kZ);
    out.dem = sim::BuildDem(out.circuit);
    return out;
}

/** Bit-compares DecodeBatch against per-shot SyndromeOf + Decode. */
void
ExpectBatchMatchesScalar(const sim::DetectorErrorModel& dem,
                         const sim::SampleBatch& batch)
{
    decoder::UnionFindDecoder batch_decoder(dem);
    decoder::UnionFindDecoder scalar_decoder(dem);
    std::vector<std::uint64_t> predictions;
    const auto outcome = batch_decoder.DecodeBatch(batch, predictions);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.decoded_shots, batch.CountNonTrivialShots());
    ASSERT_EQ(predictions.size(),
              static_cast<size_t>(batch.num_observables()) *
                  batch.words());
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t scalar =
            scalar_decoder.Decode(batch.SyndromeOf(s));
        for (int o = 0; o < batch.num_observables(); ++o) {
            const std::uint64_t word =
                predictions[static_cast<size_t>(o) * batch.words() +
                            (s >> 6)];
            const std::uint32_t batch_bit = (word >> (s & 63)) & 1;
            ASSERT_EQ(batch_bit, (scalar >> o) & 1)
                << "shot " << s << " observable " << o;
        }
    }
}

TEST(BatchDecodeTest, MaskAndSyndromesMatchScalarOnHandPackedWords)
{
    // 130 shots = 2 full words + 2 tail bits; 3 detectors. The tail
    // word carries garbage beyond `shots` that must be masked out.
    sim::SampleBatch batch(130, 3, 1);
    batch.SetDetectorWord(0, 0, (1ULL << 0) | (1ULL << 17));
    batch.SetDetectorWord(1, 0, 1ULL << 0);
    batch.SetDetectorWord(1, 1, 1ULL << 63);
    batch.SetDetectorWord(2, 2, (1ULL << 1) | (1ULL << 7));  // 7: invalid

    std::vector<std::uint64_t> mask;
    batch.NonTrivialShotMask(mask);
    ASSERT_EQ(mask.size(), 3u);
    EXPECT_EQ(mask[0], (1ULL << 0) | (1ULL << 17));
    EXPECT_EQ(mask[1], 1ULL << 63);
    EXPECT_EQ(mask[2], 1ULL << 1);  // bit 7 is beyond shot 129

    sim::SparseSyndromes syndromes;
    batch.ExtractSyndromes(syndromes);
    ASSERT_EQ(syndromes.offsets.size(), 131u);
    for (int s = 0; s < batch.shots(); ++s) {
        const std::vector<int> expected = batch.SyndromeOf(s);
        const std::vector<int> got(
            syndromes.fired.begin() + syndromes.offsets[s],
            syndromes.fired.begin() + syndromes.offsets[s + 1]);
        ASSERT_EQ(got, expected) << "shot " << s;
    }
}

TEST(BatchDecodeTest, DecodeBatchMatchesScalarOnCompiledD3)
{
    const Workload w = BuildWorkload(3, 3, 5.0);
    sim::FrameSimulator simulator(w.circuit, 2024);
    ExpectBatchMatchesScalar(w.dem, simulator.Sample(1 << 14));
}

TEST(BatchDecodeTest, DecodeBatchMatchesScalarOnFullD5MemoryZ)
{
    const Workload w = BuildWorkload(5, 5, 10.0);
    sim::FrameSimulator simulator(w.circuit, 0xD15EA5E);
    ExpectBatchMatchesScalar(w.dem, simulator.Sample(1 << 14));
}

TEST(BatchDecodeTest, DecodeBatchNoisyRegimeMatchesScalar)
{
    // 1X gate improvement at d=5: ~97% of shots are non-trivial, so the
    // mask rarely skips and the equivalence rests on the extraction +
    // the shared decode core.
    const Workload w = BuildWorkload(5, 5, 1.0);
    sim::FrameSimulator simulator(w.circuit, 7);
    const sim::SampleBatch batch = simulator.Sample(1 << 12);
    EXPECT_GT(batch.CountNonTrivialShots(), batch.shots() / 2);
    ExpectBatchMatchesScalar(w.dem, batch);
}

TEST(BatchDecodeTest, CancelledDecodeBatchReportsIncomplete)
{
    const Workload w = BuildWorkload(3, 3, 5.0);
    sim::FrameSimulator simulator(w.circuit, 11);
    const sim::SampleBatch batch = simulator.Sample(1 << 12);
    decoder::UnionFindDecoder decoder(w.dem);
    std::vector<std::uint64_t> predictions;
    const auto outcome =
        decoder.DecodeBatch(batch, predictions, []() { return true; });
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.decoded_shots, 0);
    // The decoder must remain usable after an abandoned batch.
    const auto rerun = decoder.DecodeBatch(batch, predictions);
    EXPECT_TRUE(rerun.completed);
    EXPECT_EQ(rerun.decoded_shots, batch.CountNonTrivialShots());
}

TEST(BatchDecodeTest, DecodeBatchRejectsMismatchedBatch)
{
    const Workload w = BuildWorkload(3, 3, 5.0);
    decoder::UnionFindDecoder decoder(w.dem);
    sim::SampleBatch wrong(64, w.dem.num_detectors + 1, 1);
    std::vector<std::uint64_t> predictions;
    EXPECT_THROW(decoder.DecodeBatch(wrong, predictions),
                 std::invalid_argument);
}

/** Acceptance pin: on the full d=5 memory-Z evaluation, the
 *  early-stopped count equals a per-shot SyndromeOf + Decode recount of
 *  the committed shots, and 1, 2 and 8 threads commit identical
 *  (shots, logical_errors, shards). */
TEST(BatchDecodeTest, EstimateBatchMatchesScalarAcrossThreadsD5)
{
    const Workload w = BuildWorkload(5, 5, 10.0);

    // At 10X the budget holds only a few errors (4 in 16,384 shots), so
    // a target of 2 is what stops the run after a multi-shard prefix.
    const std::int64_t max_shots = 1 << 14;
    const std::int64_t target_errors = 2;
    sim::ParallelSamplerOptions sopts;
    sopts.seed = 0xD15EA5E;
    sopts.num_threads = 1;
    const sim::LogicalErrorEstimate reference =
        sim::ParallelSampler(w.circuit, sopts)
            .EstimateLogicalErrors(w.dem, max_shots, target_errors);
    ASSERT_TRUE(reference.early_stopped);
    ASSERT_GT(reference.shards, 1);

    // ParallelSampler::Sample reproduces the committed shard streams
    // byte-exactly.
    const sim::SampleBatch batch =
        sim::ParallelSampler(w.circuit, sopts).Sample(reference.shots);
    decoder::UnionFindDecoder decoder(w.dem);
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        errors += decoder.Decode(batch.SyndromeOf(s)) !=
                  (batch.Observable(0, s) ? 1u : 0u);
    }
    EXPECT_EQ(reference.logical_errors, errors);

    for (const int threads : {1, 2, 8}) {
        sopts.num_threads = threads;
        const sim::LogicalErrorEstimate est =
            sim::ParallelSampler(w.circuit, sopts)
                .EstimateLogicalErrors(w.dem, max_shots, target_errors);
        EXPECT_EQ(est.shots, reference.shots) << threads << " threads";
        EXPECT_EQ(est.logical_errors, reference.logical_errors)
            << threads << " threads";
        EXPECT_EQ(est.shards, reference.shards) << threads << " threads";
        EXPECT_EQ(est.early_stopped, reference.early_stopped)
            << threads << " threads";
    }
}

}  // namespace
}  // namespace tiqec
