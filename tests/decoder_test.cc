/**
 * @file
 * Tests for the union-find decoder: hand-built decoding graphs, the
 * single-edge invariant on real compiled memory experiments, and
 * end-to-end logical error suppression with distance.
 */
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include <vector>

#include "compiler/compiler.h"
#include "core/request.h"
#include "core/sweep.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/surgery.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "store/keys.h"
#include "workloads/experiment.h"

namespace tiqec::decoder {
namespace {

using sim::DemEdge;
using sim::DetectorErrorModel;

/** Repetition-code style chain: D0 - D1 - D2 with boundaries on both
 *  ends; the left boundary edge carries the observable. */
DetectorErrorModel
ChainDem()
{
    DetectorErrorModel dem;
    dem.num_detectors = 3;
    dem.num_observables = 1;
    dem.edges.push_back({0, DemEdge::kBoundary, 0.01, 1});
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({1, 2, 0.01, 0});
    dem.edges.push_back({2, DemEdge::kBoundary, 0.01, 0});
    return dem;
}

TEST(UnionFindDecoderTest, EmptySyndromeNoCorrection)
{
    UnionFindDecoder decoder(ChainDem());
    EXPECT_EQ(decoder.Decode({}), 0u);
}

TEST(UnionFindDecoderTest, AdjacentPairMatchesDirectEdge)
{
    UnionFindDecoder decoder(ChainDem());
    EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    EXPECT_EQ(decoder.Decode({1, 2}), 0u);
}

TEST(UnionFindDecoderTest, SingleDefectNearBoundaryDrains)
{
    UnionFindDecoder decoder(ChainDem());
    // Defect at 0: the nearest boundary edge flips the observable.
    EXPECT_EQ(decoder.Decode({0}), 1u);
    // Defect at 2: drains right without flipping.
    EXPECT_EQ(decoder.Decode({2}), 0u);
}

TEST(UnionFindDecoderTest, RepeatedDecodesAreIndependent)
{
    UnionFindDecoder decoder(ChainDem());
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(decoder.Decode({0, 1}), 0u);
        EXPECT_EQ(decoder.Decode({0}), 1u);
        EXPECT_EQ(decoder.Decode({}), 0u);
    }
}

TEST(UnionFindDecoderTest, OddClusterWithoutBoundaryThrows)
{
    // Two detectors joined by a single edge and no boundary edge: an
    // even syndrome decodes, an odd one can never settle and must fail
    // loudly instead of silently returning a partial correction.
    DetectorErrorModel dem;
    dem.num_detectors = 2;
    dem.num_observables = 1;
    dem.edges.push_back({0, 1, 0.01, 1});
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.Decode({0, 1}), 1u);
    EXPECT_THROW(decoder.Decode({0}), std::runtime_error);
    EXPECT_THROW(decoder.Decode({1}), std::runtime_error);
    // The throwing path must leave the scratch clean.
    EXPECT_EQ(decoder.Decode({0, 1}), 1u);
    EXPECT_EQ(decoder.Decode({}), 0u);
}

TEST(UnionFindDecoderTest, OutOfRangeDetectorIndexThrows)
{
    for (const bool correlated : {true, false}) {
        UnionFindDecoder decoder(ChainDem(),
                                 UnionFindDecoder::Options{correlated});
        // Index 3 is the internal boundary node; 5 and -1 lie outside
        // the scratch arrays entirely.
        EXPECT_THROW(decoder.Decode({5}), std::out_of_range);
        EXPECT_THROW(decoder.Decode({3}), std::out_of_range);
        EXPECT_THROW(decoder.Decode({0, -1}), std::out_of_range);
        // The throwing path must leave the scratch clean.
        EXPECT_EQ(decoder.Decode({0}), 1u);
        EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    }
}

TEST(UnionFindDecoderTest, RepeatedDetectorIndexThrows)
{
    for (const bool correlated : {true, false}) {
        UnionFindDecoder decoder(ChainDem(),
                                 UnionFindDecoder::Options{correlated});
        EXPECT_THROW(decoder.Decode({0, 0}), std::invalid_argument);
        EXPECT_THROW(decoder.Decode({1, 2, 1}), std::invalid_argument);
        // The throwing path must leave the scratch clean.
        EXPECT_EQ(decoder.Decode({0}), 1u);
        EXPECT_EQ(decoder.Decode({1, 2}), 0u);
    }
}

TEST(UnionFindDecoderTest, DecodeBatchMatchesScalarOnHandPackedChain)
{
    UnionFindDecoder decoder(ChainDem());
    // 70 shots: shot 0 fires {0} (obs flip), shot 1 fires {0, 1},
    // shot 65 fires {2}; everything else is trivial.
    sim::SampleBatch batch(70, 3, 1);
    batch.SetDetectorWord(0, 0, (1ULL << 0) | (1ULL << 1));
    batch.SetDetectorWord(1, 0, 1ULL << 1);
    batch.SetDetectorWord(2, 1, 1ULL << 1);
    std::vector<std::uint64_t> predictions;
    const auto outcome = decoder.DecodeBatch(batch, predictions);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.decoded_shots, 3);
    ASSERT_EQ(predictions.size(), 2u);
    EXPECT_EQ(predictions[0], 1ULL << 0);  // only shot 0 flips obs 0
    EXPECT_EQ(predictions[1], 0u);
}

TEST(UnionFindDecoderTest, FullChainParity)
{
    UnionFindDecoder decoder(ChainDem());
    // Defects at both ends: either both drain to their boundaries
    // (obs = 1) or connect through the middle (obs = 0); with unit
    // weights both have length 2, and the decoder must pick one
    // consistently rather than half of each.
    const std::uint32_t obs = decoder.Decode({0, 2});
    EXPECT_TRUE(obs == 0u || obs == 1u);
}

/** Builds the DEM of a compiled memory experiment. */
struct CompiledDem
{
    DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
};

CompiledDem
BuildCompiledDem(int distance, int rounds, double improvement,
                 int capacity = 2)
{
    CompiledDem out;
    const qec::RotatedSurfaceCode code(distance);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, capacity);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    out.circuit = workloads::BuildExperiment(
        code, result.qec_circuit, profile, params, rounds,
        workloads::WorkloadKind::kMemory);
    out.dem = sim::BuildDem(out.circuit);
    return out;
}

/** Builds the DEM of a compiled XX lattice-surgery experiment on the
 *  capacity-2 grid at 1X gates, rounds = distance. */
CompiledDem
BuildSurgeryDem(int distance)
{
    CompiledDem out;
    const qec::MergedPatchCode code(distance, qec::SurgeryParity::kXX);
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result = compiler::CompileParityCheckRounds(code, 1, graph, timing);
    EXPECT_TRUE(result.ok) << result.error;
    noise::NoiseParams params;
    params.gate_improvement = 1.0;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    workloads::WorkloadSpec spec(workloads::WorkloadKind::kSurgery,
                                 sim::MemoryBasis::kZ);
    out.circuit = workloads::BuildExperiment(code, result.qec_circuit,
                                             profile, params, distance, spec);
    out.dem = sim::BuildDem(out.circuit);
    return out;
}

/** Builds the experiment and DEM the sweep service builds for one
 *  request line (run with `shots=0`, so nothing is sampled). */
CompiledDem
BuildRequestDem(const std::string& line)
{
    CompiledDem out;
    core::SweepCandidate candidate;
    std::string error;
    EXPECT_TRUE(core::ParseRequestCandidate(line, &candidate, &error))
        << error;
    core::SweepRunnerOptions options;
    options.num_threads = 1;
    core::SweepRunner runner(options);
    const std::vector<core::SweepOutcome> outcomes =
        runner.RunDetailed({candidate});
    EXPECT_TRUE(outcomes[0].metrics.ok) << outcomes[0].metrics.error;
    if (outcomes[0].sim != nullptr) {
        out.circuit = outcomes[0].sim->experiment;
        out.dem = outcomes[0].sim->dem;
    }
    return out;
}

TEST(UnionFindDecoderTest, SingleEdgeInvariantOnCompiledDem)
{
    // Decoding the syndrome of any single DEM edge must reproduce that
    // edge's observable effect - the property that guarantees first-order
    // errors are always corrected.
    for (const int d : {3, 5}) {
        const CompiledDem compiled = BuildCompiledDem(d, d, 10.0);
        UnionFindDecoder decoder(compiled.dem);
        for (const auto& e : compiled.dem.edges) {
            std::vector<int> syndrome = {e.d0};
            if (e.d1 != DemEdge::kBoundary) {
                syndrome.push_back(e.d1);
            }
            EXPECT_EQ(decoder.Decode(syndrome), e.obs_mask)
                << "d=" << d << " edge (" << e.d0 << "," << e.d1 << ")";
        }
    }
}

TEST(UnionFindDecoderTest, NoConflictingParallelEdges)
{
    const CompiledDem compiled = BuildCompiledDem(3, 3, 5.0);
    std::map<std::pair<int, int>, std::uint32_t> seen;
    for (const auto& e : compiled.dem.edges) {
        const auto key = std::make_pair(e.d0, e.d1);
        const auto it = seen.find(key);
        EXPECT_TRUE(it == seen.end())
            << "parallel edges left in DEM at (" << e.d0 << "," << e.d1
            << ")";
        seen[key] = e.obs_mask;
    }
}

// ---------------------------------------------------------------------------
// Correlated second stage: hyperedge arbitration on hand-built DEMs
// ---------------------------------------------------------------------------

/** Two disjoint elementary edges plus one correlated mechanism whose
 *  true action flips obs 0 while its decomposition XOR is 0. */
DetectorErrorModel
HyperedgeDem()
{
    DetectorErrorModel dem;
    dem.num_detectors = 4;
    dem.num_observables = 1;
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({2, 3, 0.01, 0});
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.001, 1, 0});
    dem.num_hyperedges = 1;
    return dem;
}

TEST(CorrelatedDecodeTest, ResidualAppliedWhenDecompositionRealised)
{
    // Mechanism odds 1e-3 beat the independent-edges odds ~1e-4, so the
    // winning interpretation of the realised pair {e0, e1} is the
    // mechanism, and its residual (obs 1) must be re-applied.
    UnionFindDecoder decoder(HyperedgeDem());
    EXPECT_EQ(decoder.num_active_hyperedges(), 1);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 1u);
    // A partial realisation is NOT the mechanism: one pair alone keeps
    // the elementary interpretation.
    EXPECT_EQ(decoder.Decode({0, 1}), 0u);
    EXPECT_EQ(decoder.Decode({2, 3}), 0u);
    // The stage-2 scratch must reset between decodes.
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 1u);
}

TEST(CorrelatedDecodeTest, BaselineWinsWhenEdgesMoreProbable)
{
    DetectorErrorModel dem = HyperedgeDem();
    // Make the independent-edges interpretation the more probable one
    // (odds ~0.11 vs 1e-3): the mechanism loses arbitration statically.
    dem.edges[0].p = 0.25;
    dem.edges[1].p = 0.25;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, ConsistentMechanismVetoesResidual)
{
    DetectorErrorModel dem = HyperedgeDem();
    // A more probable variant of a second mechanism shares the edge set
    // but its true action matches the decomposition XOR: it wins the
    // arbitration and the inconsistent mechanism must not fire.
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.005, 0, 1});
    dem.num_hyperedges = 2;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, CorrelatedOffGivesElementaryBaseline)
{
    UnionFindDecoder decoder(HyperedgeDem(),
                             UnionFindDecoder::Options{false});
    EXPECT_EQ(decoder.num_active_hyperedges(), 0);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3}), 0u);
}

TEST(CorrelatedDecodeTest, ClaimedEdgesBlockOverlappingMechanisms)
{
    DetectorErrorModel dem;
    dem.num_detectors = 6;
    dem.num_observables = 2;
    dem.edges.push_back({0, 1, 0.01, 0});
    dem.edges.push_back({2, 3, 0.01, 0});
    dem.edges.push_back({4, 5, 0.01, 0});
    // Mechanism 0 (p .002) decomposes onto {e0, e1}, mechanism 1
    // (p .001) onto {e1, e2}; both realised, but e1 can only be claimed
    // once — the higher-probability mechanism wins and the overlapping
    // one must not apply its residual on half-claimed evidence.
    dem.hyperedges.push_back({{0, 1, 2, 3}, {0, 1}, 0.002, 1, 0});
    dem.hyperedges.push_back({{2, 3, 4, 5}, {1, 2}, 0.001, 2, 1});
    dem.num_hyperedges = 2;
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.num_active_hyperedges(), 2);
    EXPECT_EQ(decoder.Decode({0, 1, 2, 3, 4, 5}), 1u);
    // With only mechanism 1's decomposition realised, it fires.
    EXPECT_EQ(decoder.Decode({2, 3, 4, 5}), 2u);
}

/** On the compiled d=3 surgery DEM, decoding each hyperedge mechanism's
 *  own detector signature must reproduce the mechanism's observable
 *  action for strictly more mechanisms with the correlated stage than
 *  without it (the mechanisms are exactly the signatures the elementary
 *  graph mislabels). */
TEST(CorrelatedDecodeTest, RecoversMechanismActionsOnCompiledSurgeryDem)
{
    const DetectorErrorModel dem = BuildSurgeryDem(3).dem;
    ASSERT_GT(dem.num_hyperedges, 0);

    UnionFindDecoder correlated(dem);
    UnionFindDecoder plain(dem, UnionFindDecoder::Options{false});
    EXPECT_GT(correlated.num_active_hyperedges(), 0);
    int correlated_correct = 0;
    int plain_correct = 0;
    int last_mechanism = -1;
    for (const auto& h : dem.hyperedges) {
        if (h.mechanism == last_mechanism) {
            continue;  // one decode per mechanism, not per variant
        }
        last_mechanism = h.mechanism;
        std::vector<int> syndrome(h.dets.begin(), h.dets.end());
        correlated_correct += correlated.Decode(syndrome) == h.obs_mask;
        plain_correct += plain.Decode(syndrome) == h.obs_mask;
    }
    EXPECT_GT(correlated_correct, plain_correct);
}

// ---------------------------------------------------------------------------
// Exact-output pins: the weighted forest's (dist, node, edge) settle order
// ---------------------------------------------------------------------------

TEST(CorrelatedDecodeTest, EqualProbabilityRoutesBreakTiesOnEdgeIndex)
{
    // D0 reaches the boundary through D1 or D2 at equal probability, and
    // only the D2 route flips obs 0. D1 settles first (node tie-break)
    // and offers D0 its route first, but D0 must take the lower-index
    // edge e0 of the two equal-distance offers: the D2 route.
    DetectorErrorModel dem;
    dem.num_detectors = 3;
    dem.num_observables = 1;
    dem.edges.push_back({0, 2, 0.01, 0});                 // e0
    dem.edges.push_back({0, 1, 0.01, 0});                 // e1
    dem.edges.push_back({1, DemEdge::kBoundary, 0.01, 0});  // e2
    dem.edges.push_back({2, DemEdge::kBoundary, 0.01, 1});  // e3
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.Decode({0}), 1u);
    // The BFS forest roots the cluster at its first grown boundary
    // edge (growth order e0, e1, e3, e2) and reaches D0 through D2.
    UnionFindDecoder plain(dem, UnionFindDecoder::Options{false});
    EXPECT_EQ(plain.Decode({0}), 1u);
    // Swapping the two inner edges' indices swaps the route, and the
    // BFS tree now roots at D1 (growth order e0, e1, e2, e3).
    std::swap(dem.edges[0], dem.edges[1]);
    UnionFindDecoder swapped(dem);
    EXPECT_EQ(swapped.Decode({0}), 0u);
    UnionFindDecoder swapped_plain(dem, UnionFindDecoder::Options{false});
    EXPECT_EQ(swapped_plain.Decode({0}), 0u);
}

TEST(CorrelatedDecodeTest, EqualDistanceNodesSettleInNodeOrder)
{
    // D1 and D2 sit at equal distance from the boundary and are joined by
    // a certain (p = 1, weight 0) edge, so whichever settles first offers
    // the other an equal-distance route through itself, and the offer's
    // lower edge index wins. D1 settles first, so D2 drains through D1
    // (obs 0); settling D2 first would drain D0 through e4 (obs 1).
    DetectorErrorModel dem;
    dem.num_detectors = 3;
    dem.num_observables = 1;
    dem.edges.push_back({1, 2, 1.0, 0});                  // e0
    dem.edges.push_back({0, 2, 0.01, 0});                 // e1
    dem.edges.push_back({0, 1, 0.01, 0});                 // e2
    dem.edges.push_back({1, DemEdge::kBoundary, 0.01, 0});  // e3
    dem.edges.push_back({2, DemEdge::kBoundary, 0.01, 1});  // e4
    UnionFindDecoder decoder(dem);
    EXPECT_EQ(decoder.Decode({0}), 0u);
    // The BFS forest roots at the first grown boundary edge, e4 (growth
    // order e1, e2, e0, e4, e3), and reaches D0 from D2 through e1.
    UnionFindDecoder plain(dem, UnionFindDecoder::Options{false});
    EXPECT_EQ(plain.Decode({0}), 1u);
}

// ---------------------------------------------------------------------------
// Clusters without an odd observable cycle skip the forest (DESIGN.md §3.6,
// fact 5); the others keep each forest's route
// ---------------------------------------------------------------------------

TEST(UnionFindDecoderTest, OddCycleInInteriorClusterDecidesTheRoute)
{
    // Defects D0 and D3 on the square D0-D1-D3-D2-D0. D0's cluster grows
    // e0 and e1; D3's grows e2, which merges the two, then e3, which
    // closes the square. Only e3 flips obs 0, so the cycle has odd
    // observable action and the two routes disagree: the weighted forest
    // takes the probable route through D2 (e1, e3: obs 1), the BFS
    // forest reaches D3 from D1 (e0, e2: obs 0).
    DetectorErrorModel dem;
    dem.num_detectors = 4;
    dem.num_observables = 1;
    dem.edges.push_back({0, 1, 0.01, 0});  // e0
    dem.edges.push_back({0, 2, 0.2, 0});   // e1
    dem.edges.push_back({1, 3, 0.01, 0});  // e2
    dem.edges.push_back({2, 3, 0.2, 1});   // e3
    for (const bool correlated : {true, false}) {
        UnionFindDecoder decoder(dem, UnionFindDecoder::Options{correlated});
        EXPECT_EQ(decoder.Decode({0, 3}), correlated ? 1u : 0u)
            << "correlated=" << correlated;
    }
}

TEST(UnionFindDecoderTest, MergedBoundaryClustersWithOddCycle)
{
    // D0 and D1 each touch the boundary (e0, e2) and meet at D2 (e1,
    // e3). D0's cluster grows e0 and e1; D1's grows e2, then e3, which
    // merges D0's cluster into it. Each cluster is consistent alone, but
    // e3 flips obs 0, so the merged cluster's cycle B-D0-D2-D1-B is odd:
    // the weighted forest drains both defects into the boundary (e0, e2:
    // obs 0), the BFS forest roots at e0 and joins them through D2 (e1,
    // e3: obs 1).
    DetectorErrorModel dem;
    dem.num_detectors = 3;
    dem.num_observables = 1;
    dem.edges.push_back({0, DemEdge::kBoundary, 0.01, 0});  // e0
    dem.edges.push_back({0, 2, 0.01, 0});                  // e1
    dem.edges.push_back({1, DemEdge::kBoundary, 0.01, 0});  // e2
    dem.edges.push_back({1, 2, 0.01, 1});                  // e3
    for (const bool correlated : {true, false}) {
        UnionFindDecoder decoder(dem, UnionFindDecoder::Options{correlated});
        EXPECT_EQ(decoder.Decode({0, 1}), correlated ? 0u : 1u)
            << "correlated=" << correlated;
    }
}

TEST(UnionFindDecoderTest, ConsistentClustersReportOneObservable)
{
    // Two components. Detectors 0-2 on obs 0: D0 reaches the boundary
    // through D1 (e0, e2) or D2 (e1, e3), both routes flip obs 0 once,
    // and the D2 route is the more probable one. Detectors 3-6 on obs 1:
    // the square above with both edges at D3 (e4, e5) flipping obs 1, so
    // both routes from D3 to D6 flip it once.
    DetectorErrorModel dem;
    dem.num_detectors = 7;
    dem.num_observables = 2;
    dem.edges.push_back({0, 1, 0.01, 1});                  // e0
    dem.edges.push_back({0, 2, 0.2, 0});                   // e1
    dem.edges.push_back({1, DemEdge::kBoundary, 0.01, 0});  // e2
    dem.edges.push_back({2, DemEdge::kBoundary, 0.2, 1});   // e3
    dem.edges.push_back({3, 4, 0.01, 2});                  // e4
    dem.edges.push_back({3, 5, 0.2, 2});                   // e5
    dem.edges.push_back({4, 6, 0.01, 0});                  // e6
    dem.edges.push_back({5, 6, 0.2, 0});                   // e7
    // The weighted forest takes D0-D2-B and D3-D5-D6, the BFS forest
    // D0-D1-B (its first grown boundary edge is e2) and D3-D4-D6; every
    // route flips its observable once.
    for (const bool correlated : {true, false}) {
        UnionFindDecoder decoder(dem, UnionFindDecoder::Options{correlated});
        EXPECT_EQ(decoder.Decode({0}), 1u) << "correlated=" << correlated;
        EXPECT_EQ(decoder.Decode({3, 6}), 2u) << "correlated=" << correlated;
        EXPECT_EQ(decoder.Decode({0, 3, 6}), 3u)
            << "correlated=" << correlated;
    }
}

/** FNV-1a 64 of packed prediction planes, each word as 8 little-endian
 *  bytes. */
std::uint64_t
PredictionDigest(const std::vector<std::uint64_t>& planes)
{
    std::string bytes;
    bytes.reserve(planes.size() * 8);
    for (const std::uint64_t word : planes) {
        for (int b = 0; b < 8; ++b) {
            bytes.push_back(static_cast<char>((word >> (8 * b)) & 0xFF));
        }
    }
    return store::Fnv1a64(bytes);
}

/** Pins the exact DecodeBatch predictions, correlated and plain, of a
 *  fixed-seed batch on the DEMs the Monte-Carlo sweeps decode. Batch ==
 *  scalar and thread-count identity hold for any deterministic forest;
 *  this digest fails on any change to the forest, the peel or stage 2.
 *  On an intended change, re-pin from the printed digests. */
TEST(CorrelatedDecodeTest, PredictionDigestsArePinned)
{
    struct DigestCase
    {
        const char* name;
        CompiledDem compiled;
        int active_hyperedges;
        std::uint64_t correlated;
        std::uint64_t plain;
    };
    // mc_sweep's densest-syndrome DEM (grid capacity 2 by default), and
    // memory d=3 at a design point with in-trap swaps.
    const CompiledDem wise =
        BuildRequestDem("family=rotated distance=5 wiring=wise shots=0");
    const CompiledDem swaps = BuildRequestDem(
        "family=rotated distance=3 topology=switch capacity=5 shots=0");
    const DigestCase cases[] = {
        {"memory d=3", BuildCompiledDem(3, 3, 1.0), 177,
         0xa0c646a8ae91610fULL, 0xedada19646703196ULL},
        {"memory d=5", BuildCompiledDem(5, 5, 1.0), 0,
         0x090cc31abba7d231ULL, 0x3bd40b43151910a7ULL},
        {"memory d=7", BuildCompiledDem(7, 7, 1.0), 0,
         0xf08745a3a33b32d0ULL, 0x9f6e3b6e28549e26ULL},
        {"memory d=5 cap 3", BuildCompiledDem(5, 5, 1.0, 3), 34,
         0xe49dd8800510d70cULL, 0x49ec30cffbf72303ULL},
        {"surgery_xx d=5", BuildSurgeryDem(5), 0, 0x51de440175072e95ULL,
         0xdca69ab1cf0bd08bULL},
        {"memory d=5 wise", wise, 0, 0x4810e55aa80a5e5fULL,
         0xc9ee2d0b87727d5eULL},
        {"memory d=3 switch cap 5", swaps, 190, 0x1e1669bf640b36f6ULL,
         0x4a5cc1e1332ae6ebULL},
    };
    const int shots = 16384;
    for (const DigestCase& c : cases) {
        sim::FrameSimulator simulator(c.compiled.circuit, 0xD16E57);
        const sim::SampleBatch batch = simulator.Sample(shots);
        std::vector<std::uint64_t> predictions;
        UnionFindDecoder correlated(c.compiled.dem);
        EXPECT_EQ(correlated.num_active_hyperedges(), c.active_hyperedges)
            << c.name;
        ASSERT_TRUE(correlated.DecodeBatch(batch, predictions).completed);
        const std::uint64_t correlated_digest = PredictionDigest(predictions);
        EXPECT_EQ(correlated_digest, c.correlated)
            << c.name << " correlated: 0x" << std::hex << correlated_digest;
        UnionFindDecoder plain(c.compiled.dem,
                               UnionFindDecoder::Options{false});
        ASSERT_TRUE(plain.DecodeBatch(batch, predictions).completed);
        const std::uint64_t plain_digest = PredictionDigest(predictions);
        EXPECT_EQ(plain_digest, c.plain)
            << c.name << " plain: 0x" << std::hex << plain_digest;
    }
}

TEST(LogicalErrorTest, SuppressionWithDistance)
{
    // End-to-end: at 10X gate improvement on the capacity-2 grid, the
    // logical error rate must drop by at least 2x from d=3 to d=5
    // (paper Figure 10's sub-threshold behaviour).
    double ler[2] = {0, 0};
    const int dists[2] = {3, 5};
    for (int i = 0; i < 2; ++i) {
        const CompiledDem compiled =
            BuildCompiledDem(dists[i], dists[i], 10.0);
        UnionFindDecoder decoder(compiled.dem);
        sim::FrameSimulator simulator(compiled.circuit, 99);
        const int shots = 60000;
        const sim::SampleBatch batch = simulator.Sample(shots);
        int errors = 0;
        for (int s = 0; s < shots; ++s) {
            const std::uint32_t predicted =
                decoder.Decode(batch.SyndromeOf(s));
            const std::uint32_t actual = batch.Observable(0, s) ? 1 : 0;
            errors += (predicted ^ actual) & 1;
        }
        ler[i] = static_cast<double>(errors) / shots;
    }
    EXPECT_GT(ler[0], 0.0) << "d=3 should show some logical errors";
    EXPECT_LT(ler[1], 0.5 * ler[0])
        << "logical error rate must be suppressed with distance";
}

TEST(LogicalErrorTest, DecodingBeatsNotDecoding)
{
    const CompiledDem compiled = BuildCompiledDem(3, 3, 1.0);
    UnionFindDecoder decoder(compiled.dem);
    sim::FrameSimulator simulator(compiled.circuit, 123);
    const int shots = 20000;
    const sim::SampleBatch batch = simulator.Sample(shots);
    int with_decoder = 0;
    int without = 0;
    for (int s = 0; s < shots; ++s) {
        const std::uint32_t predicted = decoder.Decode(batch.SyndromeOf(s));
        const std::uint32_t actual = batch.Observable(0, s) ? 1 : 0;
        with_decoder += (predicted ^ actual) & 1;
        without += actual;
    }
    EXPECT_LT(with_decoder, without);
}

}  // namespace
}  // namespace tiqec::decoder
