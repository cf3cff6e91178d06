/**
 * @file
 * Tests for the QEC-to-QCCD compiler: partitioner balance, placement
 * matching, router stream validity (replayed through the device-state
 * constraint checker), scheduler resource exclusivity, and the
 * architectural properties the paper reports (constant round time at
 * capacity 2 on the grid, near-bound optimality).
 */
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/rng.h"
#include "compiler/bounds.h"
#include "compiler/compiler.h"
#include "compiler/schedule.h"
#include "qccd/device_state.h"
#include "qec/code.h"

namespace tiqec::compiler {
namespace {

using qccd::DeviceGraph;
using qccd::DeviceState;
using qccd::OpKind;
using qccd::TimingModel;
using qccd::TopologyKind;

/** Replays a routed stream through a fresh device state; fails on any
 * constraint violation. */
void
ValidateStream(const qec::StabilizerCode& code, const DeviceGraph& graph,
               const Placement& placement,
               const std::vector<qccd::PrimitiveOp>& ops)
{
    DeviceState state(graph, code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        state.LoadIon(QubitId(q), placement.qubit_trap[q]);
    }
    for (size_t i = 0; i < ops.size(); ++i) {
        const auto err = state.TryApply(ops[i]);
        ASSERT_FALSE(err.has_value())
            << "op " << i << " (" << qccd::OpKindName(ops[i].kind)
            << "): " << *err;
    }
    EXPECT_TRUE(state.TransportComponentsEmpty());
}

/** Asserts that scheduled windows on exclusive resources do not overlap. */
void
ValidateScheduleResources(const Schedule& schedule, const DeviceGraph& graph)
{
    // Per-segment and per-ion interval lists.
    std::map<int, std::vector<std::pair<double, double>>> seg_busy;
    std::map<int, std::vector<std::pair<double, double>>> ion_busy;
    std::map<int, std::vector<std::pair<double, double>>> trap_busy;
    for (const TimedOp& t : schedule.ops) {
        if (t.op.segment.valid()) {
            seg_busy[t.op.segment.value].emplace_back(t.start, t.end());
        }
        ion_busy[t.op.ion0.value].emplace_back(t.start, t.end());
        if (t.op.ion1.valid()) {
            ion_busy[t.op.ion1.value].emplace_back(t.start, t.end());
        }
        if (t.op.IsGate() && t.op.node.valid()) {
            trap_busy[t.op.node.value].emplace_back(t.start, t.end());
        }
    }
    auto check_no_overlap = [](auto& busy, const char* what) {
        for (auto& [key, intervals] : busy) {
            std::sort(intervals.begin(), intervals.end());
            for (size_t i = 1; i < intervals.size(); ++i) {
                EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
                    << what << " " << key << " double-booked at t="
                    << intervals[i].first;
            }
        }
    };
    check_no_overlap(seg_busy, "segment");
    check_no_overlap(ion_busy, "ion");
    check_no_overlap(trap_busy, "trap");
    (void)graph;
}

TEST(PartitionerTest, BalancedClusters)
{
    const qec::RotatedSurfaceCode code(5);  // 49 qubits
    const Partition p = PartitionQubits(code, 4);
    EXPECT_EQ(p.num_clusters, 13);
    EXPECT_LE(p.max_cluster_size, 4);
    EXPECT_GE(p.min_cluster_size, 1);
    // Every qubit assigned.
    for (const int c : p.cluster_of) {
        EXPECT_GE(c, 0);
    }
}

TEST(PartitionerTest, SingleClusterWhenCapacityLarge)
{
    const qec::RepetitionCode code(3);  // 5 qubits
    const Partition p = PartitionQubits(code, 100);
    EXPECT_EQ(p.num_clusters, 1);
    EXPECT_EQ(p.max_cluster_size, 5);
}

TEST(PartitionerTest, GeometricPartitionBeatsRoundRobinCut)
{
    const qec::RotatedSurfaceCode code(7);
    const Partition p = PartitionQubits(code, 6);
    // Round-robin strawman with the same cluster count.
    Partition rr;
    rr.num_clusters = p.num_clusters;
    rr.cluster_of.resize(code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        rr.cluster_of[q] = q % rr.num_clusters;
    }
    EXPECT_LT(p.CutWeight(code), 0.5 * rr.CutWeight(code));
}

TEST(PartitionerTest, ClusterMembersAreGeometricallyCompact)
{
    const qec::RotatedSurfaceCode code(6);
    const Partition p = PartitionQubits(code, 4);
    const auto members = p.Members();
    for (const auto& cluster : members) {
        double max_dist = 0.0;
        for (size_t i = 0; i < cluster.size(); ++i) {
            for (size_t j = i + 1; j < cluster.size(); ++j) {
                max_dist = std::max(
                    max_dist,
                    ManhattanDistance(code.qubit(cluster[i]).coord,
                                      code.qubit(cluster[j]).coord));
            }
        }
        // A cluster of <=4 qubits in a 2d x 2d layout should be local.
        EXPECT_LE(max_dist, 8.0);
    }
}

TEST(PlacerTest, DistinctTraps)
{
    const qec::RotatedSurfaceCode code(4);
    const Partition p = PartitionQubits(code, 1);
    const auto graph = DeviceGraph::MakeGridForTraps(p.num_clusters, 2);
    const Placement placement = PlaceClusters(code, p, graph);
    std::set<int> used;
    for (const NodeId t : placement.cluster_trap) {
        EXPECT_TRUE(used.insert(t.value).second) << "trap reused";
        EXPECT_EQ(graph.node(t).kind, qccd::NodeKind::kTrap);
    }
}

TEST(PlacerTest, PreservesNeighbourhoods)
{
    // Adjacent code qubits should land in nearby traps on the grid.
    const qec::RotatedSurfaceCode code(5);
    const Partition p = PartitionQubits(code, 1);
    const auto graph = DeviceGraph::MakeGridForTraps(p.num_clusters, 2);
    const Placement placement = PlaceClusters(code, p, graph);
    double total_dist = 0.0;
    int edges = 0;
    for (const auto& e : code.InteractionGraph()) {
        const Coord a = graph.node(placement.qubit_trap[e.a.value]).coord;
        const Coord b = graph.node(placement.qubit_trap[e.b.value]).coord;
        total_dist += ManhattanDistance(a, b);
        ++edges;
    }
    // Code-adjacent qubits are sqrt(2) apart in code coordinates; a
    // geometry-preserving embedding keeps the mean mapped distance small.
    EXPECT_LT(total_dist / edges, 4.0);
}

TEST(PlacerTest, ThrowsWhenDeviceTooSmall)
{
    const qec::RotatedSurfaceCode code(4);
    const Partition p = PartitionQubits(code, 1);
    const auto graph = DeviceGraph::MakeLinear(3, 2);
    EXPECT_THROW(PlaceClusters(code, p, graph), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end compilation sweep
// ---------------------------------------------------------------------------

struct CompileCase
{
    std::string family;
    int distance;
    TopologyKind topology;
    int capacity;
};

class CompileSweepTest : public ::testing::TestWithParam<CompileCase>
{
};

TEST_P(CompileSweepTest, CompilesAndValidates)
{
    const CompileCase& c = GetParam();
    const auto code = qec::MakeCode(c.family, c.distance);
    const auto graph = MakeDeviceFor(*code, c.topology, c.capacity);
    const TimingModel timing;
    const auto result =
        CompileParityCheckRounds(*code, 1, graph, timing);
    ASSERT_TRUE(result.ok) << result.error;
    ValidateStream(*code, graph, result.placement, result.routing.ops);
    ValidateScheduleResources(result.schedule, graph);
    // Every QEC gate lowered and emitted exactly once.
    EXPECT_EQ(result.routing.ops.size(),
              result.native.gates().size() +
                  static_cast<size_t>(result.routing.num_movement_ops));
    EXPECT_GT(result.schedule.makespan, 0.0);
    // The schedule is never faster than the dependence-only lower bound.
    EXPECT_GE(result.schedule.makespan + 1e-9,
              ParallelLowerBoundRoundTime(*code, timing));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CompileSweepTest,
    ::testing::Values(
        CompileCase{"repetition", 3, TopologyKind::kLinear, 2},
        CompileCase{"repetition", 3, TopologyKind::kLinear, 3},
        CompileCase{"repetition", 3, TopologyKind::kLinear, 4},
        CompileCase{"repetition", 6, TopologyKind::kLinear, 2},
        CompileCase{"repetition", 6, TopologyKind::kLinear, 3},
        CompileCase{"repetition", 7, TopologyKind::kLinear, 5},
        CompileCase{"rotated", 2, TopologyKind::kGrid, 2},
        CompileCase{"rotated", 3, TopologyKind::kGrid, 2},
        CompileCase{"rotated", 3, TopologyKind::kGrid, 3},
        CompileCase{"rotated", 3, TopologyKind::kGrid, 5},
        CompileCase{"rotated", 3, TopologyKind::kSwitch, 2},
        CompileCase{"rotated", 3, TopologyKind::kLinear, 2},
        CompileCase{"rotated", 4, TopologyKind::kGrid, 2},
        CompileCase{"rotated", 5, TopologyKind::kGrid, 5},
        CompileCase{"rotated", 5, TopologyKind::kGrid, 12},
        CompileCase{"rotated", 6, TopologyKind::kGrid, 2},
        CompileCase{"unrotated", 2, TopologyKind::kGrid, 3},
        CompileCase{"unrotated", 3, TopologyKind::kGrid, 2},
        CompileCase{"rotated", 3, TopologyKind::kSwitch, 5}),
    [](const auto& info) {
        const CompileCase& c = info.param;
        return c.family + "_d" + std::to_string(c.distance) + "_" +
               qccd::TopologyKindName(c.topology) + "_c" +
               std::to_string(c.capacity);
    });

TEST(CompilerTest, RejectsCapacityOne)
{
    const qec::RepetitionCode code(3);
    const auto graph = DeviceGraph::MakeLinear(10, 1);
    const auto result = CompileParityCheckRounds(
        code, 1, graph, TimingModel{});
    EXPECT_FALSE(result.ok);
}

TEST(CompilerTest, RejectsTooFewTraps)
{
    const qec::RotatedSurfaceCode code(4);
    const auto graph = DeviceGraph::MakeLinear(2, 2);
    const auto result = CompileParityCheckRounds(
        code, 1, graph, TimingModel{});
    EXPECT_FALSE(result.ok);
}

TEST(CompilerTest, SingleChainHasNoMovement)
{
    const qec::RepetitionCode code(3);
    const auto graph = DeviceGraph::MakeLinear(1, code.num_qubits() + 1);
    const auto result = CompileParityCheckRounds(
        code, 1, graph, TimingModel{});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.routing.num_movement_ops, 0);
    // Fully serialised: makespan equals the serial upper bound.
    EXPECT_NEAR(result.schedule.makespan,
                SerialUpperBoundRoundTime(code, TimingModel{}), 1e-6);
}

TEST(CompilerTest, ConstantRoundTimeAtCapacityTwoOnGrid)
{
    // Paper §7.3: capacity 2 on the grid gives a round time independent of
    // code distance.
    const TimingModel timing;
    std::vector<double> times;
    for (const int d : {3, 5, 7}) {
        const qec::RotatedSurfaceCode code(d);
        const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
        const auto result =
            CompileParityCheckRounds(code, 1, graph, timing);
        ASSERT_TRUE(result.ok) << result.error;
        times.push_back(result.schedule.makespan);
    }
    EXPECT_LT(times[2] / times[0], 1.25)
        << "round time should be ~constant in distance at capacity 2";
}

TEST(CompilerTest, NearTheoreticalMinimumGridCapTwo)
{
    const TimingModel timing;
    const qec::RotatedSurfaceCode code(3);
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    const auto result = CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok) << result.error;
    const TheoreticalBound bound = ComputeTheoreticalMin(
        code, graph, result.partition, result.placement, timing);
    EXPECT_GE(result.schedule.makespan + 1e-9, 0.8 * bound.round_time);
    EXPECT_LE(result.schedule.makespan, 2.0 * bound.round_time)
        << "compiler should be within 2x of the hand-optimal bound";
    EXPECT_LE(result.routing.num_movement_ops, 2 * bound.routing_ops);
}

TEST(CompilerTest, LinearTopologySlowerThanGridForSurfaceCode)
{
    // Paper §7.2: the linear topology suffers routing congestion.
    const TimingModel timing;
    const qec::RotatedSurfaceCode code(3);
    const auto grid = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    const auto linear = MakeDeviceFor(code, TopologyKind::kLinear, 2);
    const auto rg = CompileParityCheckRounds(code, 1, grid, timing);
    const auto rl = CompileParityCheckRounds(code, 1, linear, timing);
    ASSERT_TRUE(rg.ok) << rg.error;
    ASSERT_TRUE(rl.ok) << rl.error;
    EXPECT_GT(rl.schedule.makespan, 2.0 * rg.schedule.makespan);
}

TEST(CompilerTest, MultiRoundScalesLinearly)
{
    const TimingModel timing;
    const qec::RotatedSurfaceCode code(3);
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    const auto r1 = CompileParityCheckRounds(code, 1, graph, timing);
    const auto r5 = CompileParityCheckRounds(code, 5, graph, timing);
    ASSERT_TRUE(r1.ok && r5.ok);
    EXPECT_GT(r5.schedule.makespan, 4.0 * r1.schedule.makespan);
    EXPECT_LT(r5.schedule.makespan, 6.0 * r1.schedule.makespan);
}

TEST(CompilerTest, WiseSchedulingIsSlower)
{
    const TimingModel timing;
    const qec::RotatedSurfaceCode code(3);
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    CompilerOptions wise;
    wise.wise = true;
    const auto rs = CompileParityCheckRounds(code, 1, graph, timing);
    const auto rw = CompileParityCheckRounds(code, 1, graph, timing, wise);
    ASSERT_TRUE(rs.ok && rw.ok);
    EXPECT_GT(rw.schedule.makespan, rs.schedule.makespan);
    // The validator derives the cooling surcharge from the wiring alone,
    // so `wise` by itself must yield a schedule it accepts.
    const auto diags =
        analysis::ValidateCompiledArtifacts(rw, graph, timing, true);
    EXPECT_TRUE(diags.empty())
        << analysis::FormatDiagnostics("compiled schedule", diags);
}

TEST(CompilerTest, SchedulerCoolingExtendsMsGates)
{
    const TimingModel timing;
    const qec::RepetitionCode code(3);
    const auto graph = MakeDeviceFor(code, TopologyKind::kLinear, 2);
    CompilerOptions cooled;
    cooled.wise = true;
    const auto base = CompileParityCheckRounds(code, 1, graph, timing);
    const auto cool =
        CompileParityCheckRounds(code, 1, graph, timing, cooled);
    ASSERT_TRUE(base.ok && cool.ok);
    EXPECT_GT(cool.schedule.makespan, base.schedule.makespan + 850.0);
}

TEST(BoundsTest, LowerBelowUpper)
{
    const TimingModel timing;
    for (const int d : {2, 3, 5}) {
        const qec::RotatedSurfaceCode code(d);
        EXPECT_LT(ParallelLowerBoundRoundTime(code, timing),
                  SerialUpperBoundRoundTime(code, timing));
    }
}

TEST(BoundsTest, SerialUpperGrowsWithDistance)
{
    const TimingModel timing;
    const qec::RotatedSurfaceCode small(3);
    const qec::RotatedSurfaceCode big(7);
    EXPECT_GT(SerialUpperBoundRoundTime(big, timing),
              4.0 * SerialUpperBoundRoundTime(small, timing));
}

TEST(BoundsTest, TheoreticalMinSingleChainMatchesSerial)
{
    const TimingModel timing;
    const qec::RepetitionCode code(3);
    const auto graph = DeviceGraph::MakeLinear(1, code.num_qubits() + 1);
    const Partition p = PartitionQubits(code, code.num_qubits());
    const Placement placement = PlaceClusters(code, p, graph);
    const auto bound =
        ComputeTheoreticalMin(code, graph, p, placement, timing);
    EXPECT_EQ(bound.routing_ops, 0);
    EXPECT_NEAR(bound.round_time, SerialUpperBoundRoundTime(code, timing),
                1e-6);
}

// ---------------------------------------------------------------------
// Movement-time union: UnionMeasure against an independent sorted sweep,
// on raw interval sets and on the same sets with each ion's back-to-back
// intervals coalesced.

using Interval = std::pair<Microseconds, Microseconds>;

/** One interval tagged with the ion that produced it. */
struct IonInterval
{
    int ion;
    Microseconds start;
    Microseconds end;
};

/** Union measure written out run by run: sort, split into runs where a
 *  start lies strictly past every earlier end, sum the runs that end at
 *  or after 0 in order. The sweep opens with an empty run [0, -1], so a
 *  start at or below -1 joins it instead of opening its own. */
Microseconds
NaiveUnionMeasure(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::vector<Interval> runs = {{0.0, -1.0}};
    for (const Interval& iv : intervals) {
        if (iv.first > runs.back().second) {
            runs.push_back(iv);
        } else if (iv.second > runs.back().second) {
            runs.back().second = iv.second;
        }
    }
    Microseconds total = 0.0;
    for (const Interval& run : runs) {
        if (run.second >= 0.0) {
            total += run.second - run.first;
        }
    }
    return total;
}

/** Merges each ion's interval into that ion's previous one when it
 *  starts exactly where the previous one ends and neither runs
 *  backwards. */
std::vector<Interval>
CoalescePerIon(const std::vector<IonInterval>& raw, int num_ions)
{
    std::vector<Interval> out;
    std::vector<int> open(num_ions, -1);
    for (const IonInterval& iv : raw) {
        const int k = open[iv.ion];
        if (k >= 0 && out[k].first <= out[k].second &&
            iv.start == out[k].second && iv.start <= iv.end) {
            out[k].second = iv.end;
            continue;
        }
        open[iv.ion] = static_cast<int>(out.size());
        out.emplace_back(iv.start, iv.end);
    }
    return out;
}

/** Random per-ion interval streams: touching chains (each start equal to
 *  the ion's previous end), gaps, equal starts on a coarse grid,
 *  zero-length and negative-duration intervals, and durations that are
 *  not exact binary fractions so the summation order shows in the bits. */
std::vector<IonInterval>
RandomIonIntervals(Rng& rng, int num_ions, int count)
{
    static constexpr Microseconds kDurations[] = {0.0, 1.0,  2.5,  0.1,
                                                  0.3, 7.7,  40.0, -1.0,
                                                  -0.3, 12.9};
    std::vector<Microseconds> cursor(num_ions, 0.0);
    std::vector<IonInterval> out;
    for (int i = 0; i < count; ++i) {
        const int ion = static_cast<int>(rng.NextBelow(num_ions));
        Microseconds start = cursor[ion];
        switch (rng.NextBelow(4)) {
          case 0:  // a coarse grid: equal starts
            start = 0.1 * static_cast<int>(rng.NextBelow(50));
            break;
          case 1:  // a gap
            start += 0.1 * static_cast<int>(1 + rng.NextBelow(20));
            break;
          default:
            break;  // touching: starts where the ion's last one ended
        }
        const Microseconds end = start + kDurations[rng.NextBelow(10)];
        out.push_back({ion, start, end});
        cursor[ion] = end;
    }
    return out;
}

TEST(UnionMeasureTest, MatchesNaiveSweepRawAndCoalescedPerIon)
{
    Rng rng(0x51A7E5ull);
    int coalesced_away = 0;
    for (int set = 0; set < 2000; ++set) {
        const int num_ions = 1 + static_cast<int>(rng.NextBelow(8));
        const std::vector<IonInterval> raw =
            RandomIonIntervals(rng, num_ions,
                               static_cast<int>(rng.NextBelow(60)));
        std::vector<Interval> flat;
        for (const IonInterval& iv : raw) {
            flat.emplace_back(iv.start, iv.end);
        }
        std::vector<Interval> coalesced = CoalescePerIon(raw, num_ions);
        coalesced_away += static_cast<int>(flat.size() - coalesced.size());

        const Microseconds naive = NaiveUnionMeasure(flat);
        std::vector<Interval> sorted_raw = flat;
        const Microseconds measured = UnionMeasure(sorted_raw);
        const Microseconds measured_coalesced = UnionMeasure(coalesced);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(measured),
                  std::bit_cast<std::uint64_t>(naive))
            << "set " << set << ": " << measured << " vs " << naive;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(measured_coalesced),
                  std::bit_cast<std::uint64_t>(naive))
            << "set " << set << ": " << measured_coalesced << " vs "
            << naive;
    }
    // The generator must actually exercise the coalescing path.
    EXPECT_GT(coalesced_away, 10000);
}

// MovementUnion, the one movement-time implementation, coalesces per ion
// and must still match the naive sweep bit for bit, including when some
// ion ids fall outside its table and stay uncoalesced.
TEST(UnionMeasureTest, MovementUnionMatchesNaiveSweep)
{
    Rng rng(0xC0A1E5CEull);
    MovementUnion movement;
    for (int set = 0; set < 2000; ++set) {
        const int num_ions = 1 + static_cast<int>(rng.NextBelow(8));
        const std::vector<IonInterval> raw =
            RandomIonIntervals(rng, num_ions,
                               static_cast<int>(rng.NextBelow(60)));
        std::vector<Interval> flat;
        for (const IonInterval& iv : raw) {
            flat.emplace_back(iv.start, iv.end);
        }
        const Microseconds naive = NaiveUnionMeasure(flat);
        // Table sizes below, at and beyond the ion count.
        for (const int table : {num_ions - 1, num_ions, num_ions + 3}) {
            movement.Reset(table);
            for (const IonInterval& iv : raw) {
                movement.Add(iv.ion, iv.start, iv.end);
            }
            const Microseconds measured = movement.Measure();
            EXPECT_EQ(std::bit_cast<std::uint64_t>(measured),
                      std::bit_cast<std::uint64_t>(naive))
                << "set " << set << " table " << table << ": " << measured
                << " vs " << naive;
        }
    }
}

}  // namespace
}  // namespace tiqec::compiler
