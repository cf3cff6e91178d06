/**
 * @file
 * Mutation harness for the artifact validators (src/analysis/,
 * DESIGN.md §6). Clean artifacts from both compiler pipelines must
 * produce zero diagnostics, and every registered rule-id must fire on
 * at least one deliberately corrupted artifact — so no rule is dead and
 * each mutation class is caught by the rule it was written for.
 */
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "analysis/distance_certifier.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qccd/primitives.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "store/keys.h"
#include "workloads/program.h"

namespace tiqec::analysis {
namespace {

using compiler::CompilationResult;
using compiler::TimedOp;
using qccd::OpKind;
using sim::SimInstruction;
using sim::SimOp;

/** One clean d=3 grid candidate, compiled/annotated/simulated once. */
struct CleanArtifacts
{
    qec::RotatedSurfaceCode code{3};
    core::ArchitectureConfig arch;
    int rounds = 3;
    core::CompileArtifacts compile;
    noise::RoundNoiseProfile profile;
    core::SimArtifacts sim;
};

const CleanArtifacts&
Clean()
{
    static const CleanArtifacts* fixture = [] {
        auto* f = new CleanArtifacts();
        f->compile = core::CompileCandidate(f->code, f->arch);
        if (!f->compile.ok) {
            ADD_FAILURE() << "fixture compile failed: " << f->compile.error;
            return f;
        }
        f->profile = core::AnnotateCandidate(f->code, f->arch, f->compile);
        f->sim = core::BuildSimArtifacts(
            f->code, f->compile, f->profile, f->arch, f->rounds,
            workloads::WorkloadSpec(workloads::WorkloadKind::kMemory,
                                    sim::MemoryBasis::kZ));
        return f;
    }();
    return *fixture;
}

std::vector<Diagnostic>
ValidateMutatedSchedule(const CompilationResult& mutated)
{
    return ValidateCompiledArtifacts(mutated, Clean().compile.graph,
                                     Clean().compile.timing,
                                     /*wise=*/false);
}

bool
HasRule(const std::vector<Diagnostic>& diags, std::string_view rule)
{
    return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
        return d.rule == rule;
    });
}

std::string
Join(const std::vector<Diagnostic>& diags)
{
    std::string out;
    for (const Diagnostic& d : diags) {
        out += "[" + d.rule + "] " + d.location + ": " + d.message + "\n";
    }
    return out.empty() ? "(no diagnostics)" : out;
}

/** Finds stream indices (a, b), a < b, where op b matches `later` and
 *  op a matches `earlier` with b in a's scan; -1/-1 when absent. */
template <typename Earlier, typename Later>
std::pair<int, int>
FindOpPair(const compiler::Schedule& s, const Earlier& earlier,
           const Later& later)
{
    for (size_t i = 0; i < s.ops.size(); ++i) {
        if (!earlier(s.ops[i])) {
            continue;
        }
        for (size_t j = i + 1; j < s.ops.size(); ++j) {
            if (later(s.ops[i], s.ops[j])) {
                return {static_cast<int>(i), static_cast<int>(j)};
            }
        }
    }
    return {-1, -1};
}

/** One mutation: the rule it must trigger plus the corrupted-artifact
 *  validation run. Returning an empty vector marks setup failure. */
struct Mutation
{
    std::string_view rule;
    std::function<std::vector<Diagnostic>()> run;
};

std::vector<Mutation>
MutationBattery()
{
    std::vector<Mutation> battery;

    // -- schedule.* ----------------------------------------------------
    battery.push_back({kRuleIonOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        const auto [a, b] = FindOpPair(
            m.schedule, [](const TimedOp&) { return true; },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.ion0 == ti.op.ion0;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleTrapOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        // Two trap-unit ops in one trap on disjoint ions, overlapped.
        const auto uses_unit = [](const TimedOp& t) {
            return (t.op.IsGate() || t.op.kind == OpKind::kSplit ||
                    t.op.kind == OpKind::kMerge) &&
                   t.op.node.valid();
        };
        const auto [a, b] = FindOpPair(
            m.schedule, uses_unit,
            [&](const TimedOp& ti, const TimedOp& tj) {
                return uses_unit(tj) && tj.op.node == ti.op.node &&
                       tj.op.ion0 != ti.op.ion0 &&
                       tj.op.ion0 != ti.op.ion1 &&
                       (!tj.op.ion1.valid() ||
                        (tj.op.ion1 != ti.op.ion0 &&
                         tj.op.ion1 != ti.op.ion1));
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleSegmentOverlap, [] {
        CompilationResult m = Clean().compile.compiled;
        // The second split of one segment retimed into the first's hold.
        const auto [a, b] = FindOpPair(
            m.schedule,
            [](const TimedOp& t) { return t.op.kind == OpKind::kSplit; },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.kind == OpKind::kSplit &&
                       tj.op.segment == ti.op.segment;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleJunctionCapacity, [] {
        CompilationResult m = Clean().compile.compiled;
        // Grid junctions have capacity 1: overlap two crossings.
        const auto [a, b] = FindOpPair(
            m.schedule,
            [](const TimedOp& t) {
                return t.op.kind == OpKind::kJunctionEnter;
            },
            [](const TimedOp& ti, const TimedOp& tj) {
                return tj.op.kind == OpKind::kJunctionEnter &&
                       tj.op.node == ti.op.node &&
                       tj.op.ion0 != ti.op.ion0;
            });
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = m.schedule.ops[a].start;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleDurationLut, [] {
        CompilationResult m = Clean().compile.compiled;
        EXPECT_FALSE(m.schedule.ops.empty());
        m.schedule.ops[0].duration *= 2.0;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleDagOrder, [] {
        CompilationResult m = Clean().compile.compiled;
        // The last gate op necessarily has a DAG predecessor that
        // finishes after t=0.
        int b = -1;
        for (size_t i = 0; i < m.schedule.ops.size(); ++i) {
            if (m.schedule.ops[i].op.IsGate()) {
                b = static_cast<int>(i);
            }
        }
        EXPECT_GE(b, 0);
        m.schedule.ops[b].start = 0.0;
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRulePositionTrace, [] {
        CompilationResult m = Clean().compile.compiled;
        // Dropping a merge strands the split chain in its segment.
        const auto it = std::find_if(
            m.schedule.ops.begin(), m.schedule.ops.end(),
            [](const TimedOp& t) { return t.op.kind == OpKind::kMerge; });
        EXPECT_NE(it, m.schedule.ops.end());
        m.schedule.ops.erase(it);
        return ValidateMutatedSchedule(m);
    }});
    battery.push_back({kRuleScheduleStats, [] {
        CompilationResult m = Clean().compile.compiled;
        m.schedule.makespan += 1.0;
        return ValidateMutatedSchedule(m);
    }});

    // -- circuit.* -----------------------------------------------------
    battery.push_back({kRuleQubitRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kCnot; });
        EXPECT_NE(it, insts.end());
        it->q1 = m.num_qubits();
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleRecordRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(insts.rbegin(), insts.rend(),
                                     [](const SimInstruction& i) {
                                         return i.op == SimOp::kDetector;
                                     });
        EXPECT_NE(it, insts.rend());
        it->targets[0] = m.num_measurements();  // dangling record
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleProbabilityRange, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kMeasure; });
        EXPECT_NE(it, insts.end());
        it->p = 1.5;
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleMeasuredOut, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        const auto it = std::find_if(
            insts.begin(), insts.end(),
            [](const SimInstruction& i) { return i.op == SimOp::kMeasure; });
        EXPECT_NE(it, insts.end());
        SimInstruction h;  // Clifford on a collapsed, not-yet-reset qubit
        h.op = SimOp::kH;
        h.q0 = it->q0;
        insts.insert(it + 1, h);
        return ValidateCircuit(m);
    }});
    battery.push_back({kRuleDetectorDeterminism, [] {
        sim::NoisyCircuit m = Clean().sim.experiment;
        auto& insts = m.mutable_instructions();
        // A two-record detector compares an ancilla measurement across
        // rounds; either record alone is a random outcome.
        const auto it = std::find_if(insts.begin(), insts.end(),
                                     [](const SimInstruction& i) {
                                         return i.op == SimOp::kDetector &&
                                                i.targets.size() == 2;
                                     });
        EXPECT_NE(it, insts.end());
        it->targets.pop_back();
        return ValidateCircuit(m);
    }});

    // -- dem.* ---------------------------------------------------------
    battery.push_back({kRuleDemProbabilityRange, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges[0].p = 1.5;
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDetectorRange, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges[0].d0 = m.num_detectors;
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDuplicateEdge, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        m.edges.push_back(m.edges[0]);
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemHyperedgeEdges, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        const auto it = std::find_if(
            m.hyperedges.begin(), m.hyperedges.end(),
            [](const sim::DemHyperedge& h) { return h.edges.size() >= 2; });
        EXPECT_NE(it, m.hyperedges.end());
        it->edges.pop_back();  // no longer tiles the signature
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemMassConservation, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.hyperedges.empty());
        m.hyperedges[0].p *= 0.5;  // mass leak vs recorded diagnostics
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemDetectorCoverage, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        m.num_detectors += 1;  // orphan detector: no mechanism flips it
        return ValidateDem(m);
    }});
    battery.push_back({kRuleDemLogicalOperator, [] {
        sim::DetectorErrorModel m = Clean().sim.dem;
        EXPECT_FALSE(m.edges.empty());
        // Observable action beyond the model's tracked observables.
        m.edges[0].obs_mask |= 1u << m.num_observables;
        return ValidateDem(m);
    }});
    // -- program.* -----------------------------------------------------
    // Structural validation of the logical-program IR
    // (workloads/program.h) through `analysis::ValidateProgram`: one
    // targeted corruption per registered rule.
    battery.push_back({kRuleProgramPatch, [] {
        // Duplicate patch name in the fabric declaration.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a a\nobservable o merge:0\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramLiveness, [] {
        // Re-preparing a patch that is already live.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nprepare a z\nidle 1\n"
            "measure a z\nobservable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramAdjacency, [] {
        // Merging fabric positions 0 and 2 skips the patch between them.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a b c\nprepare a z\nprepare c z\n"
            "merge a c zz\nsplit\nmeasure a z\nmeasure c z\n"
            "observable o merge:0\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramMergeState, [] {
        // Split with no open merge.
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nsplit\nidle 1\n"
            "measure a z\nobservable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramObservable, [] {
        // Observable term referencing a merge index past the last merge.
        workloads::LogicalProgram p =
            workloads::CanonicalProgram("single_merge");
        p.observables[0].terms[0].index = 7;
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramBasis, [] {
        // X readout of a Z-prepared idle patch: the observable depends
        // on a random measurement outcome (symplectic tableau check).
        const workloads::LogicalProgram p = workloads::ParseProgram(
            "program p\npatches a\nprepare a z\nidle 1\nmeasure a x\n"
            "observable o measure:a\n");
        return ValidateProgram(p);
    }});
    battery.push_back({kRuleProgramDistance, [] {
        // Even code distance cannot host the surgery fabric.
        return ValidateProgram(
            workloads::CanonicalProgram("single_merge"), /*distance=*/4);
    }});

    battery.push_back({kRuleDemDistance, [] {
        // A parallel boundary edge with flipped observable action gives
        // the logical operator a weight-2 shortcut through one detector.
        sim::DetectorErrorModel m = Clean().sim.dem;
        const auto it = std::find_if(
            m.edges.begin(), m.edges.end(), [](const sim::DemEdge& e) {
                return e.d1 == sim::DemEdge::kBoundary;
            });
        EXPECT_NE(it, m.edges.end());
        sim::DemEdge shortcut = *it;
        shortcut.obs_mask ^= 1u;
        m.edges.push_back(shortcut);
        return CheckDistance(m, Clean().code.distance());
    }});

    return battery;
}

// Every mutation is caught by the rule it was written for, and the
// battery covers the whole registry: a newly registered rule without a
// mutation (a dead rule) fails the coverage assertion.
TEST(AnalysisMutation, EveryRuleFiresOnItsMutation)
{
    ASSERT_TRUE(Clean().compile.ok);
    std::set<std::string_view> covered;
    for (const Mutation& mutation : MutationBattery()) {
        SCOPED_TRACE(std::string(mutation.rule));
        const std::vector<Diagnostic> diags = mutation.run();
        EXPECT_TRUE(HasRule(diags, mutation.rule)) << Join(diags);
        covered.insert(mutation.rule);
    }
    for (const std::string_view rule : AllRuleIds()) {
        EXPECT_TRUE(covered.count(rule))
            << "registered rule has no mutation: " << rule;
    }
    EXPECT_EQ(MutationBattery().size(), AllRuleIds().size());
}

// Clean artifacts from both compiler pipelines validate cleanly for all
// three workloads, and the static certifier reports effective distance
// exactly d for every observable (the PR's acceptance contract).
TEST(AnalysisClean, BothPipelinesAtD3AndD5ValidateAndCertifyAllWorkloads)
{
    struct FamilyCase
    {
        const char* family;
        std::vector<workloads::WorkloadKind> workloads;
    };
    const std::vector<FamilyCase> families = {
        {"rotated", {workloads::WorkloadKind::kMemory}},
        {"merged_zz",
         {workloads::WorkloadKind::kStability,
          workloads::WorkloadKind::kSurgery}},
    };
    for (const int distance : {3, 5}) {
        for (const bool reference : {false, true}) {
            for (const FamilyCase& fc : families) {
                SCOPED_TRACE("d=" + std::to_string(distance) +
                             (reference ? " reference " : " fast ") +
                             fc.family);
                const auto code = qec::MakeCode(fc.family, distance);
                core::ArchitectureConfig arch;
                core::CompileArtifacts arts;
                arts.graph = compiler::MakeDeviceFor(
                    *code, arch.topology, arch.trap_capacity);
                compiler::CompilerOptions copts;
                copts.reference_pipeline = reference;
                arts.compiled = compiler::CompileParityCheckRounds(
                    *code, 1, arts.graph, arts.timing, copts);
                ASSERT_TRUE(arts.compiled.ok) << arts.compiled.error;
                arts.ok = true;

                const auto schedule_diags = ValidateCompiledArtifacts(
                    arts.compiled, arts.graph, arts.timing,
                    /*wise=*/false);
                EXPECT_TRUE(schedule_diags.empty())
                    << Join(schedule_diags);

                const auto profile =
                    core::AnnotateCandidate(*code, arch, arts);
                for (const workloads::WorkloadKind kind : fc.workloads) {
                    SCOPED_TRACE("workload=" +
                                 std::to_string(static_cast<int>(kind)));
                    const workloads::WorkloadSpec spec(
                        kind, sim::MemoryBasis::kZ);
                    const auto sim = core::BuildSimArtifacts(
                        *code, arts, profile, arch, distance, spec);
                    const auto sim_diags = ValidateSimArtifacts(
                        sim.experiment, sim.dem,
                        SimValidationOptionsFor(*code, spec));
                    EXPECT_TRUE(sim_diags.empty()) << Join(sim_diags);

                    DistanceCertificate cert;
                    const auto cert_diags =
                        CheckDistance(sim.dem, distance, {}, &cert);
                    EXPECT_TRUE(cert_diags.empty()) << Join(cert_diags);
                    for (const ObservableDistance& od : cert.observables) {
                        EXPECT_TRUE(od.found);
                        EXPECT_TRUE(od.exact);
                        EXPECT_EQ(od.distance, distance)
                            << "observable " << od.observable;
                        EXPECT_EQ(static_cast<int>(od.witness.size()),
                                  distance);
                    }
                }
            }
        }
    }
}

// The certifier on a hand-built repetition-chain DEM: boundary - d0 -
// d1 - d2 - boundary, observable on one boundary edge. Distance is the
// chain length; a correlated three-detector hyperedge mechanism (the
// non-graphlike regime) shortcuts it.
TEST(DistanceCertifier, HandBuiltChainAndHyperedgeShortcut)
{
    sim::DetectorErrorModel m;
    m.num_detectors = 3;
    m.num_observables = 1;
    m.edges.push_back({0, sim::DemEdge::kBoundary, 0.01, 1});
    m.edges.push_back({0, 1, 0.01, 0});
    m.edges.push_back({1, 2, 0.01, 0});
    m.edges.push_back({2, sim::DemEdge::kBoundary, 0.01, 0});

    const DistanceCertificate cert = CertifyDistance(m);
    EXPECT_TRUE(cert.graph_like);
    ASSERT_EQ(cert.observables.size(), 1u);
    EXPECT_TRUE(cert.observables[0].found);
    EXPECT_TRUE(cert.observables[0].exact);
    EXPECT_EQ(cert.observables[0].distance, 4);
    EXPECT_EQ(cert.observables[0].witness.size(), 4u);
    EXPECT_TRUE(CheckDistance(m, 4).empty());
    EXPECT_TRUE(HasRule(CheckDistance(m, 5), kRuleDemDistance));

    // A correlated mechanism across all three detectors cancels against
    // {edge 0-1, edge 2-boundary}: a weight-3 undetectable logical
    // error invisible to the graphlike search.
    sim::DemHyperedge h;
    h.dets = {0, 1, 2};
    h.p = 0.001;
    h.obs_mask = 1;
    h.mechanism = 0;
    m.hyperedges.push_back(h);
    m.num_hyperedges = 1;

    const DistanceCertificate shortcut = CertifyDistance(m);
    EXPECT_FALSE(shortcut.graph_like);
    ASSERT_EQ(shortcut.observables.size(), 1u);
    EXPECT_TRUE(shortcut.observables[0].found);
    EXPECT_TRUE(shortcut.observables[0].exact);
    EXPECT_EQ(shortcut.observables[0].distance, 3);
    const auto diags = CheckDistance(m, 4);
    ASSERT_TRUE(HasRule(diags, kRuleDemDistance)) << Join(diags);
    EXPECT_NE(diags[0].message.find("witness mechanism set"),
              std::string::npos)
        << diags[0].message;
}

// WISE wiring folds cooling into two-qubit gate durations; the duration
// rule must accept that wiring when told about it.
TEST(AnalysisClean, WiseScheduleValidatesWithWiseFlag)
{
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    arch.wiring = core::WiringKind::kWise;
    const core::CompileArtifacts arts = core::CompileCandidate(code, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const auto diags = ValidateCompiledArtifacts(
        arts.compiled, arts.graph, arts.timing, /*wise=*/true);
    EXPECT_TRUE(diags.empty()) << Join(diags);
}

// Ids in a stored schedule are untrusted input. An op or placement entry
// whose id lies outside its table is reported under the position-trace
// rule and kept out of the resource rules and the replay; it is never
// used as an index (each of these cases used to crash the validator).
TEST(ScheduleValidatorIds, OutOfRangeIdsAreReportedNotIndexed)
{
    constexpr std::int32_t kFar = 100000000;
    const CompilationResult& clean = Clean().compile.compiled;
    const qccd::DeviceGraph& graph = Clean().compile.graph;
    const auto first_of = [&](OpKind kind) {
        const auto it = std::find_if(
            clean.schedule.ops.begin(), clean.schedule.ops.end(),
            [&](const TimedOp& t) { return t.op.kind == kind; });
        EXPECT_NE(it, clean.schedule.ops.end());
        return static_cast<size_t>(it - clean.schedule.ops.begin());
    };
    const auto op_prefix = [](size_t i) {
        return "op " + std::to_string(i) + " (";
    };
    const auto outside = [](const std::string& table, int size) {
        return table + " id 100000000 is outside [0, " +
               std::to_string(size) + ")";
    };
    const size_t split = first_of(OpKind::kSplit);
    const size_t enter = first_of(OpKind::kJunctionEnter);
    const size_t ms = first_of(OpKind::kMs);
    struct Case
    {
        const char* name;
        std::function<void(CompilationResult&)> corrupt;
        std::string location_prefix;
        std::string message;
    };
    const std::vector<Case> cases = {
        {"split segment",
         [&](CompilationResult& m) {
             m.schedule.ops[split].op.segment = SegmentId(kFar);
         },
         op_prefix(split), outside("segment", graph.num_segments())},
        {"junction-enter node",
         [&](CompilationResult& m) {
             m.schedule.ops[enter].op.node = NodeId(kFar);
         },
         op_prefix(enter), outside("node", graph.num_nodes())},
        {"MS ion",
         [&](CompilationResult& m) {
             m.schedule.ops[ms].op.ion0 = QubitId(kFar);
         },
         op_prefix(ms), outside("ion", clean.native.num_qubits())},
        {"placement entry",
         [&](CompilationResult& m) {
             m.placement.qubit_trap[0] = NodeId(kFar);
         },
         "placement",
         "qubit 0 is placed at node id 100000000, outside [0, " +
             std::to_string(graph.num_nodes()) + ")"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        CompilationResult m = clean;
        c.corrupt(m);
        const std::vector<Diagnostic> diags = ValidateMutatedSchedule(m);
        bool reported = false;
        for (const Diagnostic& d : diags) {
            const bool at_fault = d.location.rfind(c.location_prefix, 0) == 0;
            reported |= at_fault && d.rule == kRulePositionTrace &&
                        d.message == c.message;
            const bool resource_rule =
                d.rule == kRuleIonOverlap || d.rule == kRuleTrapOverlap ||
                d.rule == kRuleSegmentOverlap ||
                d.rule == kRuleJunctionCapacity;
            EXPECT_FALSE(resource_rule && at_fault) << Join(diags);
        }
        EXPECT_TRUE(reported) << Join(diags);
    }
}

// Toolflow wiring: validation + certification on, clean candidate ->
// success, and the sweep engine agrees with the serial path shot for
// shot.
TEST(AnalysisWiring, EvaluateAndSweepAcceptCleanCandidateWithValidation)
{
    const qec::RotatedSurfaceCode code(3);
    core::ArchitectureConfig arch;
    core::EvaluationOptions options;
    options.validate_artifacts = true;
    options.certify_distance = true;
    options.max_shots = 1 << 12;
    options.target_logical_errors = 8;

    const core::Metrics serial = core::Evaluate(code, arch, options);
    ASSERT_TRUE(serial.ok) << serial.error;

    core::SweepCandidate candidate;
    candidate.code = std::make_shared<qec::RotatedSurfaceCode>(3);
    candidate.arch = arch;
    candidate.options = options;
    core::SweepRunner runner;
    const auto metrics = runner.Run({candidate});
    ASSERT_EQ(metrics.size(), 1u);
    ASSERT_TRUE(metrics[0].ok) << metrics[0].error;
    EXPECT_EQ(metrics[0].shots, serial.shots);
    EXPECT_EQ(metrics[0].logical_errors, serial.logical_errors);
    EXPECT_EQ(runner.last_run_stats().validations, 2);
    EXPECT_EQ(runner.last_run_stats().validation_failures, 0);
    EXPECT_EQ(runner.last_run_stats().certifies, 1);
    EXPECT_EQ(runner.last_run_stats().certify_failures, 0);
}

// Deleting a seam stabilizer round (surgery with rounds < d) silently
// lowers the joint-parity observable's temporal distance; the certifier
// catches it as sub-distance with a witness, identically in the serial
// path and in the sweep engine at every pool width.
TEST(AnalysisWiring, SeamRoundDeletionIsCaughtAsSubDistance)
{
    const auto code = std::make_shared<qec::MergedPatchCode>(
        3, qec::SurgeryParity::kZZ);
    core::ArchitectureConfig arch;
    core::EvaluationOptions options;
    options.workload = workloads::WorkloadKind::kSurgery;
    options.rounds = 2;  // one seam stabilizer round deleted
    options.certify_distance = true;
    options.max_shots = 1 << 10;
    options.target_logical_errors = 8;

    const core::Metrics serial = core::Evaluate(*code, arch, options);
    EXPECT_FALSE(serial.ok);
    EXPECT_NE(serial.error.find(kRuleDemDistance), std::string::npos)
        << serial.error;
    EXPECT_NE(serial.error.find("witness mechanism set"),
              std::string::npos)
        << serial.error;

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::SweepCandidate candidate;
        candidate.code = code;
        candidate.arch = arch;
        candidate.options = options;
        core::SweepRunnerOptions ropts;
        ropts.num_threads = threads;
        core::SweepRunner runner(ropts);
        const auto metrics = runner.Run({candidate});
        ASSERT_EQ(metrics.size(), 1u);
        EXPECT_FALSE(metrics[0].ok);
        EXPECT_EQ(metrics[0].error, serial.error);  // byte-identical
        EXPECT_EQ(runner.last_run_stats().certifies, 1);
        EXPECT_EQ(runner.last_run_stats().certify_failures, 1);
    }
}

// TIQEC_VALIDATE parsing follows the TIQEC_THREADS discipline: unset
// keeps the build default, a full integer parses (nonzero = on), and
// garbage warns and keeps the default.
TEST(AnalysisWiring, ValidateArtifactsEnvParser)
{
    EXPECT_TRUE(core::ParseValidateArtifactsEnv(nullptr, true));
    EXPECT_FALSE(core::ParseValidateArtifactsEnv(nullptr, false));
    EXPECT_TRUE(core::ParseValidateArtifactsEnv("1", false));
    EXPECT_FALSE(core::ParseValidateArtifactsEnv("0", true));
    EXPECT_TRUE(core::ParseValidateArtifactsEnv("2", false));
    EXPECT_TRUE(core::ParseValidateArtifactsEnv("abc", true));
    EXPECT_FALSE(core::ParseValidateArtifactsEnv("abc", false));
    EXPECT_FALSE(core::ParseValidateArtifactsEnv("", false));
    EXPECT_FALSE(core::ParseValidateArtifactsEnv("1x", false));
}

// ---------------------------------------------------------------------
// Exact-output pin for the schedule rules. The battery above only asks
// whether a rule fired; this corpus pins the full report (rule, location,
// message, order, and the per-rule cap) on seeded mutation sets over
// compiled schedules, as one FNV-1a-64 digest per schedule.

/** Applies one random corruption from the corpus's menu to `s`. */
void
MutateOnce(compiler::Schedule& s, const ScheduleValidationInput& in,
           Rng& rng)
{
    const auto pick = [&] {
        return static_cast<size_t>(rng.NextBelow(s.ops.size()));
    };
    const auto below = [&](int n) {
        return static_cast<std::int32_t>(rng.NextBelow(n));
    };
    if (s.ops.empty()) {
        s.makespan += 1.0;
        return;
    }
    const size_t i = pick();
    TimedOp& t = s.ops[i];
    switch (rng.NextBelow(12)) {
      case 0:  // retime an op to another op's start
        t.start = s.ops[pick()].start;
        break;
      case 1:  // shift a start by +-1 us
        t.start += rng.NextBelow(2) == 0 ? 1.0 : -1.0;
        break;
      case 2:
        t.duration *= 2.0;
        break;
      case 3:
        t.duration = -t.duration;
        break;
      case 4:
        s.ops.erase(s.ops.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 5: {
        const TimedOp copy = t;
        s.ops.insert(s.ops.begin() + static_cast<std::ptrdiff_t>(i), copy);
        break;
      }
      case 6:
        std::swap(t, s.ops[pick()]);
        break;
      case 7: {  // remap an ion to another in-range ion
        const QubitId ion(below(in.native->num_qubits()));
        if (t.op.ion1.valid() && rng.NextBelow(2) == 0) {
            t.op.ion1 = ion;
        } else {
            t.op.ion0 = ion;
        }
        break;
      }
      case 8:
        t.op.node = NodeId(below(in.graph->num_nodes()));
        break;
      case 9:
        t.op.segment = SegmentId(below(in.graph->num_segments()));
        break;
      case 10:
        t.op.source_gate = rng.NextBelow(4) == 0
                               ? GateId()
                               : GateId(below(in.native->size()));
        break;
      default:
        s.makespan += 1.0;
        break;
    }
}

TEST(ScheduleValidatorDigest, MutationCorpusReportsArePinned)
{
    struct Case
    {
        const char* label;
        int distance;
        qccd::TopologyKind topology;
        core::WiringKind wiring;
        int compile_rounds;
        std::uint64_t digest;
    };
    using qccd::TopologyKind;
    using core::WiringKind;
    const Case cases[] = {
        {"d3_linear", 3, TopologyKind::kLinear, WiringKind::kStandard, 1,
         0x6ea5108b704b6cd1ull},
        {"d3_linear_wise", 3, TopologyKind::kLinear, WiringKind::kWise, 1,
         0x62fc65751fdea710ull},
        {"d3_grid", 3, TopologyKind::kGrid, WiringKind::kStandard, 1,
         0xbedee676d1e6efdfull},
        {"d3_grid_wise", 3, TopologyKind::kGrid, WiringKind::kWise, 1,
         0x2b85bd3712405370ull},
        {"d3_switch", 3, TopologyKind::kSwitch, WiringKind::kStandard, 1,
         0xd94e9acde48f89d9ull},
        {"d3_switch_wise", 3, TopologyKind::kSwitch, WiringKind::kWise, 1,
         0xbefe490c7264192eull},
        {"d5_linear", 5, TopologyKind::kLinear, WiringKind::kStandard, 1,
         0xce003435aa633f83ull},
        {"d5_linear_wise", 5, TopologyKind::kLinear, WiringKind::kWise, 1,
         0x1007e099c76dfeb6ull},
        {"d5_grid", 5, TopologyKind::kGrid, WiringKind::kStandard, 1,
         0xf1ce48807e1c657bull},
        {"d5_grid_wise", 5, TopologyKind::kGrid, WiringKind::kWise, 1,
         0xf4474d77fd94086aull},
        {"d5_switch", 5, TopologyKind::kSwitch, WiringKind::kStandard, 1,
         0x6d3c9cee63bc5a03ull},
        {"d5_switch_wise", 5, TopologyKind::kSwitch, WiringKind::kWise, 1,
         0x4b0435a7bba10b30ull},
        {"d3_grid_3rounds", 3, TopologyKind::kGrid, WiringKind::kStandard, 3,
         0x8ddda88fde50e32eull},
    };
    constexpr int kSets = 200;
    for (const Case& c : cases) {
        SCOPED_TRACE(c.label);
        const qec::RotatedSurfaceCode code(c.distance);
        core::ArchitectureConfig arch;
        arch.topology = c.topology;
        arch.wiring = c.wiring;
        const core::CompileArtifacts arts =
            core::CompileCandidate(code, arch, c.compile_rounds);
        ASSERT_TRUE(arts.ok) << arts.error;

        ScheduleValidationInput in;
        in.native = &arts.compiled.native;
        in.placement = &arts.compiled.placement;
        in.graph = &arts.graph;
        in.timing = &arts.timing;
        in.wise = c.wiring == WiringKind::kWise;
        in.schedule = &arts.compiled.schedule;
        ASSERT_TRUE(ValidateSchedule(in).empty());

        Rng rng(0xD1A6u + static_cast<std::uint64_t>(c.distance) * 131 +
                static_cast<std::uint64_t>(c.topology) * 17 +
                static_cast<std::uint64_t>(c.wiring) * 7 +
                static_cast<std::uint64_t>(c.compile_rounds));
        std::string report;
        int reported_sets = 0;
        for (int set = 0; set < kSets; ++set) {
            compiler::Schedule mutated = arts.compiled.schedule;
            const int mutations = 1 + static_cast<int>(rng.NextBelow(6));
            for (int m = 0; m < mutations; ++m) {
                MutateOnce(mutated, in, rng);
            }
            ScheduleValidationInput mutated_in = in;
            mutated_in.schedule = &mutated;
            const std::vector<Diagnostic> diags = ValidateSchedule(mutated_in);
            reported_sets += diags.empty() ? 0 : 1;
            report += "set " + std::to_string(set) + "\n" + Join(diags);
        }
        // A replay that trips an internal check would put a source path
        // into the text, and the digest would depend on the checkout.
        EXPECT_EQ(report.find("TIQEC_CHECK"), std::string::npos);
        EXPECT_GT(reported_sets, kSets * 3 / 4);
        const std::uint64_t digest = store::Fnv1a64(report);
        EXPECT_EQ(digest, c.digest) << c.label << ": 0x" << std::hex
                                    << digest;
    }
}

}  // namespace
}  // namespace tiqec::analysis
