/**
 * @file
 * Workload-subsystem tests: golden/differential coverage for the
 * merged-patch surgery code (stabilizer counts, observable supports,
 * the joint-parity product algebra, pinned d=3/5 DEM stats), a digest
 * of every experiment circuit the builders emit, the surgery/stability
 * sweep's cross-thread bit-identity at d=3/5, and cross-workload
 * compile-artifact sharing in the sweep cache.
 */
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/surgery.h"
#include "sim/circuit_io.h"
#include "sim/dem.h"
#include "store/keys.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::workloads {
namespace {

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Merged-patch code structure
// ---------------------------------------------------------------------------

class MergedPatchCodeTest
    : public ::testing::TestWithParam<std::tuple<int, qec::SurgeryParity>>
{
  protected:
    int d() const { return std::get<0>(GetParam()); }
    qec::SurgeryParity parity() const { return std::get<1>(GetParam()); }
};

TEST_P(MergedPatchCodeTest, CountsMatchTheMergedRectangle)
{
    const qec::MergedPatchCode code(d(), parity());
    const int data = (2 * d() + 1) * d();
    EXPECT_EQ(code.num_data(), data);
    EXPECT_EQ(code.num_ancillas(), data - 1);
    EXPECT_EQ(code.distance(), d());
    EXPECT_EQ(static_cast<int>(code.seam_data().size()), d());
    EXPECT_EQ(static_cast<int>(code.patch_a_data().size()), d() * d());
    EXPECT_EQ(static_cast<int>(code.patch_b_data().size()), d() * d());
    EXPECT_EQ(static_cast<int>(code.patch_a_logical().size()), d());
    EXPECT_EQ(static_cast<int>(code.patch_b_logical().size()), d());
    // The joint checks are one plaquette column/row pair: d+1 checks.
    EXPECT_EQ(static_cast<int>(code.joint_parity_checks().size()),
              d() + 1);
}

TEST_P(MergedPatchCodeTest, PatchAndSeamDataPartitionTheDataQubits)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> all;
    for (const auto& group : {code.patch_a_data(), code.patch_b_data(),
                              code.seam_data()}) {
        for (const QubitId q : group) {
            EXPECT_TRUE(all.insert(q.value).second)
                << "qubit " << q.value << " classified twice";
        }
    }
    EXPECT_EQ(static_cast<int>(all.size()), code.num_data());
}

TEST_P(MergedPatchCodeTest, JointChecksAreTheParityTypeSeamSpanners)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> seam;
    for (const QubitId q : code.seam_data()) {
        seam.insert(q.value);
    }
    const std::set<int> joint(code.joint_parity_checks().begin(),
                              code.joint_parity_checks().end());
    const qec::CheckType joint_type =
        qec::SurgeryParityCheckType(parity());
    for (int k = 0; k < code.num_ancillas(); ++k) {
        const auto& chk = code.checks()[k];
        bool touches_seam = false;
        for (const QubitId q : chk.data_order) {
            touches_seam |= q.valid() && seam.count(q.value) > 0;
        }
        if (chk.type == joint_type) {
            // Joint-parity checks are exactly the parity-type checks
            // whose support spans the seam - the checks that did not
            // exist before the merge.
            EXPECT_EQ(joint.count(k) > 0, touches_seam) << "check " << k;
        } else {
            EXPECT_EQ(joint.count(k), 0u) << "check " << k;
        }
    }
}

/**
 * The algebra the joint-parity measurement rests on: the product of the
 * joint checks' operators is exactly the two patch-boundary
 * columns/rows adjacent to the seam - per-patch logical representatives
 * of the parity type - so the product of their first-round outcomes
 * measures the joint parity, and the split preparation (patch data in
 * the parity basis) makes it deterministic.
 */
TEST_P(MergedPatchCodeTest, JointCheckProductIsTheTwoBoundaryLogicals)
{
    const qec::MergedPatchCode code(d(), parity());
    std::set<int> sym;
    for (const int k : code.joint_parity_checks()) {
        for (const QubitId q : code.checks()[k].data_order) {
            if (!q.valid()) {
                continue;
            }
            if (!sym.insert(q.value).second) {
                sym.erase(q.value);
            }
        }
    }
    const bool horizontal = parity() == qec::SurgeryParity::kXX;
    std::set<int> expected;
    for (const QubitId q : code.data_qubits()) {
        const Coord c = code.qubit(q).coord;
        const int i =
            static_cast<int>(((horizontal ? c.x : c.y) - 1.0) / 2.0);
        if (i == d() - 1 || i == d() + 1) {
            expected.insert(q.value);
        }
    }
    EXPECT_EQ(sym, expected);
}

TEST_P(MergedPatchCodeTest, PatchLogicalsLiveInTheirPatchesAndCommute)
{
    const qec::MergedPatchCode code(d(), parity());
    const auto in = [](const std::vector<QubitId>& group,
                       const std::vector<QubitId>& sub) {
        const std::set<int> g = [&] {
            std::set<int> s;
            for (const QubitId q : group) {
                s.insert(q.value);
            }
            return s;
        }();
        for (const QubitId q : sub) {
            if (g.count(q.value) == 0) {
                return false;
            }
        }
        return true;
    };
    EXPECT_TRUE(in(code.patch_a_data(), code.patch_a_logical()));
    EXPECT_TRUE(in(code.patch_b_data(), code.patch_b_logical()));

    // Symplectic commutation of each patch logical with every check:
    // the logical is parity-type (X for kXX), so it can only
    // anticommute with opposite-type checks, via odd overlap.
    for (const auto* logical :
         {&code.patch_a_logical(), &code.patch_b_logical()}) {
        std::set<int> support;
        for (const QubitId q : *logical) {
            support.insert(q.value);
        }
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const auto& chk = code.checks()[k];
            if (chk.type == qec::SurgeryParityCheckType(parity())) {
                continue;  // same Pauli type always commutes
            }
            int overlap = 0;
            for (const QubitId q : chk.data_order) {
                overlap += q.valid() && support.count(q.value) ? 1 : 0;
            }
            EXPECT_EQ(overlap % 2, 0)
                << "patch logical anticommutes with check " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distances, MergedPatchCodeTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(qec::SurgeryParity::kXX,
                                         qec::SurgeryParity::kZZ)));

TEST(MergedPatchCodeTest, FactorySpellsBothOrientations)
{
    const auto xx = qec::MakeCode("merged_xx", 3);
    const auto zz = qec::MakeCode("merged_zz", 3);
    ASSERT_NE(dynamic_cast<const qec::MergedPatchCode*>(xx.get()),
              nullptr);
    ASSERT_NE(dynamic_cast<const qec::MergedPatchCode*>(zz.get()),
              nullptr);
    EXPECT_EQ(dynamic_cast<const qec::MergedPatchCode*>(xx.get())
                  ->parity(),
              qec::SurgeryParity::kXX);
    EXPECT_EQ(dynamic_cast<const qec::MergedPatchCode*>(zz.get())
                  ->parity(),
              qec::SurgeryParity::kZZ);
}

// ---------------------------------------------------------------------------
// Experiment builder
// ---------------------------------------------------------------------------

TEST(WorkloadSpecTest, KindNamesRoundTrip)
{
    for (const WorkloadKind kind :
         {WorkloadKind::kMemory, WorkloadKind::kStability,
          WorkloadKind::kSurgery}) {
        EXPECT_EQ(ParseWorkloadKind(WorkloadKindName(kind)), kind);
    }
    EXPECT_THROW(ParseWorkloadKind("surgery_xx"), std::invalid_argument);
}

TEST(WorkloadSpecTest, SurgeryRequiresAMergedPatchCode)
{
    // The code is checked before any circuit is built, so empty round
    // inputs suffice. Memory runs on the merged patch too
    // (WorkloadsShareCompileArtifactsOnTheSameDevice).
    const qec::RotatedSurfaceCode plain(3);
    for (const WorkloadKind kind :
         {WorkloadKind::kSurgery, WorkloadKind::kStability}) {
        EXPECT_THROW(BuildExperiment(plain, circuit::Circuit(),
                                     noise::RoundNoiseProfile(), {}, 3,
                                     kind),
                     std::invalid_argument)
            << WorkloadKindName(kind);
    }
}

/** Every single-code workload rejects a round count below one with a
 *  CheckError, in every build type. */
TEST(WorkloadSpecTest, FewerThanOneRoundThrows)
{
    const core::ArchitectureConfig arch;
    const qec::RotatedSurfaceCode rotated(3);
    const qec::MergedPatchCode merged(3, qec::SurgeryParity::kXX);
    const std::pair<const qec::StabilizerCode*, WorkloadSpec> cases[] = {
        {&rotated, {WorkloadKind::kMemory, sim::MemoryBasis::kZ}},
        {&rotated, {WorkloadKind::kMemory, sim::MemoryBasis::kX}},
        {&merged, WorkloadKind::kStability},
        {&merged, WorkloadKind::kSurgery},
    };
    for (const auto& [code, spec] : cases) {
        const core::CompileArtifacts arts =
            core::CompileCandidate(*code, arch);
        ASSERT_TRUE(arts.ok) << arts.error;
        const auto profile = core::AnnotateCandidate(*code, arch, arts);
        for (const int rounds : {0, -1}) {
            EXPECT_THROW(BuildExperiment(*code, arts.compiled.qec_circuit,
                                         profile, core::NoiseParamsFor(arch),
                                         rounds, spec),
                         CheckError)
                << WorkloadKindName(spec.kind) << " rounds=" << rounds;
        }
    }
}

std::uint64_t
CircuitDigest(const sim::NoisyCircuit& circuit)
{
    return store::Fnv1a64(sim::FormatNoisyCircuit(circuit));
}

/**
 * Builds every pinned experiment circuit and returns its label and the
 * FNV-1a digest of its text, in build order: memory Z and X on every
 * code family, plus stability and surgery on both merged patches, at
 * d=3 and 5 with 1 and d rounds, on grid capacity 2 and on switch
 * capacity 5 (which has in-trap swap noise); memory at d=5 on WISE
 * wiring; and the canonical programs at d=3 with d rounds on the same
 * two devices.
 */
std::vector<std::pair<std::string, std::uint64_t>>
ExperimentCircuitDigests()
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    const auto add_code = [&](const std::string& family, int d,
                              const std::vector<int>& rounds_list,
                              const std::string& device,
                              const core::ArchitectureConfig& arch) {
        const auto code = qec::MakeCode(family, d);
        const core::CompileArtifacts arts =
            core::CompileCandidate(*code, arch);
        if (!arts.ok) {
            ADD_FAILURE() << family << " on " << device << ": " << arts.error;
            return;
        }
        const auto profile = core::AnnotateCandidate(*code, arch, arts);
        std::vector<std::pair<std::string, WorkloadSpec>> shapes = {
            {"memory_z", {WorkloadKind::kMemory, sim::MemoryBasis::kZ}},
            {"memory_x", {WorkloadKind::kMemory, sim::MemoryBasis::kX}},
        };
        if (family.rfind("merged", 0) == 0) {
            shapes.emplace_back("stability", WorkloadKind::kStability);
            shapes.emplace_back("surgery", WorkloadKind::kSurgery);
        }
        for (const int rounds : rounds_list) {
            for (const auto& [name, spec] : shapes) {
                out.emplace_back(
                    family + " d=" + std::to_string(d) + " r=" +
                        std::to_string(rounds) + " " + device + " " + name,
                    CircuitDigest(BuildExperiment(
                        *code, arts.compiled.qec_circuit, profile,
                        core::NoiseParamsFor(arch), rounds, spec)));
            }
        }
    };

    core::ArchitectureConfig grid;
    core::ArchitectureConfig swtch;
    swtch.topology = qccd::TopologyKind::kSwitch;
    swtch.trap_capacity = 5;
    const std::pair<std::string, core::ArchitectureConfig> devices[] = {
        {"grid_c2", grid}, {"switch_c5", swtch}};
    for (const auto& [device, arch] : devices) {
        for (const std::string family :
             {"rotated", "repetition", "unrotated", "merged_xx",
              "merged_zz"}) {
            for (const int d : {3, 5}) {
                add_code(family, d, {1, d}, device, arch);
            }
        }
    }
    core::ArchitectureConfig wise;
    wise.wiring = core::WiringKind::kWise;
    add_code("rotated", 5, {5}, "grid_c2_wise", wise);

    for (const auto& [device, arch] : devices) {
        for (const std::string& name : CanonicalProgramNames()) {
            const auto bound = BoundProgram::Bind(CanonicalProgram(name), 3);
            std::vector<core::CompileArtifacts> arts;
            std::vector<noise::RoundNoiseProfile> profiles;
            for (const auto& code : bound->phase_codes()) {
                arts.push_back(core::CompileCandidate(*code, arch));
                EXPECT_TRUE(arts.back().ok) << arts.back().error;
                profiles.push_back(
                    core::AnnotateCandidate(*code, arch, arts.back()));
            }
            std::vector<BoundProgram::PhaseCircuit> phases;
            for (size_t i = 0; i < arts.size(); ++i) {
                phases.push_back(
                    {&arts[i].compiled.qec_circuit, &profiles[i]});
            }
            out.emplace_back(
                name + " d=3 r=3 " + device,
                CircuitDigest(
                    bound->Build(phases, core::NoiseParamsFor(arch), 3)));
        }
    }
    return out;
}

/** Pins the text of every experiment circuit `BuildExperiment` and
 *  `BoundProgram::Build` emit, so any change to a circuit's
 *  instructions, noise, detectors or observables shows up here. */
TEST(ExperimentDigestTest, EveryExperimentCircuitIsPinned)
{
    struct Pin
    {
        const char* label;
        std::uint64_t digest;
    };
    const Pin pinned[] = {
        {"rotated d=3 r=1 grid_c2 memory_z", 0x01633cbfcf887866ULL},
        {"rotated d=3 r=1 grid_c2 memory_x", 0x77744182eb95128eULL},
        {"rotated d=3 r=3 grid_c2 memory_z", 0x26be146b5cf4bbb9ULL},
        {"rotated d=3 r=3 grid_c2 memory_x", 0x664a60d052ee4233ULL},
        {"rotated d=5 r=1 grid_c2 memory_z", 0x1e29f758df29a7aaULL},
        {"rotated d=5 r=1 grid_c2 memory_x", 0x9de58df111ae6825ULL},
        {"rotated d=5 r=5 grid_c2 memory_z", 0x62ebe3aa28a0de12ULL},
        {"rotated d=5 r=5 grid_c2 memory_x", 0x09f81e63db52f2b4ULL},
        {"repetition d=3 r=1 grid_c2 memory_z", 0x4f1336e6eb17ebc5ULL},
        {"repetition d=3 r=1 grid_c2 memory_x", 0xf1ad3e230734dbaaULL},
        {"repetition d=3 r=3 grid_c2 memory_z", 0x9ccbd88112eb2bbbULL},
        {"repetition d=3 r=3 grid_c2 memory_x", 0xcbab662ce35a2058ULL},
        {"repetition d=5 r=1 grid_c2 memory_z", 0x61a6b4b028e74ea2ULL},
        {"repetition d=5 r=1 grid_c2 memory_x", 0xdd860a10ac88decfULL},
        {"repetition d=5 r=5 grid_c2 memory_z", 0x277a5d61baee78baULL},
        {"repetition d=5 r=5 grid_c2 memory_x", 0x5a6f6fcbaf73aed0ULL},
        {"unrotated d=3 r=1 grid_c2 memory_z", 0x51d71c394d7f8b4bULL},
        {"unrotated d=3 r=1 grid_c2 memory_x", 0x176eb9f085de23abULL},
        {"unrotated d=3 r=3 grid_c2 memory_z", 0xe94f0ca0083f3c88ULL},
        {"unrotated d=3 r=3 grid_c2 memory_x", 0xb50fc39adfe2b91cULL},
        {"unrotated d=5 r=1 grid_c2 memory_z", 0xdee66c6368a0a484ULL},
        {"unrotated d=5 r=1 grid_c2 memory_x", 0x71b3dc43fb7a30d7ULL},
        {"unrotated d=5 r=5 grid_c2 memory_z", 0x3c8724f4cc89a704ULL},
        {"unrotated d=5 r=5 grid_c2 memory_x", 0x0f271e30af28e929ULL},
        {"merged_xx d=3 r=1 grid_c2 memory_z", 0x9a8f29dfc0cfbd35ULL},
        {"merged_xx d=3 r=1 grid_c2 memory_x", 0xfce8e05f4d5023bfULL},
        {"merged_xx d=3 r=1 grid_c2 stability", 0xd23dd26df894e156ULL},
        {"merged_xx d=3 r=1 grid_c2 surgery", 0xd9a6eb227863139bULL},
        {"merged_xx d=3 r=3 grid_c2 memory_z", 0x42219a5845645505ULL},
        {"merged_xx d=3 r=3 grid_c2 memory_x", 0x37d545ae5eefec10ULL},
        {"merged_xx d=3 r=3 grid_c2 stability", 0xff7d4e823c6c6ffeULL},
        {"merged_xx d=3 r=3 grid_c2 surgery", 0x8dbf88b7237d36d3ULL},
        {"merged_xx d=5 r=1 grid_c2 memory_z", 0x14dd13199c12ed2eULL},
        {"merged_xx d=5 r=1 grid_c2 memory_x", 0x558e293e2f2be86eULL},
        {"merged_xx d=5 r=1 grid_c2 stability", 0x106dddb61b834e95ULL},
        {"merged_xx d=5 r=1 grid_c2 surgery", 0x93d35ef90a0ea021ULL},
        {"merged_xx d=5 r=5 grid_c2 memory_z", 0xfd64e01c21f4a1c4ULL},
        {"merged_xx d=5 r=5 grid_c2 memory_x", 0x4542d7ba8ea8b7c1ULL},
        {"merged_xx d=5 r=5 grid_c2 stability", 0x3057e8f131b03316ULL},
        {"merged_xx d=5 r=5 grid_c2 surgery", 0x1329164acf3aeaf9ULL},
        {"merged_zz d=3 r=1 grid_c2 memory_z", 0x13e20c9f3c169842ULL},
        {"merged_zz d=3 r=1 grid_c2 memory_x", 0xac70199bbd0b45f5ULL},
        {"merged_zz d=3 r=1 grid_c2 stability", 0xb0dcd96f1883d0e5ULL},
        {"merged_zz d=3 r=1 grid_c2 surgery", 0xb46ee2843495e69eULL},
        {"merged_zz d=3 r=3 grid_c2 memory_z", 0x95dbf8e32bdce01dULL},
        {"merged_zz d=3 r=3 grid_c2 memory_x", 0xc4646fe1b9744565ULL},
        {"merged_zz d=3 r=3 grid_c2 stability", 0xa11a87820625553aULL},
        {"merged_zz d=3 r=3 grid_c2 surgery", 0xe9a881470f589079ULL},
        {"merged_zz d=5 r=1 grid_c2 memory_z", 0xd496132db255f6f2ULL},
        {"merged_zz d=5 r=1 grid_c2 memory_x", 0xae2e92eb735ac461ULL},
        {"merged_zz d=5 r=1 grid_c2 stability", 0xf78b71c05413a0ddULL},
        {"merged_zz d=5 r=1 grid_c2 surgery", 0x731d761bc2f729c8ULL},
        {"merged_zz d=5 r=5 grid_c2 memory_z", 0x6f82f4c7f7d3c2e7ULL},
        {"merged_zz d=5 r=5 grid_c2 memory_x", 0x2b566798b2d1af68ULL},
        {"merged_zz d=5 r=5 grid_c2 stability", 0x2df1a239ddec2217ULL},
        {"merged_zz d=5 r=5 grid_c2 surgery", 0xbc281b19d9e127c0ULL},
        {"rotated d=3 r=1 switch_c5 memory_z", 0x4e24557e4877da6cULL},
        {"rotated d=3 r=1 switch_c5 memory_x", 0x03267e13649cf4c5ULL},
        {"rotated d=3 r=3 switch_c5 memory_z", 0xd38d3c14fd39b852ULL},
        {"rotated d=3 r=3 switch_c5 memory_x", 0x4f5adea592f08ac4ULL},
        {"rotated d=5 r=1 switch_c5 memory_z", 0x2de6c98611b29da2ULL},
        {"rotated d=5 r=1 switch_c5 memory_x", 0x3ac40bcd26779f9bULL},
        {"rotated d=5 r=5 switch_c5 memory_z", 0xe486d37030edfc87ULL},
        {"rotated d=5 r=5 switch_c5 memory_x", 0xce97c2d8438a5c20ULL},
        {"repetition d=3 r=1 switch_c5 memory_z", 0x8d8a869c41964ff4ULL},
        {"repetition d=3 r=1 switch_c5 memory_x", 0x4f9f4f0e30bf2152ULL},
        {"repetition d=3 r=3 switch_c5 memory_z", 0x12086e30110ef2b4ULL},
        {"repetition d=3 r=3 switch_c5 memory_x", 0x436486b620b4b391ULL},
        {"repetition d=5 r=1 switch_c5 memory_z", 0x58118197693e8576ULL},
        {"repetition d=5 r=1 switch_c5 memory_x", 0xcb75fe6fcca29b10ULL},
        {"repetition d=5 r=5 switch_c5 memory_z", 0x229d31c0903d8ec7ULL},
        {"repetition d=5 r=5 switch_c5 memory_x", 0x7194a9246cf28485ULL},
        {"unrotated d=3 r=1 switch_c5 memory_z", 0x21aa8f5748ce55e6ULL},
        {"unrotated d=3 r=1 switch_c5 memory_x", 0x7977d76b7c9fe840ULL},
        {"unrotated d=3 r=3 switch_c5 memory_z", 0x2c057a98e79bbac8ULL},
        {"unrotated d=3 r=3 switch_c5 memory_x", 0x2ef8955f4be06c4dULL},
        {"unrotated d=5 r=1 switch_c5 memory_z", 0xf758829d336d07b7ULL},
        {"unrotated d=5 r=1 switch_c5 memory_x", 0xd0f2ce759e7137a6ULL},
        {"unrotated d=5 r=5 switch_c5 memory_z", 0xf3a92fea6f8602baULL},
        {"unrotated d=5 r=5 switch_c5 memory_x", 0x14ee4d6fcd5b7f5aULL},
        {"merged_xx d=3 r=1 switch_c5 memory_z", 0x7f3c512e96e18a00ULL},
        {"merged_xx d=3 r=1 switch_c5 memory_x", 0x84d931fc556338a9ULL},
        {"merged_xx d=3 r=1 switch_c5 stability", 0xe40204a93366e641ULL},
        {"merged_xx d=3 r=1 switch_c5 surgery", 0xcc36825438da2d9fULL},
        {"merged_xx d=3 r=3 switch_c5 memory_z", 0x49b283f039ebe9a3ULL},
        {"merged_xx d=3 r=3 switch_c5 memory_x", 0xa95a9018b0d580fcULL},
        {"merged_xx d=3 r=3 switch_c5 stability", 0x7e196a8bb9540898ULL},
        {"merged_xx d=3 r=3 switch_c5 surgery", 0x34af09b6d5d4e9d9ULL},
        {"merged_xx d=5 r=1 switch_c5 memory_z", 0x29781d9e893e8ab4ULL},
        {"merged_xx d=5 r=1 switch_c5 memory_x", 0x76b0f484c457b279ULL},
        {"merged_xx d=5 r=1 switch_c5 stability", 0xd19e75d2c14c87efULL},
        {"merged_xx d=5 r=1 switch_c5 surgery", 0x5df366525321687aULL},
        {"merged_xx d=5 r=5 switch_c5 memory_z", 0x656d2d08a471a154ULL},
        {"merged_xx d=5 r=5 switch_c5 memory_x", 0x63187b23650cf903ULL},
        {"merged_xx d=5 r=5 switch_c5 stability", 0x30a328884a82fcaeULL},
        {"merged_xx d=5 r=5 switch_c5 surgery", 0xd6d5b66fb576b6fdULL},
        {"merged_zz d=3 r=1 switch_c5 memory_z", 0x73a1ef5b01a1ecc9ULL},
        {"merged_zz d=3 r=1 switch_c5 memory_x", 0x0215855dd6b1752dULL},
        {"merged_zz d=3 r=1 switch_c5 stability", 0x4f4d9b7f122eab90ULL},
        {"merged_zz d=3 r=1 switch_c5 surgery", 0x7b16f6c9644fa05bULL},
        {"merged_zz d=3 r=3 switch_c5 memory_z", 0x6707db69e9eb659dULL},
        {"merged_zz d=3 r=3 switch_c5 memory_x", 0x7792cc47d07bcad7ULL},
        {"merged_zz d=3 r=3 switch_c5 stability", 0x201f100510c88f90ULL},
        {"merged_zz d=3 r=3 switch_c5 surgery", 0xb462785bb68f353dULL},
        {"merged_zz d=5 r=1 switch_c5 memory_z", 0xb0fca4a7944822cbULL},
        {"merged_zz d=5 r=1 switch_c5 memory_x", 0xfd5f1710a232735aULL},
        {"merged_zz d=5 r=1 switch_c5 stability", 0x41b0c5d5ed562e9eULL},
        {"merged_zz d=5 r=1 switch_c5 surgery", 0x33c9f1417af688e9ULL},
        {"merged_zz d=5 r=5 switch_c5 memory_z", 0x33278ad3ecd2c6d8ULL},
        {"merged_zz d=5 r=5 switch_c5 memory_x", 0xbb9d3a010f0ecd21ULL},
        {"merged_zz d=5 r=5 switch_c5 stability", 0x35d75c4d5d16aec0ULL},
        {"merged_zz d=5 r=5 switch_c5 surgery", 0xe01dfb36ebd7ecf3ULL},
        {"rotated d=5 r=5 grid_c2_wise memory_z", 0xf62914d1a535599aULL},
        {"rotated d=5 r=5 grid_c2_wise memory_x", 0x643d47feb13f77c4ULL},
        {"single_merge d=3 r=3 grid_c2", 0x8dbf88b7237d36d3ULL},
        {"cnot d=3 r=3 grid_c2", 0xc4f82ac2c6937303ULL},
        {"bell d=3 r=3 grid_c2", 0x50484a82121279a1ULL},
        {"single_merge d=3 r=3 switch_c5", 0x34af09b6d5d4e9d9ULL},
        {"cnot d=3 r=3 switch_c5", 0xd246e3437fc03cabULL},
        {"bell d=3 r=3 switch_c5", 0x569df96ddbb2ea4fULL},
    };
    const auto actual = ExperimentCircuitDigests();
    ASSERT_EQ(actual.size(), std::size(pinned));
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].first, pinned[i].label);
        EXPECT_EQ(actual[i].second, pinned[i].digest)
            << actual[i].first << ": 0x" << std::hex << actual[i].second;
    }
}

/** `workload: memory` through the sweep engine matches the historical
 *  path for every pool width (1/2/8). */
TEST(MemoryInterfaceTest, MemoryWorkloadSweepIsThreadInvariant)
{
    core::SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.arch.gate_improvement = 1.0;
    c.options.max_shots = 1 << 12;
    c.options.target_logical_errors = 0;
    ASSERT_EQ(c.options.workload, WorkloadKind::kMemory);
    const core::Metrics serial =
        core::Evaluate(*c.code, c.arch, c.options);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_GT(serial.logical_errors, 0);
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        core::SweepRunnerOptions opts;
        opts.num_threads = threads;
        const auto swept = core::SweepRunner(opts).Run({c});
        ASSERT_EQ(swept.size(), 1u);
        EXPECT_EQ(swept[0].shots, serial.shots);
        EXPECT_EQ(swept[0].logical_errors, serial.logical_errors);
        EXPECT_TRUE(SameDouble(swept[0].ler_per_shot.rate,
                               serial.ler_per_shot.rate));
    }
}

// ---------------------------------------------------------------------------
// Surgery experiment structure + pinned DEM golden values
// ---------------------------------------------------------------------------

struct PinnedDem
{
    int d;
    WorkloadKind kind;
    int detectors;
    int observables;
    int edges;
    int components;
    int hyperedge_mechanisms;
};

/** Golden DEM stats for the kXX surgery/stability experiments at d=3/5
 *  (grid, capacity 2, 5X, d merged rounds). The compiled schedule these
 *  derive from is itself pinned bit-exact by compiler_golden_test, so
 *  any drift here is a change in the experiment construction. */
TEST(SurgeryExperimentTest, PinnedDemStatsAtD3AndD5)
{
    const std::vector<PinnedDem> pinned = {
        {3, WorkloadKind::kSurgery, 56, 3, 266, 4533, 345},
        {3, WorkloadKind::kStability, 56, 1, 266, 4533, 345},
        {5, WorkloadKind::kSurgery, 264, 3, 1318, 21835, 2725},
        {5, WorkloadKind::kStability, 264, 1, 1318, 21835, 2725},
    };
    for (const PinnedDem& pin : pinned) {
        SCOPED_TRACE("d=" + std::to_string(pin.d) + " " +
                     WorkloadKindName(pin.kind));
        const qec::MergedPatchCode code(pin.d, qec::SurgeryParity::kXX);
        core::ArchitectureConfig arch;
        arch.trap_capacity = 2;
        arch.gate_improvement = 5.0;
        const auto arts = core::CompileCandidate(code, arch);
        ASSERT_TRUE(arts.ok) << arts.error;
        const auto profile = core::AnnotateCandidate(code, arch, arts);
        const sim::DetectorErrorModel dem =
            sim::BuildDem(workloads::BuildExperiment(
                code, arts.compiled.qec_circuit, profile,
                core::NoiseParamsFor(arch), pin.d, WorkloadSpec(pin.kind)));
        EXPECT_EQ(dem.num_detectors, pin.detectors);
        EXPECT_EQ(dem.num_observables, pin.observables);
        EXPECT_EQ(static_cast<int>(dem.edges.size()), pin.edges);
        EXPECT_EQ(dem.num_components, pin.components);
        // No probability mass may be lost: no conflicting parallel
        // edges dropped, no undecomposable mechanisms — the backtracking
        // decomposition matches every composite signature, and each one
        // is kept as hyperedge variants for the correlated decode stage.
        EXPECT_EQ(dem.dropped_probability, 0.0);
        EXPECT_EQ(dem.num_undecomposable, 0);
        EXPECT_EQ(dem.undecomposable_probability, 0.0);
        EXPECT_EQ(dem.num_hyperedges, pin.hyperedge_mechanisms);
        EXPECT_EQ(dem.num_decomposed, pin.hyperedge_mechanisms);
        EXPECT_GE(static_cast<int>(dem.hyperedges.size()),
                  pin.hyperedge_mechanisms);
        EXPECT_GT(dem.hyperedge_probability, 0.0);
    }
}

TEST(SurgeryExperimentTest, DetectorAndObservableLayout)
{
    const int d = 3;
    const qec::MergedPatchCode code(d, qec::SurgeryParity::kXX);
    core::ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 5.0;
    const auto arts = core::CompileCandidate(code, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const auto profile = core::AnnotateCandidate(code, arch, arts);
    const sim::NoisyCircuit circuit = BuildExperiment(
        code, arts.compiled.qec_circuit, profile,
        core::NoiseParamsFor(arch), d, WorkloadKind::kSurgery);

    // Count the joint-type checks to derive the expected detector
    // layout: round 0 anchors every parity-type check away from the
    // seam, rounds 1..d-1 anchor every check, and the final layer
    // anchors the parity-type checks away from the seam again. The
    // joint-parity checks are detector-free at both time boundaries -
    // the open timelike axis that makes the parity a stability
    // observable.
    int joint_type_checks = 0;
    for (const auto& chk : code.checks()) {
        joint_type_checks +=
            chk.type == qec::SurgeryParityCheckType(code.parity()) ? 1
                                                                   : 0;
    }
    const int joint = static_cast<int>(code.joint_parity_checks().size());
    const int expected = (joint_type_checks - joint) +  // round 0
                         (d - 1) * code.num_ancillas() +  // consecutive
                         (joint_type_checks - joint);   // final layer
    EXPECT_EQ(circuit.num_detectors(), expected);
    EXPECT_EQ(circuit.num_observables(), 3);

    // The joint-parity observable reads the first-round records of
    // exactly the joint checks; the patch observables read the final
    // data records of the patch logical supports.
    int parity_targets = -1;
    for (const auto& inst : circuit.instructions()) {
        if (inst.op == sim::SimOp::kObservableInclude &&
            inst.index == kJointParityObservable) {
            parity_targets = static_cast<int>(inst.targets.size());
        }
    }
    EXPECT_EQ(parity_targets, joint);
}

// ---------------------------------------------------------------------------
// Sweep integration (the ISSUE 5 acceptance gate)
// ---------------------------------------------------------------------------

std::vector<core::SweepCandidate>
SurgerySweepCandidates()
{
    std::vector<core::SweepCandidate> candidates;
    for (const int d : {3, 5}) {
        const auto code = std::make_shared<qec::MergedPatchCode>(
            d, qec::SurgeryParity::kXX);
        for (const WorkloadKind kind :
             {WorkloadKind::kSurgery, WorkloadKind::kStability}) {
            core::SweepCandidate c;
            c.code = code;
            c.arch.trap_capacity = 2;
            c.arch.gate_improvement = 1.0;
            c.options.workload = kind;
            c.options.max_shots = 1 << 13;
            c.options.target_logical_errors = 0;  // fixed budget
            c.label = WorkloadKindName(kind) + "_d" + std::to_string(d);
            candidates.push_back(std::move(c));
        }
    }
    return candidates;
}

TEST(SurgerySweepTest, FiniteLerBitIdenticalAcrossPoolWidths)
{
    const std::vector<core::SweepCandidate> candidates =
        SurgerySweepCandidates();
    std::vector<core::Metrics> serial;
    for (const auto& c : candidates) {
        serial.push_back(core::Evaluate(*c.code, c.arch, c.options));
        ASSERT_TRUE(serial.back().ok) << serial.back().error;
    }
    // The surgery rows must observe actual logical errors at 1X (the
    // "finite LER" acceptance: a real number from real failures, not a
    // degenerate 0-of-0).
    EXPECT_GT(serial[0].logical_errors, 0);  // surgery d=3
    EXPECT_GT(serial[2].logical_errors, 0);  // surgery d=5
    for (const auto& m : serial) {
        EXPECT_GE(m.ler_per_shot.rate, 0.0);
        EXPECT_LE(m.ler_per_shot.rate, 1.0);
        EXPECT_EQ(m.shots, 1 << 13);
    }

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        core::SweepRunnerOptions opts;
        opts.num_threads = threads;
        const std::vector<core::Metrics> swept =
            core::SweepRunner(opts).Run(candidates);
        ASSERT_EQ(swept.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(candidates[i].label);
            EXPECT_EQ(swept[i].shots, serial[i].shots);
            EXPECT_EQ(swept[i].logical_errors, serial[i].logical_errors);
            EXPECT_TRUE(SameDouble(swept[i].ler_per_shot.rate,
                                   serial[i].ler_per_shot.rate));
            EXPECT_TRUE(SameDouble(swept[i].ler_per_round,
                                   serial[i].ler_per_round));
        }
    }
}

TEST(SurgerySweepTest, WorkloadsShareCompileArtifactsOnTheSameDevice)
{
    const auto code = std::make_shared<qec::MergedPatchCode>(
        3, qec::SurgeryParity::kXX);
    std::vector<core::SweepCandidate> candidates;
    for (const WorkloadKind kind :
         {WorkloadKind::kMemory, WorkloadKind::kStability,
          WorkloadKind::kSurgery}) {
        core::SweepCandidate c;
        c.code = code;
        c.arch.trap_capacity = 2;
        c.arch.gate_improvement = 5.0;
        c.options.workload = kind;
        c.options.max_shots = 1 << 10;
        c.options.target_logical_errors = 0;
        candidates.push_back(std::move(c));
    }
    const std::vector<core::SweepOutcome> outcomes =
        core::SweepRunner().RunDetailed(candidates);
    ASSERT_EQ(outcomes.size(), 3u);
    for (const auto& outcome : outcomes) {
        ASSERT_TRUE(outcome.metrics.ok) << outcome.metrics.error;
    }
    // One compiled schedule for all three workloads: the compile cache
    // key excludes the workload, which only enters the sim-stage key.
    EXPECT_EQ(outcomes[0].compile.get(), outcomes[1].compile.get());
    EXPECT_EQ(outcomes[1].compile.get(), outcomes[2].compile.get());
    // Identical compile metrics, different experiments.
    EXPECT_TRUE(SameDouble(outcomes[0].metrics.round_time,
                           outcomes[1].metrics.round_time));
    EXPECT_TRUE(SameDouble(outcomes[1].metrics.round_time,
                           outcomes[2].metrics.round_time));
}

TEST(SurgerySweepTest, WorkloadMismatchFailsOnlyThatCandidate)
{
    // surgery on a plain rotated patch is a candidate error, not a
    // sweep abort - and the serial entry point reports it identically.
    const auto plain = std::make_shared<qec::RotatedSurfaceCode>(3);
    core::SweepCandidate good;
    good.code = plain;
    good.arch.gate_improvement = 5.0;
    good.options.max_shots = 1 << 10;
    good.options.target_logical_errors = 0;
    core::SweepCandidate bad = good;
    bad.options.workload = WorkloadKind::kSurgery;

    const std::vector<core::Metrics> swept =
        core::SweepRunner().Run({good, bad, good});
    ASSERT_EQ(swept.size(), 3u);
    EXPECT_TRUE(swept[0].ok) << swept[0].error;
    EXPECT_FALSE(swept[1].ok);
    EXPECT_NE(swept[1].error.find("MergedPatchCode"), std::string::npos)
        << swept[1].error;
    EXPECT_TRUE(swept[2].ok) << swept[2].error;

    const core::Metrics serial =
        core::Evaluate(*bad.code, bad.arch, bad.options);
    EXPECT_FALSE(serial.ok);
    EXPECT_EQ(serial.error, swept[1].error);
}

/** The parity outcome is a timelike observable: more merged rounds buy
 *  a lower stability LER (until the decoder's hyperedge ambiguity
 *  floor). Deterministic seeds make this an exact regression pin, not a
 *  statistical assertion. */
TEST(SurgerySweepTest, StabilityLerFallsWithMergedRounds)
{
    const qec::MergedPatchCode code(3, qec::SurgeryParity::kXX);
    core::ArchitectureConfig arch;
    arch.trap_capacity = 2;
    arch.gate_improvement = 5.0;
    core::EvaluationOptions opts;
    opts.workload = WorkloadKind::kStability;
    opts.max_shots = 1 << 14;
    opts.target_logical_errors = 0;

    opts.rounds = 1;
    const core::Metrics one = core::Evaluate(code, arch, opts);
    opts.rounds = 5;
    const core::Metrics five = core::Evaluate(code, arch, opts);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(five.ok) << five.error;
    EXPECT_GT(one.logical_errors, 0);
    EXPECT_LT(five.logical_errors, one.logical_errors);
}

}  // namespace
}  // namespace tiqec::workloads
