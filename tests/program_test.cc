/**
 * @file
 * Tests for the logical-program IR and its two-phase pipeline
 * (DESIGN.md §5.4): canonical-text round-trip byte-stability, the
 * pinned instruction-identity of the `single_merge` program against
 * the PR-5 surgery workload, pool-width bit-identity for a CNOT
 * program sweep, finite joint-parity error rates with a passing
 * distance certificate at d=3 and d=5, and identical failure text for
 * broken program specs run alone (`core::Evaluate`) or in a batch.
 */
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/request.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "sim/circuit_io.h"
#include "sim/dem.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::workloads {
namespace {

TEST(ProgramIrTest, CanonicalProgramsRoundTripByteStable)
{
    for (const std::string& name : CanonicalProgramNames()) {
        SCOPED_TRACE(name);
        const LogicalProgram program = CanonicalProgram(name);
        const std::string text = FormatProgram(program);
        const std::string again = FormatProgram(ParseProgram(text));
        EXPECT_EQ(text, again);
        EXPECT_EQ(program.name, name);
    }
}

TEST(ProgramIrTest, BoundProgramExposesItsCanonicalText)
{
    const auto bound =
        BoundProgram::Bind(CanonicalProgram("single_merge"), 3);
    EXPECT_EQ(bound->canonical_text(),
              FormatProgram(CanonicalProgram("single_merge")));
}

/** Builds the stitched noisy circuit of a canonical program through
 *  the reference (store-less) pipeline. */
core::SimArtifacts
BuildProgramArtifacts(const std::string& name, int distance, int rounds)
{
    const auto bound =
        BoundProgram::Bind(CanonicalProgram(name), distance);
    const core::ArchitectureConfig arch;
    const auto& codes = bound->phase_codes();
    std::vector<core::CompileArtifacts> arts;
    std::vector<noise::RoundNoiseProfile> profiles;
    std::vector<BoundProgram::PhaseCircuit> phases;
    for (const auto& code : codes) {
        arts.push_back(core::CompileCandidate(*code, arch));
        EXPECT_TRUE(arts.back().ok) << arts.back().error;
    }
    for (size_t i = 0; i < codes.size(); ++i) {
        profiles.push_back(
            core::AnnotateCandidate(*codes[i], arch, arts[i]));
    }
    for (size_t i = 0; i < codes.size(); ++i) {
        phases.push_back({&arts[i].compiled.qec_circuit, &profiles[i]});
    }
    core::SimArtifacts sim_arts;
    sim_arts.experiment =
        bound->Build(phases, core::NoiseParamsFor(arch), rounds);
    sim_arts.dem = sim::BuildDem(sim_arts.experiment);
    return sim_arts;
}

/**
 * The acceptance pin: `single_merge` at d=3 is instruction-identical
 * to the surgery workload on the merged double patch. The two-patch
 * fabric with one XX merge IS the merged strip, so the stitched program
 * circuit and the surgery circuit `workloads::BuildExperiment` builds
 * must agree byte-for-byte in their canonical text form (instructions,
 * detectors, and observables alike).
 */
TEST(ProgramPipelineTest, SingleMergeInstructionIdenticalToSurgery)
{
    const int d = 3;
    const core::SimArtifacts program_arts =
        BuildProgramArtifacts("single_merge", d, d);

    const auto merged = std::make_shared<qec::MergedPatchCode>(
        d, qec::SurgeryParity::kXX);
    const core::ArchitectureConfig arch;
    const core::CompileArtifacts arts =
        core::CompileCandidate(*merged, arch);
    ASSERT_TRUE(arts.ok) << arts.error;
    const noise::RoundNoiseProfile profile =
        core::AnnotateCandidate(*merged, arch, arts);
    const WorkloadSpec spec(WorkloadKind::kSurgery,
                            sim::MemoryBasis::kZ);
    const sim::NoisyCircuit surgery = workloads::BuildExperiment(
        *merged, arts.compiled.qec_circuit, profile,
        core::NoiseParamsFor(arch), d, spec);

    EXPECT_EQ(sim::FormatNoisyCircuit(program_arts.experiment),
              sim::FormatNoisyCircuit(surgery));
}

core::SweepCandidate
ParseCandidateOrDie(const std::string& line)
{
    core::SweepCandidate candidate;
    std::string error;
    EXPECT_TRUE(core::ParseRequestCandidate(line, &candidate, &error))
        << error;
    return candidate;
}

TEST(ProgramPipelineTest, CnotSweepBitIdenticalAcrossPoolWidths)
{
    const core::SweepCandidate candidate = ParseCandidateOrDie(
        "workload=program program=cnot distance=3 shots=512 "
        "target_errors=0 seed=11");
    const core::Metrics serial = core::Evaluate(
        *candidate.code, candidate.arch, candidate.options);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_EQ(serial.shots, 512);

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        core::SweepRunnerOptions opts;
        opts.num_threads = threads;
        const std::vector<core::Metrics> swept =
            core::SweepRunner(opts).Run({candidate});
        ASSERT_EQ(swept.size(), 1u);
        EXPECT_TRUE(swept[0].ok) << swept[0].error;
        EXPECT_EQ(serial.shots, swept[0].shots);
        EXPECT_EQ(serial.logical_errors, swept[0].logical_errors);
        EXPECT_EQ(serial.per_observable_errors,
                  swept[0].per_observable_errors);
        EXPECT_EQ(serial.ler_per_shot.rate, swept[0].ler_per_shot.rate);
    }
}

TEST(ProgramPipelineTest, CnotCertifiesWithFiniteJointParityLer)
{
    struct Point
    {
        int distance;
        int shots;
    };
    for (const Point point : {Point{3, 1024}, Point{5, 256}}) {
        SCOPED_TRACE("d=" + std::to_string(point.distance));
        const core::SweepCandidate candidate = ParseCandidateOrDie(
            "workload=program program=cnot distance=" +
            std::to_string(point.distance) +
            " shots=" + std::to_string(point.shots) +
            " target_errors=0 seed=7 validate=1 certify=1");
        const core::Metrics metrics = core::Evaluate(
            *candidate.code, candidate.arch, candidate.options);
        ASSERT_TRUE(metrics.ok) << metrics.error;
        EXPECT_EQ(metrics.shots, point.shots);
        // Observable 0 is `frame` (the ZZ merge parity corrected by
        // the a/t readouts): the CNOT's joint-parity error channel
        // must be finite but sub-unity at this noise point.
        ASSERT_EQ(metrics.per_observable_errors.size(), 2u);
        EXPECT_GT(metrics.per_observable_errors[0], 0);
        EXPECT_LT(metrics.per_observable_errors[0], metrics.shots);
        EXPECT_GT(metrics.ler_per_shot.rate, 0.0);
        EXPECT_LT(metrics.ler_per_shot.rate, 1.0);
    }
}

TEST(ProgramPipelineTest, EveryCanonicalProgramRunsEndToEnd)
{
    for (const std::string& name : CanonicalProgramNames()) {
        SCOPED_TRACE(name);
        const core::SweepCandidate candidate = ParseCandidateOrDie(
            "workload=program program=" + name +
            " distance=3 shots=256 target_errors=0 seed=3 validate=1");
        const core::Metrics metrics = core::Evaluate(
            *candidate.code, candidate.arch, candidate.options);
        EXPECT_TRUE(metrics.ok) << metrics.error;
        EXPECT_EQ(metrics.shots, 256);
    }
}

/** A broken program spec reports byte-identical error text run alone
 *  through `core::Evaluate` and through the sweep engine. */
TEST(ProgramPipelineTest, SpecFailureTextIdenticalSerialVsSweep)
{
    std::vector<core::SweepCandidate> broken;

    // A program-kind spec with no bound program.
    core::SweepCandidate no_program;
    no_program.code = qec::MakeCode("rotated", 3);
    no_program.options.workload =
        workloads::WorkloadSpec(WorkloadKind::kProgram);
    broken.push_back(std::move(no_program));

    // A bound program whose primary phase code is not the candidate's
    // code.
    core::SweepCandidate mismatched;
    mismatched.code = qec::MakeCode("rotated", 3);
    mismatched.options.workload = workloads::WorkloadSpec::Program(
        BoundProgram::Bind(CanonicalProgram("single_merge"), 3));
    broken.push_back(std::move(mismatched));

    for (const core::SweepCandidate& candidate : broken) {
        const core::Metrics serial = core::Evaluate(
            *candidate.code, candidate.arch, candidate.options);
        ASSERT_FALSE(serial.ok);
        ASSERT_FALSE(serial.error.empty());
        const std::vector<core::Metrics> swept =
            core::SweepRunner().Run({candidate});
        ASSERT_EQ(swept.size(), 1u);
        EXPECT_FALSE(swept[0].ok);
        EXPECT_EQ(serial.error, swept[0].error);
    }
}

TEST(ProgramPipelineTest, RequestParserPinsProgramKeyErrors)
{
    core::SweepCandidate candidate;
    std::string error;

    EXPECT_FALSE(core::ParseRequestCandidate("workload=program distance=3",
                                             &candidate, &error));
    EXPECT_EQ(error, "missing required key 'program'");

    EXPECT_FALSE(core::ParseRequestCandidate(
        "program=cnot distance=3", &candidate, &error));
    EXPECT_EQ(error, "key 'program' requires workload=program");

    EXPECT_FALSE(core::ParseRequestCandidate(
        "workload=program program=cnot family=rotated distance=3",
        &candidate, &error));
    EXPECT_EQ(error, "key 'family' does not apply to workload=program");
}

}  // namespace
}  // namespace tiqec::workloads
