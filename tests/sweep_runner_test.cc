/**
 * @file
 * Tests for the cached parallel sweep engine. `core::Evaluate` is a
 * one-candidate `core::SweepRunner` run, so a batch compared against a
 * loop of `Evaluate` calls pins cache sharing (a candidate's result
 * must not depend on the batch whose artifacts it shares) and pool-width
 * identity, including the early-stop path. A broken candidate must fail
 * alone without aborting the sweep, and one mixed batch pins every
 * candidate's exact outcome and the stage counters.
 */
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/distance_certifier.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/toolflow.h"
#include "qec/code.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::core {
namespace {

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
ExpectBitIdentical(const Metrics& serial, const Metrics& swept)
{
    EXPECT_EQ(serial.ok, swept.ok);
    EXPECT_EQ(serial.error, swept.error);
    EXPECT_TRUE(SameDouble(serial.round_time, swept.round_time));
    EXPECT_TRUE(SameDouble(serial.shot_time, swept.shot_time));
    EXPECT_EQ(serial.movement_ops_per_round, swept.movement_ops_per_round);
    EXPECT_TRUE(SameDouble(serial.movement_time_per_round,
                           swept.movement_time_per_round));
    EXPECT_EQ(serial.num_traps_used, swept.num_traps_used);
    EXPECT_TRUE(SameDouble(serial.mean_two_qubit_error,
                           swept.mean_two_qubit_error));
    EXPECT_TRUE(SameDouble(serial.max_two_qubit_error,
                           swept.max_two_qubit_error));
    EXPECT_TRUE(SameDouble(serial.idle_dephasing_data_qubit,
                           swept.idle_dephasing_data_qubit));
    EXPECT_EQ(serial.shots, swept.shots);
    EXPECT_EQ(serial.logical_errors, swept.logical_errors);
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.rate, swept.ler_per_shot.rate));
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.low, swept.ler_per_shot.low));
    EXPECT_TRUE(
        SameDouble(serial.ler_per_shot.high, swept.ler_per_shot.high));
    EXPECT_TRUE(SameDouble(serial.ler_per_round, swept.ler_per_round));
    EXPECT_EQ(serial.resources.num_electrodes,
              swept.resources.num_electrodes);
}

/** A small but non-trivial design-space slice: two distances, two trap
 *  capacities, two seeds per point (the seed replicas share every cached
 *  artifact), plus one early-stopping candidate at 1X noise. */
std::vector<SweepCandidate>
MixedCandidates()
{
    std::vector<SweepCandidate> candidates;
    for (const int d : {3, 5}) {
        const std::shared_ptr<const qec::StabilizerCode> code =
            qec::MakeCode("rotated", d);
        for (const int cap : {2, 3}) {
            for (int s = 0; s < 2; ++s) {
                SweepCandidate c;
                c.code = code;
                c.arch.trap_capacity = cap;
                c.arch.gate_improvement = 5.0;
                c.options.max_shots = 1 << 12;
                c.options.target_logical_errors = 0;  // fixed budget
                c.options.seed = 0x5EED + static_cast<std::uint64_t>(s);
                candidates.push_back(std::move(c));
            }
        }
    }
    // Early-stop path: 1X noise errors fast, so a small target stops
    // well inside the budget.
    SweepCandidate early;
    early.code = qec::MakeCode("rotated", 3);
    early.arch.trap_capacity = 2;
    early.arch.gate_improvement = 1.0;
    early.options.max_shots = 1 << 14;
    early.options.target_logical_errors = 40;
    candidates.push_back(std::move(early));
    // A compile-only candidate exercises the metrics-without-sampling
    // path through the same cache.
    SweepCandidate compile_only;
    compile_only.code = candidates.back().code;
    compile_only.arch.trap_capacity = 2;
    compile_only.arch.gate_improvement = 1.0;
    compile_only.options.compile_only = true;
    candidates.push_back(std::move(compile_only));
    return candidates;
}

std::vector<Metrics>
SerialEvaluateLoop(const std::vector<SweepCandidate>& candidates)
{
    std::vector<Metrics> metrics;
    metrics.reserve(candidates.size());
    for (const SweepCandidate& c : candidates) {
        metrics.push_back(Evaluate(*c.code, c.arch, c.options));
    }
    return metrics;
}

TEST(SweepRunnerTest, BitIdenticalToSerialEvaluateLoopAtEveryPoolWidth)
{
    const std::vector<SweepCandidate> candidates = MixedCandidates();
    const std::vector<Metrics> serial = SerialEvaluateLoop(candidates);
    // The early-stop candidate must actually early-stop, or this test
    // is not covering the claimed path.
    ASSERT_LT(serial[serial.size() - 2].shots, std::int64_t{1} << 14);
    ASSERT_GE(serial[serial.size() - 2].logical_errors, 40);

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        const std::vector<Metrics> swept =
            SweepRunner(opts).Run(candidates);
        ASSERT_EQ(swept.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("candidate " + std::to_string(i));
            ExpectBitIdentical(serial[i], swept[i]);
        }
    }
}

TEST(SweepRunnerTest, CompileFailureMarksOnlyThatCandidate)
{
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    SweepCandidate good;
    good.code = code;
    good.arch.trap_capacity = 2;
    good.arch.gate_improvement = 5.0;
    good.options.max_shots = 1 << 10;
    candidates.push_back(good);
    // Capacity 1 is invalid (one slot is reserved for communication);
    // before the staged pipeline this crashed in device synthesis.
    SweepCandidate bad = good;
    bad.arch.trap_capacity = 1;
    candidates.push_back(bad);
    candidates.push_back(good);

    const std::vector<Metrics> swept = SweepRunner().Run(candidates);
    ASSERT_EQ(swept.size(), 3u);
    EXPECT_TRUE(swept[0].ok);
    EXPECT_FALSE(swept[1].ok);
    EXPECT_FALSE(swept[1].error.empty());
    EXPECT_TRUE(swept[2].ok);
    // The healthy candidates are untouched by the failure.
    ExpectBitIdentical(swept[0], swept[2]);
}

TEST(SweepRunnerTest, EvaluateReportsCompileErrorInsteadOfCrashing)
{
    // The one-candidate entry point reports it too: capacity < 2 used
    // to divide by zero inside MakeDeviceFor.
    const auto code = qec::MakeCode("rotated", 3);
    ArchitectureConfig arch;
    arch.trap_capacity = 1;
    const Metrics m = Evaluate(*code, arch);
    EXPECT_FALSE(m.ok);
    EXPECT_FALSE(m.error.empty());
}

TEST(SweepRunnerTest, MultiRoundCandidatesAreCompileOnly)
{
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    SweepCandidate block;
    block.code = code;
    block.arch.trap_capacity = 2;
    block.compile_rounds = 5;
    block.options.compile_only = true;
    SweepCandidate invalid = block;
    invalid.options.compile_only = false;

    const std::vector<SweepOutcome> outcomes =
        SweepRunner().RunDetailed({block, invalid});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].metrics.ok) << outcomes[0].metrics.error;
    // A five-round block's elapsed time is its makespan; the per-round
    // mean cannot exceed a one-round compile of the same architecture.
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.shot_time,
                     outcomes[0].compile->compiled.schedule.makespan);
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.round_time * 5.0,
                     outcomes[0].metrics.shot_time);
    EXPECT_FALSE(outcomes[1].metrics.ok);
    EXPECT_FALSE(outcomes[1].metrics.error.empty());
}

TEST(SweepRunnerTest, SharedArtifactsAcrossSeedReplicasStayIndependent)
{
    // Two seeds of one configuration share compile/annotate/DEM cache
    // entries but must sample distinct streams.
    const std::shared_ptr<const qec::StabilizerCode> code =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    for (int s = 0; s < 2; ++s) {
        SweepCandidate c;
        c.code = code;
        c.arch.gate_improvement = 1.0;
        c.options.max_shots = 1 << 12;
        c.options.target_logical_errors = 0;
        c.options.seed = 0x5EED + static_cast<std::uint64_t>(s);
        candidates.push_back(std::move(c));
    }
    const std::vector<SweepOutcome> outcomes =
        SweepRunner().RunDetailed(candidates);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].metrics.ok);
    ASSERT_TRUE(outcomes[1].metrics.ok);
    // Same cached compile artifact object...
    EXPECT_EQ(outcomes[0].compile.get(), outcomes[1].compile.get());
    // ...identical compile metrics...
    EXPECT_DOUBLE_EQ(outcomes[0].metrics.round_time,
                     outcomes[1].metrics.round_time);
    // ...but different Monte-Carlo draws (1X noise: ample errors, so
    // two 4096-shot streams colliding exactly is ~impossible).
    EXPECT_NE(outcomes[0].metrics.logical_errors,
              outcomes[1].metrics.logical_errors);
}

TEST(SweepRunnerTest, LargeDistanceCandidatesRunEndToEnd)
{
    // d=7 and d=9 candidates through the full pipeline — compile, noise
    // annotation, DEM build, Monte-Carlo sampling — on a small fixed
    // budget; the compiler hot-path overhaul is what makes these sweep
    // rows affordable. Bit-identity with the serial Evaluate loop must
    // hold at these sizes too.
    std::vector<SweepCandidate> candidates;
    for (const int d : {7, 9}) {
        SweepCandidate c;
        c.code = qec::MakeCode("rotated", d);
        c.arch.trap_capacity = 2;
        c.arch.gate_improvement = 5.0;
        c.options.max_shots = 1 << 9;
        c.options.target_logical_errors = 0;  // fixed budget
        candidates.push_back(std::move(c));
    }
    const std::vector<Metrics> serial = SerialEvaluateLoop(candidates);
    SweepRunnerOptions opts;
    opts.num_threads = 4;
    std::vector<SweepCandidate> swept_candidates = candidates;
    // A d=9 multi-round compile-only block (the fig9 shot-time shape);
    // multi-round blocks are a sweep-engine extra, so it is not part of
    // the serial comparison.
    SweepCandidate block;
    block.code = candidates.back().code;
    block.arch.trap_capacity = 2;
    block.compile_rounds = 5;
    block.options.compile_only = true;
    swept_candidates.push_back(std::move(block));
    const std::vector<Metrics> swept =
        SweepRunner(opts).Run(swept_candidates);
    ASSERT_EQ(swept.size(), serial.size() + 1);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ExpectBitIdentical(serial[i], swept[i]);
    }
    // The capacity-2 paper shape holds at scale: round time flat from
    // d=7 to d=9.
    EXPECT_DOUBLE_EQ(swept[0].round_time, swept[1].round_time);
    // The d=9 five-round block compiles and its mean round time matches
    // its makespan split across rounds.
    ASSERT_TRUE(swept[2].ok) << swept[2].error;
    EXPECT_DOUBLE_EQ(swept[2].round_time * 5.0, swept[2].shot_time);
}

TEST(SweepRunnerTest, NullCodeIsReportedNotDereferenced)
{
    SweepCandidate c;  // no code
    const std::vector<Metrics> swept = SweepRunner().Run({c});
    ASSERT_EQ(swept.size(), 1u);
    EXPECT_FALSE(swept[0].ok);
    EXPECT_FALSE(swept[0].error.empty());
}

/** The metric groups an outcome carries, as space-separated words:
 *  compile (round time), noise (two-qubit error), dem (hyperedge count)
 *  and shots (a Monte-Carlo estimate). */
std::string
CarriedMetrics(const Metrics& m)
{
    std::string words;
    const auto add = [&](bool present, const char* word) {
        if (present) {
            words += words.empty() ? "" : " ";
            words += word;
        }
    };
    add(m.round_time > 0.0, "compile");
    add(m.mean_two_qubit_error > 0.0, "noise");
    add(m.dem_hyperedges > 0, "dem");
    add(m.shots > 0, "shots");
    return words;
}

/** One mixed batch: every up-front rejection, a compile failure, a
 *  certification failure after the compile metrics are filled, and
 *  each success shape (full, compile-only, multi-round block,
 *  zero-shot). */
std::vector<SweepCandidate>
PinnedMixedBatch()
{
    const std::shared_ptr<const qec::StabilizerCode> rotated =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    const auto add = [&](const std::string& label) -> SweepCandidate& {
        SweepCandidate c;
        c.code = rotated;
        c.arch.trap_capacity = 2;
        c.options.max_shots = 512;
        c.options.target_logical_errors = 0;
        c.options.validate_artifacts = false;
        c.label = label;
        candidates.push_back(std::move(c));
        return candidates.back();
    };
    add("no_code").code = nullptr;
    add("compile_rounds_0").compile_rounds = 0;
    add("compile_rounds_3").compile_rounds = 3;
    {
        SweepCandidate& c = add("certify_compile_only");
        c.options.compile_only = true;
        c.options.certify_distance = true;
    }
    add("capacity_1").arch.trap_capacity = 1;
    add("no_program").options.workload =
        workloads::WorkloadSpec(workloads::WorkloadKind::kProgram);
    add("wrong_primary").options.workload = workloads::WorkloadSpec::Program(
        workloads::BoundProgram::Bind(
            workloads::CanonicalProgram("single_merge"), 3));
    {
        SweepCandidate& c = add("sub_distance");
        c.code = qec::MakeCode("merged_zz", 3);
        c.options.workload = workloads::WorkloadKind::kSurgery;
        c.options.rounds = 2;
        c.options.certify_distance = true;
    }
    {
        SweepCandidate& c = add("clean");
        c.options.validate_artifacts = true;
        c.options.certify_distance = true;
    }
    add("compile_only").options.compile_only = true;
    {
        SweepCandidate& c = add("block");
        c.compile_rounds = 3;
        c.options.compile_only = true;
    }
    add("zero_shots").options.max_shots = 0;
    return candidates;
}

/** The exact outcomes of `PinnedMixedBatch`: each candidate's `ok`,
 *  error text and carried metric groups, and the run's stage counters,
 *  are pinned at pool widths 1 and 4, so the failure-precedence rules
 *  of the staged runner cannot drift. */
TEST(SweepRunnerTest, MixedBatchOutcomesAndCountersArePinned)
{
    const std::vector<SweepCandidate> candidates = PinnedMixedBatch();
    struct Expected
    {
        bool ok;
        std::string error;
        std::string carried;
    };
    const std::vector<Expected> expected = {
        {false, "candidate has no code", ""},
        {false, "compile_rounds must be >= 1", ""},
        {false,
         "multi-round compilation is compile-only (the noise annotator "
         "requires a one-round schedule)",
         ""},
        {false,
         "distance certification needs a simulation (it certifies the "
         "DEM, which compile-only skips)",
         ""},
        {false,
         "trap capacity must be at least 2 (one slot is reserved for "
         "communication)",
         ""},
        {false,
         "program workload requires a bound program "
         "(WorkloadSpec::Program)",
         ""},
        {false,
         "program workload: candidate code \"rotated_surface\" is not the "
         "primary phase code \"rectangular_surface\" of program "
         "'single_merge'",
         ""},
        {false,
         "artifact validation failed: distance certification has 1 error: "
         "[dem.distance] observable 0: effective distance 2 below "
         "expected 3; witness mechanism set {edge 71 (dets 14, obs 0x0), "
         "hyperedge mechanism 129 (dets 14, obs 0x1)}",
         "compile noise"},
        {true, "", "compile noise dem shots"},
        {true, "", "compile noise"},
        {true, "", "compile"},
        {true, "", "compile noise dem"},
    };
    ASSERT_EQ(candidates.size(), expected.size());

    for (const int threads : {1, 4}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        SweepRunner runner(opts);
        const std::vector<SweepOutcome> outcomes =
            runner.RunDetailed(candidates);
        ASSERT_EQ(outcomes.size(), expected.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE(candidates[i].label);
            const Metrics& m = outcomes[i].metrics;
            EXPECT_EQ(m.ok, expected[i].ok);
            EXPECT_EQ(m.error, expected[i].error);
            EXPECT_EQ(CarriedMetrics(m), expected[i].carried);
            EXPECT_EQ(outcomes[i].label, candidates[i].label);
            ASSERT_NE(outcomes[i].compile, nullptr);
        }
        EXPECT_EQ(outcomes.back().metrics.shots, 0);
        EXPECT_TRUE(outcomes.back().metrics.per_observable_errors.empty());

        const SweepRunStats& stats = runner.last_run_stats();
        EXPECT_EQ(stats.compiles, 4);
        EXPECT_EQ(stats.annotates, 2);
        EXPECT_EQ(stats.sim_builds, 2);
        EXPECT_EQ(stats.validations, 2);
        EXPECT_EQ(stats.validation_failures, 0);
        EXPECT_EQ(stats.certifies, 2);
        EXPECT_EQ(stats.certify_failures, 1);
        EXPECT_EQ(stats.store_hits + stats.store_misses +
                      stats.store_corrupt + stats.store_writes +
                      stats.store_validated,
                  0);
    }
}

void
ExpectSameCounters(const SweepRunStats& a, const SweepRunStats& b)
{
    EXPECT_EQ(a.compiles, b.compiles);
    EXPECT_EQ(a.annotates, b.annotates);
    EXPECT_EQ(a.sim_builds, b.sim_builds);
    EXPECT_EQ(a.store_hits, b.store_hits);
    EXPECT_EQ(a.store_misses, b.store_misses);
    EXPECT_EQ(a.store_corrupt, b.store_corrupt);
    EXPECT_EQ(a.store_writes, b.store_writes);
    EXPECT_EQ(a.validations, b.validations);
    EXPECT_EQ(a.validation_failures, b.validation_failures);
    EXPECT_EQ(a.certifies, b.certifies);
    EXPECT_EQ(a.certify_failures, b.certify_failures);
    EXPECT_EQ(a.store_validated, b.store_validated);
}

/** Compile-only d=11/13 blocks on grid and switch at capacities 2 and
 *  5 (eight compile keys, more than the widest pool tested), each key
 *  shared by a plain 1X candidate and a validated 5X one. */
std::vector<SweepCandidate>
CompileOnlyBlocks()
{
    std::vector<SweepCandidate> candidates;
    for (const int d : {11, 13}) {
        const std::shared_ptr<const qec::StabilizerCode> code =
            qec::MakeCode("rotated", d);
        for (const auto topology :
             {qccd::TopologyKind::kGrid, qccd::TopologyKind::kSwitch}) {
            for (const int capacity : {2, 5}) {
                for (const bool validated : {false, true}) {
                    SweepCandidate c;
                    c.code = code;
                    c.arch.topology = topology;
                    c.arch.trap_capacity = capacity;
                    c.arch.gate_improvement = validated ? 5.0 : 1.0;
                    c.compile_rounds = d;
                    c.options.compile_only = true;
                    c.options.validate_artifacts = validated;
                    candidates.push_back(std::move(c));
                }
            }
        }
    }
    return candidates;
}

/** A metrics-only `Run` drops each compile bundle after its last
 *  consumer, so a compile-only batch never holds more bundles than the
 *  pool has workers, while `RunDetailed` keeps one shared bundle per
 *  key; both report the same metrics and counters. */
TEST(SweepRunnerTest, RunStreamsCompileBundlesAndRunDetailedSharesThem)
{
    const std::vector<SweepCandidate> candidates = CompileOnlyBlocks();
    const std::int64_t keys =
        static_cast<std::int64_t>(candidates.size()) / 2;
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        SweepRunner streaming(opts);
        const std::vector<Metrics> metrics = streaming.Run(candidates);
        const SweepRunStats streamed = streaming.last_run_stats();
        EXPECT_GE(streamed.peak_compile_bundles, 1);
        EXPECT_LE(streamed.peak_compile_bundles, threads);
        EXPECT_EQ(streamed.compiles, keys);
        EXPECT_EQ(streamed.validations, keys);

        SweepRunner detailed(opts);
        const std::vector<SweepOutcome> outcomes =
            detailed.RunDetailed(candidates);
        EXPECT_EQ(detailed.last_run_stats().peak_compile_bundles, keys);
        ExpectSameCounters(streamed, detailed.last_run_stats());
        ASSERT_EQ(outcomes.size(), candidates.size());
        ASSERT_EQ(metrics.size(), candidates.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE("candidate " + std::to_string(i));
            ASSERT_TRUE(outcomes[i].metrics.ok) << outcomes[i].metrics.error;
            ExpectBitIdentical(outcomes[i].metrics, metrics[i]);
            // Candidates 2k and 2k+1 share a compile key.
            EXPECT_EQ(outcomes[i].compile.get(),
                      outcomes[i ^ 1].compile.get());
            if (i >= 2) {
                EXPECT_NE(outcomes[i].compile.get(),
                          outcomes[i - 2].compile.get());
            }
        }
    }
}

/** `Run` and `RunDetailed` agree on the pinned mixed batch plus a
 *  three-phase program (cnot, whose primary phase is the last), whose
 *  compile chain starts only once all of its phase compiles are done
 *  and whose bundles feed the program's sim build after the chain. */
TEST(SweepRunnerTest, RunMatchesRunDetailedOnMixedBatchWithProgram)
{
    std::vector<SweepCandidate> candidates = PinnedMixedBatch();
    const std::shared_ptr<const workloads::BoundProgram> program =
        workloads::BoundProgram::Bind(
            workloads::CanonicalProgram("cnot"), 3);
    SweepCandidate cnot;
    cnot.code = std::shared_ptr<const qec::StabilizerCode>(
        program, program->primary_code());
    cnot.arch.trap_capacity = 2;
    cnot.options.workload = workloads::WorkloadSpec::Program(program);
    cnot.options.max_shots = 512;
    cnot.options.target_logical_errors = 0;
    cnot.options.validate_artifacts = true;
    cnot.label = "cnot";
    candidates.push_back(cnot);
    ASSERT_GT(program->phase_codes().size(), 1u);

    for (const int threads : {1, 4}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        SweepRunner detailed(opts);
        const std::vector<SweepOutcome> outcomes =
            detailed.RunDetailed(candidates);
        SweepRunner streaming(opts);
        const std::vector<Metrics> metrics = streaming.Run(candidates);
        ExpectSameCounters(detailed.last_run_stats(),
                           streaming.last_run_stats());
        ASSERT_EQ(outcomes.size(), candidates.size());
        ASSERT_EQ(metrics.size(), candidates.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE(candidates[i].label);
            ExpectBitIdentical(outcomes[i].metrics, metrics[i]);
            EXPECT_EQ(outcomes[i].metrics.per_observable_errors,
                      metrics[i].per_observable_errors);
            EXPECT_EQ(outcomes[i].metrics.dem_hyperedges,
                      metrics[i].dem_hyperedges);
        }
        const Metrics& m = metrics.back();
        ASSERT_TRUE(m.ok) << m.error;
        EXPECT_EQ(m.shots, 512);
    }
}

void
ExpectSameCertificate(const analysis::DistanceCertificate& a,
                      const analysis::DistanceCertificate& b)
{
    EXPECT_EQ(a.searched_weight, b.searched_weight);
    EXPECT_EQ(a.graph_like, b.graph_like);
    ASSERT_EQ(a.mechanisms.size(), b.mechanisms.size());
    for (size_t m = 0; m < a.mechanisms.size(); ++m) {
        EXPECT_EQ(a.mechanisms[m].dets, b.mechanisms[m].dets);
        EXPECT_EQ(a.mechanisms[m].obs_mask, b.mechanisms[m].obs_mask);
        EXPECT_EQ(a.mechanisms[m].hyperedge, b.mechanisms[m].hyperedge);
        EXPECT_EQ(a.mechanisms[m].index, b.mechanisms[m].index);
    }
    ASSERT_EQ(a.observables.size(), b.observables.size());
    for (size_t o = 0; o < a.observables.size(); ++o) {
        EXPECT_EQ(a.observables[o].observable, b.observables[o].observable);
        EXPECT_EQ(a.observables[o].found, b.observables[o].found);
        EXPECT_EQ(a.observables[o].distance, b.observables[o].distance);
        EXPECT_EQ(a.observables[o].exact, b.observables[o].exact);
        EXPECT_EQ(a.observables[o].witness, b.observables[o].witness);
    }
}

/** Certifying zero-shot candidates, as `tiqec_certify` runs them: clean
 *  memory d=3, a seed replica on its sim key, the sub-distance surgery
 *  (rounds = d - 1), and a capacity-1 candidate that fails to compile. */
std::vector<SweepCandidate>
CertifyingBatch()
{
    const std::shared_ptr<const qec::StabilizerCode> rotated =
        qec::MakeCode("rotated", 3);
    std::vector<SweepCandidate> candidates;
    const auto add = [&](const std::string& label) -> SweepCandidate& {
        SweepCandidate c;
        c.code = rotated;
        c.arch.trap_capacity = 2;
        c.options.max_shots = 0;
        c.options.validate_artifacts = false;
        c.options.certify_distance = true;
        c.label = label;
        candidates.push_back(std::move(c));
        return candidates.back();
    };
    add("memory");
    add("replica").options.seed = 7;
    {
        SweepCandidate& c = add("sub_distance");
        c.code = qec::MakeCode("merged_zz", 3);
        c.options.workload = workloads::WorkloadKind::kSurgery;
        c.options.rounds = 2;
    }
    add("capacity_1").arch.trap_capacity = 1;
    return candidates;
}

/** A certifying run returns each candidate's sim bundle and the
 *  certificate it was judged by, both shared per sim key: the same
 *  certificate `CertifyDistance` gives on that DEM under the runner's
 *  certifier options, also when the judgement fails the candidate. */
TEST(SweepRunnerTest, CertifyingRunReturnsSharedSimAndCertificate)
{
    const std::vector<SweepCandidate> candidates = CertifyingBatch();
    for (const int threads : {1, 4}) {
        for (const int weight : {analysis::kMaxSearchWeight, 3}) {
            SCOPED_TRACE("pool width " + std::to_string(threads) +
                         ", search weight " + std::to_string(weight));
            SweepRunnerOptions opts;
            opts.num_threads = threads;
            opts.certifier.max_search_weight = weight;
            SweepRunner runner(opts);
            const std::vector<SweepOutcome> outcomes =
                runner.RunDetailed(candidates);
            ASSERT_EQ(outcomes.size(), candidates.size());
            EXPECT_EQ(runner.last_run_stats().certifies, 2);

            EXPECT_TRUE(outcomes[0].metrics.ok) << outcomes[0].metrics.error;
            EXPECT_FALSE(outcomes[2].metrics.ok);
            EXPECT_NE(outcomes[2].metrics.error.find("effective distance 2"),
                      std::string::npos);
            for (const size_t i : {0, 2}) {
                SCOPED_TRACE(candidates[i].label);
                ASSERT_NE(outcomes[i].sim, nullptr);
                ASSERT_NE(outcomes[i].certificate, nullptr);
                EXPECT_EQ(outcomes[i].certificate->searched_weight, weight);
                ExpectSameCertificate(
                    *outcomes[i].certificate,
                    analysis::CertifyDistance(outcomes[i].sim->dem,
                                              opts.certifier));
            }
            EXPECT_EQ(outcomes[1].sim, outcomes[0].sim);
            EXPECT_EQ(outcomes[1].certificate, outcomes[0].certificate);
            EXPECT_FALSE(outcomes[3].metrics.ok);
            EXPECT_EQ(outcomes[3].sim, nullptr);
            EXPECT_EQ(outcomes[3].certificate, nullptr);
        }
    }
}

/** The frozen reference compiler gives the default pipeline's metrics
 *  and counters on the pinned mixed batch. */
TEST(SweepRunnerTest, ReferenceCompilerMatchesDefaultOnMixedBatch)
{
    const std::vector<SweepCandidate> candidates = PinnedMixedBatch();
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        SweepRunnerOptions opts;
        opts.num_threads = threads;
        SweepRunner fast(opts);
        const std::vector<Metrics> expected = fast.Run(candidates);
        opts.reference_compiler = true;
        SweepRunner reference(opts);
        const std::vector<Metrics> metrics = reference.Run(candidates);
        ExpectSameCounters(fast.last_run_stats(), reference.last_run_stats());
        ASSERT_EQ(metrics.size(), expected.size());
        for (size_t i = 0; i < metrics.size(); ++i) {
            SCOPED_TRACE(candidates[i].label);
            ExpectBitIdentical(expected[i], metrics[i]);
        }
    }
}

}  // namespace
}  // namespace tiqec::core
