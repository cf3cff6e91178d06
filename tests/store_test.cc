// Artifact-store subsystem tests (DESIGN.md §7): byte-stable
// serializers, content-addressed keys, the store API's miss/hit/corrupt
// contract, the sweep engine's warm-store zero-compile acceptance pin,
// corruption isolation, and the batch sweep service.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/atomic_file.h"
#include "common/text_format.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "core/sweep.h"
#include "noise/profile_io.h"
#include "qec/code.h"
#include "sim/circuit_io.h"
#include "sim/dem.h"
#include "sim/dem_io.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "store/service.h"
#include "workloads/experiment.h"

namespace tiqec {
namespace {

std::string
FreshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "tiqec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

struct PipelineArtifacts
{
    std::shared_ptr<const qec::StabilizerCode> code;
    core::ArchitectureConfig arch;
    core::CompileArtifacts compile;
    noise::RoundNoiseProfile profile;
    core::SimArtifacts sim;
};

/** One real d=3 rotated-surface-code pipeline run (grid, capacity 2) —
 *  the serializer fixtures must round-trip genuine artifacts, not
 *  hand-built minimal ones. */
PipelineArtifacts
BuildPipelineArtifacts()
{
    PipelineArtifacts p;
    p.code = qec::MakeCode("rotated", 3);
    p.compile = core::CompileCandidate(*p.code, p.arch, 1, nullptr);
    EXPECT_TRUE(p.compile.ok) << p.compile.error;
    p.profile = core::AnnotateCandidate(*p.code, p.arch, p.compile);
    p.sim.experiment = workloads::BuildExperiment(
        *p.code, p.compile.compiled.qec_circuit, p.profile,
        core::NoiseParamsFor(p.arch), 3, workloads::WorkloadSpec{});
    p.sim.dem = sim::BuildDem(p.sim.experiment);
    return p;
}

bool
SameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Field-exact Metrics comparison — the store contract is *bit*
 *  identity with the storeless run, not closeness. */
void
ExpectMetricsBitIdentical(const core::Metrics& a, const core::Metrics& b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_TRUE(SameDouble(a.round_time, b.round_time));
    EXPECT_TRUE(SameDouble(a.shot_time, b.shot_time));
    EXPECT_EQ(a.movement_ops_per_round, b.movement_ops_per_round);
    EXPECT_TRUE(SameDouble(a.movement_time_per_round,
                           b.movement_time_per_round));
    EXPECT_EQ(a.num_traps_used, b.num_traps_used);
    EXPECT_TRUE(SameDouble(a.mean_two_qubit_error, b.mean_two_qubit_error));
    EXPECT_TRUE(SameDouble(a.max_two_qubit_error, b.max_two_qubit_error));
    EXPECT_TRUE(SameDouble(a.idle_dephasing_data_qubit,
                           b.idle_dephasing_data_qubit));
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.logical_errors, b.logical_errors);
    EXPECT_TRUE(SameDouble(a.ler_per_shot.rate, b.ler_per_shot.rate));
    EXPECT_TRUE(SameDouble(a.ler_per_shot.low, b.ler_per_shot.low));
    EXPECT_TRUE(SameDouble(a.ler_per_shot.high, b.ler_per_shot.high));
    EXPECT_TRUE(SameDouble(a.ler_per_round, b.ler_per_round));
    EXPECT_EQ(a.per_observable_errors, b.per_observable_errors);
    EXPECT_EQ(a.dem_hyperedges, b.dem_hyperedges);
    EXPECT_EQ(a.dem_undecomposable, b.dem_undecomposable);
    EXPECT_TRUE(SameDouble(a.dem_dropped_probability,
                           b.dem_dropped_probability));
    EXPECT_TRUE(SameDouble(a.dem_undecomposable_probability,
                           b.dem_undecomposable_probability));
}

// ---------------------------------------------------------- serializers

TEST(DemIoTest, RoundTripIsByteStableAndLossless)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const sim::DetectorErrorModel& dem = p.sim.dem;
    // The fixture must exercise the full format, hyperedges included.
    ASSERT_GT(dem.num_detectors, 0);
    ASSERT_FALSE(dem.edges.empty());
    ASSERT_FALSE(dem.hyperedges.empty());

    const std::string text = sim::FormatDem(dem);
    sim::DetectorErrorModel parsed;
    std::string error;
    ASSERT_TRUE(sim::ParseDem(text, &parsed, &error)) << error;
    EXPECT_EQ(sim::FormatDem(parsed), text);

    EXPECT_EQ(parsed.num_detectors, dem.num_detectors);
    EXPECT_EQ(parsed.num_observables, dem.num_observables);
    EXPECT_EQ(parsed.edges.size(), dem.edges.size());
    EXPECT_EQ(parsed.hyperedges.size(), dem.hyperedges.size());
    EXPECT_EQ(parsed.num_hyperedges, dem.num_hyperedges);
    EXPECT_EQ(parsed.num_undecomposable, dem.num_undecomposable);
    EXPECT_TRUE(SameDouble(parsed.dropped_probability,
                           dem.dropped_probability));
    EXPECT_TRUE(SameDouble(parsed.undecomposable_probability,
                           dem.undecomposable_probability));
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        EXPECT_EQ(parsed.edges[i].d0, dem.edges[i].d0);
        EXPECT_EQ(parsed.edges[i].d1, dem.edges[i].d1);
        EXPECT_TRUE(SameDouble(parsed.edges[i].p, dem.edges[i].p));
        EXPECT_EQ(parsed.edges[i].obs_mask, dem.edges[i].obs_mask);
    }
}

TEST(DemIoTest, RejectsCorruptText)
{
    sim::DetectorErrorModel dem;
    std::string error;
    EXPECT_FALSE(sim::ParseDem("not a dem", &dem, &error));
    EXPECT_NE(error.find("dem parse"), std::string::npos);
    // A count far beyond the text is a truncation, not an allocation.
    EXPECT_FALSE(sim::ParseDem("tiqec-dem v1\ncounts 1 1 1000000000000000 0\n"
                               "diag 0 0 0 0\nmass 0 0 0\n",
                               &dem, &error));
    EXPECT_NE(error.find("truncated: missing edge 0"), std::string::npos)
        << error;
    // Observable masks are 32 bits wide.
    EXPECT_FALSE(sim::ParseDem("tiqec-dem v1\ncounts 1 33 0 0\n"
                               "diag 0 0 0 0\nmass 0 0 0\n",
                               &dem, &error));
    EXPECT_NE(error.find("observable count out of range"),
              std::string::npos)
        << error;
}

TEST(CircuitIoTest, RoundTripIsByteStableAndValidatorClean)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const std::string text = sim::FormatNoisyCircuit(p.sim.experiment);
    std::string error;
    const std::optional<sim::NoisyCircuit> parsed =
        sim::ParseNoisyCircuit(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(sim::FormatNoisyCircuit(*parsed), text);
    EXPECT_EQ(parsed->num_detectors(), p.sim.experiment.num_detectors());
    EXPECT_EQ(parsed->num_observables(),
              p.sim.experiment.num_observables());
    // The validate-on-load contract: a round-tripped experiment passes
    // the same static validators the build path does.
    EXPECT_TRUE(
        analysis::ValidateSimArtifacts(*parsed, p.sim.dem).empty());
}

TEST(CircuitIoTest, RejectsOutOfRangeOperands)
{
    // A corrupt qubit index must come back as a parse error, never an
    // assert/abort in the replay builders, and an observable index must
    // fit the 32-bit observable masks.
    for (const char* text :
         {"tiqec-circuit v1\nqubits 2\nops 1\nH 7\n",
          "tiqec-circuit v1\nqubits 1\nops 2\nM 0 0.25\nOBS 32 1 0\n"}) {
        std::string error;
        EXPECT_FALSE(sim::ParseNoisyCircuit(text, &error).has_value())
            << text;
        EXPECT_NE(error.find("circuit parse"), std::string::npos) << error;
        EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    }
}

TEST(ProfileIoTest, RoundTripIsByteStable)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    ASSERT_FALSE(p.profile.gate_noise.empty());
    ASSERT_FALSE(p.profile.idle_z.empty());

    const std::string text = noise::FormatNoiseProfile(p.profile);
    noise::RoundNoiseProfile parsed;
    std::string error;
    ASSERT_TRUE(noise::ParseNoiseProfile(text, &parsed, &error)) << error;
    EXPECT_EQ(noise::FormatNoiseProfile(parsed), text);
    EXPECT_EQ(parsed.gate_noise.size(), p.profile.gate_noise.size());
    EXPECT_EQ(parsed.idle_z.size(), p.profile.idle_z.size());
    EXPECT_EQ(parsed.swaps.size(), p.profile.swaps.size());
    EXPECT_TRUE(SameDouble(parsed.round_time, p.profile.round_time));
}

TEST(ProfileIoTest, RejectsOperandsTheSimulatorCannotApply)
{
    // The sim build applies every probability and swap operand as read,
    // so a profile that names a qubit or gate outside its own shape, or
    // a probability outside [0, 1], must fail to parse.
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const std::string text = noise::FormatNoiseProfile(p.profile);
    const std::string gates = std::to_string(p.profile.gate_noise.size());
    const std::string qubits = std::to_string(p.profile.idle_z.size());
    ASSERT_TRUE(p.profile.swaps.empty());
    // `text` with field `field` of its first `tag` line set to `value`.
    const auto edit = [&](const std::string& tag, size_t field,
                          const std::string& value) {
        const size_t begin = text.find('\n' + tag + ' ') + 1;
        const size_t end = text.find('\n', begin);
        std::vector<std::string> fields =
            text::SplitFields(text.substr(begin, end - begin), ' ');
        fields.at(field) = value;
        std::string line = fields[0];
        for (size_t k = 1; k < fields.size(); ++k) {
            line += ' ' + fields[k];
        }
        return text.substr(0, begin) + line + text.substr(end);
    };
    // The swaps line is the last one.
    const auto with_swap = [&](const std::string& swap) {
        return edit("swaps", 1, "1") + swap + '\n';
    };
    const struct
    {
        std::string text;
        std::string expected;  // empty: parses
    } cases[] = {
        {with_swap("s 0 1 0.1 -1"), ""},
        {with_swap("s " + qubits + " 0 0.1 -1"),
         "qubit out of range in swap 0"},
        {with_swap("s 0 -1 0.1 -1"), "qubit out of range in swap 0"},
        {with_swap("s 2 2 0.1 -1"), "repeated qubit operand in swap 0"},
        {with_swap("s 0 1 0.1 " + gates), "gate out of range in swap 0"},
        {with_swap("s 0 1 0.1 -2"), "gate out of range in swap 0"},
        {with_swap("s 0 1 1.5 -1"), "probability out of [0,1] in swap 0"},
        {edit("g", 1, "nan"), "probability out of [0,1] in gate 0"},
        {edit("idle", 2, "-0.1"), "probability out of [0,1] in idle"},
        // A count far beyond the text is a parse error, not an allocation.
        {edit("gates", 1, "1000000000000000"), "malformed gate " + gates},
    };
    for (const auto& tc : cases) {
        SCOPED_TRACE(tc.expected);
        noise::RoundNoiseProfile parsed;
        std::string error;
        const bool ok = noise::ParseNoiseProfile(tc.text, &parsed, &error);
        EXPECT_EQ(ok, tc.expected.empty()) << error;
        EXPECT_NE(error.find(tc.expected), std::string::npos) << error;
    }
}

// ----------------------------------------------------------------- keys

TEST(StoreKeysTest, ContentAddressingIgnoresObjectIdentity)
{
    const auto a = qec::MakeCode("rotated", 3);
    const auto b = qec::MakeCode("rotated", 3);
    core::ArchitectureConfig arch;
    const store::StoreKey ka =
        store::CompileStoreKey(*a, arch, 1, nullptr);
    const store::StoreKey kb =
        store::CompileStoreKey(*b, arch, 1, nullptr);
    // Distinct objects, identical content: the store shares what the
    // pointer-keyed in-memory cache cannot.
    EXPECT_EQ(ka.canonical, kb.canonical);
    EXPECT_EQ(ka.FileName(), kb.FileName());
}

TEST(StoreKeysTest, EveryInputPerturbsTheKey)
{
    const auto d3 = qec::MakeCode("rotated", 3);
    const auto d5 = qec::MakeCode("rotated", 5);
    core::ArchitectureConfig arch;
    const std::string base =
        store::CompileStoreKey(*d3, arch, 1, nullptr).canonical;

    EXPECT_NE(store::CompileStoreKey(*d5, arch, 1, nullptr).canonical,
              base);
    EXPECT_NE(store::CompileStoreKey(*d3, arch, 2, nullptr).canonical,
              base);
    core::ArchitectureConfig cap3 = arch;
    cap3.trap_capacity = 3;
    EXPECT_NE(store::CompileStoreKey(*d3, cap3, 1, nullptr).canonical,
              base);
    core::ArchitectureConfig wise = arch;
    wise.wiring = core::WiringKind::kWise;
    EXPECT_NE(store::CompileStoreKey(*d3, wise, 1, nullptr).canonical,
              base);

    const store::StoreKey ck =
        store::CompileStoreKey(*d3, arch, 1, nullptr);
    const store::StoreKey n1 = store::NoiseStoreKey(ck, 1.0);
    const store::StoreKey n5 = store::NoiseStoreKey(ck, 5.0);
    EXPECT_NE(n1.canonical, n5.canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 5, 0, 0).canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 3, 1, 0).canonical);
    EXPECT_NE(store::SimStoreKey(n1, 3, 0, 0).canonical,
              store::SimStoreKey(n1, 3, 0, 1).canonical);
}

TEST(StoreKeysTest, FileNameIsSixteenHexPlusArt)
{
    const store::StoreKey key{"compile", "anything"};
    const std::string name = key.FileName();
    ASSERT_EQ(name.size(), 20u);
    EXPECT_EQ(name.substr(16), ".art");
    EXPECT_EQ(name.find_first_not_of("0123456789abcdef"), 16u);
}

// ------------------------------------------------------------ store API

TEST(ArtifactStoreTest, CompileMissThenHitRoundTrip)
{
    const store::ArtifactStore store(FreshDir("store_api"));
    const auto code = qec::MakeCode("rotated", 3);
    core::ArchitectureConfig arch;
    const store::StoreKey key =
        store::CompileStoreKey(*code, arch, 1, nullptr);

    core::CompileArtifacts loaded;
    std::string error;
    EXPECT_EQ(store.LoadCompile(key, *code, arch, 1, nullptr, &loaded,
                                &error),
              store::LoadStatus::kMiss);

    const core::CompileArtifacts arts =
        core::CompileCandidate(*code, arch, 1, nullptr);
    ASSERT_TRUE(arts.ok) << arts.error;
    ASSERT_TRUE(store.StoreCompile(key, arts, &error)) << error;
    ASSERT_TRUE(std::filesystem::exists(store.PathFor(key)));

    ASSERT_EQ(store.LoadCompile(key, *code, arch, 1, nullptr, &loaded,
                                &error),
              store::LoadStatus::kHit)
        << error;
    EXPECT_TRUE(loaded.ok);
    ASSERT_EQ(loaded.compiled.schedule.ops.size(),
              arts.compiled.schedule.ops.size());
    EXPECT_TRUE(SameDouble(loaded.compiled.schedule.makespan,
                           arts.compiled.schedule.makespan));
    EXPECT_EQ(loaded.compiled.schedule.num_passes,
              arts.compiled.schedule.num_passes);
    EXPECT_EQ(loaded.compiled.schedule.num_movement_ops,
              arts.compiled.schedule.num_movement_ops);
    EXPECT_TRUE(SameDouble(loaded.compiled.placement.cost,
                           arts.compiled.placement.cost));
    EXPECT_EQ(loaded.compiled.partition.cluster_of,
              arts.compiled.partition.cluster_of);
    EXPECT_EQ(loaded.compiled.native.size(), arts.compiled.native.size());

    const store::ArtifactStore::Counters c = store.counters();
    EXPECT_EQ(c.hits, 1);
    EXPECT_EQ(c.misses, 1);
    EXPECT_EQ(c.writes, 1);
    EXPECT_EQ(c.corrupt, 0);
}

TEST(ArtifactStoreTest, FailedCompileBundlesAreRejected)
{
    const store::ArtifactStore store(FreshDir("store_reject"));
    core::CompileArtifacts failed;
    failed.ok = false;
    std::string error;
    EXPECT_FALSE(store.StoreCompile({"compile", "k"}, failed, &error));
    EXPECT_FALSE(error.empty());
}

TEST(ArtifactStoreTest, NoiseShapeMismatchIsCorrupt)
{
    const store::ArtifactStore store(FreshDir("store_noise"));
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const store::StoreKey key = store::NoiseStoreKey(
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr), 1.0);
    std::string error;
    ASSERT_TRUE(store.StoreNoise(key, p.profile, &error)) << error;

    noise::RoundNoiseProfile loaded;
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size(),
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kHit)
        << error;
    // A profile whose shape disagrees with the compile bundle it is
    // supposed to annotate is stale/corrupt, not a hit.
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size() + 1,
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kCorrupt);
    EXPECT_NE(error.find("artifact store"), std::string::npos);
}

TEST(ArtifactStoreTest, KeyStringMismatchDegradesToMiss)
{
    const store::ArtifactStore store(FreshDir("store_collision"));
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const store::StoreKey key = store::NoiseStoreKey(
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr), 1.0);
    std::string error;
    ASSERT_TRUE(store.StoreNoise(key, p.profile, &error)) << error;

    // Same file name (we overwrite the stored key line), different
    // canonical string: simulates an FNV collision / stale layout. Must
    // degrade to a miss, never load the wrong artifact.
    std::string content;
    ASSERT_TRUE(common::ReadFile(store.PathFor(key), &content, &error));
    const size_t key_begin = content.find("key ");
    ASSERT_NE(key_begin, std::string::npos);
    const size_t key_end = content.find('\n', key_begin);
    content.replace(key_begin, key_end - key_begin, "key other-content");
    ASSERT_TRUE(common::AtomicWriteFile(store.PathFor(key), content,
                                        &error));

    noise::RoundNoiseProfile loaded;
    EXPECT_EQ(store.LoadNoise(key, p.profile.gate_noise.size(),
                              p.profile.idle_z.size(), &loaded, &error),
              store::LoadStatus::kMiss);
}

// ---------------------------------------------- sweep-engine integration

std::vector<core::SweepCandidate>
WarmStoreCandidates()
{
    // Fresh code objects every call: nothing the in-memory
    // pointer-keyed cache could share across runs — any warm-run work
    // skipped is the store's doing.
    std::vector<core::SweepCandidate> candidates;
    core::SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.options.max_shots = 1024;
    c.options.target_logical_errors = 25;
    c.options.seed = 0x5EED;
    c.label = "rotated_d3";
    candidates.push_back(c);
    core::SweepCandidate rep;
    rep.code = qec::MakeCode("repetition", 3);
    rep.arch.topology = qccd::TopologyKind::kLinear;
    rep.arch.trap_capacity = 3;
    rep.options.max_shots = 512;
    rep.options.target_logical_errors = 25;
    rep.options.seed = 7;
    rep.label = "rep_d3";
    candidates.push_back(rep);
    return candidates;
}

TEST(SweepStoreTest, WarmRunPerformsZeroCompilesAndIsBitIdentical)
{
    const std::string root = FreshDir("store_warm");

    // Reference: no store at all.
    core::SweepRunner plain(core::SweepRunnerOptions{});
    const std::vector<core::SweepOutcome> reference =
        plain.RunDetailed(WarmStoreCandidates());
    EXPECT_GT(plain.last_run_stats().compiles, 0);
    EXPECT_EQ(plain.last_run_stats().store_hits, 0);

    // Cold pass populates the store.
    core::SweepRunnerOptions cold_opts;
    cold_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner cold(cold_opts);
    const std::vector<core::SweepOutcome> cold_run =
        cold.RunDetailed(WarmStoreCandidates());
    const core::SweepRunStats& cold_stats = cold.last_run_stats();
    EXPECT_EQ(cold_stats.compiles, 2);
    EXPECT_GT(cold_stats.store_misses, 0);
    EXPECT_EQ(cold_stats.store_writes, cold_stats.store_misses);
    EXPECT_EQ(cold_stats.store_corrupt, 0);

    // Warm pass: new runner, new store handle, fresh code objects —
    // and zero stage executions (the PR's acceptance contract).
    core::SweepRunnerOptions warm_opts;
    warm_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner warm(warm_opts);
    const std::vector<core::SweepOutcome> warm_run =
        warm.RunDetailed(WarmStoreCandidates());
    const core::SweepRunStats& warm_stats = warm.last_run_stats();
    EXPECT_EQ(warm_stats.compiles, 0);
    EXPECT_EQ(warm_stats.annotates, 0);
    EXPECT_EQ(warm_stats.sim_builds, 0);
    EXPECT_EQ(warm_stats.store_misses, 0);
    EXPECT_EQ(warm_stats.store_corrupt, 0);
    EXPECT_EQ(warm_stats.store_writes, 0);
    EXPECT_GT(warm_stats.store_hits, 0);

    ASSERT_EQ(reference.size(), cold_run.size());
    ASSERT_EQ(reference.size(), warm_run.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(reference[i].label);
        ExpectMetricsBitIdentical(reference[i].metrics,
                                  cold_run[i].metrics);
        ExpectMetricsBitIdentical(reference[i].metrics,
                                  warm_run[i].metrics);
    }
}

/** Rewrites the artifact at `path` through `mutate(lines)`. */
void
RewriteArtifact(const std::string& path,
                const std::function<void(std::vector<std::string>&)>& mutate)
{
    std::string content;
    std::string error;
    ASSERT_TRUE(common::ReadFile(path, &content, &error)) << error;
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < content.size()) {
        const size_t end = content.find('\n', begin);
        lines.push_back(content.substr(begin, end - begin));
        if (end == std::string::npos) {
            break;
        }
        begin = end + 1;
    }
    mutate(lines);
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += '\n';
    }
    ASSERT_TRUE(common::AtomicWriteFile(path, out, &error)) << error;
}

TEST(SweepStoreTest, GarbagePayloadIsolatesWithDiagnostic)
{
    const std::string root = FreshDir("store_garbage");
    auto store_ptr = std::make_shared<store::ArtifactStore>(root);

    core::SweepRunnerOptions opts;
    opts.store = store_ptr;
    core::SweepRunner(opts).RunDetailed(WarmStoreCandidates());

    // Truncate the rotated_d3 compile payload to garbage (header and
    // key line intact, so it is found and then fails to parse).
    const auto code = qec::MakeCode("rotated", 3);
    const std::string path = store_ptr->PathFor(store::CompileStoreKey(
        *code, core::ArchitectureConfig{}, 1, nullptr));
    ASSERT_TRUE(std::filesystem::exists(path));
    RewriteArtifact(path, [](std::vector<std::string>& lines) {
        ASSERT_GE(lines.size(), 3u);
        lines.resize(2);
        lines.push_back("garbage");
    });

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(WarmStoreCandidates());
    ASSERT_EQ(outcomes.size(), 2u);
    // The corrupt artifact isolates its candidate with the store's
    // diagnostic — no crash, no silent recompile hiding the damage.
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find("artifact store"),
              std::string::npos)
        << outcomes[0].metrics.error;
    // The untouched candidate proceeds normally off its own artifacts.
    EXPECT_TRUE(outcomes[1].metrics.ok) << outcomes[1].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);

    // The corrupt artifact was discarded: the next run recompiles it
    // and both candidates pass.
    core::SweepRunner healed(opts);
    for (const core::SweepOutcome& outcome :
         healed.RunDetailed(WarmStoreCandidates())) {
        EXPECT_TRUE(outcome.metrics.ok) << outcome.metrics.error;
    }
    EXPECT_EQ(healed.last_run_stats().store_corrupt, 0);
    EXPECT_EQ(healed.last_run_stats().compiles, 1);
}

/** Sets CSV field `field` of the first schedule row of kind `kind` (of
 *  the first row when `kind` is empty) in the compile bundle at `path`. */
void
SetScheduleField(const std::string& path, const std::string& kind,
                 size_t field, const std::string& value)
{
    RewriteArtifact(path, [&](std::vector<std::string>& lines) {
        // The CSV header follows the "schedule <lines>" line.
        const auto block = std::find_if(
            lines.begin(), lines.end(), [](const std::string& line) {
                return line.rfind("schedule ", 0) == 0;
            });
        ASSERT_NE(block, lines.end()) << "no schedule block";
        for (auto row = block + 2; row != lines.end(); ++row) {
            std::vector<std::string> fields = text::SplitFields(*row, ',');
            ASSERT_EQ(fields.size(), 10u) << *row;
            if (!kind.empty() && fields[2] != kind) {
                continue;
            }
            fields[field] = value;
            row->clear();
            for (size_t f = 0; f < fields.size(); ++f) {
                *row += (f > 0 ? "," : "") + fields[f];
            }
            return;
        }
        FAIL() << "no " << kind << " row in the schedule block";
    });
}

TEST(SweepStoreTest, TamperedScheduleFailsValidatorsOnLoad)
{
    const std::string root = FreshDir("store_tamper");
    auto store_ptr = std::make_shared<store::ArtifactStore>(root);

    core::SweepRunnerOptions opts;
    opts.store = store_ptr;
    core::SweepRunner(opts).RunDetailed(WarmStoreCandidates());

    // Tamper one schedule row's duration: the payload still parses, but
    // the validate-on-load pass must reject it (duration-LUT rule).
    const auto code = qec::MakeCode("rotated", 3);
    const std::string path = store_ptr->PathFor(store::CompileStoreKey(
        *code, core::ArchitectureConfig{}, 1, nullptr));
    SetScheduleField(path, "", 8, "123456");  // duration_us

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(WarmStoreCandidates());
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find(analysis::kCompiledSubject),
              std::string::npos)
        << outcomes[0].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
}

TEST(SweepStoreTest, OutOfRangeIdInStoredScheduleIsolatesItsCandidate)
{
    const std::string root = FreshDir("store_far_id");
    core::SweepRunnerOptions cold_opts;
    cold_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner(cold_opts).RunDetailed(WarmStoreCandidates());

    // A segment id far outside the device: the row parses, and the
    // validate-on-load pass must report it instead of indexing with it.
    const auto code = qec::MakeCode("rotated", 3);
    const core::ArchitectureConfig arch;
    const store::StoreKey key =
        store::CompileStoreKey(*code, arch, 1, nullptr);
    const store::ArtifactStore store(root);
    SetScheduleField(store.PathFor(key), "SPLIT", 6, "100000000");

    core::CompileArtifacts loaded;
    std::string error;
    EXPECT_EQ(store.LoadCompile(key, *code, arch, 1, nullptr, &loaded,
                                &error),
              store::LoadStatus::kCorrupt);
    EXPECT_NE(error.find(analysis::kRulePositionTrace), std::string::npos)
        << error;
    EXPECT_FALSE(loaded.ok);

    core::SweepRunnerOptions warm_opts;
    warm_opts.store = std::make_shared<store::ArtifactStore>(root);
    core::SweepRunner warm(warm_opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(WarmStoreCandidates());
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find("segment id 100000000"),
              std::string::npos)
        << outcomes[0].metrics.error;
    EXPECT_TRUE(outcomes[1].metrics.ok) << outcomes[1].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
}

TEST(SweepStoreTest, BadSwapInStoredNoiseProfileIsolatesItsCandidate)
{
    // A swap on a qubit far outside the code keeps the profile's shape,
    // so only the operand checks on load stand between it and the sim
    // build, which applies its noise to the qubits as read.
    const std::string root = FreshDir("store_bad_swap");
    core::SweepRunnerOptions opts;
    opts.store = std::make_shared<store::ArtifactStore>(root);
    const auto candidates = [](int rounds) {
        std::vector<core::SweepCandidate> out(2);
        for (core::SweepCandidate& c : out) {
            c.code = qec::MakeCode("rotated", 3);
            c.options.max_shots = 0;
            c.options.rounds = rounds;
        }
        out[1].arch.trap_capacity = 5;  // another compile key, with swaps
        return out;
    };
    core::SweepRunner(opts).RunDetailed(candidates(3));

    const auto code = qec::MakeCode("rotated", 3);
    RewriteArtifact(
        opts.store->PathFor(store::NoiseStoreKey(
            store::CompileStoreKey(*code, core::ArchitectureConfig{}, 1,
                                   nullptr),
            1.0)),
        [](std::vector<std::string>& lines) {
            ASSERT_EQ(lines.back(), "swaps 0");
            lines.back() = "swaps 1";
            lines.push_back("s 100000 0 0.1 -1");
        });

    // Five rounds: the noise key is the same, the sim key is new, so the
    // sims are rebuilt from the stored profiles.
    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(candidates(5));
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_NE(outcomes[0].metrics.error.find("artifact store: noise profile"),
              std::string::npos)
        << outcomes[0].metrics.error;
    EXPECT_NE(outcomes[0].metrics.error.find("qubit out of range in swap 0"),
              std::string::npos)
        << outcomes[0].metrics.error;
    EXPECT_TRUE(outcomes[1].metrics.ok) << outcomes[1].metrics.error;
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
    EXPECT_EQ(warm.last_run_stats().sim_builds, 1);
}

TEST(SweepStoreTest, WarmHitStillRunsTheRecordCheck)
{
    // A store load runs the workload-blind sim rules; a validating run
    // must still apply the workload-aware record check to what it loads.
    core::SweepCandidate c;
    c.code = qec::MakeCode("rotated", 3);
    c.options.max_shots = 0;
    c.options.validate_artifacts = true;
    const std::vector<core::SweepCandidate> candidates = {c};
    core::SweepRunnerOptions opts;
    opts.store =
        std::make_shared<store::ArtifactStore>(FreshDir("store_records"));
    const std::vector<core::SweepOutcome> cold =
        core::SweepRunner(opts).RunDetailed(candidates);
    ASSERT_TRUE(cold[0].metrics.ok) << cold[0].metrics.error;
    ASSERT_NE(cold[0].sim, nullptr);

    // Every data readout of the memory experiment feeds a final
    // detector, so read one data qubit out once more into a record that
    // nothing reads: the circuit stays deterministic and the rebuilt DEM
    // passes its rules, so only the record check objects.
    core::SimArtifacts tampered = *cold[0].sim;
    tampered.experiment.AddMeasure(c.code->data_qubits().front().value,
                                   0.0);
    tampered.dem = sim::BuildDem(tampered.experiment);
    ASSERT_TRUE(
        analysis::ValidateSimArtifacts(tampered.experiment, tampered.dem)
            .empty());
    const std::vector<analysis::Diagnostic> strict =
        analysis::ValidateSimArtifacts(
            tampered.experiment, tampered.dem,
            analysis::SimValidationOptionsFor(*c.code, c.options.workload));
    ASSERT_EQ(strict.size(), 1u);
    EXPECT_EQ(strict[0].rule, analysis::kRuleDemDetectorCoverage);
    const store::StoreKey key = store::SimStoreKey(
        store::NoiseStoreKey(store::CompileStoreKey(*c.code, c.arch, 1,
                                                    nullptr),
                             c.arch.gate_improvement),
        c.code->distance(), static_cast<int>(c.options.workload.basis),
        static_cast<int>(c.options.workload.kind));
    std::string error;
    ASSERT_TRUE(opts.store->StoreSim(key, tampered, &error)) << error;

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> outcomes =
        warm.RunDetailed(candidates);
    EXPECT_FALSE(outcomes[0].metrics.ok);
    EXPECT_EQ(outcomes[0].metrics.error,
              analysis::FormatDiagnostics(analysis::kSimSubject, strict));
    const core::SweepRunStats& stats = warm.last_run_stats();
    EXPECT_EQ(stats.compiles + stats.annotates + stats.sim_builds, 0);
    EXPECT_EQ(stats.store_corrupt, 0);
    // One verdict per validated entry (the schedule and the sim bundle),
    // and one validate-on-load per loaded artifact with rules.
    EXPECT_EQ(stats.validations, 2);
    EXPECT_EQ(stats.validation_failures, 1);
    EXPECT_EQ(stats.store_validated, 2);
}

// ---------------------------------------------------------- certificates

TEST(CertificateStoreTest, SerializerRoundTripIsByteStable)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const sim::DetectorErrorModel& dem = p.sim.dem;
    const analysis::DistanceCertificate cert = analysis::CertifyDistance(dem);
    // The fixture must exercise a found witness.
    ASSERT_FALSE(cert.observables.empty());
    ASSERT_TRUE(cert.observables[0].found);
    const store::StoreKey key = store::CertificateStoreKey(
        store::SimStoreKey(
            store::NoiseStoreKey(
                store::CompileStoreKey(*p.code, p.arch, 1, nullptr), 1.0),
            3, 0, 0),
        analysis::kMaxSearchWeight);

    const store::ArtifactStore first(FreshDir("cert_roundtrip_a"));
    std::string error;
    ASSERT_TRUE(first.StoreCertificate(key, dem, cert, &error)) << error;
    analysis::DistanceCertificate loaded;
    ASSERT_EQ(first.LoadCertificate(key, dem, &loaded, &error),
              store::LoadStatus::kHit)
        << error;
    EXPECT_EQ(loaded.searched_weight, cert.searched_weight);
    EXPECT_EQ(loaded.graph_like, cert.graph_like);
    EXPECT_EQ(loaded.mechanisms.size(), cert.mechanisms.size());
    ASSERT_EQ(loaded.observables.size(), cert.observables.size());
    for (size_t o = 0; o < cert.observables.size(); ++o) {
        EXPECT_EQ(loaded.observables[o].found, cert.observables[o].found);
        EXPECT_EQ(loaded.observables[o].distance,
                  cert.observables[o].distance);
        EXPECT_EQ(loaded.observables[o].exact, cert.observables[o].exact);
        EXPECT_EQ(loaded.observables[o].witness, cert.observables[o].witness);
    }

    // Re-serialising the loaded certificate reproduces the file exactly.
    const store::ArtifactStore second(FreshDir("cert_roundtrip_b"));
    ASSERT_TRUE(second.StoreCertificate(key, dem, loaded, &error)) << error;
    std::string a;
    std::string b;
    ASSERT_TRUE(common::ReadFile(first.PathFor(key), &a, &error));
    ASSERT_TRUE(common::ReadFile(second.PathFor(key), &b, &error));
    EXPECT_EQ(a, b);
}

TEST(CertificateStoreTest, OptionOrSimKeyChangeIsAMiss)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const analysis::DistanceCertificate cert =
        analysis::CertifyDistance(p.sim.dem);
    const store::StoreKey ck =
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr);
    const store::StoreKey nk = store::NoiseStoreKey(ck, 1.0);
    const store::StoreKey sk = store::SimStoreKey(nk, 3, 0, 0);
    const store::ArtifactStore store(FreshDir("cert_keys"));
    std::string error;
    ASSERT_TRUE(store.StoreCertificate(store::CertificateStoreKey(sk, 4),
                                       p.sim.dem, cert, &error))
        << error;

    core::ArchitectureConfig cap3 = p.arch;
    cap3.trap_capacity = 3;
    const std::vector<store::StoreKey> perturbed = {
        store::CertificateStoreKey(sk, 3),
        store::CertificateStoreKey(store::SimStoreKey(nk, 5, 0, 0), 4),
        store::CertificateStoreKey(store::SimStoreKey(nk, 3, 1, 0), 4),
        store::CertificateStoreKey(store::SimStoreKey(nk, 3, 0, 1), 4),
        store::CertificateStoreKey(store::SimStoreKey(nk, 3, 0, 0, "p"), 4),
        store::CertificateStoreKey(
            store::SimStoreKey(store::NoiseStoreKey(ck, 5.0), 3, 0, 0), 4),
        store::CertificateStoreKey(
            store::SimStoreKey(
                store::NoiseStoreKey(
                    store::CompileStoreKey(*p.code, cap3, 1, nullptr), 1.0),
                3, 0, 0),
            4),
    };
    for (const store::StoreKey& key : perturbed) {
        SCOPED_TRACE(key.canonical.substr(0, 60));
        analysis::DistanceCertificate loaded;
        EXPECT_EQ(store.LoadCertificate(key, p.sim.dem, &loaded, &error),
                  store::LoadStatus::kMiss);
    }
    analysis::DistanceCertificate loaded;
    EXPECT_EQ(store.LoadCertificate(store::CertificateStoreKey(sk, 4),
                                    p.sim.dem, &loaded, &error),
              store::LoadStatus::kHit)
        << error;
}

TEST(CertificateStoreTest, KeyIsTheSearchWeightActuallyUsed)
{
    // The certifier clamps `max_search_weight` to [2, 4], so weights 9
    // and 4 run the same search and must share one stored certificate;
    // likewise 1 and 2.
    core::SweepRunnerOptions opts;
    opts.store =
        std::make_shared<store::ArtifactStore>(FreshDir("cert_clamp"));
    const struct
    {
        int max_search_weight;
        std::int64_t certifies;
        int searched_weight;
    } runs[] = {{4, 1, 4}, {9, 0, 4}, {2, 1, 2}, {1, 0, 2}};
    for (const auto& run : runs) {
        SCOPED_TRACE("max_search_weight " +
                     std::to_string(run.max_search_weight));
        core::SweepCandidate c;
        c.code = qec::MakeCode("rotated", 3);
        c.options.certify_distance = true;
        c.options.max_shots = 0;
        opts.certifier.max_search_weight = run.max_search_weight;
        core::SweepRunner runner(opts);
        const std::vector<core::SweepOutcome> outcomes =
            runner.RunDetailed({c});
        ASSERT_NE(outcomes[0].certificate, nullptr)
            << outcomes[0].metrics.error;
        EXPECT_EQ(outcomes[0].certificate->searched_weight,
                  run.searched_weight);
        EXPECT_EQ(runner.last_run_stats().certifies, run.certifies);
        EXPECT_EQ(runner.last_run_stats().store_corrupt, 0);
    }
}

/** Two certified d=3 memory candidates — Z and X basis, so two sim keys
 *  and two certificates — on fresh code objects every call. */
std::vector<core::SweepCandidate>
CertifiedCandidates()
{
    std::vector<core::SweepCandidate> candidates;
    for (const sim::MemoryBasis basis :
         {sim::MemoryBasis::kZ, sim::MemoryBasis::kX}) {
        core::SweepCandidate c;
        c.code = qec::MakeCode("rotated", 3);
        c.options.workload = workloads::WorkloadSpec(
            workloads::WorkloadKind::kMemory, basis);
        c.options.certify_distance = true;
        c.options.max_shots = 1024;
        c.options.target_logical_errors = 0;
        c.options.seed = 11;
        c.label = basis == sim::MemoryBasis::kZ ? "mem_z" : "mem_x";
        candidates.push_back(c);
    }
    return candidates;
}

/** Where the sweep persists `c`'s certificate (memory workload, one-round
 *  compile, default certifier options). */
std::string
CertificatePath(const store::ArtifactStore& store,
                const core::SweepCandidate& c)
{
    const workloads::WorkloadSpec spec = c.options.workload_spec();
    return store.PathFor(store::CertificateStoreKey(
        store::SimStoreKey(
            store::NoiseStoreKey(
                store::CompileStoreKey(*c.code, c.arch, 1, nullptr),
                c.arch.gate_improvement),
            c.code->distance(), static_cast<int>(spec.basis),
            static_cast<int>(spec.kind)),
        analysis::kMaxSearchWeight));
}

TEST(CertificateStoreTest, WarmCertifyingSweepLoadsEveryCertificate)
{
    core::SweepRunner plain(core::SweepRunnerOptions{});
    const std::vector<core::SweepOutcome> reference =
        plain.RunDetailed(CertifiedCandidates());
    EXPECT_EQ(plain.last_run_stats().certifies, 2);

    core::SweepRunnerOptions opts;
    opts.store = std::make_shared<store::ArtifactStore>(FreshDir("cert_warm"));
    core::SweepRunner cold(opts);
    const std::vector<core::SweepOutcome> cold_run =
        cold.RunDetailed(CertifiedCandidates());
    EXPECT_EQ(cold.last_run_stats().certifies, 2);
    EXPECT_EQ(cold.last_run_stats().store_writes,
              cold.last_run_stats().store_misses);

    core::SweepRunner warm(opts);
    const std::vector<core::SweepOutcome> warm_run =
        warm.RunDetailed(CertifiedCandidates());
    EXPECT_EQ(warm.last_run_stats().certifies, 0);
    EXPECT_EQ(warm.last_run_stats().certify_failures, 0);
    EXPECT_EQ(warm.last_run_stats().store_misses, 0);
    EXPECT_EQ(warm.last_run_stats().store_corrupt, 0);

    ASSERT_EQ(reference.size(), warm_run.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(reference[i].label);
        EXPECT_TRUE(reference[i].metrics.ok) << reference[i].metrics.error;
        ExpectMetricsBitIdentical(reference[i].metrics, cold_run[i].metrics);
        ExpectMetricsBitIdentical(reference[i].metrics, warm_run[i].metrics);
    }
}

TEST(CertificateStoreTest, SubDistanceFailureTextIsIdenticalColdAndWarm)
{
    // Stability at rounds = 2 < d = 3: the joint parity's timelike
    // distance drops to the round count, and the certifier says so.
    const auto candidates = [] {
        core::SweepCandidate c;
        c.code = qec::MakeCode("merged_zz", 3);
        c.options.workload = workloads::WorkloadKind::kStability;
        c.options.rounds = 2;
        c.options.certify_distance = true;
        c.options.max_shots = 256;
        return std::vector<core::SweepCandidate>{c};
    };
    core::SweepRunner plain(core::SweepRunnerOptions{});
    const std::string reference = plain.Run(candidates())[0].error;
    EXPECT_NE(reference.find(analysis::kRuleDemDistance), std::string::npos)
        << reference;

    core::SweepRunnerOptions opts;
    opts.store =
        std::make_shared<store::ArtifactStore>(FreshDir("cert_subdistance"));
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        core::SweepRunner runner(opts);
        const std::vector<core::Metrics> metrics = runner.Run(candidates());
        EXPECT_FALSE(metrics[0].ok);
        EXPECT_EQ(metrics[0].error, reference);  // byte-identical
        EXPECT_EQ(runner.last_run_stats().certifies, warm ? 0 : 1);
        EXPECT_EQ(runner.last_run_stats().certify_failures, 1);
    }
}

/** Adds one to field `field` of the first observable's certificate line,
 *  "obs 0 <found> <distance> <exact> <witness...>" (line 6 of the file);
 *  a negative `field` counts from the end. */
void
BumpObsField(std::vector<std::string>& lines, int field)
{
    ASSERT_GT(lines.size(), 6u);
    std::vector<std::string> fields = text::SplitFields(lines[6], ' ');
    ASSERT_GE(fields.size(), 6u) << "no witness on '" << lines[6] << "'";
    std::string& f = fields[field >= 0 ? static_cast<size_t>(field)
                                       : fields.size() - 1];
    f = std::to_string(std::stoi(f) + 1);
    lines[6] = fields[0];
    for (size_t k = 1; k < fields.size(); ++k) {
        lines[6] += ' ';
        lines[6] += fields[k];
    }
}

TEST(CertificateStoreTest, CorruptCertificateIsolatesOnlyItsCandidate)
{
    const struct
    {
        const char* name;
        std::function<void(std::vector<std::string>&)> mutate;
        const char* expected;
    } cases[] = {
        {"truncated",
         [](std::vector<std::string>& lines) { lines.resize(4); },
         "missing"},
        {"certifies another DEM",
         [](std::vector<std::string>& lines) {
             ASSERT_EQ(lines[2].rfind("dem_digest ", 0), 0u);
             lines[2] += "0";
         },
         "digest mismatch"},
        {"edited distance",
         [](std::vector<std::string>& lines) { BumpObsField(lines, 3); },
         "size differs from distance"},
        {"witness no longer cancels",
         [](std::vector<std::string>& lines) { BumpObsField(lines, -1); },
         "nonzero syndrome"},
    };
    for (const auto& tc : cases) {
        SCOPED_TRACE(tc.name);
        core::SweepRunnerOptions opts;
        auto astore = std::make_shared<store::ArtifactStore>(
            FreshDir("cert_corrupt"));
        opts.store = astore;
        core::SweepRunner(opts).RunDetailed(CertifiedCandidates());
        const std::string path =
            CertificatePath(*astore, CertifiedCandidates()[0]);
        ASSERT_TRUE(std::filesystem::exists(path));
        RewriteArtifact(path, tc.mutate);

        core::SweepRunner warm(opts);
        const std::vector<core::SweepOutcome> outcomes =
            warm.RunDetailed(CertifiedCandidates());
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_FALSE(outcomes[0].metrics.ok);
        EXPECT_NE(outcomes[0].metrics.error.find("artifact store: "
                                                 "certificate"),
                  std::string::npos)
            << outcomes[0].metrics.error;
        EXPECT_NE(outcomes[0].metrics.error.find(tc.expected),
                  std::string::npos)
            << outcomes[0].metrics.error;
        EXPECT_TRUE(outcomes[1].metrics.ok) << outcomes[1].metrics.error;
        EXPECT_EQ(warm.last_run_stats().store_corrupt, 1);
        EXPECT_EQ(warm.last_run_stats().certifies, 0);

        // The corrupt certificate was discarded: the next run certifies
        // again and both candidates pass.
        core::SweepRunner healed(opts);
        for (const core::SweepOutcome& outcome :
             healed.RunDetailed(CertifiedCandidates())) {
            EXPECT_TRUE(outcome.metrics.ok) << outcome.metrics.error;
        }
        EXPECT_EQ(healed.last_run_stats().store_corrupt, 0);
        EXPECT_EQ(healed.last_run_stats().certifies, 1);
    }
}

TEST(SweepStoreTest, EqualContentSharesWorkAtEveryPoolWidth)
{
    // Separate MakeCode calls, as every request line of a service batch
    // parses its own code: equal content compiles, annotates, builds,
    // and certifies once, with the same counters at 1 and 4 threads.
    const auto candidates = [] {
        std::vector<core::SweepCandidate> out;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            core::SweepCandidate c;
            c.code = qec::MakeCode("rotated", 3);
            c.options.certify_distance = true;
            c.options.max_shots = 256;
            c.options.seed = seed;
            out.push_back(c);
        }
        return out;
    };
    for (int repeat = 0; repeat < 5; ++repeat) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("repeat " + std::to_string(repeat) + ", threads " +
                         std::to_string(threads));
            core::SweepRunnerOptions opts;
            opts.num_threads = threads;
            opts.store = std::make_shared<store::ArtifactStore>(
                FreshDir("equal_content"));
            core::SweepRunner runner(opts);
            runner.RunDetailed(candidates());
            const core::SweepRunStats& stats = runner.last_run_stats();
            EXPECT_EQ(stats.compiles, 1);
            EXPECT_EQ(stats.annotates, 1);
            EXPECT_EQ(stats.sim_builds, 1);
            EXPECT_EQ(stats.certifies, 1);
            // compile, noise, sim, certificate: one probe and write each.
            EXPECT_EQ(stats.store_misses, 4);
            EXPECT_EQ(stats.store_writes, 4);
        }
    }
}

// ------------------------------------------------------ the line rules

/** One artifact text and its reader, which parses a text and formats
 *  what it parsed again, or returns "" and sets `*error`. */
struct ArtifactText
{
    const char* name;
    std::string text;
    std::function<std::string(const std::string&, std::string* error)>
        reformat;
};

/** The payload of the store artifact at `key` (its text after the key
 *  line), read by writing a text in its place and calling `load`, which
 *  on a hit stores what it loaded under the same key in `copy`. */
ArtifactText
StorePayload(const char* name, const store::ArtifactStore& store,
             const store::ArtifactStore& copy, const store::StoreKey& key,
             const std::function<store::LoadStatus(std::string*)>& load)
{
    std::string content;
    std::string error;
    EXPECT_TRUE(common::ReadFile(store.PathFor(key), &content, &error));
    const size_t header = content.find('\n', content.find('\n') + 1) + 1;
    return {name, content.substr(header),
            [prefix = content.substr(0, header), path = store.PathFor(key),
             copied = copy.PathFor(key),
             load](const std::string& text, std::string* err) {
                std::string stored;
                if (common::AtomicWriteFile(path, prefix + text, err) &&
                    load(err) == store::LoadStatus::kHit &&
                    common::ReadFile(copied, &stored, err)) {
                    return stored.substr(prefix.size());
                }
                return std::string();
            }};
}

TEST(LineReaderTest, EveryArtifactFormatFollowsTheLineRules)
{
    const PipelineArtifacts p = BuildPipelineArtifacts();
    const sim::DetectorErrorModel& dem = p.sim.dem;
    const store::StoreKey ck =
        store::CompileStoreKey(*p.code, p.arch, 1, nullptr);
    const store::StoreKey sk =
        store::SimStoreKey(store::NoiseStoreKey(ck, 1.0), 3, 0, 0);
    const store::StoreKey cert_key =
        store::CertificateStoreKey(sk, analysis::kMaxSearchWeight);
    const store::ArtifactStore store(FreshDir("line_rules"));
    const store::ArtifactStore copy(FreshDir("line_rules_copy"));
    std::string error;
    ASSERT_TRUE(store.StoreCompile(ck, p.compile, &error)) << error;
    ASSERT_TRUE(store.StoreSim(sk, p.sim, &error)) << error;
    ASSERT_TRUE(store.StoreCertificate(
        cert_key, dem, analysis::CertifyDistance(dem), &error))
        << error;

    const ArtifactText inputs[] = {
        {"dem", sim::FormatDem(dem),
         [](const std::string& text, std::string* err) {
             sim::DetectorErrorModel parsed;
             return sim::ParseDem(text, &parsed, err) ? sim::FormatDem(parsed)
                                                      : std::string();
         }},
        {"noisy circuit", sim::FormatNoisyCircuit(p.sim.experiment),
         [](const std::string& text, std::string* err) {
             const std::optional<sim::NoisyCircuit> parsed =
                 sim::ParseNoisyCircuit(text, err);
             return parsed ? sim::FormatNoisyCircuit(*parsed) : std::string();
         }},
        {"noise profile", noise::FormatNoiseProfile(p.profile),
         [](const std::string& text, std::string* err) {
             noise::RoundNoiseProfile parsed;
             return noise::ParseNoiseProfile(text, &parsed, err)
                        ? noise::FormatNoiseProfile(parsed)
                        : std::string();
         }},
        StorePayload("compile payload", store, copy, ck,
                     [&](std::string* err) {
                         core::CompileArtifacts arts;
                         const store::LoadStatus status = store.LoadCompile(
                             ck, *p.code, p.arch, 1, nullptr, &arts, err);
                         copy.StoreCompile(ck, arts);
                         return status;
                     }),
        StorePayload("sim payload", store, copy, sk,
                     [&](std::string* err) {
                         core::SimArtifacts arts;
                         const store::LoadStatus status =
                             store.LoadSim(sk, &arts, err);
                         copy.StoreSim(sk, arts);
                         return status;
                     }),
        StorePayload("certificate payload", store, copy, cert_key,
                     [&](std::string* err) {
                         analysis::DistanceCertificate cert;
                         const store::LoadStatus status =
                             store.LoadCertificate(cert_key, dem, &cert, err);
                         copy.StoreCertificate(cert_key, dem, cert);
                         return status;
                     }),
    };
    for (const ArtifactText& input : inputs) {
        SCOPED_TRACE(input.name);
        const std::string& text = input.text;
        ASSERT_FALSE(text.empty());
        ASSERT_EQ(text.back(), '\n');
        // (a) The full text parses and re-formats byte-identically.
        std::string err;
        EXPECT_EQ(input.reformat(text, &err), text) << err;
        // (b) Every shorter prefix that ends at a line boundary is a
        // truncation.
        for (size_t end = text.find('\n'); end + 1 < text.size();
             end = text.find('\n', end + 1)) {
            err.clear();
            EXPECT_EQ(input.reformat(text.substr(0, end + 1), &err), "");
            EXPECT_NE(err.find("truncated: missing"), std::string::npos)
                << "prefix of " << end + 1 << " bytes: " << err;
        }
        // (c) Content after the last line is rejected, after a blank
        // line too.
        for (const char* junk : {"junk", "\njunk"}) {
            err.clear();
            EXPECT_EQ(input.reformat(text + junk, &err), "");
            EXPECT_NE(err.find("trailing content"), std::string::npos)
                << "'" << junk << "': " << err;
        }
    }
}

// -------------------------------------------------------------- service

TEST(SweepServiceTest, ParseRejectsMalformedRequests)
{
    core::SweepCandidate c;
    std::string error;
    EXPECT_FALSE(core::ParseRequestCandidate("distance=3", &c, &error));
    EXPECT_NE(error.find("family"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate("family=rotated", &c, &error));
    EXPECT_NE(error.find("distance"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=3 nonsense=1", &c, &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=three", &c, &error));
    EXPECT_FALSE(core::ParseRequestCandidate(
        "family=rotated distance=3 basis=q", &c, &error));
    // A gate improvement factor must be a finite positive number.
    for (const char* improvement : {"nan", "inf", "0", "-2"}) {
        SCOPED_TRACE(improvement);
        error.clear();
        EXPECT_FALSE(core::ParseRequestCandidate(
            std::string("family=rotated distance=3 improvement=") +
                improvement,
            &c, &error));
        EXPECT_NE(error.find("improvement"), std::string::npos);
    }
    // Fewer than one round, or a negative budget, names its key.
    for (const std::string bad : {"rounds=0", "rounds=-2", "shots=-1"}) {
        SCOPED_TRACE(bad);
        error.clear();
        EXPECT_FALSE(core::ParseRequestCandidate(
            "family=rotated distance=3 " + bad, &c, &error));
        EXPECT_NE(error.find(bad.substr(0, bad.find('='))),
                  std::string::npos)
            << error;
    }
}

TEST(SweepServiceTest, ParseFillsCandidate)
{
    const std::string keys =
        "family=rotated distance=3 topology=switch capacity=4 "
        "wiring=wise improvement=5 shots=99 target_errors=7 seed=11 "
        "compile_only=1 label=custom ";
    // `workload=` resets the whole workload spec, so `basis=` must hold
    // on either side of it.
    for (const char* order :
         {"basis=x workload=memory", "workload=memory basis=x"}) {
        SCOPED_TRACE(order);
        core::SweepCandidate c;
        std::string error;
        ASSERT_TRUE(core::ParseRequestCandidate(keys + order, &c, &error))
            << error;
        EXPECT_EQ(c.code->distance(), 3);
        EXPECT_EQ(c.arch.topology, qccd::TopologyKind::kSwitch);
        EXPECT_EQ(c.arch.trap_capacity, 4);
        EXPECT_EQ(c.arch.wiring, core::WiringKind::kWise);
        EXPECT_EQ(c.arch.gate_improvement, 5.0);
        EXPECT_EQ(c.options.max_shots, 99);
        EXPECT_EQ(c.options.target_logical_errors, 7);
        EXPECT_EQ(c.options.seed, 11u);
        EXPECT_EQ(c.options.workload.kind, workloads::WorkloadKind::kMemory);
        EXPECT_EQ(c.options.workload.basis, sim::MemoryBasis::kX);
        EXPECT_TRUE(c.options.compile_only);
        EXPECT_EQ(c.label, "custom");
    }
}

TEST(SweepServiceTest, DistanceAboveTheCapIsAParseError)
{
    // The cap itself parses and builds its code.
    core::SweepCandidate c;
    std::string error;
    ASSERT_TRUE(core::ParseRequestCandidate(
        "family=rotated distance=" +
            std::to_string(core::kMaxRequestDistance),
        &c, &error))
        << error;
    EXPECT_EQ(c.code->distance(), core::kMaxRequestDistance);

    // Above it, a line fails before any code is built (46341^2
    // overflows int), and the rest of the batch proceeds.
    const std::string requests =
        "family=rotated distance=46341 compile_only=1 label=huge\n"
        "family=rotated distance=3 compile_only=1 label=good\n"
        "workload=program program=cnot distance=100 label=program\n";
    const store::SweepServiceResult result =
        store::RunSweepService(requests, store::SweepServiceOptions{});
    ASSERT_EQ(result.result_lines.size(), 3u);
    EXPECT_EQ(result.num_ok, 1);
    EXPECT_NE(result.result_lines[0].find(
                  "request parse: distance must be at most 99, got "
                  "'46341'"),
              std::string::npos)
        << result.result_lines[0];
    EXPECT_NE(result.result_lines[1].find("\"ok\":true"),
              std::string::npos)
        << result.result_lines[1];
    EXPECT_NE(result.result_lines[2].find(
                  "request parse: distance must be at most 99, got "
                  "'100'"),
              std::string::npos)
        << result.result_lines[2];
}

TEST(SweepServiceTest, RoundCountsAboveTheCapAreParseErrors)
{
    // The cap parses for both keys; nothing here is run.
    core::SweepCandidate c;
    std::string error;
    ASSERT_TRUE(core::ParseRequestCandidate(
        "family=rotated distance=3 rounds=99 compile_rounds=99", &c,
        &error))
        << error;
    EXPECT_EQ(c.options.rounds, core::kMaxRequestRounds);
    EXPECT_EQ(c.compile_rounds, core::kMaxRequestRounds);

    // Above it, a line fails before any code is built, and the line
    // between them still parses.
    const core::RequestBatch batch = core::ReadRequestBatch(
        "family=rotated distance=3 shots=0 rounds=100\n"
        "family=rotated distance=3 compile_only=1 compile_rounds=2\n"
        "family=rotated distance=3 compile_only=1 "
        "compile_rounds=2147483647\n"
        "family=rotated distance=3 rounds=2147483647\n"
        "family=rotated distance=3 compile_only=1 compile_rounds=100\n");
    ASSERT_EQ(batch.requests.size(), 5u);
    ASSERT_EQ(batch.candidates.size(), 1u);
    EXPECT_EQ(batch.candidates[0].compile_rounds, 2);
    const std::string expected[] = {
        "rounds must be at most 99, got '100'",
        "",
        "compile_rounds must be at most 99, got '2147483647'",
        "rounds must be at most 99, got '2147483647'",
        "compile_rounds must be at most 99, got '100'",
    };
    for (size_t i = 0; i < batch.requests.size(); ++i) {
        EXPECT_EQ(batch.requests[i].parse_error, expected[i]) << i;
    }
}

TEST(SweepServiceTest, BatchIsolatesMalformedLines)
{
    // The NaN line shares its compile key with the Monte-Carlo line
    // after it, so a NaN that reached the runner's noise cache would
    // hand that line its profile.
    const std::string monte_carlo =
        "family=rotated distance=3 improvement=1 shots=4096 "
        "target_errors=0 seed=3 label=mc";
    const std::string requests =
        "# comment\n"
        "\n"
        "family=rotated distance=3 compile_only=1 label=good\n"
        "family=rotated distance=oops\n"
        "family=rotated distance=3 improvement=nan shots=64 label=nan\n" +
        monte_carlo + "\n" +
        "family=rotated distance=3 compile_only=1 label=bad\xFF\n";
    store::SweepServiceOptions options;
    const store::SweepServiceResult result =
        store::RunSweepService(requests, options);
    ASSERT_EQ(result.num_requests, 5);
    EXPECT_EQ(result.num_ok, 3);
    ASSERT_EQ(result.result_lines.size(), 5u);
    EXPECT_NE(result.result_lines[0].find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(result.result_lines[1].find("request parse:"),
              std::string::npos);
    EXPECT_NE(result.result_lines[2].find("request parse:"),
              std::string::npos);
    EXPECT_NE(result.summary_line.find("\"requests\":5"),
              std::string::npos);
    // A byte that is not UTF-8 is escaped, so the line stays valid JSON.
    const std::string& escaped = result.result_lines[4];
    EXPECT_NE(escaped.find("\"label\":\"bad\\ufffd\""), std::string::npos)
        << escaped;
    EXPECT_TRUE(std::all_of(escaped.begin(), escaped.end(), [](char c) {
        return static_cast<unsigned char>(c) < 0x80;
    })) << escaped;

    const store::SweepServiceResult alone =
        store::RunSweepService(monte_carlo, options);
    ASSERT_EQ(alone.result_lines.size(), 1u);
    EXPECT_NE(alone.result_lines[0].find("\"logical_errors\":"),
              std::string::npos);
    EXPECT_EQ(result.result_lines[3], alone.result_lines[0]);
}

}  // namespace
}  // namespace tiqec
