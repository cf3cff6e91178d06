#include "core/toolflow.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "common/check.h"
#include "compiler/compiler.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "noise/annotator.h"
#include "sim/dem.h"
#include "sim/parallel_sampler.h"

namespace tiqec::core {

bool
ParseValidateArtifactsEnv(const char* text, bool build_default)
{
    if (text == nullptr) {
        return build_default;
    }
    int parsed = 0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, parsed);
    if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr,
                     "warning: TIQEC_VALIDATE=\"%s\" is not an integer; "
                     "keeping the build default (%s)\n",
                     text, build_default ? "on" : "off");
        return build_default;
    }
    return parsed != 0;
}

bool
DefaultValidateArtifacts()
{
#ifdef NDEBUG
    constexpr bool kBuildDefault = false;
#else
    constexpr bool kBuildDefault = true;
#endif
    static const bool value = ParseValidateArtifactsEnv(
        std::getenv("TIQEC_VALIDATE"), kBuildDefault);
    return value;
}

std::string
WiringKindName(WiringKind kind)
{
    switch (kind) {
      case WiringKind::kStandard: return "standard";
      case WiringKind::kWise: return "wise";
    }
    return "?";
}

std::string
ArchitectureConfig::Name() const
{
    return qccd::TopologyKindName(topology) + "_c" +
           std::to_string(trap_capacity) + "_" + WiringKindName(wiring) +
           "_" + std::to_string(static_cast<int>(gate_improvement)) + "x";
}

noise::NoiseParams
NoiseParamsFor(const ArchitectureConfig& arch)
{
    noise::NoiseParams params;
    params.gate_improvement = arch.gate_improvement;
    params.cooled = arch.wiring == WiringKind::kWise;
    return params;
}

CompileArtifacts
CompileCandidate(const qec::StabilizerCode& code,
                 const ArchitectureConfig& arch, int compile_rounds,
                 const qccd::DeviceGraph* device)
{
    CompileArtifacts arts;
    arts.compile_rounds = compile_rounds;
    try {
        if (compile_rounds < 1) {
            arts.error = "compile_rounds must be >= 1";
            return arts;
        }
        // MakeDeviceFor divides by (capacity - 1); validate here so a
        // capacity-1 candidate reports an error instead of crashing.
        if (!device && arch.trap_capacity < 2) {
            arts.error =
                "trap capacity must be at least 2 (one slot is reserved "
                "for communication)";
            return arts;
        }
        arts.graph = device ? *device
                            : compiler::MakeDeviceFor(code, arch.topology,
                                                      arch.trap_capacity);
        compiler::CompilerOptions copts;
        copts.wise = arch.wiring == WiringKind::kWise;
        if (copts.wise) {
            copts.cooling_per_two_qubit_gate =
                arts.timing.cooling_per_two_qubit_gate;
        }
        arts.compiled = compiler::CompileParityCheckRounds(
            code, compile_rounds, arts.graph, arts.timing, copts);
        if (!arts.compiled.ok) {
            arts.error = arts.compiled.error;
            return arts;
        }
        arts.ok = true;
    } catch (const std::exception& e) {
        arts.ok = false;
        arts.error = e.what();
    }
    return arts;
}

noise::RoundNoiseProfile
AnnotateCandidate(const qec::StabilizerCode& code,
                  const ArchitectureConfig& arch,
                  const CompileArtifacts& arts)
{
    if (!arts.ok || arts.compile_rounds != 1) {
        throw std::invalid_argument(
            "AnnotateCandidate: requires a successful one-round "
            "compilation");
    }
    // AnnotateRound back-fills chain_size / nbar on the schedule ops, so
    // work on a copy: the cached compile artifact stays pristine and
    // several noise scenarios can annotate it concurrently.
    compiler::CompilationResult scratch = arts.compiled;
    return noise::AnnotateRound(code, arts.graph, scratch,
                                NoiseParamsFor(arch), arts.timing);
}

SimArtifacts
BuildSimArtifacts(const qec::StabilizerCode& code,
                  const CompileArtifacts& arts,
                  const noise::RoundNoiseProfile& profile,
                  const ArchitectureConfig& arch, int rounds,
                  const workloads::WorkloadSpec& spec)
{
    SimArtifacts sim_arts;
    sim_arts.experiment = workloads::BuildExperiment(
        code, arts.compiled.qec_circuit, profile, NoiseParamsFor(arch),
        rounds, spec);
    sim_arts.dem = sim::BuildDem(sim_arts.experiment);
    return sim_arts;
}

std::string
CheckProgramCandidate(const qec::StabilizerCode& code,
                      const workloads::WorkloadSpec& spec)
{
    if (spec.kind != workloads::WorkloadKind::kProgram) {
        return "";
    }
    if (spec.program == nullptr) {
        return "program workload requires a bound program "
               "(WorkloadSpec::Program)";
    }
    if (spec.program->primary_code() != &code) {
        return "program workload: candidate code \"" + code.name() +
               "\" is not the primary phase code \"" +
               spec.program->primary_code()->name() + "\" of program '" +
               spec.program->name() + "'";
    }
    return "";
}

std::vector<const qec::StabilizerCode*>
UnitCodesFor(const qec::StabilizerCode& code,
             const workloads::WorkloadSpec& spec)
{
    std::vector<const qec::StabilizerCode*> units;
    if (spec.kind == workloads::WorkloadKind::kProgram &&
        spec.program != nullptr) {
        units.reserve(spec.program->phase_codes().size());
        for (const auto& phase : spec.program->phase_codes()) {
            units.push_back(phase.get());
        }
    } else {
        units.push_back(&code);
    }
    return units;
}

SimArtifacts
BuildProgramSimArtifacts(const workloads::BoundProgram& program,
                         const std::vector<ProgramUnit>& units,
                         const ArchitectureConfig& arch, int rounds)
{
    TIQEC_CHECK(units.size() == program.phase_codes().size(),
                "program build-sim: " << units.size() << " units for "
                                      << program.phase_codes().size()
                                      << " phase codes");
    std::vector<workloads::BoundProgram::PhaseCircuit> phases;
    phases.reserve(units.size());
    for (const ProgramUnit& unit : units) {
        TIQEC_CHECK(unit.arts != nullptr && unit.arts->ok &&
                        unit.profile != nullptr,
                    "program build-sim: units require successful "
                    "compile + annotate artifacts");
        phases.push_back({&unit.arts->compiled.qec_circuit, unit.profile});
    }
    SimArtifacts sim_arts;
    sim_arts.experiment = program.Build(phases, NoiseParamsFor(arch), rounds);
    sim_arts.dem = sim::BuildDem(sim_arts.experiment);
    return sim_arts;
}

void
FillCompileMetrics(const qec::StabilizerCode& code,
                   const ArchitectureConfig& arch,
                   const CompileArtifacts& arts,
                   const noise::RoundNoiseProfile* profile, int rounds,
                   Metrics& metrics)
{
    const compiler::CompilationResult& compiled = arts.compiled;
    if (arts.compile_rounds == 1) {
        metrics.round_time = compiled.schedule.makespan;
        metrics.shot_time = rounds * compiled.schedule.makespan;
    } else {
        metrics.round_time =
            compiled.schedule.makespan / arts.compile_rounds;
        metrics.shot_time = compiled.schedule.makespan;
    }
    metrics.movement_ops_per_round = compiled.routing.num_movement_ops;
    metrics.movement_time_per_round = compiled.schedule.movement_time;
    metrics.num_traps_used = compiled.partition.num_clusters;
    if (profile) {
        metrics.mean_two_qubit_error = profile->mean_two_qubit_error;
        metrics.max_two_qubit_error = profile->max_two_qubit_error;
        if (!code.data_qubits().empty()) {
            metrics.idle_dephasing_data_qubit =
                profile->idle_z[code.data_qubits().front().value];
        }
    }
    metrics.resources = resources::EstimateResources(
        resources::MinimalHardware(arch.topology, metrics.num_traps_used,
                                   arch.trap_capacity));
}

LerEstimate
FinishLerEstimate(std::int64_t shots, std::int64_t logical_errors,
                  const std::vector<std::int64_t>& per_observable_errors,
                  std::int64_t shards, bool early_stopped, int rounds)
{
    LerEstimate ler;
    ler.shots = shots;
    ler.logical_errors = logical_errors;
    ler.shards = shards;
    ler.early_stopped = early_stopped;
    ler.ler_per_shot =
        WilsonInterval(static_cast<std::uint64_t>(logical_errors),
                       static_cast<std::uint64_t>(shots));
    const double p = ler.ler_per_shot.rate;
    ler.ler_per_round =
        p < 1.0 ? 1.0 - std::pow(1.0 - p, 1.0 / rounds) : 1.0;
    ler.per_observable_errors = per_observable_errors;
    ler.per_observable_ler.reserve(per_observable_errors.size());
    for (const std::int64_t e : per_observable_errors) {
        ler.per_observable_ler.push_back(
            WilsonInterval(static_cast<std::uint64_t>(e),
                           static_cast<std::uint64_t>(shots)));
    }
    return ler;
}

Metrics
Evaluate(const qec::StabilizerCode& code, const ArchitectureConfig& arch,
         const EvaluationOptions& options)
{
    // A one-candidate sweep. The aliasing pointer owns nothing (`code`
    // outlives the call) but keeps its address, which a program spec's
    // primary-code check compares.
    SweepCandidate candidate;
    candidate.code = std::shared_ptr<const qec::StabilizerCode>(
        std::shared_ptr<const void>(), &code);
    candidate.arch = arch;
    candidate.options = options;
    SweepRunnerOptions runner;
    runner.num_threads = options.num_threads;
    return SweepRunner(runner).Run({candidate}).front();
}

LerEstimate
EstimateLogicalErrorRate(const sim::NoisyCircuit& experiment, int rounds,
                         const EvaluationOptions& options)
{
    if (rounds < 1) {
        throw std::invalid_argument(
            "EstimateLogicalErrorRate: rounds must be >= 1");
    }
    const sim::DetectorErrorModel dem = sim::BuildDem(experiment);
    sim::ParallelSamplerOptions sopts;
    sopts.seed = options.seed;
    sopts.num_threads = options.num_threads;
    sopts.shard_shots = options.shard_shots;
    sopts.decode_path = options.decode_path;
    sopts.correlated = options.correlated;
    sim::ParallelSampler sampler(experiment, sopts);
    const sim::LogicalErrorEstimate run = sampler.EstimateLogicalErrors(
        dem, options.max_shots, options.target_logical_errors);
    return FinishLerEstimate(run.shots, run.logical_errors,
                             run.per_observable_errors, run.shards,
                             run.early_stopped, rounds);
}

}  // namespace tiqec::core
