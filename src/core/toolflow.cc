#include "core/toolflow.h"

#include <exception>
#include <memory>
#include <stdexcept>

#include "compiler/compiler.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "noise/annotator.h"

namespace tiqec::core {

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
                 const qccd::DeviceGraph* device, bool reference_pipeline)
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
        copts.reference_pipeline = reference_pipeline;
        arts.compiled = compiler::CompileParityCheckRounds(
            code, compile_rounds, arts.graph, arts.timing, copts);
        if (!arts.compiled.ok) {
            arts.error = arts.compiled.error;
            return arts;
        }
        // The schedule holds every op; free the router's copy, which a
        // store-loaded bundle never carries either.
        arts.compiled.routing.ops.clear();
        arts.compiled.routing.ops.shrink_to_fit();
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
    // The const walk leaves the cached compile artifact untouched, so
    // several noise scenarios can annotate it concurrently.
    return noise::ProfileRound(code, arts.graph, arts.compiled,
                               NoiseParamsFor(arch), arts.timing);
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

}  // namespace tiqec::core
