#include "workloads/experiment.h"

#include <stdexcept>

#include "qec/surgery.h"
#include "workloads/surgery.h"

namespace tiqec::workloads {

std::string
WorkloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kMemory: return "memory";
      case WorkloadKind::kStability: return "stability";
      case WorkloadKind::kSurgery: return "surgery";
      case WorkloadKind::kProgram: return "program";
    }
    return "?";
}

WorkloadKind
ParseWorkloadKind(const std::string& name)
{
    if (name == "memory") {
        return WorkloadKind::kMemory;
    }
    if (name == "stability") {
        return WorkloadKind::kStability;
    }
    if (name == "surgery") {
        return WorkloadKind::kSurgery;
    }
    if (name == "program") {
        return WorkloadKind::kProgram;
    }
    throw std::invalid_argument(
        "unknown workload: \"" + name +
        "\" (expected memory, stability, surgery, or program)");
}

sim::NoisyCircuit
BuildExperiment(const qec::StabilizerCode& code,
                const circuit::Circuit& round_circuit,
                const noise::RoundNoiseProfile& profile,
                const noise::NoiseParams& params, int rounds,
                const WorkloadSpec& spec)
{
    if (spec.kind == WorkloadKind::kMemory) {
        return sim::BuildMemory(code, round_circuit, profile, params,
                                rounds, spec.basis);
    }
    if (spec.kind == WorkloadKind::kProgram) {
        throw std::invalid_argument(
            "program workload has no single-code experiment; build it "
            "with workloads::BoundProgram::Build");
    }
    const auto* merged = dynamic_cast<const qec::MergedPatchCode*>(&code);
    if (merged == nullptr) {
        throw std::invalid_argument(
            WorkloadKindName(spec.kind) + " workload requires a "
            "qec::MergedPatchCode (got code \"" + code.name() + "\")");
    }
    return BuildSurgery(*merged, spec.kind == WorkloadKind::kSurgery,
                        round_circuit, profile, params, rounds);
}

}  // namespace tiqec::workloads
