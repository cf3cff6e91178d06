#include "analysis/analysis.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "qec/surgery.h"

namespace tiqec::analysis {

std::vector<Diagnostic>
ValidateRecordCoverage(const sim::NoisyCircuit& circuit,
                       const SimValidationOptions& options)
{
    std::vector<Diagnostic> diagnostics;
    if (options.tracked_data_qubits.empty()) {
        return diagnostics;
    }
    std::vector<int> record_qubit;
    record_qubit.reserve(static_cast<size_t>(circuit.num_measurements()));
    std::vector<char> referenced(
        static_cast<size_t>(circuit.num_measurements()), 0);
    for (const sim::SimInstruction& inst : circuit.instructions()) {
        if (inst.op == sim::SimOp::kMeasure) {
            record_qubit.push_back(inst.q0);
        } else if (inst.op == sim::SimOp::kDetector ||
                   inst.op == sim::SimOp::kObservableInclude) {
            for (const std::int32_t m : inst.targets) {
                if (m >= 0 &&
                    m < static_cast<std::int32_t>(referenced.size())) {
                    referenced[static_cast<size_t>(m)] = 1;
                }
            }
        }
    }
    const auto contains = [](const std::vector<int>& sorted, int q) {
        return std::binary_search(sorted.begin(), sorted.end(), q);
    };
    for (size_t r = 0; r < record_qubit.size(); ++r) {
        const int q = record_qubit[r];
        if (referenced[r] || !contains(options.tracked_data_qubits, q) ||
            contains(options.allowed_unreferenced_qubits, q)) {
            continue;
        }
        std::ostringstream loc;
        loc << "record " << r << " (qubit " << q << ")";
        diagnostics.push_back(
            {Severity::kError, std::string(kRuleDemDetectorCoverage),
             loc.str(),
             "data-qubit readout feeds no detector or observable; errors "
             "on it are invisible to the decoder"});
    }
    return diagnostics;
}

SimValidationOptions
SimValidationOptionsFor(const qec::StabilizerCode& code,
                        const workloads::WorkloadSpec& spec)
{
    SimValidationOptions options;
    options.tracked_data_qubits.reserve(code.data_qubits().size());
    for (const QubitId q : code.data_qubits()) {
        options.tracked_data_qubits.push_back(q.value);
    }
    std::sort(options.tracked_data_qubits.begin(),
              options.tracked_data_qubits.end());
    if (spec.kind == workloads::WorkloadKind::kProgram &&
        spec.program != nullptr) {
        // The program executor builds over the fabric strip, not the
        // primary phase code: track the whole strip and allowlist every
        // seam column (a seam read out at a split whose records a later
        // phase never telescopes stays legitimately unreferenced).
        options.tracked_data_qubits = spec.program->fabric_data_qubits();
        options.allowed_unreferenced_qubits =
            spec.program->seam_data_qubits();
        return options;
    }
    if (spec.kind == workloads::WorkloadKind::kSurgery ||
        spec.kind == workloads::WorkloadKind::kStability) {
        const auto* merged = dynamic_cast<const qec::MergedPatchCode*>(&code);
        if (merged != nullptr) {
            options.allowed_unreferenced_qubits.reserve(
                merged->seam_data().size());
            for (const QubitId q : merged->seam_data()) {
                options.allowed_unreferenced_qubits.push_back(q.value);
            }
            std::sort(options.allowed_unreferenced_qubits.begin(),
                      options.allowed_unreferenced_qubits.end());
        }
    }
    return options;
}

std::vector<Diagnostic>
ValidateCompiledArtifacts(const compiler::CompilationResult& compiled,
                          const qccd::DeviceGraph& graph,
                          const qccd::TimingModel& timing, bool wise)
{
    ScheduleValidationInput in;
    in.native = &compiled.native;
    in.schedule = &compiled.schedule;
    in.placement = &compiled.placement;
    in.graph = &graph;
    in.timing = &timing;
    in.wise = wise;
    return ValidateSchedule(in);
}

std::vector<Diagnostic>
ValidateSimArtifacts(const sim::NoisyCircuit& circuit,
                     const sim::DetectorErrorModel& dem,
                     const SimValidationOptions& options)
{
    std::vector<Diagnostic> diagnostics = ValidateCircuit(circuit);
    const auto append = [&diagnostics](std::vector<Diagnostic> more) {
        diagnostics.insert(diagnostics.end(),
                           std::make_move_iterator(more.begin()),
                           std::make_move_iterator(more.end()));
    };
    append(ValidateRecordCoverage(circuit, options));
    append(ValidateDem(dem));
    if (dem.num_detectors != circuit.num_detectors() ||
        dem.num_observables != circuit.num_observables()) {
        std::ostringstream os;
        os << "model is sized for " << dem.num_detectors << " detectors / "
           << dem.num_observables << " observables but the circuit has "
           << circuit.num_detectors() << " / " << circuit.num_observables();
        diagnostics.push_back({Severity::kError,
                               std::string(kRuleDemDetectorRange), "dem",
                               os.str()});
    }
    return diagnostics;
}

std::vector<Diagnostic>
ValidateProgram(const workloads::LogicalProgram& program, int distance)
{
    std::vector<Diagnostic> diagnostics;
    for (workloads::ProgramIssue& issue :
         workloads::CheckProgram(program, distance)) {
        diagnostics.push_back({Severity::kError, std::move(issue.rule),
                               std::move(issue.location),
                               std::move(issue.message)});
    }
    return diagnostics;
}

}  // namespace tiqec::analysis
