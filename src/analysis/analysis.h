/**
 * @file
 * Umbrella entry points for post-compile artifact validation (DESIGN.md
 * §6): one call validating a compilation result (schedule rules) and one
 * validating the simulation artifacts built from it (circuit + DEM
 * rules). `core::pipeline` runs these behind
 * `EvaluationOptions::validate_artifacts`, and failing candidates carry
 * the formatted diagnostics through sweep failure-isolation exactly like
 * compile errors.
 */
#ifndef TIQEC_ANALYSIS_ANALYSIS_H
#define TIQEC_ANALYSIS_ANALYSIS_H

#include <vector>

#include "analysis/circuit_validator.h"
#include "analysis/dem_validator.h"
#include "analysis/diagnostic.h"
#include "analysis/distance_certifier.h"
#include "analysis/schedule_validator.h"
#include "compiler/compiler.h"
#include "qccd/timing.h"
#include "qccd/topology.h"
#include "qec/code.h"
#include "sim/dem.h"
#include "sim/noisy_circuit.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::analysis {

/** Error-message subjects, shared by the serial and sweep paths so the
 *  byte-identity contract on error text holds. */
inline constexpr std::string_view kCompiledSubject = "compiled schedule";
inline constexpr std::string_view kSimSubject = "simulation artifacts";
inline constexpr std::string_view kCertifySubject = "distance certification";

/** Runs the schedule.* rules over a successful compilation. `wise`
 *  mirrors the compile wiring (cooling folded into two-qubit gates). */
std::vector<Diagnostic> ValidateCompiledArtifacts(
    const compiler::CompilationResult& compiled,
    const qccd::DeviceGraph& graph, const qccd::TimingModel& timing,
    bool wise);

/** Workload-aware knobs for `ValidateSimArtifacts`. The defaults are the
 *  permissive, workload-blind configuration (what the artifact store's
 *  load-time revalidation uses); `SimValidationOptionsFor` derives the
 *  strict configuration for a known (code, workload) pair. */
struct SimValidationOptions
{
    /** Data qubits whose readout record must feed a detector or an
     *  observable (the `dem.detector_coverage` unreferenced-record
     *  check). Sorted; empty disables the check. */
    std::vector<int> tracked_data_qubits;
    /** Qubits deliberately measured out unreferenced: the surgery
     *  workload's seam data, read out in the conjugate basis at the
     *  split so the joint checks' time axis ends open (DESIGN.md §5.3).
     *  Sorted. */
    std::vector<int> allowed_unreferenced_qubits;
};

/** The strict validation configuration for a candidate: track every
 *  data-qubit readout, allowlisting the seam for the surgery and
 *  stability workloads (which require a `qec::MergedPatchCode`). */
SimValidationOptions SimValidationOptionsFor(
    const qec::StabilizerCode& code, const workloads::WorkloadSpec& spec);

/** The workload-aware `dem.detector_coverage` record check: every
 *  tracked data qubit's measurement record must feed at least one
 *  detector or observable, unless the qubit is allowlisted (the surgery
 *  seam, measured out in the conjugate basis; DESIGN.md §5.3). An
 *  unreferenced readout means errors on that qubit vanish from the
 *  decoding problem entirely. It is the one rule `options` adds to the
 *  workload-blind `ValidateSimArtifacts`, so a bundle that passed the
 *  blind rules (a store load) needs only this check. */
std::vector<Diagnostic> ValidateRecordCoverage(
    const sim::NoisyCircuit& circuit, const SimValidationOptions& options);

/** Runs the circuit.* and dem.* rules plus circuit/DEM cross-checks. */
std::vector<Diagnostic> ValidateSimArtifacts(
    const sim::NoisyCircuit& circuit, const sim::DetectorErrorModel& dem,
    const SimValidationOptions& options = {});

/** Runs the program.* structural rules over a logical program (patch
 *  table, liveness, merge adjacency/bracketing, observable references,
 *  determinism under ideal stabilizer flow, and — when `distance >= 0`
 *  — distance legality), adapting `workloads::CheckProgram` findings
 *  into registered diagnostics. */
std::vector<Diagnostic> ValidateProgram(
    const workloads::LogicalProgram& program, int distance = -1);

}  // namespace tiqec::analysis

#endif  // TIQEC_ANALYSIS_ANALYSIS_H
