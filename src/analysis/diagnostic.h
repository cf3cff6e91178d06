/**
 * @file
 * Structured diagnostics for the artifact validation passes (DESIGN.md
 * §6): every rule a validator can fire has a stable dotted rule-id
 * (`schedule.*`, `circuit.*`, `dem.*`) listed in `AllRuleIds()`, so
 * tests can assert the registry has no dead rules and pin which rule a
 * given defect trips. Every diagnostic fails its candidate: it reports
 * through `Metrics::error` exactly like a compile failure.
 */
#ifndef TIQEC_ANALYSIS_DIAGNOSTIC_H
#define TIQEC_ANALYSIS_DIAGNOSTIC_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tiqec::analysis {

/** One validation finding, tied to a registered rule-id. */
struct Diagnostic
{
    /** Stable dotted rule-id, e.g. "schedule.ion_overlap". */
    std::string rule;
    /** Artifact location, e.g. "op 41 (SPLIT ion 3)" / "detector 12". */
    std::string location;
    std::string message;
};

// -- Rule registry. Every id a validator can emit appears here; the
//    no-dead-rules test in analysis_test fires each one by mutation. ----

// ScheduleValidator (compiled schedule legality).
inline constexpr std::string_view kRuleIonOverlap = "schedule.ion_overlap";
inline constexpr std::string_view kRuleTrapOverlap = "schedule.trap_overlap";
inline constexpr std::string_view kRuleSegmentOverlap =
    "schedule.segment_overlap";
inline constexpr std::string_view kRuleJunctionCapacity =
    "schedule.junction_capacity";
inline constexpr std::string_view kRuleDurationLut = "schedule.duration_lut";
inline constexpr std::string_view kRuleDagOrder = "schedule.dag_order";
inline constexpr std::string_view kRulePositionTrace =
    "schedule.position_trace";
inline constexpr std::string_view kRuleScheduleStats = "schedule.stats";

// CircuitValidator (noisy stabilizer circuit well-formedness).
inline constexpr std::string_view kRuleQubitRange = "circuit.qubit_range";
inline constexpr std::string_view kRuleRecordRange = "circuit.record_range";
inline constexpr std::string_view kRuleProbabilityRange =
    "circuit.probability_range";
inline constexpr std::string_view kRuleMeasuredOut = "circuit.measured_out";
inline constexpr std::string_view kRuleDetectorDeterminism =
    "circuit.detector_determinism";

// DemValidator (detector error model structural invariants).
inline constexpr std::string_view kRuleDemProbabilityRange =
    "dem.probability_range";
inline constexpr std::string_view kRuleDemDetectorRange = "dem.detector_range";
inline constexpr std::string_view kRuleDemDuplicateEdge = "dem.duplicate_edge";
inline constexpr std::string_view kRuleDemHyperedgeEdges =
    "dem.hyperedge_edges";
inline constexpr std::string_view kRuleDemMassConservation =
    "dem.mass_conservation";
/** Dead detectors, boundaryless components, unreferenced measurement
 *  records (modulo the surgery open-boundary allowlist). */
inline constexpr std::string_view kRuleDemDetectorCoverage =
    "dem.detector_coverage";
/** Logical-operator accounting: observable bits in range, no observable
 *  decoupled from every error mechanism. */
inline constexpr std::string_view kRuleDemLogicalOperator =
    "dem.logical_operator";

// DistanceCertifier (distance_certifier.h): effective fault distance.
inline constexpr std::string_view kRuleDemDistance = "dem.distance";

// Program validator (workloads/program.h structural checks, adapted by
// analysis::ValidateProgram). The spellings are duplicated in
// workloads/program.cc — workloads cannot depend on analysis — and the
// mutation battery pins the two against each other.
inline constexpr std::string_view kRuleProgramPatch = "program.patch";
inline constexpr std::string_view kRuleProgramLiveness = "program.liveness";
inline constexpr std::string_view kRuleProgramAdjacency =
    "program.adjacency";
inline constexpr std::string_view kRuleProgramMergeState =
    "program.merge_state";
inline constexpr std::string_view kRuleProgramObservable =
    "program.observable";
inline constexpr std::string_view kRuleProgramBasis = "program.basis";
inline constexpr std::string_view kRuleProgramDistance = "program.distance";

/** Every registered rule-id, grouped by validator. */
std::span<const std::string_view> AllRuleIds();

/**
 * Renders diagnostics into the one-line failure message a failing
 * candidate carries through `Metrics::error`: the sweep engine's
 * checks, the artifact store's load-time re-validation and
 * `tiqec_certify` all report through it. `subject` names the artifact
 * ("compiled schedule", "simulation artifacts"). At most `max_listed`
 * diagnostics are spelled out; the remainder is summarised as a count.
 */
std::string FormatDiagnostics(std::string_view subject,
                              const std::vector<Diagnostic>& diagnostics,
                              int max_listed = 8);

}  // namespace tiqec::analysis

#endif  // TIQEC_ANALYSIS_DIAGNOSTIC_H
