/**
 * @file
 * Simulated logical workloads: the workload selector and the builder of
 * a candidate's experiment circuit.
 *
 * The evaluation tool flow (core/pipeline.h) compiles one parity-check
 * round of a code onto a device and annotates it with schedule-derived
 * noise; `BuildExperiment` then assembles the full noisy circuit the
 * Monte-Carlo estimate samples: preparation, `rounds` repetitions of
 * the compiled round, detectors, readout, and logical observables.
 *
 * Three single-code workloads are provided (DESIGN.md §5):
 *
 *  - memory: the logical-identity benchmark (paper §6.1), historically
 *    the only workload.
 *  - surgery: a joint-parity measurement on a merged double patch
 *    (paper §8, qec/surgery.h) - transversal split-state preparation,
 *    `rounds` merged rounds whose first round measures the joint
 *    parity, transversal split readout. Observables: the joint parity
 *    and both patch logicals.
 *  - stability: the same merged-round circuit tracking only the joint
 *    parity - Gidney's "stability experiment", the timelike dual of a
 *    memory experiment; `rounds` is its distance knob. Surgery *is* a
 *    stability experiment for its parity outcome, which is why the two
 *    share the circuit.
 *
 * All three are one circuit shape, built by one builder that takes the
 * workload's differences as data (DESIGN.md §5.3): which check type
 * anchors the time boundaries, which data qubits (the seam) take the
 * conjugate basis, which checks (the joint-parity checks) stay open at
 * both boundaries, and what each observable reads.
 */
#ifndef TIQEC_WORKLOADS_EXPERIMENT_H
#define TIQEC_WORKLOADS_EXPERIMENT_H

#include <cstdint>
#include <memory>
#include <string>

#include "circuit/circuit.h"
#include "noise/annotator.h"
#include "noise/noise_model.h"
#include "qec/code.h"
#include "sim/noisy_circuit.h"

namespace tiqec::sim {

/** Which logical memory is protected. */
enum class MemoryBasis {
    kZ,  ///< prepare |0_L>, read Z_L; Z checks anchor the detectors
    kX,  ///< prepare |+_L>, read X_L; X checks anchor the detectors
};

}  // namespace tiqec::sim

namespace tiqec::workloads {

class BoundProgram;

/** Which logical workload a candidate simulates. */
enum class WorkloadKind : std::uint8_t
{
    kMemory,
    kStability,
    kSurgery,
    /** A bound logical program (workloads/program.h): a multi-patch
     *  lattice-surgery sequence stitched from compiled phase rounds. */
    kProgram,
};

std::string WorkloadKindName(WorkloadKind kind);

/** Parses "memory" | "stability" | "surgery" | "program" (throws
 *  std::invalid_argument on anything else). */
WorkloadKind ParseWorkloadKind(const std::string& name);

/**
 * The experiment shape of one candidate: the workload plus its
 * workload-specific parameters. Memory reads `basis`; surgery and
 * stability take their orientation from the code itself (they require a
 * `qec::MergedPatchCode`, whose `parity()` fixes the measured joint
 * parity); a program workload carries the bound program whose phases
 * the pipeline compiles and stitches (the candidate's `code` must be
 * the program's primary phase code).
 *
 * This is the single workload-selection surface, consumed by
 * `core::SweepRunner` (and so by `core::Evaluate`). A bare
 * `WorkloadKind` converts implicitly, and `spec == WorkloadKind::k...`
 * comparisons keep working.
 */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::kMemory;
    /** Protected logical memory (memory workload only). */
    sim::MemoryBasis basis = sim::MemoryBasis::kZ;
    /** The bound program (program workload only). */
    std::shared_ptr<const BoundProgram> program;

    WorkloadSpec() = default;
    WorkloadSpec(WorkloadKind kind) : kind(kind) {}  // NOLINT(implicit)
    WorkloadSpec(WorkloadKind kind, sim::MemoryBasis basis)
        : kind(kind), basis(basis)
    {
    }

    /** Spec for a bound program workload. */
    static WorkloadSpec Program(std::shared_ptr<const BoundProgram> bound)
    {
        WorkloadSpec spec(WorkloadKind::kProgram);
        spec.program = std::move(bound);
        return spec;
    }

    friend bool operator==(const WorkloadSpec& spec, WorkloadKind kind)
    {
        return spec.kind == kind;
    }
};

/** Observable layout of the surgery experiment. */
inline constexpr int kJointParityObservable = 0;
inline constexpr int kPatchALogicalObservable = 1;
inline constexpr int kPatchBLogicalObservable = 2;

/**
 * Assembles the noisy experiment of `spec` over `rounds` compiled
 * rounds (`round_circuit`, the circuit `profile` was annotated
 * against): reset the data qubits, run `rounds` noisy rounds with
 * round-0 detectors on the anchored checks and consecutive-round
 * detectors on every check, read the data out transversally, close the
 * anchored checks with space-like detectors, and include the workload's
 * observables. A pure function of its arguments, the property the
 * sweep engine's artifact cache depends on. Throws
 * std::invalid_argument when the code cannot host the workload
 * (surgery/stability on anything that is not a `qec::MergedPatchCode`)
 * and for a program workload, which `BoundProgram` builds, and
 * tiqec::CheckError when `rounds` < 1.
 */
sim::NoisyCircuit BuildExperiment(const qec::StabilizerCode& code,
                                  const circuit::Circuit& round_circuit,
                                  const noise::RoundNoiseProfile& profile,
                                  const noise::NoiseParams& params,
                                  int rounds, const WorkloadSpec& spec);

}  // namespace tiqec::workloads

#endif  // TIQEC_WORKLOADS_EXPERIMENT_H
