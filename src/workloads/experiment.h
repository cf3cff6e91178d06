/**
 * @file
 * Simulated logical workloads as a first-class experiment interface.
 *
 * The evaluation tool flow (core/pipeline.h) compiles one parity-check
 * round of a code onto a device and annotates it with schedule-derived
 * noise; an `Experiment` then assembles the full noisy circuit the
 * Monte-Carlo estimate samples: preparation, `rounds` repetitions of
 * the compiled round, detectors, readout, and logical observables.
 *
 * Three workloads are provided (DESIGN.md §5):
 *
 *  - memory: the logical-identity benchmark (paper §6.1), historically
 *    the only workload. Built by `sim::BuildMemory`; the interface path
 *    is bit-identical to it.
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
#include "sim/memory_experiment.h"
#include "sim/noisy_circuit.h"

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
 * `core::BuildSimArtifacts` and `core::SweepRunner` (and so by
 * `core::Evaluate`). A bare `WorkloadKind` converts implicitly, and
 * `spec == WorkloadKind::k...` comparisons keep working.
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
 * One simulated workload bound to a code. Implementations are stateless
 * beyond that binding: `Build` is a pure function of its arguments, the
 * property the sweep engine's artifact cache depends on.
 */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    virtual WorkloadKind kind() const = 0;
    /** Human-readable name ("memory_z", "surgery_xx", ...). */
    virtual std::string name() const = 0;
    /** Logical observables the built circuit tracks. */
    virtual int num_observables() const = 0;

    /**
     * Assembles the noisy experiment over `rounds` compiled rounds.
     *
     * @param round_circuit One compiled parity-check round in the QEC
     *        IR (the circuit the profile was annotated against).
     * @param profile Schedule-derived per-gate noise for one round.
     * @param params Noise parameters (data prep / readout errors).
     */
    virtual sim::NoisyCircuit Build(
        const circuit::Circuit& round_circuit,
        const noise::RoundNoiseProfile& profile,
        const noise::NoiseParams& params, int rounds) const = 0;
};

/**
 * Experiment factory. Throws std::invalid_argument when the code cannot
 * host the workload (surgery/stability on anything that is not a
 * `qec::MergedPatchCode`). The returned experiment holds a reference to
 * `code`, which must outlive it.
 */
std::unique_ptr<Experiment> MakeExperiment(const qec::StabilizerCode& code,
                                           const WorkloadSpec& spec);

/** One-shot convenience: `MakeExperiment(code, spec)->Build(...)`. */
sim::NoisyCircuit BuildExperiment(const qec::StabilizerCode& code,
                                  const circuit::Circuit& round_circuit,
                                  const noise::RoundNoiseProfile& profile,
                                  const noise::NoiseParams& params,
                                  int rounds, const WorkloadSpec& spec);

}  // namespace tiqec::workloads

#endif  // TIQEC_WORKLOADS_EXPERIMENT_H
