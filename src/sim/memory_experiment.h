/**
 * @file
 * Memory-Z experiment assembly (paper §6.1): the logical identity
 * workload - prepare |0_L> (transversal data reset), run `rounds` rounds
 * of compiled parity checks with schedule-derived noise, then measure
 * every data qubit in the Z basis.
 *
 * Detector convention (standard rotated-memory-Z):
 *  - Z-type checks: round 0 outcomes are deterministic on |0...0>, so
 *    round 0 gets a detector on its own; rounds r >= 1 compare m(r) with
 *    m(r-1); a final space-like layer compares the data-qubit readout
 *    parity with the last ancilla measurement.
 *  - X-type checks: round 0 outcomes are physically random, so detectors
 *    exist only for rounds r >= 1 (consecutive-round XOR).
 *
 * The logical observable is the Z_L data row measured transversally.
 */
#ifndef TIQEC_SIM_MEMORY_EXPERIMENT_H
#define TIQEC_SIM_MEMORY_EXPERIMENT_H

#include "circuit/circuit.h"
#include "noise/annotator.h"
#include "noise/noise_model.h"
#include "qec/code.h"
#include "sim/noisy_circuit.h"

namespace tiqec::sim {

/** Which logical memory is protected. */
enum class MemoryBasis
{
    kZ,  ///< prepare |0_L>, read Z_L; Z checks anchor the detectors
    kX,  ///< prepare |+_L>, read X_L; X checks anchor the detectors
};

/**
 * Builds the noisy memory experiment in the requested basis.
 *
 * @param code The stabilizer code.
 * @param round_circuit One round of parity checks in the QEC IR (the
 *        circuit the profile was annotated against).
 * @param profile Schedule-derived per-gate noise for one round.
 * @param params Noise parameters (for data prep / final readout).
 * @param rounds Number of parity-check rounds (the paper uses d).
 */
NoisyCircuit BuildMemory(const qec::StabilizerCode& code,
                         const circuit::Circuit& round_circuit,
                         const noise::RoundNoiseProfile& profile,
                         const noise::NoiseParams& params, int rounds,
                         MemoryBasis basis);

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_MEMORY_EXPERIMENT_H
