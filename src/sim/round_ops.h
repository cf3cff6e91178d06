/**
 * @file
 * Shared noisy-round appender for experiment builders: walks one
 * compiled parity-check round (the QEC IR the noise profile was
 * annotated against) and appends its gates, schedule-derived noise
 * channels, gate-swap noise, and per-round idle dephasing to a
 * `NoisyCircuit`, recording each check's measurement index.
 *
 * Every simulated workload (memory, surgery, stability and each phase
 * of a logical program - see src/workloads/) repeats this identical
 * round body and differs only in preparation, detector placement,
 * readout, and observables, so the round walk lives here exactly once.
 * A program phase appends its round straight onto the fabric strip
 * through the phase's qubit map. tests/workloads_test.cc pins the
 * circuits built on it by digest.
 */
#ifndef TIQEC_SIM_ROUND_OPS_H
#define TIQEC_SIM_ROUND_OPS_H

#include <map>
#include <vector>

#include "circuit/circuit.h"
#include "noise/annotator.h"
#include "qec/code.h"
#include "sim/noisy_circuit.h"

namespace tiqec::sim {

/**
 * Precomputed lookup state for appending compiled noisy parity-check
 * rounds. Holds references: code, round circuit, and profile must
 * outlive the walker.
 */
class RoundOps
{
  public:
    RoundOps(const qec::StabilizerCode& code,
             const circuit::Circuit& round_circuit,
             const noise::RoundNoiseProfile& profile);

    /**
     * Appends one noisy round (start-of-round swap noise, the gate
     * stream with per-gate noise and in-stream swap noise, then the
     * accumulated idle dephasing). `meas_out` is resized to the code's
     * check count; `meas_out[k]` receives the record index of check k's
     * ancilla measurement this round. A non-null `qubit_map` renames
     * every code qubit id q to `(*qubit_map)[q]` in `sim`. Detectors are
     * the caller's job - their placement is what distinguishes the
     * workloads.
     */
    void AppendRound(NoisyCircuit& sim, std::vector<int>& meas_out,
                     const std::vector<int>* qubit_map) const;

  private:
    const qec::StabilizerCode* code_;
    const circuit::Circuit* round_circuit_;
    const noise::RoundNoiseProfile* profile_;
    /** Ancilla id -> check ordinal, for measurement bookkeeping. */
    std::map<int, int> check_of_ancilla_;
    /** Swap-noise events grouped by the QEC gate they follow. */
    std::map<int, std::vector<const noise::SwapNoise*>> swaps_after_;
    std::vector<const noise::SwapNoise*> swaps_at_start_;
};

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_ROUND_OPS_H
