/**
 * @file
 * Surgery and stability workloads on a merged double patch
 * (qec/surgery.h): the joint-parity measurement experiment of paper §8.
 *
 * Circuit shape (X (X) X orientation; Z (X) Z swaps every X<->Z below):
 *
 *  - Split preparation: every patch data qubit is prepared in |+> (so
 *    both patches hold |+_L> and the joint parity X_A (X) X_B is
 *    deterministically +1), every seam data qubit in |0>.
 *  - `rounds` merged rounds of the compiled parity-check circuit.
 *    Detectors: X checks away from the seam are deterministic in round
 *    0 and get single-measurement detectors; from round 1 every check
 *    gets the standard consecutive-round detector. Z checks are random
 *    in round 0 (patch data is in |+>), exactly like the non-anchor
 *    type of a memory-X experiment.
 *  - Split readout: patch data is measured in the X basis (space-like
 *    final detectors for the X checks away from the seam, and the two
 *    patch logicals); seam data is measured in the Z basis, destroying
 *    the joint-parity checks' quantum information exactly as the real
 *    split does.
 *
 * Observables: the measured joint parity (the product of the
 * joint-parity checks' first-round outcomes), plus - for the surgery
 * workload - both patch logicals read out transversally.
 *
 * The joint-parity checks deliberately have *no* round-0 detector (not
 * even in aggregate) and no final space-like detector: their product is
 * the datum the merge extracts, so a decoder cannot be told its value
 * (in a computation the input parity is unknown), and the seam readout
 * leaves their time axis open at the end. Their detector column is
 * therefore anchored at neither time boundary - a timelike chain of
 * measurement errors crossing all `rounds` rounds flips the measured
 * parity silently. That makes the parity outcome a *stability*
 * observable in Gidney's sense, with effective distance `rounds`
 * against timelike errors - the failure mode a memory experiment
 * cannot measure, and the reason `rounds` (the paper's d merged rounds)
 * is the knob that buys parity fidelity. The stability workload tracks
 * only this observable.
 */
#ifndef TIQEC_WORKLOADS_SURGERY_H
#define TIQEC_WORKLOADS_SURGERY_H

#include "qec/surgery.h"
#include "workloads/experiment.h"

namespace tiqec::workloads {

/**
 * Builds the surgery (`track_patch_logicals`: three observables) or
 * stability (joint parity only) experiment on `code` over `rounds`
 * merged rounds; the arguments are those of `BuildExperiment`.
 */
sim::NoisyCircuit BuildSurgery(const qec::MergedPatchCode& code,
                               bool track_patch_logicals,
                               const circuit::Circuit& round_circuit,
                               const noise::RoundNoiseProfile& profile,
                               const noise::NoiseParams& params,
                               int rounds);

}  // namespace tiqec::workloads

#endif  // TIQEC_WORKLOADS_SURGERY_H
