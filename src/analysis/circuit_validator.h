/**
 * @file
 * Structural and semantic checker for noisy stabilizer circuits
 * (DESIGN.md §6.3): operand/record/detector/observable references in
 * range, channel probabilities well-formed, no Clifford gate on a
 * measured-out (collapsed, not-yet-reset) qubit, and — the deep check —
 * every detector deterministic in the noiseless circuit, established by
 * propagating the circuit's Z gauges (one per qubit at the start, one
 * per measurement and per reset) through word-parallel Pauli frames: a
 * detector is random iff some gauge flips the parity of its records.
 */
#ifndef TIQEC_ANALYSIS_CIRCUIT_VALIDATOR_H
#define TIQEC_ANALYSIS_CIRCUIT_VALIDATOR_H

#include <vector>

#include "analysis/diagnostic.h"
#include "sim/noisy_circuit.h"

namespace tiqec::analysis {

/** Runs every circuit.* rule; empty result means a well-formed circuit. */
std::vector<Diagnostic> ValidateCircuit(const sim::NoisyCircuit& circuit);

}  // namespace tiqec::analysis

#endif  // TIQEC_ANALYSIS_CIRCUIT_VALIDATOR_H
