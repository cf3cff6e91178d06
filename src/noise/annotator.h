/**
 * @file
 * Schedule-to-noise annotation (paper §6.4): walks a compiled one-round
 * schedule, tracks per-ion vibrational energy through every movement
 * primitive and per-trap chain sizes, and produces the per-operation
 * error probabilities that parameterise the noisy stabilizer circuit
 * handed to the simulator (the paper's "interfacing the physical noise
 * model and the execution schedule ... into a noisy quantum circuit").
 */
#ifndef TIQEC_NOISE_ANNOTATOR_H
#define TIQEC_NOISE_ANNOTATOR_H

#include <vector>

#include "compiler/compiler.h"
#include "noise/noise_model.h"
#include "qec/code.h"

namespace tiqec::noise {

/** Noise attached to one QEC-IR gate of the parity-check round. */
struct GateNoise
{
    /** Two-qubit depolarising probability (CNOTs: the MS gate). */
    double p_pair = 0.0;
    /** Folded single-qubit depolarising on operand 0 (rotations). */
    double p_q0 = 0.0;
    /** Folded single-qubit depolarising on operand 1. */
    double p_q1 = 0.0;
};

/** Two-qubit depolarising noise from an in-trap gate swap. */
struct SwapNoise
{
    QubitId a;
    QubitId b;
    double p = 0.0;
    /**
     * QEC-IR gate most recently executed before the swap in stream order
     * (invalid if the swap precedes every gate); used to place the noise
     * at roughly the right point in the simulated round.
     */
    GateId after_qec_gate;
};

/** Per-round noise profile for one compiled parity-check round. */
struct RoundNoiseProfile
{
    Microseconds round_time = 0.0;
    /** Indexed by QEC-IR gate id of the one-round circuit. */
    std::vector<GateNoise> gate_noise;
    /** Per-qubit Z-dephasing probability accumulated over one round. */
    std::vector<double> idle_z;
    /** Gate-swap noise events, in schedule order. */
    std::vector<SwapNoise> swaps;
    /** Mean and peak two-qubit (MS) error over the round (diagnostics). */
    double mean_two_qubit_error = 0.0;
    double max_two_qubit_error = 0.0;
};

/**
 * Builds the noise profile for a one-round compilation result without
 * modifying it, so one cached result can be profiled under several
 * noise scenarios concurrently.
 *
 * @param result Must be a successful one-round compilation.
 */
RoundNoiseProfile ProfileRound(const qec::StabilizerCode& code,
                               const qccd::DeviceGraph& graph,
                               const compiler::CompilationResult& result,
                               const NoiseParams& params,
                               const qccd::TimingModel& timing);

/**
 * `ProfileRound`, and also back-fills `chain_size` and `nbar` on the
 * schedule's gate ops (the toolflow reads neither; schedule export and
 * the tests do).
 *
 * @param result Must be a successful one-round compilation.
 */
RoundNoiseProfile AnnotateRound(const qec::StabilizerCode& code,
                                const qccd::DeviceGraph& graph,
                                compiler::CompilationResult& result,
                                const NoiseParams& params,
                                const qccd::TimingModel& timing);

}  // namespace tiqec::noise

#endif  // TIQEC_NOISE_ANNOTATOR_H
