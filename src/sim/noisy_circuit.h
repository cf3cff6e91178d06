/**
 * @file
 * Noisy stabilizer circuit representation for Monte-Carlo logical-error
 * simulation: the same semantic model as a Stim circuit (Clifford ops,
 * stochastic Pauli channels, measurement records, DETECTOR = parity of
 * measurement records, OBSERVABLE_INCLUDE). This module is the in-house
 * substitute for Stim 1.13, which the paper uses (§6.4) but which is not
 * available in this offline environment; see DESIGN.md §3.
 */
#ifndef TIQEC_SIM_NOISY_CIRCUIT_H
#define TIQEC_SIM_NOISY_CIRCUIT_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace tiqec::sim {

enum class SimOp : std::uint8_t {
    // Clifford operations.
    kH,
    kCnot,
    kSwap,
    // Record operations.
    kMeasure,  ///< records the qubit's X frame; `p` flips the record
    kReset,    ///< clears the qubit's frame; `p` is an X error after reset
    // Stochastic Pauli channels.
    kXError,
    kZError,
    kDepolarize1,
    kDepolarize2,
    // Logical bookkeeping.
    kDetector,           ///< parity of the referenced measurement records
    kObservableInclude,  ///< adds records to an observable's parity
};

/** One instruction. `targets` holds measurement indices for detectors /
 *  observables; `q0`/`q1` are qubit operands otherwise. */
struct SimInstruction
{
    SimOp op = SimOp::kH;
    std::int32_t q0 = -1;
    std::int32_t q1 = -1;
    double p = 0.0;
    /** Observable index (kObservableInclude) or detector coordinate id. */
    std::int32_t index = 0;
    std::vector<std::int32_t> targets{};
};

/** Detector metadata: position in (space, time) for edge decomposition. */
struct DetectorInfo
{
    Coord coord;
    int round = 0;
};

class NoisyCircuit
{
  public:
    explicit NoisyCircuit(int num_qubits) : num_qubits_(num_qubits) {}

    int num_qubits() const { return num_qubits_; }
    int num_measurements() const { return num_measurements_; }
    int num_detectors() const
    {
        return static_cast<int>(detectors_.size());
    }
    int num_observables() const { return num_observables_; }

    const std::vector<SimInstruction>& instructions() const
    {
        return instructions_;
    }
    /** Mutable instruction access for the validator mutation harness
     *  (tests/analysis_test.cc), which corrupts built circuits to prove
     *  each rule fires; production code never rewrites a built circuit. */
    std::vector<SimInstruction>& mutable_instructions()
    {
        return instructions_;
    }
    const std::vector<DetectorInfo>& detectors() const { return detectors_; }

    void AddH(int q);
    void AddCnot(int control, int target);
    void AddSwap(int a, int b);
    /** Returns the measurement record index. */
    int AddMeasure(int q, double flip_probability);
    void AddReset(int q, double x_error_probability);
    void AddXError(int q, double p);
    void AddZError(int q, double p);
    void AddDepolarize1(int q, double p);
    void AddDepolarize2(int q0, int q1, double p);
    /** Returns the detector index. */
    int AddDetector(std::vector<std::int32_t> measurement_indices,
                    Coord coord, int round);
    void AddObservableInclude(int observable,
                              std::vector<std::int32_t> measurement_indices);

    /** Number of stochastic channel instructions (for DEM sizing). */
    int CountNoiseChannels() const;

  private:
    void Push(SimInstruction inst);

    int num_qubits_;
    int num_measurements_ = 0;
    int num_observables_ = 0;
    std::vector<SimInstruction> instructions_;
    std::vector<DetectorInfo> detectors_;
};

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_NOISY_CIRCUIT_H
