/**
 * @file
 * A quantum circuit: an ordered list of gates over a fixed qubit register.
 */
#ifndef TIQEC_CIRCUIT_CIRCUIT_H
#define TIQEC_CIRCUIT_CIRCUIT_H

#include <cassert>
#include <string>
#include <vector>

#include "circuit/gate.h"
#include "common/types.h"

namespace tiqec::circuit {

class Circuit
{
  public:
    Circuit() = default;
    explicit Circuit(int num_qubits) : num_qubits_(num_qubits) {}

    int num_qubits() const { return num_qubits_; }
    const std::vector<Gate>& gates() const { return gates_; }
    const Gate& gate(GateId id) const { return gates_[id.value]; }
    int size() const { return static_cast<int>(gates_.size()); }
    bool empty() const { return gates_.empty(); }

    /** Appends a gate and returns its id. Inline: circuit construction
     *  is on the compiler's per-round hot path. */
    GateId Append(const Gate& gate)
    {
        assert(gate.q0.valid() && gate.q0.value < num_qubits_);
        assert(!gate.IsTwoQubit() ||
               (gate.q1.valid() && gate.q1.value < num_qubits_ &&
                gate.q1 != gate.q0));
        if (gate.kind == GateKind::kMeasure) {
            ++num_measurements_;
        }
        gates_.push_back(gate);
        return GateId(static_cast<std::int32_t>(gates_.size()) - 1);
    }

    /** Pre-sizes the gate list (capacity hint only). */
    void Reserve(int num_gates) { gates_.reserve(num_gates); }

    GateId AddH(QubitId q) { return Append({.kind = GateKind::kH, .q0 = q}); }
    GateId AddCnot(QubitId control, QubitId target)
    {
        return Append(
            {.kind = GateKind::kCnot, .q0 = control, .q1 = target});
    }
    GateId AddMs(QubitId a, QubitId b, double angle)
    {
        return Append(
            {.kind = GateKind::kMs, .q0 = a, .q1 = b, .angle = angle});
    }
    GateId AddMeasure(QubitId q)
    {
        return Append({.kind = GateKind::kMeasure, .q0 = q});
    }
    GateId AddReset(QubitId q)
    {
        return Append({.kind = GateKind::kReset, .q0 = q});
    }

    /** Number of measurement gates (defines the measurement record size). */
    int num_measurements() const { return num_measurements_; }

    /** True if every gate is in the native trapped-ion set. */
    bool IsNative() const;

    /** Multi-line dump, one gate per line, for debugging and goldens. */
    std::string ToString() const;

  private:
    int num_qubits_ = 0;
    int num_measurements_ = 0;
    std::vector<Gate> gates_;
};

}  // namespace tiqec::circuit

#endif  // TIQEC_CIRCUIT_CIRCUIT_H
