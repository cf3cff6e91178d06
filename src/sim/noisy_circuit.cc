#include "sim/noisy_circuit.h"

#include <cassert>

namespace tiqec::sim {

void
NoisyCircuit::Push(SimInstruction inst)
{
    assert(inst.q0 < num_qubits_ && inst.q1 < num_qubits_);
    instructions_.push_back(std::move(inst));
}

void
NoisyCircuit::AddH(int q)
{
    Push({.op = SimOp::kH, .q0 = q});
}

void
NoisyCircuit::AddCnot(int control, int target)
{
    assert(control != target);
    Push({.op = SimOp::kCnot, .q0 = control, .q1 = target});
}

void
NoisyCircuit::AddSwap(int a, int b)
{
    assert(a != b);
    Push({.op = SimOp::kSwap, .q0 = a, .q1 = b});
}

int
NoisyCircuit::AddMeasure(int q, double flip_probability)
{
    Push({.op = SimOp::kMeasure, .q0 = q, .p = flip_probability});
    return num_measurements_++;
}

void
NoisyCircuit::AddReset(int q, double x_error_probability)
{
    Push({.op = SimOp::kReset, .q0 = q, .p = x_error_probability});
}

void
NoisyCircuit::AddXError(int q, double p)
{
    if (p > 0.0) {
        Push({.op = SimOp::kXError, .q0 = q, .p = p});
    }
}

void
NoisyCircuit::AddZError(int q, double p)
{
    if (p > 0.0) {
        Push({.op = SimOp::kZError, .q0 = q, .p = p});
    }
}

void
NoisyCircuit::AddDepolarize1(int q, double p)
{
    if (p > 0.0) {
        Push({.op = SimOp::kDepolarize1, .q0 = q, .p = p});
    }
}

void
NoisyCircuit::AddDepolarize2(int q0, int q1, double p)
{
    assert(q0 != q1);
    if (p > 0.0) {
        Push({.op = SimOp::kDepolarize2, .q0 = q0, .q1 = q1, .p = p});
    }
}

int
NoisyCircuit::AddDetector(std::vector<std::int32_t> measurement_indices,
                          Coord coord, int round)
{
    const int index = num_detectors();
    SimInstruction inst;
    inst.op = SimOp::kDetector;
    inst.index = index;
    inst.targets = std::move(measurement_indices);
    for (const auto m : inst.targets) {
        assert(m >= 0 && m < num_measurements_);
        (void)m;
    }
    Push(std::move(inst));
    detectors_.push_back({.coord = coord, .round = round});
    return index;
}

void
NoisyCircuit::AddObservableInclude(
    int observable, std::vector<std::int32_t> measurement_indices)
{
    SimInstruction inst;
    inst.op = SimOp::kObservableInclude;
    inst.index = observable;
    inst.targets = std::move(measurement_indices);
    Push(std::move(inst));
    if (observable >= num_observables_) {
        num_observables_ = observable + 1;
    }
}

int
NoisyCircuit::CountNoiseChannels() const
{
    int n = 0;
    for (const auto& inst : instructions_) {
        switch (inst.op) {
          case SimOp::kXError:
          case SimOp::kZError:
          case SimOp::kDepolarize1:
          case SimOp::kDepolarize2:
            ++n;
            break;
          case SimOp::kMeasure:
          case SimOp::kReset:
            n += inst.p > 0.0 ? 1 : 0;
            break;
          default:
            break;
        }
    }
    return n;
}

}  // namespace tiqec::sim
