#include "sim/round_ops.h"

#include "common/check.h"

namespace tiqec::sim {

RoundOps::RoundOps(const qec::StabilizerCode& code,
                   const circuit::Circuit& round_circuit,
                   const noise::RoundNoiseProfile& profile)
    : code_(&code), round_circuit_(&round_circuit), profile_(&profile)
{
    TIQEC_CHECK(static_cast<int>(profile.gate_noise.size()) ==
                    round_circuit.size(),
                "RoundOps: profile annotates "
                    << profile.gate_noise.size() << " gates, round has "
                    << round_circuit.size());
    for (int k = 0; k < code.num_ancillas(); ++k) {
        check_of_ancilla_[code.checks()[k].ancilla.value] = k;
    }
    for (const auto& swap : profile.swaps) {
        if (swap.after_qec_gate.valid()) {
            swaps_after_[swap.after_qec_gate.value].push_back(&swap);
        } else {
            swaps_at_start_.push_back(&swap);
        }
    }
}

void
RoundOps::AppendRound(NoisyCircuit& sim, std::vector<int>& meas_out,
                      const std::vector<int>* qubit_map) const
{
    const auto at = [qubit_map](int q) {
        return qubit_map != nullptr ? (*qubit_map)[q] : q;
    };
    meas_out.assign(code_->num_ancillas(), -1);
    for (const auto* swap : swaps_at_start_) {
        sim.AddDepolarize2(at(swap->a.value), at(swap->b.value), swap->p);
    }
    for (int gi = 0; gi < round_circuit_->size(); ++gi) {
        const circuit::Gate& g = round_circuit_->gates()[gi];
        const noise::GateNoise& gn = profile_->gate_noise[gi];
        const int q0 = at(g.q0.value);
        switch (g.kind) {
          case circuit::GateKind::kReset:
            sim.AddReset(q0, gn.p_q0);
            break;
          case circuit::GateKind::kH:
            sim.AddH(q0);
            sim.AddDepolarize1(q0, gn.p_q0);
            break;
          case circuit::GateKind::kCnot: {
            const int q1 = at(g.q1.value);
            sim.AddCnot(q0, q1);
            sim.AddDepolarize2(q0, q1, gn.p_pair);
            sim.AddDepolarize1(q0, gn.p_q0);
            sim.AddDepolarize1(q1, gn.p_q1);
            break;
          }
          case circuit::GateKind::kMeasure: {
            const int k = check_of_ancilla_.at(g.q0.value);
            meas_out[k] = sim.AddMeasure(q0, gn.p_q0);
            break;
          }
          default:
            TIQEC_CHECK(false,
                        "unexpected gate in a parity-check round");
            break;
        }
        const auto it = swaps_after_.find(gi);
        if (it != swaps_after_.end()) {
            for (const auto* swap : it->second) {
                sim.AddDepolarize2(at(swap->a.value), at(swap->b.value),
                                   swap->p);
            }
        }
    }
    // Idle / reconfiguration dephasing accumulated over the round.
    for (int q = 0; q < code_->num_qubits(); ++q) {
        sim.AddZError(at(q), profile_->idle_z[q]);
    }
}

}  // namespace tiqec::sim
