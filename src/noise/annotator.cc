#include "noise/annotator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "qccd/device_state.h"

namespace tiqec::noise {

using qccd::DeviceState;
using qccd::OpKind;

namespace {

/** The schedule walk behind both entry points. With `backfill` non-null
 *  (the schedule's own op vector), each gate's chain size and n-bar are
 *  written back to it; the walk itself never reads those fields. */
RoundNoiseProfile
WalkRound(const qec::StabilizerCode& code, const qccd::DeviceGraph& graph,
          const compiler::CompilationResult& result,
          const NoiseParams& params, const qccd::TimingModel& timing,
          std::vector<compiler::TimedOp>* backfill)
{
    assert(result.ok);
    RoundNoiseProfile profile;
    profile.round_time = result.schedule.makespan;
    profile.gate_noise.assign(result.qec_circuit.size(), GateNoise{});
    profile.idle_z.assign(code.num_qubits(), 0.0);

    DeviceState state(graph, code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        state.LoadIon(QubitId(q), result.placement.qubit_trap[q]);
    }
    std::vector<double> nbar(code.num_qubits(), timing.nbar_cooled);
    std::vector<Microseconds> busy(code.num_qubits(), 0.0);

    int ms_count = 0;
    double ms_error_sum = 0.0;
    GateId last_qec_gate;

    auto chain_nbar = [&](NodeId trap) {
        double peak = 0.0;
        for (const QubitId ion : state.ChainOf(trap)) {
            peak = std::max(peak, nbar[ion.value]);
        }
        return peak;
    };

    const auto record = [&](size_t i, int chain_size, double chain_nbar) {
        if (backfill != nullptr) {
            (*backfill)[i].chain_size = chain_size;
            (*backfill)[i].nbar = chain_nbar;
        }
    };
    for (size_t i = 0; i < result.schedule.ops.size(); ++i) {
        const compiler::TimedOp& timed = result.schedule.ops[i];
        const qccd::PrimitiveOp& op = timed.op;
        busy[op.ion0.value] += timed.duration;
        if (op.ion1.valid()) {
            busy[op.ion1.value] += timed.duration;
        }
        if (op.kind == OpKind::kGateSwap) {
            // Three sequential MS gates on the swapped pair.
            const NodeId trap = state.NodeOf(op.ion0);
            const int n = state.Occupancy(trap);
            const double nb = chain_nbar(trap);
            const double p_ms =
                params.TwoQubitError(timing.ms_gate, n, nb);
            const double p = 1.0 - std::pow(1.0 - p_ms, 3.0);
            profile.swaps.push_back({op.ion0, op.ion1, p, last_qec_gate});
            record(i, n, nb);
            const auto err = state.TryApply(op);
            assert(!err.has_value());
            (void)err;
            continue;
        }
        if (qccd::IsTransport(op.kind)) {
            nbar[op.ion0.value] =
                std::max(nbar[op.ion0.value], timing.HeatingOf(op.kind));
            const auto err = state.TryApply(op);
            assert(!err.has_value());
            (void)err;
            continue;
        }
        // Gate ops: attribute noise to the originating QEC-IR gate.
        const NodeId trap = state.NodeOf(op.ion0);
        const int n = state.Occupancy(trap);
        const double nb = chain_nbar(trap);
        record(i, n, nb);
        GateId qec_gate;
        if (op.source_gate.valid()) {
            qec_gate = result.native.gate(op.source_gate).source;
            last_qec_gate = qec_gate;
        }
        switch (op.kind) {
          case OpKind::kMs: {
            const double p = params.TwoQubitError(timing.ms_gate, n, nb);
            ms_error_sum += p;
            ++ms_count;
            profile.max_two_qubit_error =
                std::max(profile.max_two_qubit_error, p);
            if (qec_gate.valid()) {
                auto& g = profile.gate_noise[qec_gate.value];
                g.p_pair = 1.0 - (1.0 - g.p_pair) * (1.0 - p);
            }
            break;
          }
          case OpKind::kRotation: {
            const double p = params.SingleQubitError(timing.rotation, n, nb);
            if (qec_gate.valid()) {
                auto& g = profile.gate_noise[qec_gate.value];
                const auto& qec = result.qec_circuit.gate(qec_gate);
                double& slot = op.ion0 == qec.q0 ? g.p_q0 : g.p_q1;
                slot = 1.0 - (1.0 - slot) * (1.0 - p);
            }
            break;
          }
          case OpKind::kMeasure: {
            nbar[op.ion0.value] = timing.nbar_cooled;
            if (qec_gate.valid()) {
                profile.gate_noise[qec_gate.value].p_q0 =
                    params.MeasureError();
            }
            break;
          }
          case OpKind::kReset: {
            nbar[op.ion0.value] = timing.nbar_cooled;
            if (qec_gate.valid()) {
                profile.gate_noise[qec_gate.value].p_q0 =
                    params.ResetError();
            }
            break;
          }
          default:
            break;
        }
        const auto err = state.TryApply(op);
        assert(!err.has_value());
        (void)err;
    }

    for (int q = 0; q < code.num_qubits(); ++q) {
        const Microseconds window =
            std::max(0.0, profile.round_time - busy[q]);
        profile.idle_z[q] = params.IdleDephasing(window);
    }
    if (ms_count > 0) {
        profile.mean_two_qubit_error = ms_error_sum / ms_count;
    }
    return profile;
}

}  // namespace

RoundNoiseProfile
ProfileRound(const qec::StabilizerCode& code, const qccd::DeviceGraph& graph,
             const compiler::CompilationResult& result,
             const NoiseParams& params, const qccd::TimingModel& timing)
{
    return WalkRound(code, graph, result, params, timing, nullptr);
}

RoundNoiseProfile
AnnotateRound(const qec::StabilizerCode& code,
              const qccd::DeviceGraph& graph,
              compiler::CompilationResult& result, const NoiseParams& params,
              const qccd::TimingModel& timing)
{
    return WalkRound(code, graph, result, params, timing,
                     &result.schedule.ops);
}

}  // namespace tiqec::noise
