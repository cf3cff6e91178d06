#include "workloads/surgery.h"

#include <vector>

#include "common/check.h"
#include "sim/round_ops.h"

namespace tiqec::workloads {

sim::NoisyCircuit
BuildSurgery(const qec::MergedPatchCode& code, bool track_patch_logicals,
             const circuit::Circuit& round_circuit,
             const noise::RoundNoiseProfile& profile,
             const noise::NoiseParams& params, int rounds)
{
    TIQEC_CHECK(rounds >= 1, "surgery requires at least one merged round");
    // The merge measures X (X) X or Z (X) Z; "joint type" is that Pauli.
    // Patch data is prepared in (and read out in) the joint type's
    // basis, seam data in the conjugate basis - so the joint-type checks
    // away from the seam are deterministic from round 0 and the
    // conjugate-type checks behave like a memory experiment's non-anchor
    // type.
    const qec::CheckType joint_type =
        qec::SurgeryParityCheckType(code.parity());
    const bool joint_is_x = joint_type == qec::CheckType::kX;
    sim::NoisyCircuit sim(code.num_qubits());
    const sim::RoundOps round_ops(code, round_circuit, profile);

    std::vector<char> is_seam(code.num_qubits(), 0);
    for (const QubitId q : code.seam_data()) {
        is_seam[q.value] = 1;
    }
    std::vector<char> is_joint_check(code.num_ancillas(), 0);
    for (const int k : code.joint_parity_checks()) {
        is_joint_check[k] = 1;
    }

    // Split preparation: an H after reset prepares |+>; patch qubits get
    // it for an X merge, seam qubits for a Z merge.
    for (const QubitId q : code.data_qubits()) {
        sim.AddReset(q.value, params.ResetError());
        const bool plus = is_seam[q.value] ? !joint_is_x : joint_is_x;
        if (plus) {
            sim.AddH(q.value);
        }
    }

    // meas[r][k] = record index of check k's measurement in round r.
    // The joint-parity checks get no round-0 detector: their product is
    // the measured parity itself (see the header comment), so handing
    // it to the decoder would make the benchmark vacuous - the decoder
    // would be told the answer it is supposed to extract.
    std::vector<std::vector<int>> meas(rounds);
    for (int r = 0; r < rounds; ++r) {
        round_ops.AppendRound(sim, meas[r]);
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const auto& chk = code.checks()[k];
            const Coord coord = code.qubit(chk.ancilla).coord;
            if (r == 0) {
                if (chk.type == joint_type && !is_joint_check[k]) {
                    sim.AddDetector({meas[0][k]}, coord, 0);
                }
            } else {
                sim.AddDetector({meas[r][k], meas[r - 1][k]}, coord, r);
            }
        }
    }

    // Split readout: patch data in the joint type's basis, seam data in
    // the conjugate basis (the real split measures the seam out, which
    // destroys the joint checks - their time axis ends open).
    std::vector<int> data_record(code.num_qubits(), -1);
    for (const QubitId q : code.data_qubits()) {
        const bool read_joint_basis = !is_seam[q.value];
        if (read_joint_basis == joint_is_x) {
            sim.AddH(q.value);
        }
        data_record[q.value] =
            sim.AddMeasure(q.value, params.MeasureError());
    }
    // Space-like final detectors for the joint-type checks away from
    // the seam (the joint-parity checks have no final anchor: their
    // seam support was just measured in the wrong basis).
    for (int k = 0; k < code.num_ancillas(); ++k) {
        const auto& chk = code.checks()[k];
        if (chk.type != joint_type || is_joint_check[k]) {
            continue;
        }
        std::vector<std::int32_t> targets = {meas[rounds - 1][k]};
        for (const QubitId dq : chk.data_order) {
            if (dq.valid()) {
                targets.push_back(data_record[dq.value]);
            }
        }
        sim.AddDetector(std::move(targets),
                        code.qubit(chk.ancilla).coord, rounds);
    }

    // Observable 0: the measured joint parity (first-round product of
    // the joint checks; deterministically +1 for the prepared state, so
    // a flip is a logical error of the parity measurement).
    std::vector<std::int32_t> parity_targets;
    parity_targets.reserve(code.joint_parity_checks().size());
    for (const int k : code.joint_parity_checks()) {
        parity_targets.push_back(meas[0][k]);
    }
    sim.AddObservableInclude(kJointParityObservable,
                             std::move(parity_targets));
    if (track_patch_logicals) {
        auto include_logical = [&](int observable,
                                   const std::vector<QubitId>& support) {
            std::vector<std::int32_t> targets;
            targets.reserve(support.size());
            for (const QubitId q : support) {
                targets.push_back(data_record[q.value]);
            }
            sim.AddObservableInclude(observable, std::move(targets));
        };
        include_logical(kPatchALogicalObservable, code.patch_a_logical());
        include_logical(kPatchBLogicalObservable, code.patch_b_logical());
    }
    return sim;
}

}  // namespace tiqec::workloads
