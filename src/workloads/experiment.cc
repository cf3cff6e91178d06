#include "workloads/experiment.h"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "qec/surgery.h"
#include "sim/round_ops.h"

namespace tiqec::workloads {

namespace {

/** One observable: the XOR of some round-0 check records and some final
 *  data readouts. */
struct ObservableReads
{
    std::span<const int> checks;
    std::span<const QubitId> data;
};

/** What tells the single-code workloads apart (DESIGN.md §5.3). */
struct ExperimentShape
{
    /** Data qubits are prepared and read in this type's basis, and its
     *  checks get round-0 and final detectors. */
    qec::CheckType anchor = qec::CheckType::kZ;
    /** Data qubits prepared and read in the other basis. */
    std::span<const QubitId> conjugate;
    /** Anchor-type checks with no round-0 or final detector. */
    std::span<const int> open;
    std::vector<ObservableReads> observables;
};

sim::NoisyCircuit
BuildShape(const qec::StabilizerCode& code, const ExperimentShape& shape,
           const circuit::Circuit& round_circuit,
           const noise::RoundNoiseProfile& profile,
           const noise::NoiseParams& params, int rounds)
{
    TIQEC_CHECK(rounds >= 1, "an experiment needs at least one round");
    sim::NoisyCircuit sim(code.num_qubits());
    const sim::RoundOps round_ops(code, round_circuit, profile);

    // x_basis[q]: an H follows q's reset and precedes its readout.
    std::vector<char> x_basis(code.num_qubits(),
                              shape.anchor == qec::CheckType::kX);
    for (const QubitId q : shape.conjugate) {
        x_basis[q.value] = !x_basis[q.value];
    }
    // A joint-parity check stays open: its product is the datum the
    // merge extracts, so a detector on it would tell the decoder the
    // answer.
    std::vector<char> anchored(code.num_ancillas());
    for (int k = 0; k < code.num_ancillas(); ++k) {
        anchored[k] = code.checks()[k].type == shape.anchor;
    }
    for (const int k : shape.open) {
        anchored[k] = 0;
    }

    for (const QubitId q : code.data_qubits()) {
        sim.AddReset(q.value, params.ResetError());
        if (x_basis[q.value]) {
            sim.AddH(q.value);
        }
    }

    // meas[r][k] = record index of check k's measurement in round r.
    std::vector<std::vector<int>> meas(rounds);
    for (int r = 0; r < rounds; ++r) {
        round_ops.AppendRound(sim, meas[r], nullptr);
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const Coord coord = code.qubit(code.checks()[k].ancilla).coord;
            if (r == 0) {
                if (anchored[k]) {
                    sim.AddDetector({meas[0][k]}, coord, 0);
                }
            } else {
                sim.AddDetector({meas[r][k], meas[r - 1][k]}, coord, r);
            }
        }
    }

    std::vector<int> data_record(code.num_qubits(), -1);
    for (const QubitId q : code.data_qubits()) {
        if (x_basis[q.value]) {
            sim.AddH(q.value);
        }
        data_record[q.value] = sim.AddMeasure(q.value, params.MeasureError());
    }
    // Space-like final detectors close the anchored checks.
    for (int k = 0; k < code.num_ancillas(); ++k) {
        if (!anchored[k]) {
            continue;
        }
        const qec::Check& chk = code.checks()[k];
        std::vector<std::int32_t> targets = {meas[rounds - 1][k]};
        for (const QubitId dq : chk.data_order) {
            if (dq.valid()) {
                targets.push_back(data_record[dq.value]);
            }
        }
        sim.AddDetector(std::move(targets), code.qubit(chk.ancilla).coord,
                        rounds);
    }

    for (size_t i = 0; i < shape.observables.size(); ++i) {
        const ObservableReads& reads = shape.observables[i];
        std::vector<std::int32_t> targets;
        targets.reserve(reads.checks.size() + reads.data.size());
        for (const int k : reads.checks) {
            targets.push_back(meas[0][k]);
        }
        for (const QubitId q : reads.data) {
            targets.push_back(data_record[q.value]);
        }
        sim.AddObservableInclude(static_cast<int>(i), std::move(targets));
    }
    return sim;
}

}  // namespace

std::string
WorkloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kMemory: return "memory";
      case WorkloadKind::kStability: return "stability";
      case WorkloadKind::kSurgery: return "surgery";
      case WorkloadKind::kProgram: return "program";
    }
    return "?";
}

WorkloadKind
ParseWorkloadKind(const std::string& name)
{
    if (name == "memory") {
        return WorkloadKind::kMemory;
    }
    if (name == "stability") {
        return WorkloadKind::kStability;
    }
    if (name == "surgery") {
        return WorkloadKind::kSurgery;
    }
    if (name == "program") {
        return WorkloadKind::kProgram;
    }
    throw std::invalid_argument(
        "unknown workload: \"" + name +
        "\" (expected memory, stability, surgery, or program)");
}

sim::NoisyCircuit
BuildExperiment(const qec::StabilizerCode& code,
                const circuit::Circuit& round_circuit,
                const noise::RoundNoiseProfile& profile,
                const noise::NoiseParams& params, int rounds,
                const WorkloadSpec& spec)
{
    if (spec.kind == WorkloadKind::kProgram) {
        throw std::invalid_argument(
            "program workload has no single-code experiment; build it "
            "with workloads::BoundProgram::Build");
    }
    ExperimentShape shape;
    if (spec.kind == WorkloadKind::kMemory) {
        const bool x = spec.basis == sim::MemoryBasis::kX;
        shape.anchor = x ? qec::CheckType::kX : qec::CheckType::kZ;
        shape.observables.push_back(
            {{}, x ? code.logical_x() : code.logical_z()});
    } else {
        const auto* merged =
            dynamic_cast<const qec::MergedPatchCode*>(&code);
        if (merged == nullptr) {
            throw std::invalid_argument(
                WorkloadKindName(spec.kind) + " workload requires a "
                "qec::MergedPatchCode (got code \"" + code.name() + "\")");
        }
        // Patch data takes the joint type's basis and the seam the
        // other, so the joint type's checks away from the seam are
        // deterministic from round 0. Observables in the
        // kJointParityObservable layout.
        shape.anchor = qec::SurgeryParityCheckType(merged->parity());
        shape.conjugate = merged->seam_data();
        shape.open = merged->joint_parity_checks();
        shape.observables.push_back({merged->joint_parity_checks(), {}});
        if (spec.kind == WorkloadKind::kSurgery) {
            shape.observables.push_back({{}, merged->patch_a_logical()});
            shape.observables.push_back({{}, merged->patch_b_logical()});
        }
    }
    return BuildShape(code, shape, round_circuit, profile, params, rounds);
}

}  // namespace tiqec::workloads
