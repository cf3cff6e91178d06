#include "analysis/circuit_validator.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace tiqec::analysis {

namespace {

using sim::NoisyCircuit;
using sim::SimInstruction;
using sim::SimOp;

constexpr int kMaxPerRule = 16;

class Reporter
{
  public:
    explicit Reporter(std::vector<Diagnostic>& out) : out_(out) {}

    void Report(std::string_view rule, std::string location,
                std::string message)
    {
        if (++count_[rule] > kMaxPerRule) {
            return;
        }
        out_.push_back(
            {std::string(rule), std::move(location), std::move(message)});
    }

  private:
    std::vector<Diagnostic>& out_;
    std::map<std::string_view, int> count_;
};

std::string
InstLocation(size_t index, SimOp op)
{
    const char* name = "?";
    switch (op) {
      case SimOp::kH: name = "H"; break;
      case SimOp::kCnot: name = "CNOT"; break;
      case SimOp::kSwap: name = "SWAP"; break;
      case SimOp::kMeasure: name = "MEASURE"; break;
      case SimOp::kReset: name = "RESET"; break;
      case SimOp::kXError: name = "X_ERROR"; break;
      case SimOp::kZError: name = "Z_ERROR"; break;
      case SimOp::kDepolarize1: name = "DEPOLARIZE1"; break;
      case SimOp::kDepolarize2: name = "DEPOLARIZE2"; break;
      case SimOp::kDetector: name = "DETECTOR"; break;
      case SimOp::kObservableInclude: name = "OBSERVABLE_INCLUDE"; break;
    }
    std::ostringstream os;
    os << "instruction " << index << " (" << name << ")";
    return os.str();
}

/** Structural pass: operand ranges, probabilities, record/detector/
 *  observable references, measured-out qubits. Returns false when an
 *  out-of-range reference makes the frame walk unsafe. */
bool
CheckStructure(const NoisyCircuit& circuit, Reporter& report)
{
    const int nq = circuit.num_qubits();
    bool indexable = true;
    std::vector<char> collapsed(nq, 0);
    int measures_seen = 0;
    int detectors_seen = 0;
    const auto& insts = circuit.instructions();
    for (size_t i = 0; i < insts.size(); ++i) {
        const SimInstruction& inst = insts[i];
        const bool two_qubit =
            inst.op == SimOp::kCnot || inst.op == SimOp::kSwap ||
            inst.op == SimOp::kDepolarize2;
        const bool record_op = inst.op == SimOp::kDetector ||
                               inst.op == SimOp::kObservableInclude;
        if (!record_op) {
            if (inst.q0 < 0 || inst.q0 >= nq ||
                (two_qubit &&
                 (inst.q1 < 0 || inst.q1 >= nq || inst.q1 == inst.q0))) {
                std::ostringstream os;
                os << "qubit operands (" << inst.q0 << ", " << inst.q1
                   << ") out of range for a " << nq << "-qubit register";
                report.Report(kRuleQubitRange, InstLocation(i, inst.op),
                              os.str());
                indexable = false;
                continue;
            }
        }
        switch (inst.op) {
          case SimOp::kH:
          case SimOp::kCnot:
          case SimOp::kSwap: {
            const int qs[2] = {inst.q0, two_qubit ? inst.q1 : -1};
            for (const int q : qs) {
                if (q >= 0 && collapsed[q]) {
                    std::ostringstream os;
                    os << "Clifford gate on qubit " << q
                       << " after its measurement and before any reset";
                    report.Report(kRuleMeasuredOut,
                                  InstLocation(i, inst.op), os.str());
                }
            }
            break;
          }
          case SimOp::kMeasure:
            collapsed[inst.q0] = 1;
            ++measures_seen;
            break;
          case SimOp::kReset:
            collapsed[inst.q0] = 0;
            break;
          default:
            break;
        }
        if (inst.op == SimOp::kMeasure || inst.op == SimOp::kReset ||
            inst.op == SimOp::kXError || inst.op == SimOp::kZError ||
            inst.op == SimOp::kDepolarize1 ||
            inst.op == SimOp::kDepolarize2) {
            if (!(inst.p >= 0.0) || inst.p >= 1.0) {
                std::ostringstream os;
                os << "probability " << inst.p << " outside [0, 1)";
                report.Report(kRuleProbabilityRange,
                              InstLocation(i, inst.op), os.str());
            }
        }
        if (record_op) {
            for (const std::int32_t m : inst.targets) {
                if (m < 0 || m >= measures_seen) {
                    std::ostringstream os;
                    os << "measurement record " << m
                       << " not yet defined (records so far: "
                       << measures_seen << ")";
                    report.Report(kRuleRecordRange, InstLocation(i, inst.op),
                                  os.str());
                    indexable = false;
                }
            }
            if (inst.op == SimOp::kDetector) {
                if (inst.index != detectors_seen) {
                    std::ostringstream os;
                    os << "detector index " << inst.index
                       << " breaks the dense ordering (expected "
                       << detectors_seen << ")";
                    report.Report(kRuleRecordRange, InstLocation(i, inst.op),
                                  os.str());
                }
                ++detectors_seen;
            } else if (inst.index < 0 ||
                       inst.index >= circuit.num_observables()) {
                std::ostringstream os;
                os << "observable " << inst.index << " out of range ("
                   << circuit.num_observables() << " observables)";
                report.Report(kRuleRecordRange, InstLocation(i, inst.op),
                              os.str());
            }
        }
    }
    if (measures_seen != circuit.num_measurements()) {
        std::ostringstream os;
        os << "instruction stream has " << measures_seen
           << " measurements but the circuit records "
           << circuit.num_measurements();
        report.Report(kRuleRecordRange, "circuit", os.str());
        indexable = false;
    }
    if (detectors_seen != circuit.num_detectors()) {
        std::ostringstream os;
        os << "instruction stream has " << detectors_seen
           << " detectors but the circuit records "
           << circuit.num_detectors();
        report.Report(kRuleRecordRange, "circuit", os.str());
    }
    return indexable;
}

/** Semantic pass: is every detector's record parity fixed in the
 *  noiseless circuit? Its random choices are all Z gauges, since a Z
 *  flip of a Z eigenstate changes nothing: one per qubit at the start,
 *  one per measurement and one per reset. Each qubit's Pauli frame is an
 *  X and a Z plane over those gauges, so a record's plane names the
 *  gauges that flip it, and a detector is random iff the XOR of its
 *  records' planes is non-zero. A frame simulation that randomizes
 *  exactly these gauges samples the noiseless record distribution
 *  (Gidney, arXiv:2103.02202), so the verdict is a stabilizer tableau's,
 *  at a few word operations per instruction and per 64 gauges. */
void
CheckDeterminism(const NoisyCircuit& circuit, Reporter& report)
{
    const int nq = circuit.num_qubits();
    size_t gauges = static_cast<size_t>(nq);
    for (const SimInstruction& inst : circuit.instructions()) {
        if (inst.op == SimOp::kMeasure || inst.op == SimOp::kReset) {
            ++gauges;
        }
    }
    const size_t words = (gauges + 63) / 64;
    std::vector<std::uint64_t> x(static_cast<size_t>(nq) * words, 0);
    std::vector<std::uint64_t> z(x.size(), 0);
    std::vector<std::uint64_t> records(
        static_cast<size_t>(circuit.num_measurements()) * words, 0);
    const auto x_of = [&](int q) {
        return x.data() + static_cast<size_t>(q) * words;
    };
    const auto z_of = [&](int q) {
        return z.data() + static_cast<size_t>(q) * words;
    };
    // Gauges are handed out in order, so every plane is zero from word
    // `live` on.
    size_t next = 0;
    size_t live = 0;
    const auto fresh_z = [&](int q) {
        std::uint64_t* zq = z_of(q);
        std::fill_n(zq, live, 0);
        zq[next / 64] = std::uint64_t{1} << (next % 64);
        ++next;
        live = (next + 63) / 64;
    };
    for (int q = 0; q < nq; ++q) {
        fresh_z(q);
    }
    size_t measured = 0;
    int detector = 0;
    for (const SimInstruction& inst : circuit.instructions()) {
        switch (inst.op) {
          case SimOp::kH:
            std::swap_ranges(x_of(inst.q0), x_of(inst.q0) + live,
                             z_of(inst.q0));
            break;
          case SimOp::kCnot: {
            const std::uint64_t* xc = x_of(inst.q0);
            std::uint64_t* xt = x_of(inst.q1);
            std::uint64_t* zc = z_of(inst.q0);
            const std::uint64_t* zt = z_of(inst.q1);
            for (size_t w = 0; w < live; ++w) {
                xt[w] ^= xc[w];
                zc[w] ^= zt[w];
            }
            break;
          }
          case SimOp::kSwap:
            std::swap_ranges(x_of(inst.q0), x_of(inst.q0) + live,
                             x_of(inst.q1));
            std::swap_ranges(z_of(inst.q0), z_of(inst.q0) + live,
                             z_of(inst.q1));
            break;
          case SimOp::kMeasure:
            std::copy_n(x_of(inst.q0), live,
                        records.data() + measured++ * words);
            fresh_z(inst.q0);
            break;
          case SimOp::kReset:
            std::fill_n(x_of(inst.q0), live, 0);
            fresh_z(inst.q0);
            break;
          case SimOp::kDetector: {
            bool random = false;
            for (size_t w = 0; w < live && !random; ++w) {
                std::uint64_t parity = 0;
                for (const std::int32_t m : inst.targets) {
                    parity ^= records[static_cast<size_t>(m) * words + w];
                }
                random = parity != 0;
            }
            if (random) {
                report.Report(
                    kRuleDetectorDeterminism,
                    "detector " + std::to_string(detector),
                    "parity depends on random measurement outcomes in "
                    "the noiseless circuit");
            }
            ++detector;
            break;
          }
          default:
            break;  // noise channels: noiseless walk
        }
    }
}

}  // namespace

std::vector<Diagnostic>
ValidateCircuit(const NoisyCircuit& circuit)
{
    std::vector<Diagnostic> diagnostics;
    Reporter report(diagnostics);
    if (CheckStructure(circuit, report)) {
        CheckDeterminism(circuit, report);
    }
    return diagnostics;
}

}  // namespace tiqec::analysis
