#include "sim/circuit_io.h"

#include <stdexcept>

#include "common/text_format.h"
#include "sim/dem.h"

namespace tiqec::sim {

namespace {

constexpr char kHeader[] = "tiqec-circuit v1";

// Line grammar (space-separated, exact doubles):
//   tiqec-circuit v1
//   qubits <num_qubits>
//   ops <instruction count>
//   H <q> | CX <c> <t> | SW <a> <b>
//   M <q> <p> | R <q> <p>
//   X <q> <p> | Z <q> <p> | D1 <q> <p> | D2 <q0> <q1> <p>
//   DET <coord.x> <coord.y> <round> <ntargets> <record indices...>
//   OBS <observable> <ntargets> <record indices...>
//
// Zero-probability stochastic channels never appear: the Add* builders
// drop them, so a formatted stream replayed through the same builders
// reproduces the instruction list exactly (byte-stable round trip).

void
AppendTargets(std::string& out, const std::vector<std::int32_t>& targets)
{
    out += ' ';
    out += std::to_string(targets.size());
    for (const std::int32_t t : targets) {
        out += ' ';
        out += std::to_string(t);
    }
}

}  // namespace

std::string
FormatNoisyCircuit(const NoisyCircuit& circuit)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "qubits ";
    out += std::to_string(circuit.num_qubits());
    out += '\n';
    out += "ops ";
    out += std::to_string(circuit.instructions().size());
    out += '\n';
    for (const SimInstruction& inst : circuit.instructions()) {
        switch (inst.op) {
          case SimOp::kH:
            out += "H " + std::to_string(inst.q0);
            break;
          case SimOp::kCnot:
            out += "CX " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1);
            break;
          case SimOp::kSwap:
            out += "SW " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1);
            break;
          case SimOp::kMeasure:
            out += "M " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kReset:
            out += "R " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kXError:
            out += "X " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kZError:
            out += "Z " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDepolarize1:
            out += "D1 " + std::to_string(inst.q0) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDepolarize2:
            out += "D2 " + std::to_string(inst.q0) + ' ' +
                   std::to_string(inst.q1) + ' ' +
                   text::ExactDouble(inst.p);
            break;
          case SimOp::kDetector: {
            const DetectorInfo& info =
                circuit.detectors()[static_cast<size_t>(inst.index)];
            out += "DET " + text::ExactDouble(info.coord.x) + ' ' +
                   text::ExactDouble(info.coord.y) + ' ' +
                   std::to_string(info.round);
            AppendTargets(out, inst.targets);
            break;
          }
          case SimOp::kObservableInclude:
            out += "OBS " + std::to_string(inst.index);
            AppendTargets(out, inst.targets);
            break;
        }
        out += '\n';
    }
    return out;
}

namespace {

// The replay builders assert on bad operands (debug builds abort), so a
// corrupt file is rejected here with a parse error before any Add* call.
class Replayer
{
  public:
    explicit Replayer(int num_qubits) : circuit_(num_qubits) {}

    /** Replays the reader's current op line. */
    void
    Apply(const text::LineReader& in)
    {
        const std::string_view op = in.fields()[0];
        if (op.empty()) {
            throw std::invalid_argument("empty " + in.Where());
        }
        if (op == "H") {
            Expect(in, 2);
            circuit_.AddH(Qubit(in, 1));
        } else if (op == "CX") {
            Expect(in, 3);
            const auto [a, b] = QubitPair(in, 1);
            circuit_.AddCnot(a, b);
        } else if (op == "SW") {
            Expect(in, 3);
            const auto [a, b] = QubitPair(in, 1);
            circuit_.AddSwap(a, b);
        } else if (op == "M") {
            Expect(in, 3);
            circuit_.AddMeasure(Qubit(in, 1), in.Probability(2));
        } else if (op == "R") {
            Expect(in, 3);
            circuit_.AddReset(Qubit(in, 1), in.Probability(2));
        } else if (op == "X" || op == "Z" || op == "D1") {
            Expect(in, 3);
            const int q = Qubit(in, 1);
            const double p = Channel(in, 2);
            if (op == "X") {
                circuit_.AddXError(q, p);
            } else if (op == "Z") {
                circuit_.AddZError(q, p);
            } else {
                circuit_.AddDepolarize1(q, p);
            }
        } else if (op == "D2") {
            Expect(in, 4);
            const auto [a, b] = QubitPair(in, 1);
            circuit_.AddDepolarize2(a, b, Channel(in, 3));
        } else if (op == "DET") {
            if (in.fields().size() < 5) {
                throw std::invalid_argument("short DET line in " +
                                            in.Where());
            }
            Coord coord;
            coord.x = in.Double(1);
            coord.y = in.Double(2);
            const int round = in.Int32(3);
            circuit_.AddDetector(Targets(in, 4), coord, round);
        } else if (op == "OBS") {
            if (in.fields().size() < 3) {
                throw std::invalid_argument("short OBS line in " +
                                            in.Where());
            }
            const int obs = in.Int32(1);
            if (obs < 0 || obs >= kMaxObservables) {
                throw std::invalid_argument("observable out of range in " +
                                            in.Where());
            }
            circuit_.AddObservableInclude(obs, Targets(in, 2));
        } else {
            throw std::invalid_argument("unknown op '" + std::string(op) +
                                        "' in " + in.Where());
        }
    }

    NoisyCircuit
    Take()
    {
        return std::move(circuit_);
    }

  private:
    static void
    Expect(const text::LineReader& in, size_t n)
    {
        if (in.fields().size() != n) {
            throw std::invalid_argument("wrong field count in " + in.Where());
        }
    }

    int
    Qubit(const text::LineReader& in, size_t k) const
    {
        const int q = in.Int32(k);
        if (q < 0 || q >= circuit_.num_qubits()) {
            throw std::invalid_argument("qubit out of range in " +
                                        in.Where());
        }
        return q;
    }

    /** The distinct qubits in fields `k` and `k + 1`. */
    std::pair<int, int>
    QubitPair(const text::LineReader& in, size_t k) const
    {
        const int qa = Qubit(in, k);
        const int qb = Qubit(in, k + 1);
        if (qa == qb) {
            throw std::invalid_argument("repeated qubit operand in " +
                                        in.Where());
        }
        return {qa, qb};
    }

    /** Stochastic-channel probability: must be strictly positive, since
     *  the builders drop p == 0 and the round trip would not be
     *  byte-stable (and a p == 0 line can only come from a hand-edited
     *  or corrupt file). */
    static double
    Channel(const text::LineReader& in, size_t k)
    {
        const double p = in.Probability(k);
        if (p == 0.0) {
            throw std::invalid_argument("zero-probability channel in " +
                                        in.Where());
        }
        return p;
    }

    /** The measurement-record list whose length is field `pos`. */
    std::vector<std::int32_t>
    Targets(const text::LineReader& in, size_t pos) const
    {
        const std::int64_t n = in.Int64(pos);
        if (n < 0 || in.fields().size() != pos + 1 + static_cast<size_t>(n)) {
            throw std::invalid_argument("target list truncated in " +
                                        in.Where());
        }
        std::vector<std::int32_t> targets;
        targets.reserve(static_cast<size_t>(n));
        for (size_t k = pos + 1; k < in.fields().size(); ++k) {
            const int m = in.Int32(k);
            if (m < 0 || m >= circuit_.num_measurements()) {
                throw std::invalid_argument(
                    "measurement record out of range in " + in.Where());
            }
            targets.push_back(m);
        }
        return targets;
    }

    NoisyCircuit circuit_;
};

NoisyCircuit
ParseNoisyCircuitImpl(std::string_view text_in)
{
    text::LineReader in(text_in);
    in.ExpectHeader(kHeader);
    in.Tagged("qubits", 2);
    const int num_qubits = in.Int32(1);
    if (num_qubits <= 0) {
        throw std::invalid_argument("non-positive qubit count");
    }
    in.Tagged("ops", 2);
    const std::int64_t num_ops = in.Int64(1);
    if (num_ops < 0) {
        throw std::invalid_argument("negative op count");
    }

    Replayer replayer(num_qubits);
    for (std::int64_t i = 0; i < num_ops; ++i) {
        in.Untagged("op", i);
        replayer.Apply(in);
    }
    in.ExpectEnd();
    return replayer.Take();
}

}  // namespace

std::optional<NoisyCircuit>
ParseNoisyCircuit(std::string_view text, std::string* error)
{
    try {
        return ParseNoisyCircuitImpl(text);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("circuit parse: ") + e.what();
        }
        return std::nullopt;
    }
}

}  // namespace tiqec::sim
