#include "noise/profile_io.h"

#include <stdexcept>

#include "common/text_format.h"

namespace tiqec::noise {

namespace {

constexpr char kHeader[] = "tiqec-noise v1";

// Line grammar (space-separated, exact doubles):
//   tiqec-noise v1
//   round <round_time> <mean_two_qubit_error> <max_two_qubit_error>
//   gates <n>
//   g <p_pair> <p_q0> <p_q1>           (x n, indexed by QEC-IR gate id)
//   idle <n> <per-qubit z probabilities...>
//   swaps <n>
//   s <qubit a> <qubit b> <p> <after_qec_gate>   (x n; after may be -1)

}  // namespace

std::string
FormatNoiseProfile(const RoundNoiseProfile& profile)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "round ";
    out += text::ExactDouble(profile.round_time);
    out += ' ';
    out += text::ExactDouble(profile.mean_two_qubit_error);
    out += ' ';
    out += text::ExactDouble(profile.max_two_qubit_error);
    out += '\n';
    out += "gates ";
    out += std::to_string(profile.gate_noise.size());
    out += '\n';
    for (const GateNoise& g : profile.gate_noise) {
        out += "g ";
        out += text::ExactDouble(g.p_pair);
        out += ' ';
        out += text::ExactDouble(g.p_q0);
        out += ' ';
        out += text::ExactDouble(g.p_q1);
        out += '\n';
    }
    out += "idle ";
    out += std::to_string(profile.idle_z.size());
    for (const double z : profile.idle_z) {
        out += ' ';
        out += text::ExactDouble(z);
    }
    out += '\n';
    out += "swaps ";
    out += std::to_string(profile.swaps.size());
    out += '\n';
    for (const SwapNoise& s : profile.swaps) {
        out += "s ";
        out += std::to_string(s.a.value);
        out += ' ';
        out += std::to_string(s.b.value);
        out += ' ';
        out += text::ExactDouble(s.p);
        out += ' ';
        out += std::to_string(s.after_qec_gate.value);
        out += '\n';
    }
    return out;
}

namespace {

void
ParseNoiseProfileImpl(std::string_view text_in, RoundNoiseProfile* profile)
{
    text::LineReader in(text_in);
    in.ExpectHeader(kHeader);

    in.Tagged("round", 4);
    profile->round_time = in.Double(1);
    profile->mean_two_qubit_error = in.Double(2);
    profile->max_two_qubit_error = in.Double(3);

    // The counts are not reserved: a corrupt count must end in a
    // truncation error, not in a huge allocation.
    in.Tagged("gates", 2);
    const std::int64_t num_gates = in.Int64(1);
    if (num_gates < 0) {
        throw std::invalid_argument("negative gate count");
    }
    for (std::int64_t i = 0; i < num_gates; ++i) {
        in.Tagged("g", 4, "gate", i);
        GateNoise g;
        g.p_pair = in.Probability(1);
        g.p_q0 = in.Probability(2);
        g.p_q1 = in.Probability(3);
        profile->gate_noise.push_back(g);
    }

    in.TaggedAtLeast("idle", 2);
    const std::int64_t num_idle = in.Int64(1);
    if (num_idle < 0 ||
        in.fields().size() != 2 + static_cast<size_t>(num_idle)) {
        throw std::invalid_argument("idle list truncated");
    }
    profile->idle_z.reserve(static_cast<size_t>(num_idle));
    for (size_t k = 2; k < in.fields().size(); ++k) {
        profile->idle_z.push_back(in.Probability(k));
    }

    // The sim build applies each swap's noise to its qubits after its
    // gate as read, so both must lie inside the shapes read above.
    in.Tagged("swaps", 2);
    const std::int64_t num_swaps = in.Int64(1);
    if (num_swaps < 0) {
        throw std::invalid_argument("negative swap count");
    }
    const auto qubit = [&in, num_idle](size_t k) {
        const std::int32_t q = in.Int32(k);
        if (q < 0 || q >= num_idle) {
            throw std::invalid_argument("qubit out of range in " +
                                        in.Where());
        }
        return QubitId{q};
    };
    for (std::int64_t i = 0; i < num_swaps; ++i) {
        in.Tagged("s", 5, "swap", i);
        SwapNoise s;
        s.a = qubit(1);
        s.b = qubit(2);
        if (s.a == s.b) {
            throw std::invalid_argument("repeated qubit operand in " +
                                        in.Where());
        }
        s.p = in.Probability(3);
        s.after_qec_gate = GateId{in.Int32(4)};
        if (s.after_qec_gate.value < -1 ||
            s.after_qec_gate.value >= num_gates) {
            throw std::invalid_argument("gate out of range in " +
                                        in.Where());
        }
        profile->swaps.push_back(s);
    }

    in.ExpectEnd();
}

}  // namespace

bool
ParseNoiseProfile(std::string_view text, RoundNoiseProfile* profile,
                  std::string* error)
{
    *profile = RoundNoiseProfile{};
    try {
        ParseNoiseProfileImpl(text, profile);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("noise profile parse: ") + e.what();
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::noise
