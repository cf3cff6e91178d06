#include "store/keys.h"

#include <array>
#include <charconv>

#include "common/text_format.h"

// Generated into the build tree by cmake/GenerateSourceFingerprint.cmake
// (a hash over every file in src/). Editor and lint compiles that never
// ran the generator still build — they just report "unversioned", which
// keys their artifacts apart from any real build's.
#if __has_include("store/source_fingerprint_generated.h")
#include "store/source_fingerprint_generated.h"
#endif

#ifndef TIQEC_SOURCE_FINGERPRINT
#define TIQEC_SOURCE_FINGERPRINT "unversioned"
#endif

namespace tiqec::store {

namespace {

std::string
Hex64(std::uint64_t v)
{
    std::array<char, 16> buf;
    std::string out(16, '0');
    const auto [ptr, ec] =
        std::to_chars(buf.data(), buf.data() + buf.size(), v, 16);
    const size_t len = static_cast<size_t>(ptr - buf.data());
    // Left-pad to 16 so file names sort and align uniformly.
    out.replace(16 - len, len, buf.data(), len);
    return out;
}

}  // namespace

std::string
StoreKey::FileName() const
{
    return Hex64(Fnv1a64(canonical)) + ".art";
}

std::uint64_t
Fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
SourceFingerprint()
{
    return TIQEC_SOURCE_FINGERPRINT;
}

std::string
ToolchainFingerprint()
{
#if defined(__VERSION__)
    const std::string compiler = __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#if defined(NDEBUG)
    const std::string build_type = "release";
#else
    const std::string build_type = "debug";
#endif
    return compiler + "|" + build_type + "|" + SourceFingerprint();
}

std::string
CodeFingerprint(const qec::StabilizerCode& code)
{
    std::string fp = code.name();
    fp += ";d=";
    fp += std::to_string(code.distance());
    fp += ";q=";
    for (const qec::CodeQubit& q : code.qubits()) {
        fp += q.role == qec::QubitRole::kData ? 'D' : 'A';
        fp += text::ExactDouble(q.coord.x);
        fp += ',';
        fp += text::ExactDouble(q.coord.y);
        fp += ';';
    }
    fp += "c=";
    for (const qec::Check& c : code.checks()) {
        fp += std::to_string(c.ancilla.value);
        fp += c.type == qec::CheckType::kX ? 'X' : 'Z';
        for (const QubitId d : c.data_order) {
            fp += ':';
            fp += std::to_string(d.value);
        }
        fp += ';';
    }
    fp += "lx=";
    for (const QubitId q : code.logical_x()) {
        fp += std::to_string(q.value);
        fp += ',';
    }
    fp += ";lz=";
    for (const QubitId q : code.logical_z()) {
        fp += std::to_string(q.value);
        fp += ',';
    }
    return fp;
}

std::string
DeviceFingerprint(const qccd::DeviceGraph& graph)
{
    std::string fp = qccd::TopologyKindName(graph.topology());
    fp += ";cap=";
    fp += std::to_string(graph.trap_capacity());
    fp += ";n=";
    for (const qccd::DeviceNode& node : graph.nodes()) {
        fp += node.kind == qccd::NodeKind::kTrap ? 'T' : 'J';
        fp += std::to_string(node.capacity);
        fp += '@';
        fp += text::ExactDouble(node.coord.x);
        fp += ',';
        fp += text::ExactDouble(node.coord.y);
        fp += ';';
    }
    fp += "s=";
    for (const qccd::DeviceSegment& seg : graph.segments()) {
        fp += std::to_string(seg.a.value);
        fp += '-';
        fp += std::to_string(seg.b.value);
        fp += ';';
    }
    return fp;
}

StoreKey
CompileStoreKey(const qec::StabilizerCode& code,
                const core::ArchitectureConfig& arch, int compile_rounds,
                const qccd::DeviceGraph* device)
{
    StoreKey key;
    key.kind = "compile";
    key.canonical = "compile|toolchain=" + ToolchainFingerprint() +
                    "|code={" + CodeFingerprint(code) + "}|device={" +
                    (device ? DeviceFingerprint(*device) : "derived") +
                    "}|topology=" +
                    qccd::TopologyKindName(arch.topology) + "|capacity=" +
                    std::to_string(arch.trap_capacity) + "|wiring=" +
                    core::WiringKindName(arch.wiring) + "|rounds=" +
                    std::to_string(compile_rounds);
    return key;
}

StoreKey
NoiseStoreKey(const StoreKey& compile_key, double gate_improvement)
{
    StoreKey key;
    key.kind = "noise";
    key.canonical = "noise|improvement=" +
                    text::ExactDouble(gate_improvement) + "|" +
                    compile_key.canonical;
    return key;
}

StoreKey
SimStoreKey(const StoreKey& noise_key, int rounds, int basis, int workload,
            const std::string& program_canonical)
{
    StoreKey key;
    key.kind = "sim";
    key.canonical = "sim|rounds=" + std::to_string(rounds) + "|basis=" +
                    std::to_string(basis) + "|workload=" +
                    std::to_string(workload) + "|" + noise_key.canonical;
    if (!program_canonical.empty()) {
        // Program workloads append the full canonical program text: the
        // stitched circuit is a pure function of (phase units, rounds,
        // program), and the text is the program's content identity.
        // The store echoes the canonical key as a single header line,
        // so embedded newlines are escaped injectively (`\` -> `\\`,
        // LF -> `\n`). Non-program keys are byte-identical to the
        // pre-program format.
        key.canonical += "|program={";
        for (const char c : program_canonical) {
            if (c == '\\') {
                key.canonical += "\\\\";
            } else if (c == '\n') {
                key.canonical += "\\n";
            } else {
                key.canonical += c;
            }
        }
        key.canonical += "}";
    }
    return key;
}

StoreKey
CertificateStoreKey(const StoreKey& sim_key, int max_search_weight)
{
    StoreKey key;
    key.kind = "certificate";
    key.canonical = "certificate|max_search_weight=" +
                    std::to_string(max_search_weight) + "|" +
                    sim_key.canonical;
    return key;
}

}  // namespace tiqec::store
