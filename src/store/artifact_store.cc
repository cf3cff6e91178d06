#include "store/artifact_store.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/analysis.h"
#include "circuit/native_translation.h"
#include "common/atomic_file.h"
#include "common/text_format.h"
#include "compiler/schedule_io.h"
#include "noise/profile_io.h"
#include "qec/parity_check.h"
#include "sim/circuit_io.h"
#include "sim/dem_io.h"

namespace tiqec::store {

namespace {

constexpr char kMagic[] = "tiqec-artifact v1";

std::int64_t
CountLines(const std::string& text)
{
    std::int64_t n = 0;
    for (const char c : text) {
        n += c == '\n' ? 1 : 0;
    }
    return n;
}

void
AppendIntList(std::string& out, const std::string& tag, size_t n,
              const std::function<std::int32_t(size_t)>& value)
{
    out += tag;
    for (size_t i = 0; i < n; ++i) {
        out += ' ';
        out += std::to_string(value(i));
    }
    out += '\n';
}

/** The `n` integers of the next line, tagged `tag`. */
std::vector<std::int32_t>
ReadIntList(text::LineReader& reader, std::string_view tag, size_t n,
            const std::string& context)
{
    reader.Tagged(tag, n + 1);
    std::vector<std::int32_t> values;
    values.reserve(n);
    for (size_t i = 1; i <= n; ++i) {
        values.push_back(text::ParseInt32(reader.fields()[i], context));
    }
    return values;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

std::string
ArtifactStore::PathFor(const StoreKey& key) const
{
    return root_ + "/" + key.kind + "/" + key.FileName();
}

void
ArtifactStore::Discard(const StoreKey& key) const
{
    std::error_code ec;  // already gone is fine
    std::filesystem::remove(PathFor(key), ec);
}

ArtifactStore::Counters
ArtifactStore::counters() const
{
    Counters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.corrupt = corrupt_.load(std::memory_order_relaxed);
    c.writes = writes_.load(std::memory_order_relaxed);
    c.validated = validated_.load(std::memory_order_relaxed);
    return c;
}

LoadStatus
ArtifactStore::Count(LoadStatus status) const
{
    switch (status) {
      case LoadStatus::kHit:
        hits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case LoadStatus::kMiss:
        misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      case LoadStatus::kCorrupt:
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return status;
}

LoadStatus
ArtifactStore::ReadPayload(const StoreKey& key, std::string* payload,
                           std::string* error) const
{
    const std::string path = PathFor(key);
    std::string content;
    if (!common::ReadFile(path, &content)) {
        // Unreadable covers both "never written" and genuine I/O
        // failure; either way the caller recomputes, so it is a miss.
        return LoadStatus::kMiss;
    }
    const size_t first_nl = content.find('\n');
    if (first_nl == std::string::npos) {
        *error = "artifact store: truncated header in " + path;
        return LoadStatus::kCorrupt;
    }
    std::string magic = content.substr(0, first_nl);
    text::StripCr(magic);
    if (magic != std::string(kMagic) + " " + key.kind) {
        *error = "artifact store: bad magic in " + path + ": '" + magic +
                 "'";
        return LoadStatus::kCorrupt;
    }
    const size_t second_nl = content.find('\n', first_nl + 1);
    if (second_nl == std::string::npos) {
        *error = "artifact store: missing key line in " + path;
        return LoadStatus::kCorrupt;
    }
    std::string key_line =
        content.substr(first_nl + 1, second_nl - first_nl - 1);
    text::StripCr(key_line);
    if (key_line.rfind("key ", 0) != 0) {
        *error = "artifact store: malformed key line in " + path;
        return LoadStatus::kCorrupt;
    }
    if (key_line.substr(4) != key.canonical) {
        // A different canonical key hashed to this file name (collision)
        // or the file predates a key-schema change: not our artifact.
        return LoadStatus::kMiss;
    }
    payload->assign(content, second_nl + 1, std::string::npos);
    return LoadStatus::kHit;
}

bool
ArtifactStore::WritePayload(const StoreKey& key, const std::string& payload,
                            std::string* error) const
{
    const std::string path = PathFor(key);
    std::error_code ec;
    std::filesystem::create_directories(root_ + "/" + key.kind, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "artifact store: cannot create " + root_ + "/" +
                     key.kind + ": " + ec.message();
        }
        return false;
    }
    std::string content = std::string(kMagic) + " " + key.kind + "\n" +
                          "key " + key.canonical + "\n" + payload;
    if (!common::AtomicWriteFile(path, content, error)) {
        return false;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

// ---- Compile bundles ----------------------------------------------------

LoadStatus
ArtifactStore::LoadCompile(const StoreKey& key,
                           const qec::StabilizerCode& code,
                           const core::ArchitectureConfig& arch,
                           int compile_rounds,
                           const qccd::DeviceGraph* device,
                           core::CompileArtifacts* arts,
                           std::string* error) const
{
    std::string payload;
    const LoadStatus read = ReadPayload(key, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    *arts = core::CompileArtifacts{};
    try {
        text::LineReader reader(payload);
        reader.Tagged("rounds", 2);
        if (reader.Int32(1) != compile_rounds) {
            throw std::invalid_argument(
                "stored compile_rounds does not match the key");
        }
        arts->compile_rounds = compile_rounds;

        const size_t nq = static_cast<size_t>(code.num_qubits());
        compiler::CompilationResult& c = arts->compiled;

        reader.Tagged("partition", 5);
        c.partition.num_clusters = reader.Int32(1);
        c.partition.max_cluster_size = reader.Int32(2);
        c.partition.min_cluster_size = reader.Int32(3);
        if (reader.Int64(4) != static_cast<std::int64_t>(nq)) {
            throw std::invalid_argument(
                "partition size does not match the code");
        }
        for (const std::int32_t v :
             ReadIntList(reader, "cl", nq, "cluster list")) {
            c.partition.cluster_of.push_back(v);
        }

        reader.Tagged("placement", 3);
        if (reader.Int64(1) != static_cast<std::int64_t>(nq) ||
            reader.Int32(2) != c.partition.num_clusters) {
            throw std::invalid_argument(
                "placement shape does not match the code/partition");
        }
        for (const std::int32_t v :
             ReadIntList(reader, "qt", nq, "qubit_trap list")) {
            c.placement.qubit_trap.push_back(NodeId(v));
        }
        const size_t ncl = static_cast<size_t>(c.partition.num_clusters);
        for (const std::int32_t v :
             ReadIntList(reader, "ct", ncl, "cluster_trap list")) {
            c.placement.cluster_trap.push_back(NodeId(v));
        }
        reader.Tagged("cost", 2);
        c.placement.cost =
            text::ParseDouble(reader.fields()[1], "placement cost");

        reader.Tagged("routing", 3);
        c.routing.ok = true;
        c.routing.num_passes = reader.Int32(1);
        c.routing.num_movement_ops = reader.Int32(2);

        reader.Tagged("schedule", 2);
        const std::int64_t csv_lines = reader.Int64(1);
        if (csv_lines < 1) {
            throw std::invalid_argument("schedule block is empty");
        }
        c.schedule =
            compiler::ParseScheduleCsv(reader.Block(csv_lines, "schedule"));
        // The compiler takes num_passes from the router, not from the
        // pass column (a trailing gate-only pass has no movement rows);
        // mirror that here so the reconstruction is field-exact.
        c.schedule.num_passes = c.routing.num_passes;
        reader.ExpectEnd();

        // Cheap pure re-derivations (same builders the compiler runs).
        arts->graph = device != nullptr
                          ? *device
                          : compiler::MakeDeviceFor(code, arch.topology,
                                                    arch.trap_capacity);
        c.qec_circuit = qec::BuildParityCheckRounds(code, compile_rounds);
        c.native = circuit::TranslateToNative(c.qec_circuit);
        c.ok = true;
        arts->ok = true;
    } catch (const std::exception& e) {
        *arts = core::CompileArtifacts{};
        *error = "artifact store: compile bundle " + PathFor(key) + ": " +
                 e.what();
        return Count(LoadStatus::kCorrupt);
    }

    // Validate-on-load contract: a loaded bundle passes the same
    // schedule rules a freshly compiled one would, or it is isolated.
    validated_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<analysis::Diagnostic> diags =
        analysis::ValidateCompiledArtifacts(
            arts->compiled, arts->graph, arts->timing,
            arch.wiring == core::WiringKind::kWise);
    if (!diags.empty()) {
        *error = "artifact store: compile bundle " + PathFor(key) + ": " +
                 analysis::FormatDiagnostics(analysis::kCompiledSubject,
                                             diags);
        *arts = core::CompileArtifacts{};
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreCompile(const StoreKey& key,
                            const core::CompileArtifacts& arts,
                            std::string* error) const
{
    if (!arts.ok) {
        if (error != nullptr) {
            *error = "artifact store: refusing to store a failed compile";
        }
        return false;
    }
    const compiler::CompilationResult& c = arts.compiled;
    std::string payload;
    payload += "rounds " + std::to_string(arts.compile_rounds) + '\n';
    payload += "partition " + std::to_string(c.partition.num_clusters) +
               ' ' + std::to_string(c.partition.max_cluster_size) + ' ' +
               std::to_string(c.partition.min_cluster_size) + ' ' +
               std::to_string(c.partition.cluster_of.size()) + '\n';
    AppendIntList(payload, "cl", c.partition.cluster_of.size(),
                  [&](size_t i) { return c.partition.cluster_of[i]; });
    payload += "placement " + std::to_string(c.placement.qubit_trap.size()) +
               ' ' + std::to_string(c.placement.cluster_trap.size()) +
               '\n';
    AppendIntList(payload, "qt", c.placement.qubit_trap.size(),
                  [&](size_t i) { return c.placement.qubit_trap[i].value; });
    AppendIntList(payload, "ct", c.placement.cluster_trap.size(), [&](size_t i) {
        return c.placement.cluster_trap[i].value;
    });
    payload += "cost " + text::ExactDouble(c.placement.cost) + '\n';
    payload += "routing " + std::to_string(c.routing.num_passes) + ' ' +
               std::to_string(c.routing.num_movement_ops) + '\n';
    const std::string csv = compiler::ScheduleCsv(c.schedule);
    payload += "schedule " + std::to_string(CountLines(csv)) + '\n';
    payload += csv;
    return WritePayload(key, payload, error);
}

// ---- Noise profiles -----------------------------------------------------

LoadStatus
ArtifactStore::LoadNoise(const StoreKey& key, size_t expected_gates,
                         size_t expected_qubits,
                         noise::RoundNoiseProfile* profile,
                         std::string* error) const
{
    std::string payload;
    const LoadStatus read = ReadPayload(key, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    std::string parse_error;
    if (!noise::ParseNoiseProfile(payload, profile, &parse_error)) {
        *error = "artifact store: noise profile " + PathFor(key) + ": " +
                 parse_error;
        return Count(LoadStatus::kCorrupt);
    }
    if (profile->gate_noise.size() != expected_gates ||
        profile->idle_z.size() != expected_qubits) {
        *error = "artifact store: noise profile " + PathFor(key) +
                 ": shape mismatch (profile covers " +
                 std::to_string(profile->gate_noise.size()) + " gates / " +
                 std::to_string(profile->idle_z.size()) +
                 " qubits, compile bundle has " +
                 std::to_string(expected_gates) + " / " +
                 std::to_string(expected_qubits) + ")";
        *profile = noise::RoundNoiseProfile{};
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreNoise(const StoreKey& key,
                          const noise::RoundNoiseProfile& profile,
                          std::string* error) const
{
    return WritePayload(key, noise::FormatNoiseProfile(profile), error);
}

// ---- Experiment + DEM bundles -------------------------------------------

LoadStatus
ArtifactStore::LoadSim(const StoreKey& key, core::SimArtifacts* arts,
                       std::string* error) const
{
    std::string payload;
    const LoadStatus read = ReadPayload(key, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    try {
        text::LineReader reader(payload);
        reader.Tagged("circuit", 2);
        const std::string circuit_text(
            reader.Block(reader.Int64(1), "circuit"));
        reader.Tagged("dem", 2);
        const std::string dem_text(reader.Block(reader.Int64(1), "dem"));
        reader.ExpectEnd();

        std::string parse_error;
        std::optional<sim::NoisyCircuit> circuit =
            sim::ParseNoisyCircuit(circuit_text, &parse_error);
        if (!circuit.has_value()) {
            throw std::invalid_argument(parse_error);
        }
        sim::DetectorErrorModel dem;
        if (!sim::ParseDem(dem_text, &dem, &parse_error)) {
            throw std::invalid_argument(parse_error);
        }
        arts->experiment = std::move(*circuit);
        arts->dem = std::move(dem);
    } catch (const std::exception& e) {
        *error = "artifact store: sim bundle " + PathFor(key) + ": " +
                 e.what();
        return Count(LoadStatus::kCorrupt);
    }

    // Validate-on-load, workload-blind: the store key does not identify
    // the code/workload pair, so the unreferenced-record check (which
    // needs it) stays with the sweep's own validation stage.
    validated_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<analysis::Diagnostic> diags =
        analysis::ValidateSimArtifacts(arts->experiment, arts->dem);
    if (!diags.empty()) {
        *error = "artifact store: sim bundle " + PathFor(key) + ": " +
                 analysis::FormatDiagnostics(analysis::kSimSubject, diags);
        return Count(LoadStatus::kCorrupt);
    }
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreSim(const StoreKey& key, const core::SimArtifacts& arts,
                        std::string* error) const
{
    const std::string circuit_text =
        sim::FormatNoisyCircuit(arts.experiment);
    const std::string dem_text = sim::FormatDem(arts.dem);
    std::string payload;
    payload += "circuit " + std::to_string(CountLines(circuit_text)) + '\n';
    payload += circuit_text;
    payload += "dem " + std::to_string(CountLines(dem_text)) + '\n';
    payload += dem_text;
    return WritePayload(key, payload, error);
}

// ---- Distance certificates ----------------------------------------------

namespace {

/** Digest of the DEM a certificate certifies: its byte-stable text form,
 *  hashed. */
std::string
DemDigest(const sim::DetectorErrorModel& dem)
{
    return std::to_string(Fnv1a64(sim::FormatDem(dem)));
}

bool
ParseFlag(std::string_view field, const std::string& context)
{
    if (field != "0" && field != "1") {
        throw std::invalid_argument("bad flag '" + std::string(field) +
                                    "' in " + context);
    }
    return field == "1";
}

/** Throws unless `od` records no witness (not found), or a witness that
 *  is a set of exactly `od.distance` distinct mechanisms whose detector
 *  symptoms cancel and whose combined action flips `od.observable`. */
void
VerifyWitness(const std::vector<analysis::DemMechanism>& mechanisms,
              const analysis::ObservableDistance& od)
{
    const std::string where =
        "observable " + std::to_string(od.observable) + " witness";
    if (!od.found) {
        if (od.distance != 0 || !od.witness.empty()) {
            throw std::invalid_argument(where + " recorded without a find");
        }
        return;
    }
    if (od.witness.empty() ||
        od.witness.size() != static_cast<size_t>(od.distance)) {
        throw std::invalid_argument(where + " size differs from distance " +
                                    std::to_string(od.distance));
    }
    std::vector<int> dets;
    std::uint32_t obs_mask = 0;
    int previous = -1;
    for (const int m : od.witness) {
        if (m <= previous || m >= static_cast<int>(mechanisms.size())) {
            throw std::invalid_argument(where +
                                        " is not an ascending set of "
                                        "mechanism indices");
        }
        previous = m;
        const analysis::DemMechanism& mech =
            mechanisms[static_cast<size_t>(m)];
        dets.insert(dets.end(), mech.dets.begin(), mech.dets.end());
        obs_mask ^= mech.obs_mask;
    }
    // The symptoms cancel iff every detector occurs an even number of
    // times, i.e. the sorted list pairs up.
    std::sort(dets.begin(), dets.end());
    bool cancels = dets.size() % 2 == 0;
    for (size_t k = 0; cancels && k < dets.size(); k += 2) {
        cancels = dets[k] == dets[k + 1];
    }
    if (!cancels) {
        throw std::invalid_argument(where + " has a nonzero syndrome");
    }
    if ((obs_mask >> od.observable & 1u) == 0) {
        throw std::invalid_argument(where + " does not flip the observable");
    }
}

}  // namespace

LoadStatus
ArtifactStore::LoadCertificate(const StoreKey& key,
                               const sim::DetectorErrorModel& dem,
                               analysis::DistanceCertificate* certificate,
                               std::string* error) const
{
    std::string payload;
    const LoadStatus read = ReadPayload(key, &payload, error);
    if (read != LoadStatus::kHit) {
        return Count(read);
    }
    validated_.fetch_add(1, std::memory_order_relaxed);
    analysis::DistanceCertificate cert;
    try {
        text::LineReader reader(payload);
        reader.Tagged("dem_digest", 2);
        if (reader.fields()[1] != DemDigest(dem)) {
            throw std::invalid_argument(
                "certifies a different DEM (digest mismatch)");
        }
        reader.Tagged("searched_weight", 2);
        cert.searched_weight = reader.Int32(1);
        if (cert.searched_weight < 0 ||
            cert.searched_weight > analysis::kMaxSearchWeight) {
            throw std::invalid_argument("searched_weight out of range");
        }
        reader.Tagged("graph_like", 2);
        cert.graph_like = ParseFlag(reader.fields()[1], "graph_like");
        reader.Tagged("observables", 2);
        if (reader.Int32(1) != dem.num_observables) {
            throw std::invalid_argument(
                "observable count does not match the DEM");
        }
        cert.mechanisms = analysis::CollectMechanisms(dem);
        for (int o = 0; o < dem.num_observables; ++o) {
            reader.TaggedAtLeast("obs", 5);
            const std::vector<std::string_view>& fields = reader.fields();
            if (text::ParseInt32(fields[1], "obs line") != o) {
                reader.Malformed();
            }
            analysis::ObservableDistance od;
            od.observable = o;
            od.found = ParseFlag(fields[2], "obs line");
            od.distance = text::ParseInt32(fields[3], "obs line");
            od.exact = ParseFlag(fields[4], "obs line");
            for (size_t f = 5; f < fields.size(); ++f) {
                od.witness.push_back(text::ParseInt32(fields[f], "witness"));
            }
            VerifyWitness(cert.mechanisms, od);
            cert.observables.push_back(std::move(od));
        }
        reader.ExpectEnd();
    } catch (const std::exception& e) {
        *error = "artifact store: certificate " + PathFor(key) + ": " +
                 e.what();
        return Count(LoadStatus::kCorrupt);
    }
    *certificate = std::move(cert);
    return Count(LoadStatus::kHit);
}

bool
ArtifactStore::StoreCertificate(
    const StoreKey& key, const sim::DetectorErrorModel& dem,
    const analysis::DistanceCertificate& certificate,
    std::string* error) const
{
    std::string payload = "dem_digest ";
    payload += DemDigest(dem);
    payload += "\nsearched_weight ";
    payload += std::to_string(certificate.searched_weight);
    payload += certificate.graph_like ? "\ngraph_like 1" : "\ngraph_like 0";
    payload += "\nobservables ";
    payload += std::to_string(certificate.observables.size());
    payload += '\n';
    for (const analysis::ObservableDistance& od : certificate.observables) {
        payload += "obs ";
        payload += std::to_string(od.observable);
        payload += od.found ? " 1 " : " 0 ";
        payload += std::to_string(od.distance);
        payload += od.exact ? " 1" : " 0";
        for (const int m : od.witness) {
            payload += ' ';
            payload += std::to_string(m);
        }
        payload += '\n';
    }
    return WritePayload(key, payload, error);
}

}  // namespace tiqec::store
