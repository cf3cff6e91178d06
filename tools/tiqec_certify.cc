/**
 * @file
 * Standalone distance certification driver (DESIGN.md §6.5): request
 * file in (same `key=value` line format as the sweep service), JSONL
 * certification report out, JSON run summary on stdout.
 *
 *   tiqec_certify <request-file> <output-jsonl> \
 *       [--store DIR] [--reference] [--max-weight W]
 *
 * For every request the tool builds the experiment + DEM exactly like
 * `core::Evaluate` would — with `--store DIR` through the artifact
 * store's key chain (loading what a previous sweep already built,
 * computing and persisting on a miss) — then runs the static distance
 * certifier (with `--store`, loading a stored certificate instead, or
 * persisting the one it computes) and reports the per-observable
 * effective distance and witness. The summary counts certificates
 * computed vs loaded. `--reference` compiles fresh through the
 * paper-faithful reference pipeline instead; it bypasses `--store`
 * because store keys deliberately do not encode the pipeline choice.
 *
 * Exit status: 0 when every request certified at its expected distance;
 * 2 on usage or I/O errors; 1 otherwise (the JSONL still carries every
 * per-request diagnostic).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/distance_certifier.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "common/text_format.h"
#include "compiler/compiler.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "core/toolflow.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace {

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <request-file> <output-jsonl> [--store DIR] "
                 "[--reference] [--max-weight W]\n"
                 "  <output-jsonl> may be '-' for stdout\n",
                 argv0);
    return 2;
}

struct CertifyConfig
{
    std::shared_ptr<const tiqec::store::ArtifactStore> store;
    bool reference = false;
    tiqec::analysis::DistanceCertifierOptions certifier;
};

/** Certificates this run certified vs loaded from the store. */
struct CertificateTally
{
    int computed = 0;
    int loaded = 0;
};

/** Builds the request's sim artifacts the same way the sweep engine
 *  does: through the store's key chain when a store is configured (fast
 *  pipeline only; `*sim_key` receives the sim artifact's key), fresh
 *  otherwise. A program workload compiles and annotates every phase
 *  unit (`core::UnitCodesFor`) and stitches them via
 *  `core::BuildProgramSimArtifacts`. Returns false with a message when
 *  any stage fails or a stored artifact is corrupt. */
bool
BuildArtifacts(const tiqec::core::SweepCandidate& c,
               const CertifyConfig& config, int rounds,
               tiqec::core::SimArtifacts* sim,
               tiqec::store::StoreKey* sim_key, std::string* error)
{
    using namespace tiqec;
    const qec::StabilizerCode& code = *c.code;
    const workloads::WorkloadSpec spec = c.options.workload_spec();
    {
        const std::string err = core::CheckProgramCandidate(code, spec);
        if (!err.empty()) {
            *error = err;
            return false;
        }
    }
    const std::vector<const qec::StabilizerCode*> units =
        core::UnitCodesFor(code, spec);
    const size_t primary =
        spec.program != nullptr
            ? static_cast<size_t>(spec.program->primary_index())
            : 0;

    std::vector<core::CompileArtifacts> arts(units.size());
    std::vector<store::StoreKey> compile_keys(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        const qec::StabilizerCode& unit = *units[u];
        if (config.reference) {
            // CompileCandidate does not expose the reference pipeline;
            // replicate it here with `reference_pipeline = true`.
            arts[u].graph = compiler::MakeDeviceFor(unit, c.arch.topology,
                                                    c.arch.trap_capacity);
            compiler::CompilerOptions copts;
            copts.wise = c.arch.wiring == core::WiringKind::kWise;
            if (copts.wise) {
                copts.cooling_per_two_qubit_gate =
                    arts[u].timing.cooling_per_two_qubit_gate;
            }
            copts.reference_pipeline = true;
            arts[u].compiled = compiler::CompileParityCheckRounds(
                unit, 1, arts[u].graph, arts[u].timing, copts);
            arts[u].ok = arts[u].compiled.ok;
            arts[u].error = arts[u].compiled.error;
        } else if (config.store != nullptr) {
            compile_keys[u] =
                store::CompileStoreKey(unit, c.arch, 1, nullptr);
            std::string err;
            const store::LoadStatus status = config.store->LoadCompile(
                compile_keys[u], unit, c.arch, 1, nullptr, &arts[u], &err);
            if (status == store::LoadStatus::kCorrupt) {
                *error = err;
                return false;
            }
            if (status == store::LoadStatus::kMiss) {
                arts[u] = core::CompileCandidate(unit, c.arch);
                if (arts[u].ok) {
                    config.store->StoreCompile(compile_keys[u], arts[u]);
                }
            }
        } else {
            arts[u] = core::CompileCandidate(unit, c.arch);
        }
        if (!arts[u].ok) {
            *error = arts[u].error;
            return false;
        }
    }

    std::vector<noise::RoundNoiseProfile> profiles(units.size());
    std::vector<store::StoreKey> noise_keys(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        bool have_profile = false;
        if (!config.reference && config.store != nullptr) {
            noise_keys[u] = store::NoiseStoreKey(compile_keys[u],
                                                 c.arch.gate_improvement);
            std::string err;
            const store::LoadStatus status = config.store->LoadNoise(
                noise_keys[u], arts[u].compiled.qec_circuit.size(),
                units[u]->num_qubits(), &profiles[u], &err);
            if (status == store::LoadStatus::kCorrupt) {
                *error = err;
                return false;
            }
            have_profile = status == store::LoadStatus::kHit;
        }
        if (!have_profile) {
            profiles[u] =
                core::AnnotateCandidate(*units[u], c.arch, arts[u]);
            if (!config.reference && config.store != nullptr) {
                config.store->StoreNoise(noise_keys[u], profiles[u]);
            }
        }
    }

    const auto build = [&]() {
        if (spec.program != nullptr) {
            std::vector<core::ProgramUnit> punits;
            punits.reserve(units.size());
            for (size_t u = 0; u < units.size(); ++u) {
                punits.push_back(
                    core::ProgramUnit{units[u], &arts[u], &profiles[u]});
            }
            return core::BuildProgramSimArtifacts(*spec.program, punits,
                                                  c.arch, rounds);
        }
        return core::BuildSimArtifacts(code, arts[primary],
                                       profiles[primary], c.arch, rounds,
                                       spec);
    };
    if (!config.reference && config.store != nullptr) {
        // Same basis normalisation as the sweep runner's sim key: only
        // the memory workload reads the basis.
        const int basis = spec.kind == workloads::WorkloadKind::kMemory
                              ? static_cast<int>(spec.basis)
                              : 0;
        *sim_key = store::SimStoreKey(
            noise_keys[primary], rounds, basis,
            static_cast<int>(spec.kind),
            spec.program != nullptr ? spec.program->canonical_text()
                                    : std::string());
        std::string err;
        const store::LoadStatus status =
            config.store->LoadSim(*sim_key, sim, &err);
        if (status == store::LoadStatus::kCorrupt) {
            *error = err;
            return false;
        }
        if (status == store::LoadStatus::kHit) {
            return true;
        }
        *sim = build();
        config.store->StoreSim(*sim_key, *sim);
        return true;
    }
    *sim = build();
    return true;
}

/** Certifies one request into a report line; returns whether it
 *  certified clean at the expected distance. With a store the
 *  certificate is probed first and persisted on a miss
 *  (`store::LoadOrCertify`, as in the sweep engine's certify stage). */
bool
CertifyRequest(const std::string& line,
               const tiqec::core::SweepCandidate& c,
               const CertifyConfig& config, CertificateTally* tally,
               std::string* report_line)
{
    using namespace tiqec;
    common::JsonRecord r;
    r.Add("label", c.label);
    r.Add("request", line);
    r.Add("pipeline", config.reference ? "reference" : "fast");
    const auto fail = [&](const std::string& error) {
        r.Add("ok", false);
        r.Add("error", error);
        *report_line = r.Object();
        return false;
    };

    const int expected = c.code->distance();
    const int rounds =
        c.options.rounds > 0 ? c.options.rounds : expected;
    core::SimArtifacts sim;
    store::StoreKey sim_key;
    std::string error;
    bool built = false;
    try {
        built = BuildArtifacts(c, config, rounds, &sim, &sim_key, &error);
    } catch (const std::exception& e) {
        error = e.what();
    }
    if (!built) {
        return fail(error);
    }

    analysis::DistanceCertificate cert;
    const store::LoadStatus status = store::LoadOrCertify(
        config.store.get(), sim_key, sim.dem, config.certifier, &cert,
        &error);
    if (status == store::LoadStatus::kCorrupt) {
        return fail(error);
    }
    ++(status == store::LoadStatus::kHit ? tally->loaded : tally->computed);
    const std::vector<analysis::Diagnostic> diags =
        analysis::JudgeDistance(sim.dem, cert, expected);
    r.Add("ok", true);
    r.Add("expected_distance", expected);
    r.Add("rounds", rounds);
    r.Add("num_detectors", sim.dem.num_detectors);
    r.Add("num_observables", sim.dem.num_observables);
    r.Add("num_mechanisms",
          static_cast<std::int64_t>(cert.mechanisms.size()));
    r.Add("dem_undecomposable", sim.dem.num_undecomposable);
    r.Add("graph_like", cert.graph_like);
    r.Add("searched_weight", cert.searched_weight);

    std::vector<std::int64_t> distances;
    std::vector<std::int64_t> exact;
    std::int64_t effective = -1;
    const analysis::ObservableDistance* min_obs = nullptr;
    for (const analysis::ObservableDistance& od : cert.observables) {
        distances.push_back(od.found ? od.distance : -1);
        exact.push_back(od.exact ? 1 : 0);
        if (od.found && (effective < 0 || od.distance < effective)) {
            effective = od.distance;
            min_obs = &od;
        }
    }
    r.Add("per_observable_distance", distances);
    r.Add("per_observable_exact", exact);
    r.Add("effective_distance", effective);
    if (min_obs != nullptr) {
        r.Add("witness", analysis::FormatWitness(cert, min_obs->witness));
    }
    const bool certified = diags.empty();
    r.Add("certified", certified);
    if (!certified) {
        r.Add("error", analysis::FormatDiagnostics(
                           analysis::kCertifySubject, diags));
    }
    *report_line = r.Object();
    return certified;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string request_path;
    std::string output_path;
    std::string store_dir;
    CertifyConfig config;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
            store_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--reference") == 0) {
            config.reference = true;
        } else if (std::strcmp(argv[i], "--max-weight") == 0 &&
                   i + 1 < argc) {
            try {
                config.certifier.max_search_weight =
                    tiqec::text::ParseInt32(argv[i + 1], "--max-weight");
            } catch (const std::exception& e) {
                std::fprintf(stderr, "%s\n", e.what());
                return Usage(argv[0]);
            }
            ++i;
        } else if (request_path.empty()) {
            request_path = argv[i];
        } else if (output_path.empty()) {
            output_path = argv[i];
        } else {
            return Usage(argv[0]);
        }
    }
    if (request_path.empty() || output_path.empty()) {
        return Usage(argv[0]);
    }

    std::string request_text;
    std::string error;
    if (!tiqec::common::ReadFile(request_path, &request_text, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (!store_dir.empty() && !config.reference) {
        config.store =
            std::make_shared<tiqec::store::ArtifactStore>(store_dir);
    }

    int num_requests = 0;
    int num_certified = 0;
    CertificateTally tally;
    std::string jsonl;
    std::istringstream stream(request_text);
    std::string line;
    while (std::getline(stream, line)) {
        tiqec::text::StripCr(line);
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        ++num_requests;
        tiqec::core::SweepCandidate candidate;
        std::string parse_error;
        std::string report;
        if (!tiqec::core::ParseRequestCandidate(line, &candidate,
                                                &parse_error)) {
            tiqec::common::JsonRecord r;
            r.Add("label", "");
            r.Add("request", line);
            r.Add("ok", false);
            r.Add("error", "request parse: " + parse_error);
            report = r.Object();
        } else if (CertifyRequest(line, candidate, config, &tally,
                                  &report)) {
            ++num_certified;
        }
        jsonl += report;
        jsonl += '\n';
    }

    if (output_path == "-") {
        std::fputs(jsonl.c_str(), stdout);
    } else if (!tiqec::common::AtomicWriteFile(output_path, jsonl,
                                               &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    tiqec::common::JsonRecord summary;
    summary.Add("summary", true);
    summary.Add("requests", num_requests);
    summary.Add("certified", num_certified);
    summary.Add("pipeline", config.reference ? "reference" : "fast");
    summary.Add("certificates_computed", tally.computed);
    summary.Add("certificates_loaded", tally.loaded);
    if (config.store != nullptr) {
        const tiqec::store::ArtifactStore::Counters counters =
            config.store->counters();
        summary.Add("store_hits", counters.hits);
        summary.Add("store_misses", counters.misses);
        summary.Add("store_corrupt", counters.corrupt);
        summary.Add("store_writes", counters.writes);
        summary.Add("store_validated", counters.validated);
        summary.Add("store_root", config.store->root());
    }
    std::printf("%s\n", summary.Object().c_str());
    return num_certified == num_requests ? 0 : 1;
}
