/**
 * @file
 * Standalone distance certification driver (DESIGN.md §6.5): request
 * file in (same `key=value` line format as the sweep service), JSONL
 * certification report out, JSON run summary on stdout.
 *
 *   tiqec_certify <request-file> <output-jsonl> \
 *       [--store DIR] [--reference] [--max-weight W]
 *
 * The tool is a client of the sweep engine: it reads the batch with
 * `core::ReadRequestBatch`, turns every candidate into a certifying,
 * zero-shot, non-compile-only one, and runs the whole batch through one
 * `SweepRunner::RunDetailed` call on the runner's pool. Each report line
 * is formatted from the candidate's outcome: the per-observable
 * effective distance and witness of its certificate, and the DEM sizes
 * of its sim bundle. Candidates on one sim key share one certificate.
 * With `--store DIR` the runner loads what a previous sweep or certify
 * run built, and computes and persists the rest; the summary counts
 * certificates computed vs loaded. `--max-weight` caps the exhaustive
 * search weight. `--reference` compiles through the paper-faithful
 * reference pipeline; it bypasses `--store` because store keys
 * deliberately do not encode the pipeline choice.
 *
 * Exit status: 0 when every request certified at its expected distance;
 * 2 on usage or I/O errors; 1 otherwise (the JSONL still carries every
 * per-request diagnostic).
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/distance_certifier.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "common/text_format.h"
#include "core/request.h"
#include "core/sweep.h"
#include "store/artifact_store.h"

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

/** The report line of one parsed request. A candidate that failed before
 *  its certificate was judged reports `ok:false` and its error; every
 *  other one reports the certificate, and `certified` says whether it
 *  met the code distance. */
std::string
ReportLine(const std::string& request, const tiqec::core::SweepCandidate& c,
           const tiqec::core::SweepOutcome& outcome, const char* pipeline)
{
    using namespace tiqec;
    common::JsonRecord r;
    r.Add("label", outcome.label);
    r.Add("request", request);
    r.Add("pipeline", pipeline);
    if (outcome.certificate == nullptr) {
        r.Add("ok", false);
        r.Add("error", outcome.metrics.error);
        return r.Object();
    }
    const analysis::DistanceCertificate& cert = *outcome.certificate;
    const sim::DetectorErrorModel& dem = outcome.sim->dem;
    const int expected = c.code->distance();
    r.Add("ok", true);
    r.Add("expected_distance", expected);
    r.Add("rounds", c.options.rounds > 0 ? c.options.rounds : expected);
    r.Add("num_detectors", dem.num_detectors);
    r.Add("num_observables", dem.num_observables);
    r.Add("num_mechanisms",
          static_cast<std::int64_t>(cert.mechanisms.size()));
    r.Add("dem_undecomposable", dem.num_undecomposable);
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
    r.Add("certified", outcome.metrics.ok);
    if (!outcome.metrics.ok) {
        r.Add("error", outcome.metrics.error);
    }
    return r.Object();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string request_path;
    std::string output_path;
    std::string store_dir;
    tiqec::core::SweepRunnerOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
            store_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--reference") == 0) {
            options.reference_compiler = true;
        } else if (std::strcmp(argv[i], "--max-weight") == 0 &&
                   i + 1 < argc) {
            try {
                options.certifier.max_search_weight =
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
    if (!store_dir.empty() && !options.reference_compiler) {
        options.store =
            std::make_shared<tiqec::store::ArtifactStore>(store_dir);
    }

    tiqec::core::RequestBatch batch =
        tiqec::core::ReadRequestBatch(request_text);
    for (tiqec::core::SweepCandidate& c : batch.candidates) {
        c.options.certify_distance = true;
        c.options.max_shots = 0;
        c.options.compile_only = false;
    }
    tiqec::core::SweepRunner runner(options);
    const std::vector<tiqec::core::SweepOutcome> outcomes =
        runner.RunDetailed(batch.candidates);
    const tiqec::core::SweepRunStats& stats = runner.last_run_stats();

    const char* pipeline = options.reference_compiler ? "reference" : "fast";
    int num_certified = 0;
    // Every judged certificate was either computed or loaded.
    std::set<const tiqec::analysis::DistanceCertificate*> judged;
    std::string jsonl;
    for (const tiqec::core::BatchRequest& req : batch.requests) {
        if (!req.parse_error.empty()) {
            jsonl += tiqec::core::ParseErrorLine(req);
        } else {
            const tiqec::core::SweepOutcome& outcome =
                outcomes[req.candidate];
            if (outcome.certificate != nullptr) {
                judged.insert(outcome.certificate.get());
            }
            if (outcome.metrics.ok) {
                ++num_certified;
            }
            jsonl += ReportLine(req.line, batch.candidates[req.candidate],
                                outcome, pipeline);
        }
        jsonl += '\n';
    }

    if (output_path == "-") {
        std::fputs(jsonl.c_str(), stdout);
    } else if (!tiqec::common::AtomicWriteFile(output_path, jsonl,
                                               &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    const int num_requests = static_cast<int>(batch.requests.size());
    tiqec::common::JsonRecord summary;
    summary.Add("summary", true);
    summary.Add("requests", num_requests);
    summary.Add("certified", num_certified);
    summary.Add("pipeline", pipeline);
    summary.Add("certificates_computed", stats.certifies);
    summary.Add("certificates_loaded",
                static_cast<std::int64_t>(judged.size()) - stats.certifies);
    if (options.store != nullptr) {
        summary.Add("store_hits", stats.store_hits);
        summary.Add("store_misses", stats.store_misses);
        summary.Add("store_corrupt", stats.store_corrupt);
        summary.Add("store_writes", stats.store_writes);
        summary.Add("store_validated", stats.store_validated);
        summary.Add("store_root", store_dir);
    }
    std::printf("%s\n", summary.Object().c_str());
    return num_certified == num_requests ? 0 : 1;
}
