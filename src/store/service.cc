#include "store/service.h"

#include "common/json.h"
#include "core/request.h"

namespace tiqec::store {

namespace {

/** Flattens one outcome into a result line. Every field is a pure
 *  deterministic function of the request (the engine's bit-identity
 *  contract), so repeated service runs emit byte-identical lines. */
std::string
ResultLine(const std::string& request, const std::string& label,
           const core::Metrics& m)
{
    common::JsonRecord r;
    r.Add("label", label);
    r.Add("request", request);
    r.Add("ok", m.ok);
    if (!m.ok) {
        r.Add("error", m.error);
        return r.Object();
    }
    r.Add("round_time_us", m.round_time);
    r.Add("shot_time_us", m.shot_time);
    r.Add("movement_ops_per_round", m.movement_ops_per_round);
    r.Add("movement_time_per_round_us", m.movement_time_per_round);
    r.Add("num_traps_used", m.num_traps_used);
    r.Add("mean_two_qubit_error", m.mean_two_qubit_error);
    r.Add("max_two_qubit_error", m.max_two_qubit_error);
    if (m.shots > 0) {
        r.Add("shots", m.shots);
        r.Add("logical_errors", m.logical_errors);
        r.Add("ler_per_shot", m.ler_per_shot.rate);
        r.Add("ler_per_round", m.ler_per_round);
        r.Add("per_observable_errors", m.per_observable_errors);
        r.Add("dem_hyperedges", m.dem_hyperedges);
        r.Add("dem_undecomposable", m.dem_undecomposable);
        r.Add("dem_dropped_probability", m.dem_dropped_probability);
        r.Add("dem_undecomposable_probability",
              m.dem_undecomposable_probability);
    }
    return r.Object();
}

}  // namespace

SweepServiceResult
RunSweepService(const std::string& request_text,
                const SweepServiceOptions& options)
{
    SweepServiceResult result;
    // A malformed line becomes a placeholder result and never reaches
    // the engine.
    const core::RequestBatch batch = core::ReadRequestBatch(request_text);
    result.num_requests = static_cast<int>(batch.requests.size());

    core::SweepRunnerOptions ropts;
    ropts.num_threads = options.num_threads;
    ropts.store = options.store;
    core::SweepRunner runner(ropts);
    // Metrics-only: the service never reads a compile bundle, so the
    // runner drops each one after its last consumer.
    const std::vector<core::Metrics> metrics = runner.Run(batch.candidates);
    result.stats = runner.last_run_stats();

    result.result_lines.reserve(batch.requests.size());
    for (const core::BatchRequest& req : batch.requests) {
        if (!req.parse_error.empty()) {
            result.result_lines.push_back(core::ParseErrorLine(req));
            continue;
        }
        const core::Metrics& m = metrics[req.candidate];
        if (m.ok) {
            ++result.num_ok;
        }
        result.result_lines.push_back(
            ResultLine(req.line, batch.candidates[req.candidate].label, m));
    }

    common::JsonRecord summary;
    summary.Add("summary", true);
    summary.Add("requests", result.num_requests);
    summary.Add("ok", result.num_ok);
    summary.Add("compiles", result.stats.compiles);
    summary.Add("annotates", result.stats.annotates);
    summary.Add("sim_builds", result.stats.sim_builds);
    summary.Add("store_hits", result.stats.store_hits);
    summary.Add("store_misses", result.stats.store_misses);
    summary.Add("store_corrupt", result.stats.store_corrupt);
    summary.Add("store_writes", result.stats.store_writes);
    summary.Add("validations", result.stats.validations);
    summary.Add("validation_failures", result.stats.validation_failures);
    summary.Add("certifies", result.stats.certifies);
    summary.Add("certify_failures", result.stats.certify_failures);
    summary.Add("store_validated", result.stats.store_validated);
    if (options.store != nullptr) {
        summary.Add("store_root", options.store->root());
    }
    result.summary_line = summary.Object();
    return result;
}

}  // namespace tiqec::store
