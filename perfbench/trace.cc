/**
 * @file
 * Traced per-layer driver of the benchmark (perfbench/README.md): runs
 * every request of one or more request files on one thread through the
 * library's public stage entry points and times each call.
 *
 *   perfbench_trace --trace FILE --results FILE [--store DIR]
 *                   PASS=REQUEST_FILE...
 *
 * Each request gets a span (layer "core", trace id `PASS/<index>`) with
 * one child span per stage call: compile, annotate, experiment build,
 * DEM extraction, validation, certification, frame sampling, decoder
 * construction and batch decode, and store load/persist. The spans are
 * kept in memory and written as Chrome trace-event JSON when the run
 * ends; `--results` gets one JSON line per request (the fields the
 * sweep service reports for it), so the caller can check that the
 * traced run computed what the untraced service did.
 *
 * `--store DIR` attaches an artifact store the way the service does: a
 * load probe before each compile / annotate / build-sim stage (a hit
 * skips the stage) and a persist after each computed artifact. Spans of
 * work the service would not do (the plain-decoder probe that
 * `decoder.correlated_over_plain` divides by) carry `"extra":1`.
 *
 * Exit status: 0 when every request ran (failed candidates included), 2
 * on usage or I/O errors.
 */
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "common/text_format.h"
#include "core/pipeline.h"
#include "core/request.h"
#include "decoder/union_find_decoder.h"
#include "sim/parallel_sampler.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "workloads/experiment.h"

namespace {

using namespace tiqec;
using Clock = std::chrono::steady_clock;

/** One completed span: a request, or one stage call inside it. */
struct Span
{
    std::string name;
    std::string layer;
    std::string trace_id;
    int id = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool extra = false;
    common::JsonRecord args;
};

class Tracer
{
  public:
    /** Starts a span; returns its id. Close it with `End`. */
    int
    Begin(const std::string& name, const std::string& layer,
          const std::string& trace_id, int parent, bool extra = false)
    {
        Span span;
        span.name = name;
        span.layer = layer;
        span.trace_id = trace_id;
        span.id = static_cast<int>(spans_.size());
        span.parent = parent;
        span.extra = extra;
        span.start = Clock::now();
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    /** Ends span `id`; returns it so the caller can attach counts. */
    Span&
    End(int id)
    {
        Span& span = spans_[static_cast<size_t>(id)];
        span.end = Clock::now();
        return span;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    std::string
    ToJson() const
    {
        const Clock::time_point origin =
            spans_.empty() ? Clock::now() : spans_.front().start;
        const auto us = [](Clock::duration d) {
            return std::chrono::duration<double, std::micro>(d).count();
        };
        std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            common::JsonRecord args;
            args.Add("trace_id", s.trace_id);
            args.Add("span_id", s.id);
            args.Add("parent_id", s.parent);
            args.Add("extra", s.extra ? 1 : 0);
            common::JsonRecord event;
            event.Add("name", s.name);
            event.Add("cat", s.layer);
            event.Add("ph", "X");
            event.Add("ts", us(s.start - origin));
            event.Add("dur", us(s.end - s.start));
            event.Add("pid", 1);
            event.Add("tid", 1);
            std::string body = args.body();
            if (!s.args.body().empty()) {
                body += ",";
                body += s.args.body();
            }
            out += "{" + event.body() + ",\"args\":{" + body + "}}";
            out += i + 1 < spans_.size() ? ",\n" : "\n";
        }
        out += "]}\n";
        return out;
    }

  private:
    std::vector<Span> spans_;
};

struct Options
{
    std::string trace_path;
    std::string results_path;
    std::string store_dir;
    std::vector<std::pair<std::string, std::string>> passes;
};

/** Runs one request with spans under `trace_id`; appends its result. */
class RequestRunner
{
  public:
    RequestRunner(Tracer& tracer, const store::ArtifactStore* store)
        : tracer_(tracer), store_(store)
    {
    }

    std::string Run(const std::string& line, const std::string& trace_id);

  private:
    /** With `--store`, probes the store before a stage; true on a hit,
     *  which skips the stage. */
    template <typename Load>
    bool
    Probe(const std::string& name, const store::StoreKey& key,
          const Load& load)
    {
        if (store_ == nullptr) {
            return false;
        }
        const int id =
            tracer_.Begin(name + "_load", "store", trace_id_, request_);
        const store::LoadStatus status = load();
        Span& span = tracer_.End(id);
        span.args.Add("key", key.FileName());
        span.args.Add("hit", status == store::LoadStatus::kHit ? 1 : 0);
        return status == store::LoadStatus::kHit;
    }

    /** With `--store`, persists a computed artifact. */
    template <typename Write>
    void
    Persist(const std::string& name, const store::StoreKey& key,
            const Write& persist)
    {
        if (store_ == nullptr) {
            return;
        }
        const int id =
            tracer_.Begin(name + "_persist", "store", trace_id_, request_);
        persist();
        Span& span = tracer_.End(id);
        std::error_code ec;
        const auto bytes =
            std::filesystem::file_size(store_->PathFor(key), ec);
        span.args.Add("key", key.FileName());
        span.args.Add(
            "bytes", ec ? std::int64_t{0} : static_cast<std::int64_t>(bytes));
    }

    Tracer& tracer_;
    const store::ArtifactStore* store_;
    std::string trace_id_;
    int request_ = -1;
};

std::string
RequestRunner::Run(const std::string& line, const std::string& trace_id)
{
    trace_id_ = trace_id;
    request_ = tracer_.Begin("request", "core", trace_id, -1);
    common::JsonRecord result;
    result.Add("trace_id", trace_id);
    const auto finish = [&](const std::string& label, bool ok,
                            const std::string& error) {
        result.Add("label", label);
        result.Add("ok", ok);
        if (!ok) {
            result.Add("error", error);
        }
        tracer_.End(request_);
        return result.Object();
    };

    core::SweepCandidate c;
    std::string error;
    if (!core::ParseRequestCandidate(line, &c, &error)) {
        return finish("", false, "request parse: " + error);
    }
    const workloads::WorkloadSpec spec = c.options.workload_spec();
    error = core::CheckProgramCandidate(*c.code, spec);
    if (!error.empty()) {
        return finish(c.label, false, error);
    }
    const std::vector<const qec::StabilizerCode*> units =
        core::UnitCodesFor(*c.code, spec);
    const size_t primary =
        spec.program != nullptr
            ? static_cast<size_t>(spec.program->primary_index())
            : 0;
    const int rounds =
        c.options.rounds > 0 ? c.options.rounds : c.code->distance();
    const bool wise = c.arch.wiring == core::WiringKind::kWise;

    // ---- compile (+ validate) every unit.
    std::vector<core::CompileArtifacts> arts(units.size());
    std::vector<store::StoreKey> compile_keys(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        const qec::StabilizerCode& unit = *units[u];
        // Computed with or without a store: the ledger counts unique
        // compile contents by it.
        compile_keys[u] = store::CompileStoreKey(unit, c.arch,
                                                 c.compile_rounds,
                                                 c.device.get());
        const auto load = [&](core::CompileArtifacts* out) {
            std::string err;
            return store_->LoadCompile(compile_keys[u], unit, c.arch,
                                       c.compile_rounds, c.device.get(),
                                       out, &err);
        };
        if (Probe("compile", compile_keys[u], [&] { return load(&arts[u]); })) {
            continue;
        }
        const int id = tracer_.Begin("compile", "compiler", trace_id,
                                     request_);
        arts[u] = core::CompileCandidate(unit, c.arch, c.compile_rounds,
                                         c.device.get());
        Span& span = tracer_.End(id);
        span.args.Add("key", compile_keys[u].FileName());
        span.args.Add(
            "scheduled_ops",
            static_cast<std::int64_t>(arts[u].compiled.schedule.ops.size()));
        if (!arts[u].ok) {
            return finish(c.label, false, arts[u].error);
        }
        Persist("compile", compile_keys[u],
                [&] { store_->StoreCompile(compile_keys[u], arts[u]); });
    }
    if (c.options.validate_artifacts) {
        for (const core::CompileArtifacts& unit_arts : arts) {
            const int id = tracer_.Begin("validate_compile", "analysis",
                                         trace_id, request_);
            const std::vector<analysis::Diagnostic> diags =
                analysis::ValidateCompiledArtifacts(
                    unit_arts.compiled, unit_arts.graph, unit_arts.timing,
                    wise);
            tracer_.End(id);
            if (!diags.empty()) {
                return finish(c.label, false,
                              analysis::FormatDiagnostics(
                                  analysis::kCompiledSubject, diags));
            }
        }
    }

    // ---- annotate every unit (one-round compilations only).
    std::vector<noise::RoundNoiseProfile> profiles(units.size());
    if (c.compile_rounds == 1) {
        for (size_t u = 0; u < units.size(); ++u) {
            store::StoreKey key;
            if (store_ != nullptr) {
                key = store::NoiseStoreKey(compile_keys[u],
                                           c.arch.gate_improvement);
            }
            const auto load = [&](noise::RoundNoiseProfile* out) {
                std::string err;
                return store_->LoadNoise(
                    key, arts[u].compiled.qec_circuit.size(),
                    units[u]->num_qubits(), out, &err);
            };
            if (Probe("noise", key, [&] { return load(&profiles[u]); })) {
                continue;
            }
            const int id =
                tracer_.Begin("annotate", "noise", trace_id, request_);
            try {
                profiles[u] =
                    core::AnnotateCandidate(*units[u], c.arch, arts[u]);
            } catch (const std::exception& e) {
                tracer_.End(id);
                return finish(c.label, false, e.what());
            }
            tracer_.End(id);
            Persist("noise", key,
                    [&] { store_->StoreNoise(key, profiles[u]); });
        }
    }
    core::Metrics metrics;
    core::FillCompileMetrics(*c.code, c.arch, arts[primary],
                             c.compile_rounds == 1 ? &profiles[primary]
                                                   : nullptr,
                             rounds, metrics);
    result.Add("round_time_us", metrics.round_time);
    result.Add("movement_ops_per_round", metrics.movement_ops_per_round);
    result.Add("num_traps_used", metrics.num_traps_used);
    if (c.options.compile_only) {
        return finish(c.label, true, "");
    }

    // ---- experiment + DEM.
    core::SimArtifacts sim_arts;
    store::StoreKey sim_key;
    if (store_ != nullptr) {
        const int basis = spec.kind == workloads::WorkloadKind::kMemory
                              ? static_cast<int>(spec.basis)
                              : 0;
        sim_key = store::SimStoreKey(
            store::NoiseStoreKey(compile_keys[primary],
                                 c.arch.gate_improvement),
            rounds, basis, static_cast<int>(spec.kind),
            spec.program != nullptr ? spec.program->canonical_text()
                                    : std::string());
    }
    const auto load_sim = [&](core::SimArtifacts* out) {
        std::string err;
        return store_->LoadSim(sim_key, out, &err);
    };
    if (!Probe("sim", sim_key, [&] { return load_sim(&sim_arts); })) {
        int id = tracer_.Begin("experiment", "sim", trace_id, request_);
        try {
            if (spec.program != nullptr) {
                std::vector<workloads::BoundProgram::PhaseCircuit> phases;
                for (size_t u = 0; u < units.size(); ++u) {
                    phases.push_back(
                        {&arts[u].compiled.qec_circuit, &profiles[u]});
                }
                sim_arts.experiment = spec.program->Build(
                    phases, core::NoiseParamsFor(c.arch), rounds);
            } else {
                sim_arts.experiment = workloads::BuildExperiment(
                    *c.code, arts[0].compiled.qec_circuit, profiles[0],
                    core::NoiseParamsFor(c.arch), rounds, spec);
            }
        } catch (const std::exception& e) {
            tracer_.End(id);
            return finish(c.label, false, e.what());
        }
        tracer_.End(id);
        id = tracer_.Begin("dem", "sim", trace_id, request_);
        sim_arts.dem = sim::BuildDem(sim_arts.experiment);
        Span& dem_span = tracer_.End(id);
        dem_span.args.Add("detectors", sim_arts.dem.num_detectors);
        dem_span.args.Add("edges",
                          static_cast<int>(sim_arts.dem.edges.size()));
        dem_span.args.Add("hyperedges", sim_arts.dem.num_hyperedges);
        Persist("sim", sim_key,
                [&] { store_->StoreSim(sim_key, sim_arts); });
    }
    if (c.options.validate_artifacts) {
        const int id =
            tracer_.Begin("validate_sim", "analysis", trace_id, request_);
        const std::vector<analysis::Diagnostic> diags =
            analysis::ValidateSimArtifacts(
                sim_arts.experiment, sim_arts.dem,
                analysis::SimValidationOptionsFor(*c.code, spec));
        tracer_.End(id);
        if (!diags.empty()) {
            return finish(c.label, false,
                          analysis::FormatDiagnostics(analysis::kSimSubject,
                                                      diags));
        }
    }
    if (c.options.certify_distance) {
        const int id =
            tracer_.Begin("certify", "analysis", trace_id, request_);
        analysis::DistanceCertificate certificate;
        const std::vector<analysis::Diagnostic> diags =
            analysis::CheckDistance(sim_arts.dem, c.code->distance(), {},
                                    &certificate);
        Span& span = tracer_.End(id);
        span.args.Add("searched_weight", certificate.searched_weight);
        span.args.Add("failed", diags.empty() ? 0 : 1);
        if (!diags.empty()) {
            return finish(c.label, false,
                          analysis::FormatDiagnostics(
                              analysis::kCertifySubject, diags));
        }
    }

    // ---- Monte Carlo: sample the whole budget, then decode it.
    if (c.options.max_shots > 0) {
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.num_threads = 1;
        sopts.shard_shots = c.options.shard_shots;
        int id = tracer_.Begin("sample", "sim", trace_id, request_);
        sim::ParallelSampler sampler(sim_arts.experiment, sopts);
        const sim::SampleBatch batch = sampler.Sample(c.options.max_shots);
        tracer_.End(id).args.Add("shots", c.options.max_shots);

        const auto decode = [&](bool correlated, bool extra,
                                std::vector<std::uint64_t>& predictions) {
            const std::string suffix = correlated ? "" : "_plain";
            int span = tracer_.Begin("decoder_build" + suffix, "decoder",
                                     trace_id, request_, extra);
            decoder::UnionFindDecoder uf(
                sim_arts.dem, decoder::UnionFindDecoder::Options{correlated});
            tracer_.End(span);
            span = tracer_.Begin("decode" + suffix, "decoder", trace_id,
                                 request_, extra);
            const auto outcome = uf.DecodeBatch(batch, predictions);
            tracer_.End(span).args.Add("decoded_shots",
                                       outcome.decoded_shots);
        };
        std::vector<std::uint64_t> predictions;
        try {
            decode(c.options.correlated, false, predictions);
            if (c.options.correlated) {
                std::vector<std::uint64_t> plain;
                decode(false, true, plain);
            }
        } catch (const std::exception& e) {
            return finish(c.label, false, e.what());
        }
        std::int64_t logical_errors = 0;
        std::vector<std::int64_t> per_obs(
            static_cast<size_t>(batch.num_observables()), 0);
        const size_t words = static_cast<size_t>(batch.words());
        for (int w = 0; w < batch.words(); ++w) {
            const std::uint64_t valid = batch.WordValidMask(w);
            std::uint64_t mismatch = 0;
            for (int o = 0; o < batch.num_observables(); ++o) {
                const std::uint64_t diff =
                    predictions[static_cast<size_t>(o) * words +
                                static_cast<size_t>(w)] ^
                    batch.ObservableWord(o, w);
                per_obs[static_cast<size_t>(o)] += std::popcount(diff & valid);
                mismatch |= diff;
            }
            logical_errors += std::popcount(mismatch & valid);
        }
        result.Add("shots", c.options.max_shots);
        result.Add("logical_errors", logical_errors);
        result.Add("per_observable_errors", per_obs);
    }
    return finish(c.label, true, "");
}

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --trace FILE --results FILE [--store DIR] "
                 "PASS=REQUEST_FILE...\n",
                 argv0);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace" && i + 1 < argc) {
            opts.trace_path = argv[++i];
        } else if (arg == "--results" && i + 1 < argc) {
            opts.results_path = argv[++i];
        } else if (arg == "--store" && i + 1 < argc) {
            opts.store_dir = argv[++i];
        } else if (const size_t eq = arg.find('=');
                   eq != std::string::npos && eq > 0 && arg[0] != '-') {
            opts.passes.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
        } else {
            return Usage(argv[0]);
        }
    }
    if (opts.trace_path.empty() || opts.results_path.empty() ||
        opts.passes.empty()) {
        return Usage(argv[0]);
    }

    std::unique_ptr<store::ArtifactStore> astore;
    if (!opts.store_dir.empty()) {
        astore = std::make_unique<store::ArtifactStore>(opts.store_dir);
    }
    Tracer tracer;
    RequestRunner runner(tracer, astore.get());
    std::string results;
    for (const auto& [pass, path] : opts.passes) {
        std::string text;
        std::string error;
        if (!common::ReadFile(path, &text, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        std::istringstream stream(text);
        std::string line;
        int index = 0;
        while (std::getline(stream, line)) {
            text::StripCr(line);
            const size_t first = line.find_first_not_of(" \t");
            if (first == std::string::npos || line[first] == '#') {
                continue;
            }
            results += runner.Run(line, pass + "/" + std::to_string(index++));
            results += '\n';
        }
    }
    std::string error;
    if (!common::AtomicWriteFile(opts.trace_path, tracer.ToJson(), &error) ||
        !common::AtomicWriteFile(opts.results_path, results, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    return 0;
}
