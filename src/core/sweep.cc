#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "analysis/analysis.h"
#include "common/stats.h"
#include "common/worker_pool.h"
#include "decoder/union_find_decoder.h"
#include "sim/dem.h"
#include "sim/parallel_sampler.h"
#include "store/artifact_store.h"
#include "store/keys.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::core {

namespace {

/** Everything the compile stage depends on, by content: an index into
 *  the run's table of distinct `store::CompileStoreKey` strings (unit
 *  code, device, topology, capacity, wiring, compile_rounds). Two
 *  (candidate, unit) pairs share a compile iff their contents are
 *  equal, even when every request parsed its own code object. For a
 *  program candidate the units are the program's phase codes
 *  (`UnitCodesFor`); everything else has one unit, the candidate's own
 *  code. */
using CompileKey = size_t;
/** + the noise scenario (the profile depends on the improvement factor
 *  and, through the compile key's wiring, on WISE cooling). */
using NoiseKey = std::tuple<CompileKey, double /*gate_improvement*/>;
/** + the experiment shape. The workload joins `rounds` and `basis` in
 *  the key (not the compile/noise keys): a memory, a stability, and a
 *  surgery candidate on the same merged code and device share the
 *  compiled schedule and noise profile and differ only here. The
 *  leading NoiseKey is the candidate's *primary* unit; the trailing
 *  string is the bound program's canonical text (empty for every other
 *  workload), so two candidates share a stitched program circuit iff
 *  their programs are equal. */
using SimKey = std::tuple<NoiseKey, int /*rounds*/, int /*basis*/,
                          int /*workload*/, std::string /*program*/>;

SimKey
SimKeyOf(const NoiseKey& primary_nk, const workloads::WorkloadSpec& spec,
         int rounds)
{
    // Only the memory workload reads the basis; normalising it out of
    // the key for surgery/stability/program keeps basis-varying
    // candidate lists sharing one experiment/DEM entry.
    const int basis = spec.kind == workloads::WorkloadKind::kMemory
                          ? static_cast<int>(spec.basis)
                          : 0;
    return {primary_nk, rounds, basis, static_cast<int>(spec.kind),
            spec.program != nullptr ? spec.program->canonical_text()
                                    : std::string()};
}

/** One unique compile, run on the first (candidate, unit) pair whose
 *  content key it is. Entries live in a deque: the atomics and the
 *  once_flag pin them in place. */
struct CompileEntry
{
    const SweepCandidate* exemplar = nullptr;
    const qec::StabilizerCode* unit = nullptr;
    store::StoreKey key;
    /** The bundle; a metrics-only run drops it after its last consumer. */
    std::shared_ptr<CompileArtifacts> arts;
    /** The store served the bundle, so its load ran the schedule rules. */
    bool loaded = false;
    /** The candidates whose compile chain waits on this compile, once
     *  per referencing unit, in candidate order. */
    std::vector<size_t> waiters;
    /** Readers of `arts` still to come: one per referencing unit for its
     *  candidate's compile chain, plus one more per unit of a candidate
     *  that may go on to build a simulation from it. */
    std::atomic<int> consumers{0};
    /** Schedule validation, run by the first validating candidate that
     *  needs it: empty on a pass, else the formatted diagnostics. */
    std::once_flag validate_once;
    std::string validation;
};

/** One unique annotation, run by the first candidate that needs it. */
struct NoiseEntry
{
    std::once_flag once;
    bool ok = false;
    std::string error;
    noise::RoundNoiseProfile profile;
};

/** One unique experiment + DEM, run on the first candidate (by index)
 *  that needs it. Candidates sharing the entry share code content and
 *  workload, so the exemplar also stands in for the checks. */
struct SimEntry
{
    size_t exemplar = 0;
    /** Null until built or loaded; `error` says why it stayed null. */
    std::shared_ptr<const SimArtifacts> arts;
    std::string error;
    /** The store served the bundle, so its load ran the workload-blind
     *  circuit and DEM rules. */
    bool loaded = false;
    /** The entry's store key (set only when a store is attached). */
    store::StoreKey store_key;
    /** Sim-validation and certification verdicts, as for
     *  `CompileEntry::validation`. */
    std::optional<std::string> validation;
    std::optional<std::string> certification;
    /** The judged certificate; null unless certification reached the
     *  verdict. */
    std::shared_ptr<const analysis::DistanceCertificate> certificate;
};

/** Per-candidate Monte-Carlo state driven by the shared pool. A decode
 *  failure marks only this candidate; the sweep proceeds. */
struct ShardState
{
    std::unique_ptr<sim::LerShardRun> run;
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::string error;
};

/** Claims indices [0, n) off an atomic counter across the pool. */
template <typename Fn>
void
ParallelForIndex(int num_threads, std::int64_t n, const Fn& fn)
{
    std::atomic<std::int64_t> next{0};
    RunWorkers(num_threads, n, [&]() {
        for (;;) {
            const std::int64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) {
                return;
            }
            fn(i);
        }
    });
}

/** Runs `fn(key, entry)` once per entry of `map` across the pool. */
template <typename Map, typename Fn>
void
ParallelForEachEntry(int num_threads, Map& map, const Fn& fn)
{
    std::vector<typename Map::value_type*> entries;
    entries.reserve(map.size());
    for (auto& entry : map) {
        entries.push_back(&entry);
    }
    const auto count = static_cast<std::int64_t>(entries.size());
    ParallelForIndex(num_threads, count, [&](std::int64_t t) {
        fn(entries[t]->first, entries[t]->second);
    });
}

int
RoundsOf(const SweepCandidate& c)
{
    return c.options.rounds > 0 ? c.options.rounds : c.code->distance();
}

}  // namespace

SweepRunner::SweepRunner(const SweepRunnerOptions& options)
    : options_(options)
{
}

std::vector<SweepOutcome>
SweepRunner::Execute(const std::vector<SweepCandidate>& candidates,
                     bool keep_bundles)
{
    const int threads = ResolveWorkerThreads(options_.num_threads);
    const size_t n = candidates.size();
    std::vector<SweepOutcome> outcomes(n);

    // Per-run work accounting. Stage executions are counted at the
    // compute sites (a cache or store hit performs none); store probe
    // outcomes come from diffing the store's monotonic counters around
    // the run.
    last_run_stats_ = SweepRunStats{};
    std::atomic<std::int64_t> num_compiles{0};
    std::atomic<std::int64_t> num_annotates{0};
    std::atomic<std::int64_t> num_sim_builds{0};
    std::atomic<std::int64_t> num_validations{0};
    std::atomic<std::int64_t> num_validation_failures{0};
    std::atomic<std::int64_t> num_certifies{0};
    std::atomic<std::int64_t> num_certify_failures{0};
    std::atomic<std::int64_t> live_bundles{0};
    std::atomic<std::int64_t> peak_bundles{0};
    const store::ArtifactStore* astore = options_.store.get();
    const store::ArtifactStore::Counters store_before =
        astore != nullptr ? astore->counters()
                          : store::ArtifactStore::Counters{};

    // `failed[i]` is candidate i's error. Each stage fills it right after
    // it runs, for the candidates it failed, and every later stage skips
    // a failed candidate; so the reported error is the first failure
    // along the chain, and within a stage the first failing unit in
    // `UnitCodesFor` order. Malformed candidates fail up front.
    std::vector<std::optional<std::string>> failed(n);
    std::vector<std::vector<const qec::StabilizerCode*>> units(n);
    // Content keys, one per (candidate, unit): `unit_keys[i][u]` indexes
    // `compiles`, the distinct canonical compile keys in first-seen
    // order. CodeFingerprint serialises the whole code, so each key is
    // built and hashed once here, never per lookup.
    std::vector<std::vector<CompileKey>> unit_keys(n);
    std::vector<CompileKey> primary_key(n, 0);
    std::deque<CompileEntry> compiles;
    std::unordered_map<std::string, CompileKey> compile_ids;
    // Unit compiles each candidate still waits for.
    std::vector<std::atomic<size_t>> pending(n);
    // `unit_noise[i][u]` is the noise entry of (candidate, unit) for a
    // one-round candidate; entries are annotated only when a candidate
    // that has passed its compile checks reaches them.
    std::map<NoiseKey, NoiseEntry> noise_cache;
    std::vector<std::vector<NoiseEntry*>> unit_noise(n);
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!c.code) {
            failed[i] = "candidate has no code";
            continue;
        }
        if (c.compile_rounds < 1) {
            failed[i] = "compile_rounds must be >= 1";
            continue;
        }
        if (c.compile_rounds != 1 && !c.options.compile_only) {
            failed[i] = "multi-round compilation is compile-only (the "
                        "noise annotator requires a one-round schedule)";
            continue;
        }
        if (c.options.certify_distance && c.options.compile_only) {
            failed[i] = "distance certification needs a simulation (it "
                        "certifies the DEM, which compile-only skips)";
            continue;
        }
        const workloads::WorkloadSpec& spec = c.options.workload;
        std::string spec_error = CheckProgramCandidate(*c.code, spec);
        if (!spec_error.empty()) {
            failed[i] = std::move(spec_error);
            continue;
        }
        units[i] = UnitCodesFor(*c.code, spec);
        for (const qec::StabilizerCode* unit : units[i]) {
            store::StoreKey key = store::CompileStoreKey(
                *unit, c.arch, c.compile_rounds, c.device.get());
            const auto [it, inserted] =
                compile_ids.try_emplace(key.canonical, compiles.size());
            if (inserted) {
                CompileEntry& entry = compiles.emplace_back();
                entry.exemplar = &c;
                entry.unit = unit;
                entry.key = std::move(key);
            }
            CompileEntry& entry = compiles[it->second];
            entry.waiters.push_back(i);
            entry.consumers.fetch_add(c.options.compile_only ? 1 : 2,
                                      std::memory_order_relaxed);
            unit_keys[i].push_back(it->second);
            if (c.compile_rounds == 1) {
                unit_noise[i].push_back(&noise_cache[NoiseKey{
                    it->second, c.arch.gate_improvement}]);
            }
        }
        pending[i].store(units[i].size(), std::memory_order_relaxed);
        const int primary =
            spec.program != nullptr ? spec.program->primary_index() : 0;
        primary_key[i] = unit_keys[i][static_cast<size_t>(primary)];
    }

    // A consumer is done with compile entry `ck`. In a metrics-only run
    // the last one drops the bundle, so a compile-only sweep holds about
    // one bundle per worker instead of every bundle of the batch.
    const auto release = [&](CompileKey ck) {
        CompileEntry& entry = compiles[ck];
        if (entry.consumers.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            !keep_bundles) {
            entry.arts.reset();
            live_bundles.fetch_sub(1, std::memory_order_relaxed);
        }
    };

    // ---- Stage 1: compile once per unique key. With a store attached,
    // each unique compile probes the store first: a hit skips the
    // compiler entirely, a corrupt artifact isolates the candidate with
    // the store's diagnostic (exactly like a compile error) and is
    // discarded, as in every stage, so the next run recomputes it; a
    // miss compiles and persists the successful bundle.
    const auto compile = [&](CompileEntry& entry) {
        const SweepCandidate& c = *entry.exemplar;
        entry.arts = std::make_shared<CompileArtifacts>();
        const std::int64_t live =
            live_bundles.fetch_add(1, std::memory_order_relaxed) + 1;
        std::int64_t peak = peak_bundles.load(std::memory_order_relaxed);
        while (live > peak &&
               !peak_bundles.compare_exchange_weak(peak, live)) {
        }
        CompileArtifacts& arts = *entry.arts;
        if (astore != nullptr) {
            std::string err;
            const store::LoadStatus status = astore->LoadCompile(
                entry.key, *entry.unit, c.arch, c.compile_rounds,
                c.device.get(), &arts, &err);
            if (status == store::LoadStatus::kHit) {
                entry.loaded = true;
                return;
            }
            if (status == store::LoadStatus::kCorrupt) {
                astore->Discard(entry.key);
                arts = CompileArtifacts{};
                arts.error = err;
                return;
            }
        }
        arts = CompileCandidate(*entry.unit, c.arch, c.compile_rounds,
                                c.device.get(), options_.reference_compiler);
        num_compiles.fetch_add(1, std::memory_order_relaxed);
        if (astore != nullptr && arts.ok) {
            astore->StoreCompile(entry.key, arts);
        }
    };

    // ---- Stage 1b: validate each compile a validating candidate needs,
    // once. A failure fails only the validating candidates (the cached
    // artifacts stay shared), with the formatted diagnostics as error.
    // A store hit's load already ran these rules on the same arguments
    // and passed, so its verdict is counted, not recomputed.
    const auto validate = [&](CompileEntry& entry) {
        num_validations.fetch_add(1, std::memory_order_relaxed);
        if (entry.loaded) {
            return;
        }
        // The key covers the wiring, so the exemplar's will do.
        const CompileArtifacts& arts = *entry.arts;
        const std::vector<analysis::Diagnostic> diags =
            analysis::ValidateCompiledArtifacts(
                arts.compiled, arts.graph, arts.timing,
                entry.exemplar->arch.wiring == WiringKind::kWise);
        if (!diags.empty()) {
            num_validation_failures.fetch_add(1, std::memory_order_relaxed);
            entry.validation = analysis::FormatDiagnostics(
                analysis::kCompiledSubject, diags);
        }
    };

    // ---- Stage 2: annotate once per unique noise scenario (per unit).
    // The key covers the unit's content, wiring and improvement factor,
    // so the first candidate to arrive annotates for all of them.
    const auto annotate = [&](NoiseEntry& entry, CompileKey ck,
                              const SweepCandidate& c,
                              const qec::StabilizerCode& unit) {
        const CompileEntry& comp = compiles[ck];
        store::StoreKey nkey;
        if (astore != nullptr) {
            nkey = store::NoiseStoreKey(comp.key, c.arch.gate_improvement);
            std::string err;
            const store::LoadStatus status = astore->LoadNoise(
                nkey, comp.arts->compiled.qec_circuit.size(),
                unit.num_qubits(), &entry.profile, &err);
            if (status == store::LoadStatus::kHit) {
                entry.ok = true;
                return;
            }
            if (status == store::LoadStatus::kCorrupt) {
                astore->Discard(nkey);
                entry.error = err;
                return;
            }
        }
        try {
            entry.profile = AnnotateCandidate(unit, c.arch, *comp.arts);
            num_annotates.fetch_add(1, std::memory_order_relaxed);
            entry.ok = true;
            if (astore != nullptr) {
                astore->StoreNoise(nkey, entry.profile);
            }
        } catch (const std::exception& e) {
            entry.error = e.what();
        }
    };

    // Candidate i's compile chain, run by the worker that finishes its
    // last unit compile: the compile check, schedule validation,
    // annotation and compile metrics, each checking the units in
    // `UnitCodesFor` order. The compile metrics are filled here, so a
    // candidate that fails a later stage still reports them.
    const auto finish_compile_chain = [&](size_t i) {
        const SweepCandidate& c = candidates[i];
        for (const CompileKey ck : unit_keys[i]) {
            if (!failed[i] && !compiles[ck].arts->ok) {
                failed[i] = compiles[ck].arts->error;
            }
        }
        if (!failed[i] && c.options.validate_artifacts) {
            for (const CompileKey ck : unit_keys[i]) {
                CompileEntry& entry = compiles[ck];
                std::call_once(entry.validate_once,
                               [&] { validate(entry); });
            }
            for (const CompileKey ck : unit_keys[i]) {
                if (!failed[i] && !compiles[ck].validation.empty()) {
                    failed[i] = compiles[ck].validation;
                }
            }
        }
        const noise::RoundNoiseProfile* profile = nullptr;
        if (!failed[i] && c.compile_rounds == 1) {
            for (size_t u = 0; u < units[i].size(); ++u) {
                NoiseEntry& entry = *unit_noise[i][u];
                std::call_once(entry.once, [&] {
                    annotate(entry, unit_keys[i][u], c, *units[i][u]);
                });
            }
            for (const NoiseEntry* entry : unit_noise[i]) {
                if (!failed[i] && !entry->ok) {
                    failed[i] = entry->error;
                }
            }
            const NoiseKey primary{primary_key[i], c.arch.gate_improvement};
            profile = &noise_cache.at(primary).profile;
        }
        if (!failed[i]) {
            FillCompileMetrics(*c.code, c.arch, *compiles[primary_key[i]].arts,
                               profile, RoundsOf(c), outcomes[i].metrics);
        }
        // The chain is done with each unit, and a candidate that will
        // not build a simulation gives up its sim-stage reads too.
        const bool sim_read_unused = !c.options.compile_only && failed[i];
        for (const CompileKey ck : unit_keys[i]) {
            release(ck);
            if (sim_read_unused) {
                release(ck);
            }
        }
    };

    // Stages 1-2 stream: workers claim unique compiles, and each
    // finished compile runs the compile chain of every candidate it was
    // the last missing unit of. The largest compiles (by rounds times
    // qubits) are claimed first, so the batch does not end with one
    // worker compiling and validating a large block alone.
    std::vector<CompileEntry*> claim_order;
    claim_order.reserve(compiles.size());
    for (CompileEntry& entry : compiles) {
        claim_order.push_back(&entry);
    }
    const auto cost = [](const CompileEntry* entry) {
        return std::int64_t{entry->exemplar->compile_rounds} *
               entry->unit->num_qubits();
    };
    std::stable_sort(claim_order.begin(), claim_order.end(),
                     [&](const CompileEntry* a, const CompileEntry* b) {
                         return cost(a) > cost(b);
                     });
    ParallelForIndex(
        threads, static_cast<std::int64_t>(compiles.size()),
        [&](std::int64_t t) {
            CompileEntry& entry = *claim_order[static_cast<size_t>(t)];
            compile(entry);
            for (const size_t i : entry.waiters) {
                if (pending[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
                    finish_compile_chain(i);
                }
            }
        });

    // ---- Stage 3: experiment + DEM once per unique experiment shape.
    // The primary unit's noise key leads the sim key; a program
    // candidate additionally needs every phase unit's artifacts, which
    // the exemplar's candidate index recovers.
    std::map<SimKey, SimEntry> sim_cache;
    std::vector<SimEntry*> sims(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (failed[i] || c.options.compile_only) {
            continue;
        }
        const auto [it, inserted] = sim_cache.try_emplace(
            SimKeyOf(NoiseKey{primary_key[i], c.arch.gate_improvement},
                     c.options.workload, RoundsOf(c)));
        if (inserted) {
            it->second.exemplar = i;
        }
        sims[i] = &it->second;
    }
    const auto build_sim = [&](const SimKey& sk, SimEntry& entry) {
        const size_t i = entry.exemplar;
        const SweepCandidate& c = candidates[i];
        const workloads::WorkloadSpec& spec = c.options.workload;
        const NoiseKey& nk = std::get<0>(sk);
        const CompileEntry& comp = compiles[std::get<0>(nk)];
        auto arts = std::make_shared<SimArtifacts>();
        if (astore != nullptr) {
            // The store key is built off the in-memory key, so the
            // store shares exactly what the cache shares.
            entry.store_key = store::SimStoreKey(
                store::NoiseStoreKey(comp.key, std::get<1>(nk)),
                std::get<1>(sk), std::get<2>(sk), std::get<3>(sk),
                std::get<4>(sk));
            std::string err;
            const store::LoadStatus status =
                astore->LoadSim(entry.store_key, arts.get(), &err);
            if (status == store::LoadStatus::kHit) {
                entry.arts = std::move(arts);
                entry.loaded = true;
                return;
            }
            if (status == store::LoadStatus::kCorrupt) {
                astore->Discard(entry.store_key);
                entry.error = err;
                return;
            }
        }
        try {
            if (spec.program != nullptr) {
                // Stitch every phase round into the program's circuit
                // (DESIGN.md §5.4); the phases align with `units[i]`.
                std::vector<workloads::BoundProgram::PhaseCircuit> phases;
                phases.reserve(units[i].size());
                for (size_t u = 0; u < units[i].size(); ++u) {
                    const CompileArtifacts& unit_arts =
                        *compiles[unit_keys[i][u]].arts;
                    phases.push_back({&unit_arts.compiled.qec_circuit,
                                      &unit_noise[i][u]->profile});
                }
                arts->experiment = spec.program->Build(
                    phases, NoiseParamsFor(c.arch), RoundsOf(c));
            } else {
                arts->experiment = workloads::BuildExperiment(
                    *c.code, comp.arts->compiled.qec_circuit,
                    noise_cache.at(nk).profile, NoiseParamsFor(c.arch),
                    RoundsOf(c), spec);
            }
            arts->dem = sim::BuildDem(arts->experiment);
            num_sim_builds.fetch_add(1, std::memory_order_relaxed);
            entry.arts = std::move(arts);
            if (astore != nullptr) {
                astore->StoreSim(entry.store_key, *entry.arts);
            }
        } catch (const std::exception& e) {
            entry.error = e.what();
        }
    };
    ParallelForEachEntry(threads, sim_cache, build_sim);
    // The sim builds were the last readers of their candidates' bundles.
    for (size_t i = 0; i < n; ++i) {
        if (sims[i] != nullptr) {
            for (const CompileKey ck : unit_keys[i]) {
                release(ck);
            }
        }
    }
    // From here on, only candidates that reached the sim stage and have
    // not failed are live.
    const auto simulated = [&](size_t i) {
        return sims[i] != nullptr && !failed[i];
    };
    for (size_t i = 0; i < n; ++i) {
        if (simulated(i)) {
            outcomes[i].sim = sims[i]->arts;
            if (sims[i]->arts == nullptr) {
                failed[i] = sims[i]->error;
            }
        }
    }

    // ---- Stage 3b: validate the simulation artifacts once per sim
    // entry any validating candidate needs (circuit + DEM rules, plus
    // the workload-aware unreferenced-record check). A store hit passed
    // the rest when it loaded, so the record check alone gives the same
    // list.
    const auto sim_validating = [&](size_t i) {
        return simulated(i) && candidates[i].options.validate_artifacts;
    };
    for (size_t i = 0; i < n; ++i) {
        if (sim_validating(i)) {
            sims[i]->validation.emplace();
        }
    }
    const auto validate_sim = [&](const SimKey&, SimEntry& entry) {
        if (!entry.validation) {
            return;
        }
        const SweepCandidate& c = candidates[entry.exemplar];
        const analysis::SimValidationOptions options =
            analysis::SimValidationOptionsFor(*c.code, c.options.workload);
        const std::vector<analysis::Diagnostic> diags =
            entry.loaded ? analysis::ValidateRecordCoverage(
                               entry.arts->experiment, options)
                         : analysis::ValidateSimArtifacts(
                               entry.arts->experiment, entry.arts->dem,
                               options);
        num_validations.fetch_add(1, std::memory_order_relaxed);
        if (!diags.empty()) {
            num_validation_failures.fetch_add(1, std::memory_order_relaxed);
            *entry.validation = analysis::FormatDiagnostics(
                analysis::kSimSubject, diags);
        }
    };
    ParallelForEachEntry(threads, sim_cache, validate_sim);
    for (size_t i = 0; i < n; ++i) {
        if (sim_validating(i) && !sims[i]->validation->empty()) {
            failed[i] = *sims[i]->validation;
        }
    }

    // ---- Stage 3c: certify the effective fault distance once per sim
    // entry any certifying candidate needs. With a store attached the
    // certificate is probed first: a hit skips the certifier, a corrupt
    // one isolates the candidate with the store's diagnostic, and a miss
    // certifies and persists. Computed or loaded, one `JudgeDistance`
    // call judges it against the code distance, so cold and warm runs
    // fail with byte-identical text; a sub-distance (or uncertifiable)
    // result isolates the candidate exactly like a compile error.
    const auto certifying = [&](size_t i) {
        return simulated(i) && candidates[i].options.certify_distance;
    };
    for (size_t i = 0; i < n; ++i) {
        if (certifying(i)) {
            sims[i]->certification.emplace();
        }
    }
    const auto certify = [&](const SimKey&, SimEntry& entry) {
        if (!entry.certification) {
            return;
        }
        auto cert = std::make_shared<analysis::DistanceCertificate>();
        store::StoreKey key;
        bool loaded = false;
        if (astore != nullptr) {
            // A certificate is a function of the DEM and the search
            // weight the certifier applies, so that weight keys it.
            key = store::CertificateStoreKey(
                entry.store_key,
                analysis::SearchWeightFor(options_.certifier));
            std::string err;
            const store::LoadStatus status = astore->LoadCertificate(
                key, entry.arts->dem, cert.get(), &err);
            if (status == store::LoadStatus::kCorrupt) {
                astore->Discard(key);
                *entry.certification = err;
                return;
            }
            loaded = status == store::LoadStatus::kHit;
        }
        if (!loaded) {
            *cert = analysis::CertifyDistance(entry.arts->dem,
                                              options_.certifier);
            num_certifies.fetch_add(1, std::memory_order_relaxed);
            if (astore != nullptr) {
                astore->StoreCertificate(key, entry.arts->dem, *cert);
            }
        }
        const int distance = candidates[entry.exemplar].code->distance();
        const std::vector<analysis::Diagnostic> diags =
            analysis::JudgeDistance(entry.arts->dem, *cert, distance);
        if (!diags.empty()) {
            num_certify_failures.fetch_add(1, std::memory_order_relaxed);
            *entry.certification = analysis::FormatDiagnostics(
                analysis::kCertifySubject, diags);
        }
        entry.certificate = std::move(cert);
    };
    ParallelForEachEntry(threads, sim_cache, certify);
    for (size_t i = 0; i < n; ++i) {
        if (certifying(i)) {
            outcomes[i].certificate = sims[i]->certificate;
            if (!sims[i]->certification->empty()) {
                failed[i] = *sims[i]->certification;
            }
        }
    }

    // ---- Stage 4: interleave every candidate's Monte-Carlo shards on
    // the shared pool. Each candidate's shard streams and in-order
    // commit logic are its own (sim::LerShardRun), so the totals are
    // bit-identical for every pool width.
    std::vector<std::unique_ptr<ShardState>> shard_states(n);
    std::vector<size_t> active;
    std::int64_t total_shards = 0;
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!simulated(i) || c.options.max_shots <= 0) {
            continue;
        }
        auto state = std::make_unique<ShardState>();
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.shard_shots = c.options.shard_shots;
        sopts.correlated = c.options.correlated;
        try {
            state->run = std::make_unique<sim::LerShardRun>(
                sims[i]->arts->experiment, sims[i]->arts->dem, sopts,
                c.options.max_shots, c.options.target_logical_errors);
        } catch (const std::exception& e) {
            failed[i] = e.what();
            continue;
        }
        total_shards += state->run->num_shards();
        active.push_back(i);
        shard_states[i] = std::move(state);
    }
    if (!active.empty()) {
        std::atomic<int> cursor{0};
        auto worker = [&]() {
            // Per-worker decoders, one per candidate this worker has
            // touched: decode scratch never crosses threads, and a
            // worker sticks with a candidate while it has claimable
            // shards before rotating on (cache-friendly interleave).
            std::map<size_t, decoder::UnionFindDecoder> decoders;
            const size_t m = active.size();
            const size_t offset = static_cast<size_t>(
                cursor.fetch_add(1, std::memory_order_relaxed)) % m;
            for (;;) {
                bool progressed = false;
                for (size_t j = 0; j < m; ++j) {
                    const size_t i = active[(offset + j) % m];
                    ShardState& st = *shard_states[i];
                    if (st.failed.load(std::memory_order_relaxed) ||
                        !st.run->HasClaimableWork()) {
                        continue;
                    }
                    try {
                        auto it = decoders.find(i);
                        if (it == decoders.end()) {
                            it = decoders
                                     .emplace(
                                         i,
                                         decoder::UnionFindDecoder(
                                             st.run->dem(),
                                             decoder::UnionFindDecoder::
                                                 Options{st.run
                                                             ->correlated()}))
                                     .first;
                        }
                        while (st.run->RunOneShard(it->second)) {
                            progressed = true;
                        }
                    } catch (const std::exception& e) {
                        st.failed.store(true, std::memory_order_relaxed);
                        std::lock_guard<std::mutex> lock(st.mu);
                        if (st.error.empty()) {
                            st.error = e.what();
                        }
                        progressed = true;
                    }
                }
                if (!progressed) {
                    return;
                }
            }
        };
        RunWorkers(threads, total_shards, worker);
    }

    // ---- Assemble outcomes in candidate order. When bundles are kept,
    // the reported compile artifacts are the primary unit's; a candidate
    // rejected before compiling gets a stub that carries its error.
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        SweepOutcome& out = outcomes[i];
        Metrics& metrics = out.metrics;
        out.label = c.label;
        if (keep_bundles && unit_keys[i].empty()) {
            auto stub = std::make_shared<CompileArtifacts>();
            stub->error = *failed[i];
            out.compile = std::move(stub);
        } else if (keep_bundles) {
            out.compile = compiles[primary_key[i]].arts;
        }
        ShardState* st = shard_states[i].get();
        if (st != nullptr && st->failed.load(std::memory_order_relaxed)) {
            failed[i] = st->error;
        }
        if (failed[i]) {
            metrics.error = *failed[i];
            continue;
        }
        metrics.ok = true;
        if (sims[i] == nullptr) {
            continue;  // compile-only
        }
        // A non-positive budget reports an empty estimate; its sim
        // artifacts are still built, checked and reported on. Every
        // rate is a Wilson interval over the committed shots.
        sim::LogicalErrorEstimate run =
            st != nullptr ? st->run->Finish() : sim::LogicalErrorEstimate{};
        const auto shots = static_cast<std::uint64_t>(run.shots);
        metrics.shots = run.shots;
        metrics.logical_errors = run.logical_errors;
        metrics.ler_per_shot = WilsonInterval(
            static_cast<std::uint64_t>(run.logical_errors), shots);
        const double p = metrics.ler_per_shot.rate;
        metrics.ler_per_round =
            p < 1.0 ? 1.0 - std::pow(1.0 - p, 1.0 / RoundsOf(c)) : 1.0;
        for (const std::int64_t e : run.per_observable_errors) {
            metrics.per_observable_ler.push_back(
                WilsonInterval(static_cast<std::uint64_t>(e), shots));
        }
        metrics.per_observable_errors = std::move(run.per_observable_errors);
        const sim::DetectorErrorModel& dem = sims[i]->arts->dem;
        metrics.dem_hyperedges = dem.num_hyperedges;
        metrics.dem_undecomposable = dem.num_undecomposable;
        metrics.dem_dropped_probability = dem.dropped_probability;
        metrics.dem_undecomposable_probability =
            dem.undecomposable_probability;
    }

    last_run_stats_.compiles = num_compiles.load();
    last_run_stats_.annotates = num_annotates.load();
    last_run_stats_.sim_builds = num_sim_builds.load();
    last_run_stats_.validations = num_validations.load();
    last_run_stats_.validation_failures = num_validation_failures.load();
    last_run_stats_.certifies = num_certifies.load();
    last_run_stats_.certify_failures = num_certify_failures.load();
    last_run_stats_.peak_compile_bundles = peak_bundles.load();
    if (astore != nullptr) {
        const store::ArtifactStore::Counters after = astore->counters();
        last_run_stats_.store_hits = after.hits - store_before.hits;
        last_run_stats_.store_misses = after.misses - store_before.misses;
        last_run_stats_.store_corrupt = after.corrupt - store_before.corrupt;
        last_run_stats_.store_writes = after.writes - store_before.writes;
        last_run_stats_.store_validated =
            after.validated - store_before.validated;
    }
    return outcomes;
}

std::vector<SweepOutcome>
SweepRunner::RunDetailed(const std::vector<SweepCandidate>& candidates)
{
    return Execute(candidates, /*keep_bundles=*/true);
}

std::vector<Metrics>
SweepRunner::Run(const std::vector<SweepCandidate>& candidates)
{
    std::vector<SweepOutcome> outcomes =
        Execute(candidates, /*keep_bundles=*/false);
    std::vector<Metrics> metrics;
    metrics.reserve(outcomes.size());
    for (auto& outcome : outcomes) {
        metrics.push_back(std::move(outcome.metrics));
    }
    return metrics;
}

}  // namespace tiqec::core
