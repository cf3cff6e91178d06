#include "core/sweep.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "analysis/analysis.h"
#include "common/worker_pool.h"
#include "decoder/union_find_decoder.h"
#include "sim/parallel_sampler.h"
#include "store/artifact_store.h"
#include "store/keys.h"

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

struct NoiseEntry
{
    bool ok = false;
    std::string error;
    noise::RoundNoiseProfile profile;
};

struct SimEntry
{
    bool ok = false;
    std::string error;
    SimArtifacts arts;
    /** The entry's store key (set only when a store is attached). */
    store::StoreKey store_key;
};

/** Per-candidate Monte-Carlo state driven by the shared pool. A decode
 *  failure marks only this candidate; the sweep proceeds. */
struct ShardState
{
    std::unique_ptr<sim::LerShardRun> run;
    int rounds = 1;
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
SweepRunner::RunDetailed(const std::vector<SweepCandidate>& candidates)
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
    const store::ArtifactStore* astore = options_.store.get();
    const store::ArtifactStore::Counters store_before =
        astore != nullptr ? astore->counters()
                          : store::ArtifactStore::Counters{};

    // Reject malformed candidates up front; everything else flows through
    // the staged cache. `invalid[i]` short-circuits the later phases.
    // The program-shape check is `CheckProgramCandidate`, shared with the
    // serial `Evaluate` so both paths fail with byte-identical text.
    std::vector<std::string> invalid(n);
    std::vector<workloads::WorkloadSpec> specs(n);
    std::vector<std::vector<const qec::StabilizerCode*>> units(n);
    std::vector<size_t> primary(n, 0);
    // Content keys, one per (candidate, unit): `unit_keys[i][u]` indexes
    // `compile_keys`, the distinct canonical compile-key strings in
    // first-seen order, whose first (candidate, unit) is the exemplar the
    // compile stage runs on. CodeFingerprint serialises the whole code,
    // so each string is built and hashed once here, never per lookup.
    std::vector<std::vector<CompileKey>> unit_keys(n);
    std::vector<store::StoreKey> compile_keys;
    using UnitExemplar =
        std::pair<const SweepCandidate*, const qec::StabilizerCode*>;
    std::vector<UnitExemplar> compile_exemplar;
    std::unordered_map<std::string, CompileKey> compile_ids;
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!c.code) {
            invalid[i] = "candidate has no code";
            continue;
        }
        if (c.compile_rounds < 1) {
            invalid[i] = "compile_rounds must be >= 1";
            continue;
        }
        if (c.compile_rounds != 1 && !c.options.compile_only) {
            invalid[i] = "multi-round compilation is compile-only (the "
                         "noise annotator requires a one-round schedule)";
            continue;
        }
        specs[i] = c.options.workload_spec();
        invalid[i] = CheckProgramCandidate(*c.code, specs[i]);
        if (!invalid[i].empty()) {
            continue;
        }
        units[i] = UnitCodesFor(*c.code, specs[i]);
        if (specs[i].program != nullptr) {
            primary[i] =
                static_cast<size_t>(specs[i].program->primary_index());
        }
        for (const qec::StabilizerCode* unit : units[i]) {
            store::StoreKey key = store::CompileStoreKey(
                *unit, c.arch, c.compile_rounds, c.device.get());
            const auto [it, inserted] =
                compile_ids.try_emplace(key.canonical, compile_keys.size());
            if (inserted) {
                compile_keys.push_back(std::move(key));
                compile_exemplar.emplace_back(&c, unit);
            }
            unit_keys[i].push_back(it->second);
        }
    }

    // ---- Stage 1: compile once per unique key, pool-parallel. With a
    // store attached, each unique compile probes the store first: a hit
    // skips the compiler entirely, a corrupt artifact isolates the
    // candidate with the store's diagnostic (exactly like a compile
    // error), and a miss compiles and persists the successful bundle.
    std::vector<std::shared_ptr<CompileArtifacts>> compile_cache(
        compile_keys.size());
    ParallelForIndex(
        threads, static_cast<std::int64_t>(compile_keys.size()),
        [&](std::int64_t t) {
            const auto k = static_cast<CompileKey>(t);
            const auto& [candidate, unit] = compile_exemplar[k];
            const SweepCandidate& c = *candidate;
            auto arts = std::make_shared<CompileArtifacts>();
            compile_cache[k] = arts;
            if (astore != nullptr) {
                std::string err;
                const store::LoadStatus status = astore->LoadCompile(
                    compile_keys[k], *unit, c.arch, c.compile_rounds,
                    c.device.get(), arts.get(), &err);
                if (status == store::LoadStatus::kHit) {
                    return;
                }
                if (status == store::LoadStatus::kCorrupt) {
                    *arts = CompileArtifacts{};
                    arts->error = err;
                    return;
                }
            }
            *arts = CompileCandidate(*unit, c.arch, c.compile_rounds,
                                     c.device.get());
            num_compiles.fetch_add(1, std::memory_order_relaxed);
            if (astore != nullptr && arts->ok) {
                astore->StoreCompile(compile_keys[k], *arts);
            }
        });

    // ---- Stage 1b: artifact validation once per compile key that any
    // validating candidate references. A failure gates only candidates
    // with validate_artifacts set (the cached artifacts stay shared), and
    // its formatted diagnostics flow through failure isolation exactly
    // like a compile error — byte-identical to the serial Evaluate path.
    std::map<CompileKey, std::string> compile_validation;
    {
        for (size_t i = 0; i < n; ++i) {
            if (invalid[i].empty() &&
                candidates[i].options.validate_artifacts) {
                for (const CompileKey ck : unit_keys[i]) {
                    if (compile_cache[ck]->ok) {
                        compile_validation.try_emplace(ck);
                    }
                }
            }
        }
        std::vector<std::pair<CompileKey, std::string*>> tasks;
        tasks.reserve(compile_validation.size());
        for (auto& [key, error] : compile_validation) {
            tasks.emplace_back(key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                // The key covers the wiring, so any exemplar's will do.
                const CompileKey ck = tasks[t].first;
                const CompileArtifacts& arts = *compile_cache[ck];
                const std::vector<analysis::Diagnostic> diags =
                    analysis::ValidateCompiledArtifacts(
                        arts.compiled, arts.graph, arts.timing,
                        compile_exemplar[ck].first->arch.wiring ==
                            WiringKind::kWise);
                num_validations.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    num_validation_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kCompiledSubject, diags);
                }
            });
    }
    // Per-candidate gates over every unit, in `UnitCodesFor` order — the
    // same order the serial `Evaluate` walks its unit loops, so the first
    // failing unit (and hence the reported error text) matches
    // byte-for-byte. Single-unit candidates reduce to the old
    // one-key checks.
    const auto unit_compile_error = [&](size_t i) -> const std::string* {
        for (const CompileKey ck : unit_keys[i]) {
            const CompileArtifacts& arts = *compile_cache[ck];
            if (!arts.ok) {
                return &arts.error;
            }
        }
        return nullptr;
    };
    const auto unit_validation_error = [&](size_t i) -> const std::string* {
        if (!candidates[i].options.validate_artifacts) {
            return nullptr;
        }
        for (const CompileKey ck : unit_keys[i]) {
            const auto it = compile_validation.find(ck);
            if (it != compile_validation.end() && !it->second.empty()) {
                return &it->second;
            }
        }
        return nullptr;
    };

    // ---- Stage 2: annotate once per unique noise scenario (per unit).
    std::map<NoiseKey, NoiseEntry> noise_cache;
    {
        std::map<NoiseKey, UnitExemplar> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.compile_rounds != 1) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr) {
                continue;
            }
            for (size_t u = 0; u < units[i].size(); ++u) {
                const NoiseKey nk{unit_keys[i][u], c.arch.gate_improvement};
                noise_cache.try_emplace(nk);
                exemplar.try_emplace(nk, UnitExemplar{&c, units[i][u]});
            }
        }
        std::vector<std::pair<const NoiseKey*, NoiseEntry*>> tasks;
        tasks.reserve(noise_cache.size());
        for (auto& [key, entry] : noise_cache) {
            tasks.emplace_back(&key, &entry);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const auto& [candidate, unit] = exemplar.at(*tasks[t].first);
                const SweepCandidate& c = *candidate;
                NoiseEntry& entry = *tasks[t].second;
                const CompileKey ck = std::get<0>(*tasks[t].first);
                const CompileArtifacts& comp = *compile_cache[ck];
                store::StoreKey nkey;
                if (astore != nullptr) {
                    nkey = store::NoiseStoreKey(compile_keys[ck],
                                                c.arch.gate_improvement);
                    std::string err;
                    const store::LoadStatus status = astore->LoadNoise(
                        nkey, comp.compiled.qec_circuit.size(),
                        unit->num_qubits(), &entry.profile, &err);
                    if (status == store::LoadStatus::kHit) {
                        entry.ok = true;
                        return;
                    }
                    if (status == store::LoadStatus::kCorrupt) {
                        entry.error = err;
                        return;
                    }
                }
                try {
                    entry.profile = AnnotateCandidate(*unit, c.arch, comp);
                    num_annotates.fetch_add(1, std::memory_order_relaxed);
                    entry.ok = true;
                    if (astore != nullptr) {
                        astore->StoreNoise(nkey, entry.profile);
                    }
                } catch (const std::exception& e) {
                    entry.error = e.what();
                }
            });
    }
    const auto unit_noise_error = [&](size_t i) -> const std::string* {
        for (const CompileKey ck : unit_keys[i]) {
            const NoiseEntry& entry = noise_cache.at(
                NoiseKey{ck, candidates[i].arch.gate_improvement});
            if (!entry.ok) {
                return &entry.error;
            }
        }
        return nullptr;
    };

    // ---- Stage 3: experiment + DEM once per unique experiment shape.
    // The primary unit's noise key leads the sim key; a program
    // candidate additionally needs every phase unit's artifacts, which
    // the exemplar's candidate index recovers.
    const auto primary_nk_of = [&](size_t i) {
        return NoiseKey{unit_keys[i][primary[i]],
                        candidates[i].arch.gate_improvement};
    };
    std::map<SimKey, SimEntry> sim_cache;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            sim_cache.try_emplace(sk);
            exemplar.try_emplace(sk, i);
        }
        std::vector<std::pair<const SimKey*, SimEntry*>> tasks;
        tasks.reserve(sim_cache.size());
        for (auto& [key, entry] : sim_cache) {
            tasks.emplace_back(&key, &entry);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const SimKey& sk = *tasks[t].first;
                const size_t i = exemplar.at(sk);
                const SweepCandidate& c = candidates[i];
                SimEntry& entry = *tasks[t].second;
                const NoiseKey& nk = std::get<0>(sk);
                const CompileKey ck = std::get<0>(nk);
                if (astore != nullptr) {
                    // The store key is built off the in-memory key, so
                    // the store shares exactly what the cache shares.
                    entry.store_key = store::SimStoreKey(
                        store::NoiseStoreKey(compile_keys[ck],
                                             std::get<1>(nk)),
                        std::get<1>(sk), std::get<2>(sk), std::get<3>(sk),
                        std::get<4>(sk));
                    std::string err;
                    const store::LoadStatus status =
                        astore->LoadSim(entry.store_key, &entry.arts, &err);
                    if (status == store::LoadStatus::kHit) {
                        entry.ok = true;
                        return;
                    }
                    if (status == store::LoadStatus::kCorrupt) {
                        entry.error = err;
                        return;
                    }
                }
                try {
                    if (specs[i].program != nullptr) {
                        std::vector<ProgramUnit> punits;
                        punits.reserve(units[i].size());
                        for (size_t u = 0; u < units[i].size(); ++u) {
                            const CompileKey uck = unit_keys[i][u];
                            punits.push_back(ProgramUnit{
                                units[i][u], compile_cache[uck].get(),
                                &noise_cache
                                     .at(NoiseKey{uck,
                                                  c.arch.gate_improvement})
                                     .profile});
                        }
                        entry.arts = BuildProgramSimArtifacts(
                            *specs[i].program, punits, c.arch, RoundsOf(c));
                    } else {
                        entry.arts = BuildSimArtifacts(
                            *c.code, *compile_cache[ck],
                            noise_cache.at(nk).profile, c.arch, RoundsOf(c),
                            specs[i]);
                    }
                    num_sim_builds.fetch_add(1, std::memory_order_relaxed);
                    entry.ok = true;
                    if (astore != nullptr) {
                        astore->StoreSim(entry.store_key, entry.arts);
                    }
                } catch (const std::exception& e) {
                    entry.error = e.what();
                }
            });
    }

    // ---- Stage 3b: validate the simulation artifacts once per sim key
    // any validating candidate references (circuit + DEM rules, plus the
    // workload-aware unreferenced-record check). Candidates sharing a
    // sim key share code content and workload, so the exemplar's
    // validation options are the key's options.
    std::map<SimKey, std::string> sim_validation;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1 || !c.options.validate_artifacts) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            if (sim_cache.at(sk).ok) {
                sim_validation.try_emplace(sk);
                exemplar.try_emplace(sk, i);
            }
        }
        std::vector<std::pair<const SimKey*, std::string*>> tasks;
        tasks.reserve(sim_validation.size());
        for (auto& [key, error] : sim_validation) {
            tasks.emplace_back(&key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const size_t i = exemplar.at(*tasks[t].first);
                const SweepCandidate& c = candidates[i];
                const SimEntry& entry = sim_cache.at(*tasks[t].first);
                const std::vector<analysis::Diagnostic> diags =
                    analysis::ValidateSimArtifacts(
                        entry.arts.experiment, entry.arts.dem,
                        analysis::SimValidationOptionsFor(*c.code,
                                                          specs[i]));
                num_validations.fetch_add(1, std::memory_order_relaxed);
                if (!diags.empty()) {
                    num_validation_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kSimSubject, diags);
                }
            });
    }
    const auto sim_invalidated = [&](const SweepCandidate& c,
                                     const SimKey& sk) {
        if (!c.options.validate_artifacts) {
            return false;
        }
        const auto it = sim_validation.find(sk);
        return it != sim_validation.end() && !it->second.empty();
    };

    // ---- Stage 3c: certify the effective fault distance once per sim
    // key any certifying candidate references. With a store attached the
    // certificate is probed first: a hit skips the certifier, a corrupt
    // one isolates the candidate with the store's diagnostic, and a miss
    // certifies and persists. Computed or loaded, one `JudgeDistance`
    // call judges it against the code distance, so cold and warm runs
    // fail with byte-identical text; a sub-distance (or uncertifiable)
    // result isolates the candidate exactly like a compile error,
    // byte-identical to the serial Evaluate path.
    const analysis::DistanceCertifierOptions certifier;
    std::map<SimKey, std::string> sim_certification;
    {
        std::map<SimKey, size_t> exemplar;
        for (size_t i = 0; i < n; ++i) {
            const SweepCandidate& c = candidates[i];
            if (!invalid[i].empty() || c.options.compile_only ||
                c.compile_rounds != 1 || !c.options.certify_distance) {
                continue;
            }
            if (unit_compile_error(i) != nullptr ||
                unit_validation_error(i) != nullptr ||
                unit_noise_error(i) != nullptr) {
                continue;
            }
            const SimKey sk =
                SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
            if (sim_cache.at(sk).ok && !sim_invalidated(c, sk)) {
                sim_certification.try_emplace(sk);
                exemplar.try_emplace(sk, i);
            }
        }
        std::vector<std::pair<const SimKey*, std::string*>> tasks;
        tasks.reserve(sim_certification.size());
        for (auto& [key, error] : sim_certification) {
            tasks.emplace_back(&key, &error);
        }
        ParallelForIndex(
            threads, static_cast<std::int64_t>(tasks.size()),
            [&](std::int64_t t) {
                const SweepCandidate& c =
                    candidates[exemplar.at(*tasks[t].first)];
                const SimEntry& entry = sim_cache.at(*tasks[t].first);
                analysis::DistanceCertificate cert;
                std::string err;
                const store::LoadStatus status = store::LoadOrCertify(
                    astore, entry.store_key, entry.arts.dem, certifier,
                    &cert, &err);
                if (status == store::LoadStatus::kCorrupt) {
                    *tasks[t].second = err;
                    return;
                }
                if (status == store::LoadStatus::kMiss) {
                    num_certifies.fetch_add(1, std::memory_order_relaxed);
                }
                const std::vector<analysis::Diagnostic> diags =
                    analysis::JudgeDistance(entry.arts.dem, cert,
                                            c.code->distance());
                if (!diags.empty()) {
                    num_certify_failures.fetch_add(
                        1, std::memory_order_relaxed);
                    *tasks[t].second = analysis::FormatDiagnostics(
                        analysis::kCertifySubject, diags);
                }
            });
    }
    const auto certify_failed = [&](const SweepCandidate& c,
                                    const SimKey& sk) {
        if (!c.options.certify_distance) {
            return false;
        }
        const auto it = sim_certification.find(sk);
        return it != sim_certification.end() && !it->second.empty();
    };

    // ---- Stage 4: interleave every candidate's Monte-Carlo shards on
    // the shared pool. Each candidate's shard streams and in-order
    // commit logic are its own (sim::LerShardRun), so the totals are
    // bit-identical to a serial Evaluate loop for every pool width.
    std::vector<std::unique_ptr<ShardState>> shard_states(n);
    std::vector<size_t> active;
    std::int64_t total_shards = 0;
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        if (!invalid[i].empty() || c.options.compile_only ||
            c.compile_rounds != 1 || c.options.max_shots <= 0) {
            continue;
        }
        if (unit_compile_error(i) != nullptr ||
            unit_validation_error(i) != nullptr ||
            unit_noise_error(i) != nullptr) {
            continue;
        }
        const SimKey sk = SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
        const SimEntry& sim_entry = sim_cache.at(sk);
        if (!sim_entry.ok || sim_invalidated(c, sk) ||
            certify_failed(c, sk)) {
            continue;
        }
        auto state = std::make_unique<ShardState>();
        state->rounds = RoundsOf(c);
        sim::ParallelSamplerOptions sopts;
        sopts.seed = c.options.seed;
        sopts.shard_shots = c.options.shard_shots;
        sopts.decode_path = c.options.decode_path;
        sopts.correlated = c.options.correlated;
        try {
            state->run = std::make_unique<sim::LerShardRun>(
                sim_entry.arts.experiment, sim_entry.arts.dem, sopts,
                c.options.max_shots, c.options.target_logical_errors);
        } catch (const std::exception& e) {
            state->failed.store(true, std::memory_order_relaxed);
            state->error = e.what();
        }
        if (state->run) {
            total_shards += state->run->num_shards();
            active.push_back(i);
        }
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

    // ---- Assemble outcomes in candidate order.
    auto failed_stub = [](const std::string& error) {
        auto stub = std::make_shared<CompileArtifacts>();
        stub->error = error;
        return stub;
    };
    for (size_t i = 0; i < n; ++i) {
        const SweepCandidate& c = candidates[i];
        SweepOutcome& out = outcomes[i];
        out.label = c.label;
        Metrics& metrics = out.metrics;
        if (!invalid[i].empty()) {
            metrics.error = invalid[i];
            out.compile = failed_stub(invalid[i]);
            continue;
        }
        // The candidate's reported compile artifacts are its *primary*
        // unit's; failure texts follow the serial `Evaluate` unit-loop
        // precedence (first failing unit per phase, compile before
        // validation before noise).
        const CompileKey pck = unit_keys[i][primary[i]];
        out.compile = compile_cache[pck];
        if (const std::string* err = unit_compile_error(i)) {
            metrics.error = *err;
            continue;
        }
        if (const std::string* err = unit_validation_error(i)) {
            metrics.error = *err;
            continue;
        }
        const noise::RoundNoiseProfile* profile = nullptr;
        if (c.compile_rounds == 1) {
            if (const std::string* err = unit_noise_error(i)) {
                metrics.error = *err;
                continue;
            }
            profile = &noise_cache
                           .at(NoiseKey{pck, c.arch.gate_improvement})
                           .profile;
        }
        FillCompileMetrics(*c.code, c.arch, *out.compile, profile,
                           RoundsOf(c), metrics);
        if (c.options.compile_only) {
            metrics.ok = true;
            continue;
        }
        const SimKey sk = SimKeyOf(primary_nk_of(i), specs[i], RoundsOf(c));
        const SimEntry& sim_entry = sim_cache.at(sk);
        if (!sim_entry.ok) {
            metrics.error = sim_entry.error;
            continue;
        }
        if (sim_invalidated(c, sk)) {
            metrics.error = sim_validation.at(sk);
            continue;
        }
        if (certify_failed(c, sk)) {
            metrics.error = sim_certification.at(sk);
            continue;
        }
        if (c.options.max_shots <= 0) {
            // The sampler reports an empty estimate for a non-positive
            // budget (Evaluate parity; sim artifacts are still built,
            // validated, and reported on).
            const LerEstimate ler =
                FinishLerEstimate(0, 0, {}, 0, false, RoundsOf(c));
            metrics.shots = ler.shots;
            metrics.logical_errors = ler.logical_errors;
            metrics.ler_per_shot = ler.ler_per_shot;
            metrics.ler_per_round = ler.ler_per_round;
            metrics.dem_hyperedges = sim_entry.arts.dem.num_hyperedges;
            metrics.dem_undecomposable =
                sim_entry.arts.dem.num_undecomposable;
            metrics.dem_dropped_probability =
                sim_entry.arts.dem.dropped_probability;
            metrics.dem_undecomposable_probability =
                sim_entry.arts.dem.undecomposable_probability;
            metrics.ok = true;
            continue;
        }
        ShardState& st = *shard_states[i];
        if (st.failed.load(std::memory_order_relaxed)) {
            metrics.error = st.error;
            continue;
        }
        const sim::LogicalErrorEstimate run = st.run->Finish();
        const LerEstimate ler = FinishLerEstimate(
            run.shots, run.logical_errors, run.per_observable_errors,
            run.shards, run.early_stopped, st.rounds);
        metrics.shots = ler.shots;
        metrics.logical_errors = ler.logical_errors;
        metrics.ler_per_shot = ler.ler_per_shot;
        metrics.ler_per_round = ler.ler_per_round;
        metrics.per_observable_errors = ler.per_observable_errors;
        metrics.per_observable_ler = ler.per_observable_ler;
        metrics.dem_hyperedges = sim_entry.arts.dem.num_hyperedges;
        metrics.dem_undecomposable = sim_entry.arts.dem.num_undecomposable;
        metrics.dem_dropped_probability =
            sim_entry.arts.dem.dropped_probability;
        metrics.dem_undecomposable_probability =
            sim_entry.arts.dem.undecomposable_probability;
        metrics.ok = true;
    }

    last_run_stats_.compiles = num_compiles.load();
    last_run_stats_.annotates = num_annotates.load();
    last_run_stats_.sim_builds = num_sim_builds.load();
    last_run_stats_.validations = num_validations.load();
    last_run_stats_.validation_failures = num_validation_failures.load();
    last_run_stats_.certifies = num_certifies.load();
    last_run_stats_.certify_failures = num_certify_failures.load();
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

std::vector<Metrics>
SweepRunner::Run(const std::vector<SweepCandidate>& candidates)
{
    std::vector<SweepOutcome> outcomes = RunDetailed(candidates);
    std::vector<Metrics> metrics;
    metrics.reserve(outcomes.size());
    for (auto& outcome : outcomes) {
        metrics.push_back(std::move(outcome.metrics));
    }
    return metrics;
}

}  // namespace tiqec::core
