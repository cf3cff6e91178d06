/**
 * @file
 * Cached parallel design-space sweep engine (DESIGN.md §4): evaluates a
 * list of (code, architecture, options) candidates — the paper's
 * evaluation is exactly such a sweep over (distance, topology, trap
 * capacity, noise scale) — with
 *
 *  - a keyed artifact cache so the compiled schedule, the noise
 *    profile, and the DEM/decoder-graph are built once per unique
 *    candidate (seed/budget-only variations share everything), and
 *  - a single shared worker pool that runs compile/annotate/build-sim
 *    stages and then interleaves the Monte-Carlo shards of all
 *    candidates, instead of nesting a thread pool per candidate.
 *
 * This is the toolflow's one stage chain: `core::Evaluate` is a
 * one-candidate run of it. Results are bit-identical for every pool
 * width, and to running each candidate alone: each candidate's shard
 * streams are a pure function of its own seed, and shard outcomes
 * commit in shard-index order (see sim::LerShardRun). A candidate that
 * fails any stage is reported with `ok == false` and the first failing
 * stage's message (compile metrics stay filled when the failure comes
 * after annotation); the rest of the sweep proceeds.
 *
 * Candidates choose their simulated workload through
 * `EvaluationOptions::workload` (memory | stability | surgery |
 * program, see workloads/experiment.h and DESIGN.md §5). The workload
 * enters only the experiment/DEM cache key, so e.g. a surgery and a
 * stability candidate on the same merged code share the compiled
 * schedule and noise profile.
 */
#ifndef TIQEC_CORE_SWEEP_H
#define TIQEC_CORE_SWEEP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/architecture.h"
#include "core/pipeline.h"
#include "core/toolflow.h"
#include "qccd/topology.h"
#include "qec/code.h"

namespace tiqec::store {
class ArtifactStore;
}

namespace tiqec::core {

/** One point of a design-space sweep. */
struct SweepCandidate
{
    /** The QEC code under evaluation. Candidates with equal code content
     *  (one object or separately built) share every cached artifact the
     *  rest of the key allows. */
    std::shared_ptr<const qec::StabilizerCode> code;
    ArchitectureConfig arch;
    EvaluationOptions options;
    /**
     * Parity-check rounds handed to the compiler. 1 (default) is the
     * `Evaluate` contract: compile one round, simulate `options.rounds`
     * of it. Multi-round blocks (paper Figure 9 / Table 3 style elapsed
     * schedules) are compile-only; a non-compile-only candidate with
     * `compile_rounds != 1` is reported as an error.
     */
    int compile_rounds = 1;
    /** Hand-built device override (Table 2 style single ion chains);
     *  bypasses `MakeDeviceFor` when set. */
    std::shared_ptr<const qccd::DeviceGraph> device;
    /** Free-form tag carried through to the outcome (driver bookkeeping). */
    std::string label;
};

/** Result for one candidate: the `Evaluate` metrics plus the cached
 *  compile artifacts for drivers that interrogate the mapping
 *  (partition sizes, theoretical bounds, schedule export). */
struct SweepOutcome
{
    Metrics metrics;
    std::string label;
    /** Shared cache entry; never null. `compile->ok` mirrors failure. */
    std::shared_ptr<const CompileArtifacts> compile;
};

struct SweepRunnerOptions
{
    /** Width of the shared worker pool (compile stages and Monte-Carlo
     *  shards alike); <= 0 means hardware concurrency. Per-candidate
     *  `EvaluationOptions::num_threads` is ignored — the pool owns the
     *  threads (no-nested-pools rule). Results are identical for every
     *  width. */
    int num_threads = 0;
    /**
     * Optional persistent artifact store (store/artifact_store.h),
     * layered beneath the in-memory cache as read-through/write-through
     * for compile, annotate, build-sim, and distance certification:
     * a store hit skips the stage entirely (a warm store performs zero
     * compiles), a miss computes and persists, and a corrupt or
     * validator-rejected artifact isolates the candidate with the
     * store's diagnostic exactly like a compile error. Loaded artifacts
     * are always validated by the store before use, independent of
     * `EvaluationOptions::validate_artifacts`.
     */
    std::shared_ptr<const store::ArtifactStore> store;
};

/** Work/cache accounting for one `RunDetailed` call (store CI gates and
 *  the sweep service report these; the warm-store acceptance contract is
 *  literally `compiles == 0`). */
struct SweepRunStats
{
    /** Stage executions this run (cache + store misses only). */
    std::int64_t compiles = 0;
    std::int64_t annotates = 0;
    std::int64_t sim_builds = 0;
    /** Store probe outcomes this run (all four artifact kinds). */
    std::int64_t store_hits = 0;
    std::int64_t store_misses = 0;
    std::int64_t store_corrupt = 0;
    std::int64_t store_writes = 0;
    /** Validation work this run: artifact-validation stage executions
     *  (compiled-schedule + sim-artifact level, one per unique cache key
     *  any validating candidate references) and how many of them
     *  produced error diagnostics. */
    std::int64_t validations = 0;
    std::int64_t validation_failures = 0;
    /** Certifier executions (once per sim cache key any certifying
     *  candidate references, unless the store held its certificate) and
     *  sub-distance/uncertified verdicts among all judged certificates,
     *  computed or loaded. */
    std::int64_t certifies = 0;
    std::int64_t certify_failures = 0;
    /** Store loads the store itself re-validated before serving (warm
     *  runs re-check every load; see store::ArtifactStore). */
    std::int64_t store_validated = 0;
};

class SweepRunner
{
  public:
    explicit SweepRunner(const SweepRunnerOptions& options = {});

    /** Evaluates every candidate; outcomes are in candidate order. */
    std::vector<SweepOutcome> RunDetailed(
        const std::vector<SweepCandidate>& candidates);

    /** Metrics-only convenience wrapper over `RunDetailed`. */
    std::vector<Metrics> Run(const std::vector<SweepCandidate>& candidates);

    /** Accounting for the most recent Run/RunDetailed call. */
    const SweepRunStats& last_run_stats() const { return last_run_stats_; }

  private:
    SweepRunnerOptions options_;
    SweepRunStats last_run_stats_;
};

}  // namespace tiqec::core

#endif  // TIQEC_CORE_SWEEP_H
