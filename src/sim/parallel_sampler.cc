#include "sim/parallel_sampler.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/worker_pool.h"
#include "decoder/union_find_decoder.h"

namespace tiqec::sim {

namespace {

/** Clamps the requested shard size to [64, INT_MAX] and rounds up to a
 *  multiple of 64 in 64-bit arithmetic — `(requested + 63) & ~63` in
 *  int would be signed overflow (UB) near INT_MAX. */
int
ResolveShardShots(int requested)
{
    constexpr std::int64_t kMax = std::numeric_limits<int>::max() & ~63;
    const std::int64_t clamped =
        std::clamp<std::int64_t>(requested, 64, kMax);
    return static_cast<int>((clamped + 63) & ~std::int64_t{63});
}

/** Shots in shard `shard` of a `budget`-shot run (full shards except
 *  possibly the tail). */
int
ShardSizeOf(std::int64_t shard, std::int64_t budget, int shard_shots)
{
    return static_cast<int>(std::min<std::int64_t>(
        shard_shots, budget - shard * shard_shots));
}

/** Shards in a `budget`-shot run: the ceiling of budget / shard_shots,
 *  computed without `budget + shard_shots - 1`, which overflows near
 *  INT64_MAX. */
std::int64_t
ShardCountOf(std::int64_t budget, int shard_shots)
{
    return budget / shard_shots + (budget % shard_shots != 0 ? 1 : 0);
}

}  // namespace

ParallelSampler::ParallelSampler(const NoisyCircuit& circuit,
                                 const ParallelSamplerOptions& options)
    : circuit_(&circuit),
      seed_(options.seed),
      num_threads_(ResolveWorkerThreads(options.num_threads)),
      shard_shots_(ResolveShardShots(options.shard_shots)),
      correlated_(options.correlated)
{
}

int
ParallelSampler::ShardSize(std::int64_t shard, std::int64_t budget) const
{
    return ShardSizeOf(shard, budget, shard_shots_);
}

FrameSimulator
ParallelSampler::ShardSimulator(std::int64_t shard) const
{
    return FrameSimulator(*circuit_,
                          Rng(seed_, static_cast<std::uint64_t>(shard)));
}

SampleBatch
ParallelSampler::Sample(std::int64_t shots)
{
    // SampleBatch (and its word indexing) is int-based; a merged batch
    // beyond INT_MAX shots would silently wrap and corrupt the planes.
    if (shots > std::numeric_limits<int>::max()) {
        throw std::invalid_argument(
            "ParallelSampler::Sample: shots exceeds INT_MAX; use "
            "EstimateLogicalErrors for large budgets");
    }
    SampleBatch merged(static_cast<int>(std::max<std::int64_t>(shots, 0)),
                       circuit_->num_detectors(),
                       circuit_->num_observables());
    if (shots <= 0) {
        return merged;
    }
    const std::int64_t num_shards = ShardCountOf(shots, shard_shots_);
    // shard_shots_ is a multiple of 64, so each shard owns a disjoint,
    // word-aligned slice of the merged planes and workers can write
    // without synchronisation.
    const int words_per_shard = shard_shots_ / 64;
    std::atomic<std::int64_t> next_shard{0};

    auto worker = [&]() {
        for (;;) {
            const std::int64_t k =
                next_shard.fetch_add(1, std::memory_order_relaxed);
            if (k >= num_shards) {
                return;
            }
            const int shard_n = ShardSize(k, shots);
            FrameSimulator sim = ShardSimulator(k);
            const SampleBatch local = sim.Sample(shard_n);
            const int base = static_cast<int>(k) * words_per_shard;
            for (int d = 0; d < merged.num_detectors(); ++d) {
                for (int w = 0; w < local.words(); ++w) {
                    merged.SetDetectorWord(d, base + w,
                                           local.DetectorWord(d, w));
                }
            }
            for (int o = 0; o < merged.num_observables(); ++o) {
                for (int w = 0; w < local.words(); ++w) {
                    merged.SetObservableWord(o, base + w,
                                             local.ObservableWord(o, w));
                }
            }
        }
    };
    RunWorkers(num_threads_, num_shards, worker);
    return merged;
}

LerShardRun::LerShardRun(const NoisyCircuit& circuit,
                         const DetectorErrorModel& dem,
                         const ParallelSamplerOptions& options,
                         std::int64_t max_shots,
                         std::int64_t target_logical_errors)
    : circuit_(&circuit),
      dem_(&dem),
      seed_(options.seed),
      shard_shots_(ResolveShardShots(options.shard_shots)),
      correlated_(options.correlated),
      max_shots_(max_shots),
      target_logical_errors_(target_logical_errors),
      // A non-positive target means "no early stop": without this, the
      // first committed shard would trivially satisfy
      // `committed_errors >= target` and the run would stop after one
      // shard with early_stopped = true.
      has_target_(target_logical_errors > 0),
      num_shards_(max_shots <= 0 ? 0 : ShardCountOf(max_shots, shard_shots_))
{
    // Decoding compares predictions against the tracked observables; an
    // observable-free circuit would read out of bounds (NDEBUG builds
    // compile asserts out, so this must be a real check).
    if (circuit.num_observables() < 1) {
        throw std::invalid_argument(
            "LerShardRun: circuit has no logical observable");
    }
    committed_per_obs_.assign(circuit.num_observables(), 0);
}

bool
LerShardRun::HasClaimableWork() const
{
    return !stop_.load(std::memory_order_relaxed) &&
           next_shard_.load(std::memory_order_relaxed) < num_shards_;
}

bool
LerShardRun::RunOneShard(decoder::UnionFindDecoder& decoder)
{
    // A set stop flag implies every shard of the counted prefix is
    // already committed, so anything still claimable is beyond the stop
    // point and would be discarded anyway.
    if (stop_.load(std::memory_order_relaxed)) {
        return false;
    }
    const std::int64_t k =
        next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (k >= num_shards_) {
        return false;
    }
    const int shard_n = ShardSizeOf(k, max_shots_, shard_shots_);
    FrameSimulator sim(*circuit_,
                       Rng(seed_, static_cast<std::uint64_t>(k)));
    const SampleBatch batch = sim.Sample(shard_n);
    // A shot is a logical error when the decoder's prediction mismatches
    // the actual flip of ANY tracked observable: one observable for the
    // memory and stability workloads, three (joint parity + both patch
    // logicals) for surgery. For a single observable this reduces
    // bit-exactly to the historical observable-0 comparison. Each
    // observable's own mismatch count is also tracked, so one surgery
    // run yields the joint parity and both patch logicals at once.
    //
    // Cooperative early stop: DecodeBatch polls the flag once per
    // 64-shot word; an abandoned shard is past the committed stop
    // prefix, its result is dead weight.
    std::vector<std::uint64_t> predictions;
    const auto decoded = decoder.DecodeBatch(batch, predictions, [this]() {
        return stop_.load(std::memory_order_relaxed);
    });
    if (!decoded.completed) {
        return true;
    }
    // A trivial shot predicts 0, so its error bit is just the
    // observable bit; a decoded shot's is predicted XOR actual. Both
    // collapse into word-parallel popcounts: one per observable plane,
    // plus the OR of the planes for the any-observable count.
    const int num_obs = batch.num_observables();
    ShardOutcome outcome;
    outcome.shots = shard_n;
    outcome.per_obs.assign(num_obs, 0);
    const size_t words = static_cast<size_t>(batch.words());
    for (int w = 0; w < batch.words(); ++w) {
        const std::uint64_t valid = batch.WordValidMask(w);
        std::uint64_t mismatch = 0;
        for (int o = 0; o < num_obs; ++o) {
            const std::uint64_t diff =
                predictions[static_cast<size_t>(o) * words + w] ^
                batch.ObservableWord(o, w);
            outcome.per_obs[o] += std::popcount(diff & valid);
            mismatch |= diff;
        }
        outcome.errors += std::popcount(mismatch & valid);
    }
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace(k, std::move(outcome));
    while (!target_reached_) {
        auto it = pending_.find(next_commit_);
        if (it == pending_.end()) {
            break;
        }
        committed_shots_ += it->second.shots;
        committed_errors_ += it->second.errors;
        for (int o = 0; o < num_obs; ++o) {
            committed_per_obs_[o] += it->second.per_obs[o];
        }
        pending_.erase(it);
        ++next_commit_;
        if (has_target_ && committed_errors_ >= target_logical_errors_) {
            target_reached_ = true;
            stop_.store(true, std::memory_order_relaxed);
        }
    }
    return true;
}

LogicalErrorEstimate
LerShardRun::Finish() const
{
    LogicalErrorEstimate out;
    out.shots = committed_shots_;
    out.logical_errors = committed_errors_;
    out.per_observable_errors = committed_per_obs_;
    out.shards = next_commit_;
    out.early_stopped = target_reached_;
    return out;
}

LogicalErrorEstimate
ParallelSampler::EstimateLogicalErrors(const DetectorErrorModel& dem,
                                       std::int64_t max_shots,
                                       std::int64_t target_logical_errors)
{
    if (max_shots <= 0) {
        return LogicalErrorEstimate{};
    }
    ParallelSamplerOptions options;
    options.seed = seed_;
    options.num_threads = num_threads_;
    options.shard_shots = shard_shots_;
    options.correlated = correlated_;
    LerShardRun run(*circuit_, dem, options, max_shots,
                    target_logical_errors);
    RunWorkers(num_threads_, run.num_shards(), [&run, &dem]() {
        decoder::UnionFindDecoder uf(
            dem, decoder::UnionFindDecoder::Options{run.correlated()});
        while (run.RunOneShard(uf)) {
        }
    });
    return run.Finish();
}

}  // namespace tiqec::sim
