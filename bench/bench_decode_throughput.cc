/**
 * @file
 * Decode-throughput benchmark for the Monte-Carlo hot path: shots/sec
 * of the scalar per-shot decode (SyndromeOf + Decode, the reference
 * path) vs the word-parallel batch pipeline (non-trivial-shot mask +
 * transposed sparse syndrome extraction + DecodeBatch) on compiled
 * memory-Z experiments at d=3/5/7 across gate-improvement noise scales
 * (d=7 is the largest memory DEM the Monte-Carlo sweeps decode), plus
 * the XX lattice-surgery experiment at d=5, 1X gates.
 *
 * Unlike the figure benches this does not reproduce a paper artifact;
 * it pins the sampler's decode throughput so optimisations are measured
 * rather than eyeballed (the SPEC-style methodology in PAPERS.md).
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "decoder/union_find_decoder.h"
#include "noise/annotator.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "sim/dem.h"
#include "sim/frame_simulator.h"
#include "sim/memory_experiment.h"
#include "workloads/experiment.h"

namespace {

using namespace tiqec;

/** A compiled experiment, its DEM, and a sampled batch. */
struct Workload
{
    sim::DetectorErrorModel dem;
    sim::NoisyCircuit circuit{0};
    sim::SampleBatch batch{0, 0, 0};
};

/** Compiles `code` onto the capacity-2 grid and samples `shots` shots of
 *  its `kind` experiment over `distance` rounds (Z basis). */
Workload
MakeWorkload(const qec::StabilizerCode& code, workloads::WorkloadKind kind,
             int distance, double improvement, int shots)
{
    Workload w;
    const qccd::TimingModel timing;
    const auto graph =
        compiler::MakeDeviceFor(code, qccd::TopologyKind::kGrid, 2);
    auto result =
        compiler::CompileParityCheckRounds(code, 1, graph, timing);
    noise::NoiseParams params;
    params.gate_improvement = improvement;
    const auto profile =
        noise::ProfileRound(code, graph, result, params, timing);
    w.circuit = workloads::BuildExperiment(
        code, result.qec_circuit, profile, params, distance,
        workloads::WorkloadSpec(kind, sim::MemoryBasis::kZ));
    w.dem = sim::BuildDem(w.circuit);
    sim::FrameSimulator simulator(w.circuit, 0xBE9C);
    w.batch = simulator.Sample(shots);
    return w;
}

/** The memory-Z workload on a distance-`distance` rotated patch. */
Workload
MakeWorkload(int distance, double improvement, int shots)
{
    return MakeWorkload(qec::RotatedSurfaceCode(distance),
                        workloads::WorkloadKind::kMemory, distance,
                        improvement, shots);
}

/**
 * The pre-batch-pipeline decode path, kept verbatim as the benchmark
 * baseline: one union-find decode per shot with the per-call scratch
 * allocations (clusters, cluster_of_root, grown_adj, parent_edge,
 * visited, BFS deque) the production decoder has since made persistent.
 * This is exactly what ParallelSampler::EstimateLogicalErrors ran per
 * shot before DecodeBatch existed, so "speedup vs legacy" measures the
 * whole optimisation, not just the extraction.
 */
class LegacyScalarDecoder
{
  public:
    explicit LegacyScalarDecoder(const sim::DetectorErrorModel& dem)
        : num_detectors_(dem.num_detectors)
    {
        edges_.reserve(dem.edges.size());
        incident_.resize(num_detectors_ + 1);
        for (const auto& e : dem.edges) {
            const std::int32_t v =
                e.d1 == sim::DemEdge::kBoundary ? Boundary() : e.d1;
            const auto idx = static_cast<std::int32_t>(edges_.size());
            edges_.push_back({e.d0, v, e.obs_mask});
            incident_[e.d0].push_back(idx);
            incident_[v == Boundary() ? Boundary() : v].push_back(idx);
        }
        const int n = num_detectors_ + 1;
        parent_.resize(n);
        for (int i = 0; i < n; ++i) {
            parent_[i] = i;
        }
        defect_.assign(n, 0);
        in_cluster_.assign(n, 0);
        edge_grown_.assign(edges_.size(), 0);
    }

    std::uint32_t
    Decode(const std::vector<int>& syndrome)
    {
        if (syndrome.empty()) {
            return 0;
        }
        struct Cluster
        {
            int parity = 0;
            bool boundary = false;
            std::vector<std::int32_t> frontier;
        };
        std::vector<std::int32_t> touched_nodes;
        std::vector<std::int32_t> grown_edges;
        std::vector<Cluster> clusters(syndrome.size());
        std::vector<std::int32_t> cluster_of_root(num_detectors_ + 1, -1);
        auto touch = [&](int node) {
            if (!in_cluster_[node]) {
                in_cluster_[node] = 1;
                touched_nodes.push_back(node);
            }
        };
        for (size_t i = 0; i < syndrome.size(); ++i) {
            const int d = syndrome[i];
            touch(d);
            defect_[d] = 1;
            clusters[i].parity = 1;
            clusters[i].frontier.push_back(d);
            cluster_of_root[d] = static_cast<std::int32_t>(i);
        }
        bool any_odd = true;
        int guard = 0;
        while (any_odd && ++guard < 4 * (num_detectors_ + 2)) {
            any_odd = false;
            for (size_t ci = 0; ci < clusters.size(); ++ci) {
                const int root = Find(syndrome[ci]);
                if (cluster_of_root[root] !=
                    static_cast<std::int32_t>(ci)) {
                    continue;
                }
                Cluster& c = clusters[ci];
                if (c.parity % 2 == 0 || c.boundary) {
                    continue;
                }
                any_odd = true;
                std::vector<std::int32_t> frontier;
                frontier.swap(c.frontier);
                for (const std::int32_t node : frontier) {
                    for (const std::int32_t ei : incident_[node]) {
                        if (edge_grown_[ei]) {
                            continue;
                        }
                        edge_grown_[ei] = 1;
                        grown_edges.push_back(ei);
                        const Edge& e = edges_[ei];
                        const int other = e.u == node ? e.v : e.u;
                        if (other == Boundary()) {
                            c.boundary = true;
                            continue;
                        }
                        if (!in_cluster_[other]) {
                            touch(other);
                            parent_[other] = root;
                            c.frontier.push_back(other);
                            continue;
                        }
                        const int other_root = Find(other);
                        if (other_root == root) {
                            continue;
                        }
                        const std::int32_t oc = cluster_of_root[other_root];
                        if (oc >= 0) {
                            Cluster& o = clusters[oc];
                            c.parity += o.parity;
                            c.boundary = c.boundary || o.boundary;
                            c.frontier.insert(c.frontier.end(),
                                              o.frontier.begin(),
                                              o.frontier.end());
                            o.frontier.clear();
                            cluster_of_root[other_root] = -1;
                        }
                        parent_[other_root] = root;
                    }
                }
                const int new_root = Find(root);
                if (new_root != root) {
                    cluster_of_root[root] = -1;
                }
                cluster_of_root[new_root] = static_cast<std::int32_t>(ci);
            }
        }
        std::uint32_t correction = 0;
        std::vector<std::int32_t> order;
        std::vector<std::int32_t> parent_edge(num_detectors_ + 1, -1);
        std::vector<char> visited(num_detectors_ + 1, 0);
        std::vector<std::vector<std::int32_t>> grown_adj(num_detectors_ +
                                                         1);
        for (const std::int32_t ei : grown_edges) {
            const Edge& e = edges_[ei];
            grown_adj[e.u].push_back(ei);
            if (e.v != Boundary()) {
                grown_adj[e.v].push_back(ei);
            }
        }
        auto bfs_from = [&](std::int32_t start) {
            std::deque<std::int32_t> queue{start};
            while (!queue.empty()) {
                const std::int32_t node = queue.front();
                queue.pop_front();
                order.push_back(node);
                for (const std::int32_t ei : grown_adj[node]) {
                    const Edge& e = edges_[ei];
                    const int other = e.u == node ? e.v : e.u;
                    if (other == Boundary() || visited[other]) {
                        continue;
                    }
                    visited[other] = 1;
                    parent_edge[other] = ei;
                    queue.push_back(other);
                }
            }
        };
        for (const std::int32_t ei : grown_edges) {
            const Edge& e = edges_[ei];
            if (e.v == Boundary() && !visited[e.u]) {
                visited[e.u] = 1;
                parent_edge[e.u] = ei;
                bfs_from(e.u);
            }
        }
        for (const std::int32_t node : touched_nodes) {
            if (!visited[node]) {
                visited[node] = 1;
                parent_edge[node] = -1;
                bfs_from(node);
            }
        }
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::int32_t node = *it;
            if (!defect_[node]) {
                continue;
            }
            const std::int32_t ei = parent_edge[node];
            if (ei < 0) {
                continue;
            }
            const Edge& e = edges_[ei];
            correction ^= e.obs_mask;
            defect_[node] = 0;
            const int other = e.u == node ? e.v : e.u;
            if (other != Boundary()) {
                defect_[other] ^= 1;
            }
        }
        for (const std::int32_t node : touched_nodes) {
            parent_[node] = node;
            defect_[node] = 0;
            in_cluster_[node] = 0;
        }
        for (const std::int32_t ei : grown_edges) {
            edge_grown_[ei] = 0;
        }
        return correction;
    }

  private:
    struct Edge
    {
        std::int32_t u;
        std::int32_t v;
        std::uint32_t obs_mask;
    };

    int Boundary() const { return num_detectors_; }

    int
    Find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    int num_detectors_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::int32_t>> incident_;
    std::vector<std::int32_t> parent_;
    std::vector<char> defect_;
    std::vector<char> in_cluster_;
    std::vector<char> edge_grown_;
};

std::int64_t
LegacyErrors(LegacyScalarDecoder& decoder, const sim::SampleBatch& batch)
{
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted =
            decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1u : 0u)) & 1u;
    }
    return errors;
}

std::int64_t
ScalarErrors(decoder::UnionFindDecoder& decoder,
             const sim::SampleBatch& batch)
{
    std::int64_t errors = 0;
    for (int s = 0; s < batch.shots(); ++s) {
        const std::uint32_t predicted =
            decoder.Decode(batch.SyndromeOf(s));
        errors += (predicted ^ (batch.Observable(0, s) ? 1u : 0u)) & 1u;
    }
    return errors;
}

std::int64_t
BatchErrors(decoder::UnionFindDecoder& decoder,
            const sim::SampleBatch& batch,
            std::vector<std::uint64_t>& predictions)
{
    decoder.DecodeBatch(batch, predictions);
    std::int64_t errors = 0;
    for (int w = 0; w < batch.words(); ++w) {
        const std::uint64_t actual =
            batch.ObservableWord(0, w) & batch.WordValidMask(w);
        errors += __builtin_popcountll(predictions[w] ^ actual);
    }
    return errors;
}

/** Best-of-`reps` wall-clock shots/sec of `body` over `shots` shots. */
template <typename Body>
double
ShotsPerSec(int shots, int reps, Body&& body)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        const double sec =
            std::chrono::duration<double>(t1 - t0).count();
        best = std::max(best, shots / sec);
    }
    return best;
}

/** Measures the four decode paths on one workload, prints its table
 *  row, and appends one JSON record per path. Errors count observable 0
 *  (the memory observable; surgery's joint XX parity). */
void
MeasurePoint(const char* workload, int d, double improvement,
             const Workload& w, int reps,
             std::vector<bench::JsonRecord>& records)
{
    const int shots = w.batch.shots();
    decoder::UnionFindDecoder::Options plain_opts;
    plain_opts.correlated = false;
    LegacyScalarDecoder legacy_decoder(w.dem);
    decoder::UnionFindDecoder scalar_decoder(w.dem, plain_opts);
    decoder::UnionFindDecoder batch_decoder(w.dem, plain_opts);
    decoder::UnionFindDecoder corr_decoder(w.dem);
    std::vector<std::uint64_t> predictions;
    std::vector<std::uint64_t> corr_predictions;
    const std::int64_t legacy_errors = LegacyErrors(legacy_decoder, w.batch);
    const std::int64_t scalar_errors = ScalarErrors(scalar_decoder, w.batch);
    const std::int64_t batch_errors =
        BatchErrors(batch_decoder, w.batch, predictions);
    const std::int64_t corr_errors =
        BatchErrors(corr_decoder, w.batch, corr_predictions);
    if (scalar_errors != batch_errors || legacy_errors != batch_errors) {
        std::printf("MISMATCH %s d=%d: legacy=%lld scalar=%lld "
                    "batch=%lld\n",
                    workload, d, static_cast<long long>(legacy_errors),
                    static_cast<long long>(scalar_errors),
                    static_cast<long long>(batch_errors));
    }
    const double legacy_tput = ShotsPerSec(shots, reps, [&]() {
        benchmark::DoNotOptimize(LegacyErrors(legacy_decoder, w.batch));
    });
    const double scalar_tput = ShotsPerSec(shots, reps, [&]() {
        benchmark::DoNotOptimize(ScalarErrors(scalar_decoder, w.batch));
    });
    const double batch_tput = ShotsPerSec(shots, reps, [&]() {
        benchmark::DoNotOptimize(
            BatchErrors(batch_decoder, w.batch, predictions));
    });
    const double corr_tput = ShotsPerSec(shots, reps, [&]() {
        benchmark::DoNotOptimize(
            BatchErrors(corr_decoder, w.batch, corr_predictions));
    });
    const double frac =
        static_cast<double>(w.batch.CountNonTrivialShots()) / shots;
    std::printf("%-10s %-4d %-6.0f %10.1f%% %13.0f %13.0f %13.0f %13.0f "
                "%8.2fx %8.2fx\n",
                workload, d, improvement, 100.0 * frac, legacy_tput,
                scalar_tput, batch_tput, corr_tput,
                batch_tput / legacy_tput, batch_tput / corr_tput);
    struct PathPoint
    {
        const char* path;
        double tput;
        std::int64_t errors;
        bool correlated;
    };
    for (const PathPoint& p :
         {PathPoint{"legacy", legacy_tput, legacy_errors, false},
          {"scalar", scalar_tput, scalar_errors, false},
          {"batch", batch_tput, batch_errors, false},
          {"batch_correlated", corr_tput, corr_errors, true}}) {
        bench::JsonRecord r;
        r.Add("workload", workload);
        r.Add("distance", d);
        r.Add("gate_improvement", improvement);
        r.Add("decode_path", p.path);
        r.Add("correlated_decoder", p.correlated);
        r.Add("shots", static_cast<std::int64_t>(shots));
        r.Add("nontrivial_fraction", frac);
        r.Add("metric", "shots_per_sec");
        r.Add("value", p.tput);
        r.Add("best_of", reps);
        r.Add("errors", p.errors);
        r.Add("errors_agree", legacy_errors == batch_errors &&
                                  scalar_errors == batch_errors);
        records.push_back(std::move(r));
    }
}

void
PrintThroughputTable()
{
    const int shots = 1 << 15;
    const int reps = 3;
    std::vector<bench::JsonRecord> records;
    std::printf("\n=== Decode throughput, %d shots/point ===\n", shots);
    std::printf("legacy = pre-pipeline per-shot decode (SyndromeOf + "
                "per-call scratch)\n"
                "scalar = per-shot SyndromeOf + Decode, correlated stage "
                "off (matches legacy errors)\n"
                "batch  = DecodeBatch, correlated stage off "
                "(mask + sparse extraction)\n"
                "corr   = DecodeBatch, weighted forest + "
                "hyperedge stage (production default; fewer errors)\n\n");
    std::printf("%-10s %-4s %-6s %11s %13s %13s %13s %13s %9s %9s\n",
                "workload", "d", "gates", "nontrivial", "legacy(sh/s)",
                "scalar(sh/s)", "batch(sh/s)", "corr(sh/s)", "vs legacy",
                "corr cost");
    tiqec::bench::Rule(111);
    for (const int d : {3, 5, 7}) {
        for (const double improvement : {1.0, 3.0, 10.0}) {
            const Workload memory = MakeWorkload(d, improvement, shots);
            MeasurePoint("memory_z", d, improvement, memory, reps, records);
        }
    }
    const qec::MergedPatchCode surgery_code(5, qec::SurgeryParity::kXX);
    const Workload surgery = MakeWorkload(
        surgery_code, workloads::WorkloadKind::kSurgery, 5, 1.0, shots);
    MeasurePoint("surgery_xx", 5, 1.0, surgery, reps, records);
    std::printf("\n(acceptance: batch >= 2x the legacy scalar baseline "
                "at d=5, 1X gates; legacy/scalar/batch count identical "
                "errors; corr trades throughput for fewer errors)\n");
    bench::WriteBenchJson("BENCH_decode.json", "decode_throughput",
                          records);
}

void
BM_DecodeLegacy(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    LegacyScalarDecoder decoder(w.dem);
    for (auto _ : state) {
        benchmark::DoNotOptimize(LegacyErrors(decoder, w.batch));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeLegacy)->Arg(3)->Arg(5);

void
BM_DecodeScalar(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    decoder::UnionFindDecoder decoder(w.dem);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ScalarErrors(decoder, w.batch));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeScalar)->Arg(3)->Arg(5);

void
BM_DecodeBatch(benchmark::State& state)
{
    const int d = static_cast<int>(state.range(0));
    const Workload w = MakeWorkload(d, 1.0, 1 << 13);
    decoder::UnionFindDecoder decoder(w.dem);
    std::vector<std::uint64_t> predictions;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            BatchErrors(decoder, w.batch, predictions));
    }
    state.SetItemsProcessed(state.iterations() * w.batch.shots());
}
BENCHMARK(BM_DecodeBatch)->Arg(3)->Arg(5);

}  // namespace

int
main(int argc, char** argv)
{
    PrintThroughputTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
