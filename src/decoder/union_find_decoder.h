/**
 * @file
 * Union-find decoder (Delfosse-Nickerson style) over a detector error
 * model graph.
 *
 * Decoding proceeds in two stages:
 *  1. Cluster growth: clusters seeded at fired detectors grow by
 *     absorbing incident edges until every cluster contains an even
 *     number of defects or touches the boundary.
 *  2. Peeling: within each grown cluster, a spanning forest is peeled
 *     from the leaves; a leaf edge joins the correction iff its leaf node
 *     carries a defect, and the defect parity is pushed to the parent.
 *     Growth keeps an observable potential per node, so a cluster whose
 *     grown cycles all have even observable action (and which grows no
 *     edge of an active stage-2 entry) skips this stage: every peel of
 *     it yields the XOR of its defects' potentials (DESIGN.md §3.6).
 *
 * The predicted logical-observable flip is the XOR of the observable
 * masks of the correction edges. This is the standard almost-linear-time
 * surface-code decoder; its threshold is slightly below matching (MWPM)
 * but it exhibits the same exponential logical-error suppression, which
 * is the property the paper's evaluation depends on. Decoder runtime is
 * not the bottleneck for trapped-ion systems (paper §8), but it is the
 * bottleneck of every Monte-Carlo LER estimate, so all per-decode
 * scratch persists across calls and whole batches decode through
 * `DecodeBatch` (see DESIGN.md §3.4 and bench/bench_decode_throughput).
 *
 * A correlated second stage (DESIGN.md §3.6) repairs the observable
 * action of multi-detector mechanisms the elementary graph mislabels:
 * at construction, every DEM hyperedge variant is arbitrated against
 * the independent-edges interpretation of its decomposition edge set
 * (odds p/(1-p) vs the product of the edges' odds), and the winners
 * with a non-zero residual observable action are indexed by edge. After
 * peeling, any active entry whose decomposition edges all appear in the
 * realised correction claims them (at most one interpretation per
 * mechanism, highest-probability first) and XORs its residual into the
 * prediction.
 */
#ifndef TIQEC_DECODER_UNION_FIND_DECODER_H
#define TIQEC_DECODER_UNION_FIND_DECODER_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/dem.h"
#include "sim/frame_simulator.h"

namespace tiqec::decoder {

class UnionFindDecoder
{
  public:
    struct Options
    {
        /** Enables the probability-aware decode: the peeling forest
         *  follows most-probable paths (w = -log p, using the mass the
         *  decomposition pass folds into the elementary edges), and the
         *  correlated second stage re-applies hyperedge mechanisms'
         *  residual observable action when the realised correction
         *  matches their decomposition. Off gives the unweighted
         *  elementary-graph decoder (the PR-5 baseline). */
        bool correlated = true;
    };

    /** Builds the decoding graph from a DEM. Edges with p == 0 are kept
     *  (zero-weight structure can still be used for decomposition). */
    explicit UnionFindDecoder(const sim::DetectorErrorModel& dem)
        : UnionFindDecoder(dem, Options())
    {
    }
    UnionFindDecoder(const sim::DetectorErrorModel& dem,
                     const Options& options);

    int num_detectors() const { return num_detectors_; }
    int num_edges() const { return static_cast<int>(edges_.size()); }
    /** Hyperedge interpretations that survived arbitration and carry a
     *  non-zero residual (0 when Options::correlated is false). */
    int num_active_hyperedges() const
    {
        return static_cast<int>(hyper_residual_.size());
    }

    /**
     * Decodes one syndrome (list of distinct fired detector indices).
     * @return bitmask of observables predicted to have flipped.
     * @throws std::out_of_range if an index lies outside
     *   [0, num_detectors()).
     * @throws std::invalid_argument if an index is repeated.
     * @throws std::runtime_error if an odd cluster cannot reach a
     *   boundary (its DEM component has no boundary edge).
     * The decoder stays usable after any of these.
     */
    std::uint32_t Decode(std::span<const int> syndrome);
    std::uint32_t Decode(std::initializer_list<int> syndrome)
    {
        return Decode(std::span<const int>(syndrome.begin(),
                                           syndrome.size()));
    }

    /** Outcome of a DecodeBatch call. */
    struct BatchOutcome
    {
        /** Non-trivial shots actually decoded (trivial shots are
         *  skipped in 64-shot words; their prediction is 0). */
        std::int64_t decoded_shots = 0;
        /** False iff the `cancelled` callback stopped the batch. */
        bool completed = false;
    };

    /**
     * Decodes every shot of `batch` through the word-parallel pipeline:
     * non-trivial-shot mask (all-zero 64-shot words are skipped
     * outright), transposed sparse syndrome extraction, and the same
     * per-shot decode core as `Decode` — so predictions are bit-exact
     * with the scalar SyndromeOf + Decode path.
     *
     * `predictions` is resized to batch.num_observables() packed planes
     * of batch.words() words each; bit `s` of plane `o` is the
     * predicted flip of observable `o` in shot `s`.
     *
     * `cancelled`, when set, is polled once per 64-shot word; returning
     * true abandons the batch (`completed == false`, predictions
     * partial).
     */
    BatchOutcome DecodeBatch(const sim::SampleBatch& batch,
                             std::vector<std::uint64_t>& predictions,
                             const std::function<bool()>& cancelled = {});

  private:
    struct Edge
    {
        std::int32_t u;  ///< detector index
        std::int32_t v;  ///< detector index or kBoundaryNode
        std::uint32_t obs_mask;
    };

    /** One edge seen from one of its endpoints: the far endpoint and the
     *  edge index, so adjacency scans need not read edges_. */
    struct Arc
    {
        std::int32_t other;  ///< detector index or BoundaryNode()
        std::int32_t edge;   ///< index into edges_
    };

    /** Live per-decode cluster state, keyed by current union-find root
     *  through cluster_of_root_. */
    struct Cluster
    {
        int parity = 0;  ///< number of defects in the cluster
        bool boundary = false;
        /** The boundary node's observable potential in the root's frame
         *  (0 until the cluster touches the boundary). */
        std::uint32_t boundary_pot = 0;
        /** Set once a grown cycle has odd observable action or a grown
         *  edge belongs to an active stage-2 entry; only such clusters
         *  get a peeling forest (DESIGN.md §3.6, fact 5). */
        bool needs_forest = false;
        std::vector<std::int32_t> frontier;
        /** Grown boundary edges; filled and consumed by
         *  BuildWeightedForest, empty between decodes. */
        std::vector<std::int32_t> seeds;
    };

    /** An offer in the weighted forest's sorted Dijkstra frontier:
     *  settle `node` at `dist` through parent edge `pe`. Entries order
     *  by (dist, node, pe). Dead ends (defect-free nodes whose only
     *  grown edge is `pe`) are never offered. */
    struct FrontierEntry
    {
        double dist;
        std::int32_t node;
        std::int32_t pe;  ///< parent edge (-1 for interior roots)
    };

    int BoundaryNode() const { return num_detectors_; }

    /** Root of x's set, with path halving. `pot` receives x's observable
     *  potential relative to the root. */
    int Find(int x, std::uint32_t& pot);
    int Find(int x)
    {
        std::uint32_t pot = 0;
        return Find(x, pot);
    }

    /** Spanning-forest builders over the grown edges of the clusters
     *  that need a forest: unweighted BFS (the PR-5 baseline) or
     *  most-probable-path Dijkstra under w = -log p. Both root
     *  boundary-touching clusters at the boundary and append nodes to
     *  order_ parent-before-child for the peel; the Dijkstra never
     *  offers a dead end and stops each cluster at its last defect, so
     *  it appends only the nodes the peel can read. */
    void BuildBfsForest(std::span<const int> syndrome);
    void BuildWeightedForest(std::span<const int> syndrome);

    /** Restores all touched scratch to its idle state; called on every
     *  exit path of the decode core (including the throwing one). */
    void ResetScratch();

    int num_detectors_ = 0;
    std::vector<Edge> edges_;
    /** Adjacency in CSR form: detector n's arcs are
     *  arcs_[arc_off_[n], arc_off_[n + 1]), in edge-index order. The
     *  boundary node has none; growth never expands it. */
    std::vector<std::int32_t> arc_off_;
    std::vector<Arc> arcs_;

    // Scratch, reused across Decode/DecodeBatch calls. Everything is
    // reset via touched_nodes_ / grown_edges_, so a decode costs
    // O(cluster sizes), not O(graph).
    std::vector<std::int32_t> parent_;
    /** Observable potential relative to parent_ (0 at a root): along
     *  every grown edge of a cluster that needs no forest, the
     *  endpoints' potentials differ by the edge's observable mask. */
    std::vector<std::uint32_t> pot_;
    std::vector<char> defect_;
    std::vector<char> in_cluster_;
    std::vector<char> edge_grown_;
    std::vector<Cluster> clusters_;
    std::vector<std::int32_t> cluster_of_root_;
    std::vector<std::int32_t> touched_nodes_;
    std::vector<std::int32_t> grown_edges_;
    std::vector<std::int32_t> frontier_scratch_;
    /** Grown edges as arcs, per node in grown_edges_ order (boundary
     *  edges on their detector only); filled as growth absorbs each
     *  edge, read by the forest builders, cleared in ResetScratch. */
    std::vector<std::vector<Arc>> grown_adj_;
    std::vector<std::int32_t> order_;
    std::vector<std::int32_t> parent_edge_;
    std::vector<char> visited_;

    // Weighted-forest tables and scratch (all empty when
    // Options::correlated is false).
    bool weighted_ = false;
    std::vector<double> edge_weight_;  ///< -log p, clamped
    std::vector<double> best_dist_;    ///< per-node tentative distance
    std::vector<FrontierEntry> frontier_;

    // Correlated stage-2 tables, built once at construction (all empty
    // when Options::correlated is false or no entry wins arbitration).
    // Entries are stored in priority order: descending mechanism
    // probability, ties broken by decomposition edge set.
    bool stage2_ = false;
    std::vector<std::int32_t> hyper_off_;        ///< CSR into hyper_edge_list_
    std::vector<std::int32_t> hyper_edge_list_;  ///< sorted edge indices
    std::vector<std::uint32_t> hyper_residual_;  ///< obs XOR to re-apply
    std::vector<std::int32_t> hyper_mech_;       ///< dense mechanism id
    std::vector<std::vector<std::int32_t>> edge_hyper_;  ///< edge -> entries
    std::vector<char> edge_stage2_;  ///< 1 iff an active entry lists the edge

    // Correlated stage-2 scratch, reset via used_edges_ / hyper_cands_ /
    // mechs_claimed_ in ResetScratch.
    std::vector<char> edge_used_;
    std::vector<char> edge_claimed_;
    std::vector<std::int32_t> used_edges_;
    std::vector<char> hyper_seen_;
    std::vector<std::int32_t> hyper_cands_;
    std::vector<char> mech_claimed_;
    std::vector<std::int32_t> mechs_claimed_;

    // DecodeBatch scratch.
    std::vector<std::uint64_t> mask_scratch_;
    sim::SparseSyndromes syndromes_scratch_;
};

}  // namespace tiqec::decoder

#endif  // TIQEC_DECODER_UNION_FIND_DECODER_H
