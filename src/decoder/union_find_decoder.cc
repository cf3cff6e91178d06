#include "decoder/union_find_decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace tiqec::decoder {

UnionFindDecoder::UnionFindDecoder(const sim::DetectorErrorModel& dem,
                                   const Options& options)
    : num_detectors_(dem.num_detectors)
{
    edges_.reserve(dem.edges.size());
    arc_off_.assign(num_detectors_ + 1, 0);
    for (const auto& e : dem.edges) {
        const std::int32_t v =
            e.d1 == sim::DemEdge::kBoundary ? BoundaryNode() : e.d1;
        edges_.push_back({e.d0, v, e.obs_mask});
        ++arc_off_[e.d0 + 1];
        if (v != BoundaryNode()) {
            ++arc_off_[v + 1];
        }
    }
    for (int d = 0; d < num_detectors_; ++d) {
        arc_off_[d + 1] += arc_off_[d];
    }
    arcs_.resize(arc_off_[num_detectors_]);
    std::vector<std::int32_t> next_arc(arc_off_.begin(), arc_off_.end() - 1);
    for (size_t i = 0; i < edges_.size(); ++i) {
        const Edge& e = edges_[i];
        const auto ei = static_cast<std::int32_t>(i);
        arcs_[next_arc[e.u]++] = {e.v, ei};
        if (e.v != BoundaryNode()) {
            arcs_[next_arc[e.v]++] = {e.u, ei};
        }
    }
    const int n = num_detectors_ + 1;
    parent_.resize(n);
    for (int i = 0; i < n; ++i) {
        parent_[i] = i;
    }
    pot_.assign(n, 0);
    defect_.assign(n, 0);
    in_cluster_.assign(n, 0);
    edge_grown_.assign(edges_.size(), 0);
    cluster_of_root_.assign(n, -1);
    grown_adj_.resize(n);
    parent_edge_.assign(n, -1);
    visited_.assign(n, 0);

    weighted_ = options.correlated;
    if (weighted_) {
        edge_weight_.reserve(edges_.size());
        for (const auto& e : dem.edges) {
            edge_weight_.push_back(
                -std::log(std::clamp(e.p, 1e-15, 1.0)));
        }
        best_dist_.resize(n);
    }

    if (!options.correlated || dem.hyperedges.empty()) {
        return;
    }

    // ---- Stage-2 arbitration, per decomposition edge set ----------------
    // Competing interpretations of one realised edge set: the
    // independent-edges baseline (residual 0) versus every mechanism
    // variant that decomposes onto exactly that set. The most probable
    // interpretation wins statically; only winners whose observable
    // action differs from the edge XOR need a runtime entry (a winning
    // consistent interpretation vetoes nothing but corrects nothing).
    const auto odds_of = [](double p) {
        return p < 1.0 ? p / (1.0 - p) : 1e300;
    };
    std::map<std::vector<std::int32_t>, std::vector<int>> by_edge_set;
    for (size_t i = 0; i < dem.hyperedges.size(); ++i) {
        std::vector<std::int32_t> key(dem.hyperedges[i].edges.begin(),
                                      dem.hyperedges[i].edges.end());
        std::sort(key.begin(), key.end());
        by_edge_set[std::move(key)].push_back(static_cast<int>(i));
    }
    struct Winner
    {
        const std::vector<std::int32_t>* edge_set;
        std::uint32_t residual;
        int mechanism;
        double p;
    };
    std::vector<Winner> winners;
    for (const auto& [edge_set, variants] : by_edge_set) {
        double baseline = 1.0;
        std::uint32_t edge_obs = 0;
        for (const std::int32_t ei : edge_set) {
            baseline *= odds_of(dem.edges[ei].p);
            edge_obs ^= dem.edges[ei].obs_mask;
        }
        double best_odds = baseline;
        int best = -1;
        for (const int vi : variants) {
            const double odds = odds_of(dem.hyperedges[vi].p);
            if (odds > best_odds) {
                best_odds = odds;
                best = vi;
            }
        }
        if (best < 0) {
            continue;  // independent-edges interpretation wins
        }
        const auto& h = dem.hyperedges[best];
        const std::uint32_t residual = h.obs_mask ^ edge_obs;
        if (residual != 0) {
            winners.push_back({&edge_set, residual, h.mechanism, h.p});
        }
    }
    std::stable_sort(winners.begin(), winners.end(),
                     [](const Winner& a, const Winner& b) {
                         return a.p > b.p;
                     });

    std::map<int, std::int32_t> dense_mech;
    hyper_off_.push_back(0);
    edge_hyper_.resize(edges_.size());
    for (const Winner& w : winners) {
        const auto idx = static_cast<std::int32_t>(hyper_residual_.size());
        for (const std::int32_t ei : *w.edge_set) {
            hyper_edge_list_.push_back(ei);
            edge_hyper_[ei].push_back(idx);
        }
        hyper_off_.push_back(
            static_cast<std::int32_t>(hyper_edge_list_.size()));
        hyper_residual_.push_back(w.residual);
        const auto [it, inserted] = dense_mech.emplace(
            w.mechanism, static_cast<std::int32_t>(dense_mech.size()));
        hyper_mech_.push_back(it->second);
    }
    stage2_ = !hyper_residual_.empty();
    if (stage2_) {
        edge_stage2_.assign(edges_.size(), 0);
        for (const std::int32_t ei : hyper_edge_list_) {
            edge_stage2_[ei] = 1;
        }
        edge_used_.assign(edges_.size(), 0);
        edge_claimed_.assign(edges_.size(), 0);
        hyper_seen_.assign(hyper_residual_.size(), 0);
        mech_claimed_.assign(dense_mech.size(), 0);
    }
}

int
UnionFindDecoder::Find(int x, std::uint32_t& pot)
{
    // Each re-pointed node first folds its parent's potential into its
    // own, so pot_ stays relative to parent_.
    pot = 0;
    while (parent_[x] != x) {
        const int p = parent_[x];
        pot_[x] ^= pot_[p];
        parent_[x] = parent_[p];
        pot ^= pot_[x];
        x = parent_[x];
    }
    return x;
}

void
UnionFindDecoder::ResetScratch()
{
    for (const std::int32_t node : touched_nodes_) {
        parent_[node] = node;
        pot_[node] = 0;
        defect_[node] = 0;
        in_cluster_[node] = 0;
        cluster_of_root_[node] = -1;
        parent_edge_[node] = -1;
        visited_[node] = 0;
        grown_adj_[node].clear();
    }
    for (const std::int32_t ei : grown_edges_) {
        edge_grown_[ei] = 0;
    }
    touched_nodes_.clear();
    grown_edges_.clear();
    order_.clear();
    if (stage2_) {
        for (const std::int32_t ei : used_edges_) {
            edge_used_[ei] = 0;
            edge_claimed_[ei] = 0;
        }
        used_edges_.clear();
        for (const std::int32_t hi : hyper_cands_) {
            hyper_seen_[hi] = 0;
        }
        hyper_cands_.clear();
        for (const std::int32_t m : mechs_claimed_) {
            mech_claimed_[m] = 0;
        }
        mechs_claimed_.clear();
    }
}

void
UnionFindDecoder::BuildBfsForest(std::span<const int> syndrome)
{
    // order_ doubles as the BFS queue (nodes are appended once and
    // scanned once), so no per-decode queue allocation.
    auto bfs_from = [&](std::int32_t start) {
        size_t head = order_.size();
        order_.push_back(start);
        while (head < order_.size()) {
            const std::int32_t node = order_[head++];
            for (const Arc& arc : grown_adj_[node]) {
                if (arc.other == BoundaryNode() || visited_[arc.other]) {
                    continue;
                }
                visited_[arc.other] = 1;
                parent_edge_[arc.other] = arc.edge;
                order_.push_back(arc.other);
            }
        }
    };
    const auto needs_forest = [&](int node) {
        return clusters_[cluster_of_root_[Find(node)]].needs_forest;
    };
    for (const std::int32_t ei : grown_edges_) {
        const Edge& e = edges_[ei];
        if (e.v == BoundaryNode() && !visited_[e.u] && needs_forest(e.u)) {
            visited_[e.u] = 1;
            parent_edge_[e.u] = ei;  // parent is the boundary
            bfs_from(e.u);
        }
    }
    // Every cluster holds a defect and the defects were touched first, so
    // an interior cluster roots at its first defect.
    for (const int d : syndrome) {
        if (!visited_[d] && needs_forest(d)) {
            visited_[d] = 1;
            parent_edge_[d] = -1;  // interior forest root
            bfs_from(d);
        }
    }
}

void
UnionFindDecoder::BuildWeightedForest(std::span<const int> syndrome)
{
    // Dijkstra under w = -log p, one search per cluster: every settled
    // node's parent edge lies on its most probable path to the boundary
    // (or to the cluster root), so the peel drains defects along likely
    // error strings instead of arbitrary BFS trees. Nodes settle in
    // strict (dist, node, edge) order, so decodes are deterministic for
    // any probability assignment (DESIGN.md §3.6).
    //
    // visited_ is tri-state here: 0 untouched, kOffered while the node's
    // best offer so far sits in best_dist_ / parent_edge_, kSettled once
    // that offer is popped.
    constexpr char kSettled = 1;
    constexpr char kOffered = 2;
    const auto less = [](const FrontierEntry& a, const FrontierEntry& b) {
        if (a.dist != b.dist) {
            return a.dist < b.dist;
        }
        if (a.node != b.node) {
            return a.node < b.node;
        }
        return a.pe < b.pe;
    };
    // frontier_[head, end) is sorted ascending. Only offers strictly
    // better than the node's tentative best are inserted, so the node's
    // best offer is always present and pops before its superseded ones.
    size_t head = 0;
    const auto offer = [&](std::int32_t node, double dist, std::int32_t pe) {
        if (visited_[node] == kOffered &&
            !(dist < best_dist_[node] ||
              (dist == best_dist_[node] && pe < parent_edge_[node]))) {
            return;
        }
        visited_[node] = kOffered;
        best_dist_[node] = dist;
        parent_edge_[node] = pe;
        const FrontierEntry entry{dist, node, pe};
        // Insert from the back: the entry's dist is at least the settling
        // node's, so it lands near the end.
        frontier_.push_back(entry);
        size_t i = frontier_.size() - 1;
        for (; i > head && less(entry, frontier_[i - 1]); --i) {
            frontier_[i] = frontier_[i - 1];
        }
        frontier_[i] = entry;
    };

    // Clusters share no grown edge and the boundary is never expanded, so
    // searching each cluster alone settles its nodes exactly as one
    // global search would. Bucket each grown boundary edge under its
    // cluster's record as a seed.
    for (const std::int32_t ei : grown_edges_) {
        const Edge& e = edges_[ei];
        if (e.v == BoundaryNode()) {
            Cluster& c = clusters_[cluster_of_root_[Find(e.u)]];
            if (c.needs_forest) {
                c.seeds.push_back(ei);
            }
        }
    }
    for (const int d : syndrome) {
        const int root = Find(d);
        const std::int32_t ci = cluster_of_root_[root];
        if (ci < 0 || !clusters_[ci].needs_forest) {
            continue;  // searched from an earlier defect, or no forest
        }
        cluster_of_root_[root] = -1;
        Cluster& c = clusters_[ci];
        frontier_.clear();
        head = 0;
        if (c.seeds.empty()) {
            offer(d, 0.0, -1);  // interior cluster: root at first defect
        } else {
            for (const std::int32_t ei : c.seeds) {
                offer(edges_[ei].u, edge_weight_[ei], ei);
            }
            c.seeds.clear();
        }
        // The peel reads only parent edges on defect-to-root paths, and
        // ancestors settle before descendants, so the search stops at the
        // cluster's last defect; the nodes it leaves unsettled carry none.
        int defects_left = c.parity;
        while (head < frontier_.size()) {
            const FrontierEntry top = frontier_[head++];
            if (visited_[top.node] == kSettled) {
                continue;  // superseded by a better offer
            }
            visited_[top.node] = kSettled;  // parent_edge_ holds top.pe
            order_.push_back(top.node);
            if (defect_[top.node] && --defects_left == 0) {
                break;
            }
            for (const Arc& arc : grown_adj_[top.node]) {
                const int other = arc.other;
                if (other == BoundaryNode() || visited_[other] == kSettled) {
                    continue;
                }
                // A dead end (no defect, no grown edge but this arc)
                // would settle as a leaf the peel never reads; skipping
                // it leaves every other settle unchanged (DESIGN.md
                // §3.6, fact 4).
                if (grown_adj_[other].size() == 1 && !defect_[other]) {
                    continue;
                }
                offer(other, top.dist + edge_weight_[arc.edge], arc.edge);
            }
        }
    }
}

std::uint32_t
UnionFindDecoder::Decode(std::span<const int> syndrome)
{
    if (syndrome.empty()) {
        return 0;
    }
    if (clusters_.size() < syndrome.size()) {
        clusters_.resize(syndrome.size());
    }

    auto touch = [&](int node) {
        if (!in_cluster_[node]) {
            in_cluster_[node] = 1;
            touched_nodes_.push_back(node);
        }
    };

    for (size_t i = 0; i < syndrome.size(); ++i) {
        const int d = syndrome[i];
        if (d < 0 || d >= num_detectors_) {
            ResetScratch();
            throw std::out_of_range(
                "UnionFindDecoder: detector index " + std::to_string(d) +
                " outside [0, " + std::to_string(num_detectors_) + ")");
        }
        if (in_cluster_[d]) {
            ResetScratch();
            throw std::invalid_argument(
                "UnionFindDecoder: detector index " + std::to_string(d) +
                " repeated in the syndrome");
        }
        touch(d);
        defect_[d] = 1;
        Cluster& c = clusters_[i];
        c.parity = 1;
        c.boundary = false;
        c.boundary_pot = 0;
        c.needs_forest = false;
        c.frontier.clear();
        c.frontier.push_back(d);
        cluster_of_root_[d] = static_cast<std::int32_t>(i);
    }

    // ---- Growth ----------------------------------------------------------
    // Growth also keeps each cluster's observable potentials (pot_) and
    // flags the clusters whose correction depends on the forest
    // (DESIGN.md §3.6, fact 5). Once a cluster is flagged its potentials
    // are never read again.
    const auto join_boundary = [](Cluster& c, std::uint32_t pot) {
        if (!c.boundary) {
            c.boundary = true;
            c.boundary_pot = pot;
        } else if (pot != c.boundary_pot) {
            c.needs_forest = true;  // odd cycle through the boundary
        }
    };
    bool any_odd = true;
    while (any_odd) {
        any_odd = false;
        const size_t grown_before = grown_edges_.size();
        for (size_t ci = 0; ci < syndrome.size(); ++ci) {
            // Find the live cluster record for this seed.
            const int root = Find(syndrome[ci]);
            const std::int32_t live = cluster_of_root_[root];
            if (live != static_cast<std::int32_t>(ci)) {
                continue;  // merged into another cluster
            }
            Cluster& c = clusters_[ci];
            if (c.parity % 2 == 0 || c.boundary) {
                continue;
            }
            frontier_scratch_.clear();
            frontier_scratch_.swap(c.frontier);
            for (const std::int32_t node : frontier_scratch_) {
                // Potentials are kept only while the cluster needs no
                // forest; node_pot is the node's, in the root's frame.
                const bool track = !c.needs_forest;
                std::uint32_t node_pot = 0;
                if (track) {
                    Find(node, node_pot);
                }
                const std::int32_t arcs_end = arc_off_[node + 1];
                for (std::int32_t a = arc_off_[node]; a < arcs_end; ++a) {
                    const Arc arc = arcs_[a];
                    if (edge_grown_[arc.edge]) {
                        continue;
                    }
                    edge_grown_[arc.edge] = 1;
                    grown_edges_.push_back(arc.edge);
                    grown_adj_[node].push_back(arc);
                    if (stage2_ && edge_stage2_[arc.edge]) {
                        c.needs_forest = true;
                    }
                    // The far endpoint's potential if this edge is
                    // consistent.
                    const std::uint32_t far_pot =
                        track ? node_pot ^ edges_[arc.edge].obs_mask : 0;
                    const int other = arc.other;
                    if (other == BoundaryNode()) {
                        join_boundary(c, far_pot);
                        continue;
                    }
                    grown_adj_[other].push_back({node, arc.edge});
                    if (!in_cluster_[other]) {
                        touch(other);
                        parent_[other] = root;
                        pot_[other] = far_pot;
                        c.frontier.push_back(other);
                        continue;
                    }
                    std::uint32_t other_pot = 0;
                    const int other_root = Find(other, other_pot);
                    if (other_root == root) {
                        if (other_pot != far_pot) {
                            c.needs_forest = true;  // odd cycle
                        }
                        continue;
                    }
                    // Merge the other cluster into this one, re-framed so
                    // that this edge is consistent.
                    pot_[other_root] = far_pot ^ other_pot;
                    const std::int32_t oc = cluster_of_root_[other_root];
                    if (oc >= 0) {
                        Cluster& o = clusters_[oc];
                        c.parity += o.parity;
                        c.needs_forest = c.needs_forest || o.needs_forest;
                        if (o.boundary) {
                            join_boundary(c,
                                          o.boundary_pot ^ pot_[other_root]);
                        }
                        c.frontier.insert(c.frontier.end(),
                                          o.frontier.begin(),
                                          o.frontier.end());
                        o.frontier.clear();
                        cluster_of_root_[other_root] = -1;
                    }
                    parent_[other_root] = root;
                }
            }
            // The union operations above may have moved the root.
            const int new_root = Find(root);
            if (new_root != root) {
                cluster_of_root_[root] = -1;
            }
            cluster_of_root_[new_root] = static_cast<std::int32_t>(ci);
            if (c.parity % 2 != 0 && !c.boundary) {
                any_odd = true;  // still unsettled after this round
            }
        }
        if (any_odd && grown_edges_.size() == grown_before) {
            // Every remaining odd cluster has an exhausted frontier and
            // no boundary: its DEM component has no boundary edge and
            // the syndrome can never settle. Fail loudly instead of
            // returning a partial correction.
            ResetScratch();
            throw std::runtime_error(
                "UnionFindDecoder: odd cluster cannot reach a boundary "
                "(DEM component has no boundary edge)");
        }
    }

    // ---- Observable-consistent clusters ---------------------------------
    // Every peel of such a cluster yields the XOR of its defects'
    // potentials, plus the boundary's when its defect count is odd, and
    // uses no stage-2 edge, so it needs no forest. XORing boundary_pot
    // once per defect adds it exactly when the count is odd.
    std::uint32_t correction = 0;
    bool any_forest = false;
    for (const int d : syndrome) {
        std::uint32_t pot = 0;
        const Cluster& c = clusters_[cluster_of_root_[Find(d, pot)]];
        if (c.needs_forest) {
            any_forest = true;
        } else {
            correction ^= pot ^ c.boundary_pot;
        }
    }

    // ---- Peeling ---------------------------------------------------------
    // Spanning forest over the grown edges of the remaining clusters;
    // boundary-touching clusters root at the boundary so leftover defects
    // can drain into it. Trees must root at the boundary where possible,
    // so no node a search has reached is ever re-seeded as a root;
    // otherwise every cluster node would become its own parentless root
    // and defects could never drain along tree edges.
    if (any_forest && weighted_) {
        BuildWeightedForest(syndrome);
    } else if (any_forest) {
        BuildBfsForest(syndrome);
    }
    // Peel from the leaves (reverse of the parent-before-child order_).
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const std::int32_t node = *it;
        if (!defect_[node]) {
            continue;
        }
        const std::int32_t ei = parent_edge_[node];
        if (ei < 0) {
            // Root of an even (non-boundary) cluster: parity guarantees
            // the defect was consumed before the root is peeled, so this
            // is unreachable (odd boundary-less clusters throw in the
            // growth loop above).
            continue;
        }
        const Edge& e = edges_[ei];
        correction ^= e.obs_mask;
        if (stage2_) {
            edge_used_[ei] = 1;
            used_edges_.push_back(ei);
        }
        defect_[node] = 0;
        const int other = e.u == node ? e.v : e.u;
        if (other != BoundaryNode()) {
            defect_[other] ^= 1;
        }
    }

    // ---- Correlated stage 2 ---------------------------------------------
    // Entries whose decomposition edges all appear in the realised
    // correction claim those edges in priority order (at most one
    // interpretation per mechanism) and re-apply their residual
    // observable action — the part of the mechanism's true effect the
    // elementary edge XOR got wrong.
    if (stage2_ && !used_edges_.empty()) {
        for (const std::int32_t ei : used_edges_) {
            for (const std::int32_t hi : edge_hyper_[ei]) {
                if (!hyper_seen_[hi]) {
                    hyper_seen_[hi] = 1;
                    hyper_cands_.push_back(hi);
                }
            }
        }
        std::sort(hyper_cands_.begin(), hyper_cands_.end());
        for (const std::int32_t hi : hyper_cands_) {
            const std::int32_t mech = hyper_mech_[hi];
            if (mech_claimed_[mech]) {
                continue;
            }
            bool applies = true;
            for (std::int32_t k = hyper_off_[hi]; k < hyper_off_[hi + 1];
                 ++k) {
                const std::int32_t ei = hyper_edge_list_[k];
                if (!edge_used_[ei] || edge_claimed_[ei]) {
                    applies = false;
                    break;
                }
            }
            if (!applies) {
                continue;
            }
            for (std::int32_t k = hyper_off_[hi]; k < hyper_off_[hi + 1];
                 ++k) {
                edge_claimed_[hyper_edge_list_[k]] = 1;
            }
            mech_claimed_[mech] = 1;
            mechs_claimed_.push_back(mech);
            correction ^= hyper_residual_[hi];
        }
    }

    ResetScratch();
    return correction;
}

UnionFindDecoder::BatchOutcome
UnionFindDecoder::DecodeBatch(const sim::SampleBatch& batch,
                              std::vector<std::uint64_t>& predictions,
                              const std::function<bool()>& cancelled)
{
    if (batch.num_detectors() != num_detectors_) {
        throw std::invalid_argument(
            "UnionFindDecoder::DecodeBatch: batch detector count does "
            "not match the decoding graph");
    }
    BatchOutcome out;
    const int words = batch.words();
    const int num_obs = batch.num_observables();
    predictions.assign(static_cast<size_t>(num_obs) * words, 0);
    batch.ExtractSyndromes(syndromes_scratch_, &mask_scratch_);
    const std::uint32_t obs_limit =
        num_obs >= 32 ? ~0u : (1u << num_obs) - 1;
    for (int w = 0; w < words; ++w) {
        if (cancelled && cancelled()) {
            return out;  // completed stays false
        }
        std::uint64_t live = mask_scratch_[w];
        while (live) {
            const int bit = std::countr_zero(live);
            live &= live - 1;
            const int s = w * 64 + bit;
            const std::int64_t begin = syndromes_scratch_.offsets[s];
            const std::int64_t len =
                syndromes_scratch_.offsets[s + 1] - begin;
            const std::uint32_t pred =
                Decode(std::span<const int>(
                    syndromes_scratch_.fired.data() + begin,
                    static_cast<size_t>(len))) &
                obs_limit;
            ++out.decoded_shots;
            std::uint32_t remaining = pred;
            while (remaining) {
                const int o = std::countr_zero(remaining);
                remaining &= remaining - 1;
                predictions[static_cast<size_t>(o) * words + w] |=
                    1ULL << bit;
            }
        }
    }
    out.completed = true;
    return out;
}

}  // namespace tiqec::decoder
