#include "compiler/partitioner.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tiqec::compiler {

namespace {

/**
 * Recursively bisects `qubits` (a span of ids partitioned in-place) into
 * `num_clusters` contiguous geometric chunks, writing cluster indices.
 *
 * Each level only needs the *set* split at `left_count` under the axis
 * order — leaves assign whole ranges and deeper levels re-partition — so
 * nth_element replaces the historical full sort. Code-layout coordinates
 * are unique per qubit (the (x, then y) key is a total order), which
 * makes the selected split set, and therefore the final partition,
 * identical to the sorted version's. `coords` is the flat per-qubit
 * coordinate table (avoids a CodeQubit indirection per comparison).
 */
void
Bisect(const std::vector<Coord>& coords, std::vector<QubitId>& qubits,
       int begin, int end, int first_cluster, int num_clusters,
       int cluster_size, std::vector<int>& cluster_of)
{
    if (num_clusters == 1) {
        for (int i = begin; i < end; ++i) {
            cluster_of[qubits[i].value] = first_cluster;
        }
        return;
    }
    // Split along the wider axis of this chunk's bounding box.
    double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
    for (int i = begin; i < end; ++i) {
        const Coord c = coords[qubits[i].value];
        min_x = std::min(min_x, c.x);
        max_x = std::max(max_x, c.x);
        min_y = std::min(min_y, c.y);
        max_y = std::max(max_y, c.y);
    }
    const bool split_x = (max_x - min_x) >= (max_y - min_y);
    const int left_clusters = num_clusters / 2;
    // Give the left side exactly its share of full clusters so every
    // cluster stays within cluster_size (boundary effects may leave the
    // final cluster short by 1-2 qubits, as in the paper).
    const int left_count =
        std::min(end - begin, left_clusters * cluster_size);
    std::nth_element(qubits.begin() + begin,
                     qubits.begin() + begin + left_count,
                     qubits.begin() + end, [&](QubitId a, QubitId b) {
                         const Coord ca = coords[a.value];
                         const Coord cb = coords[b.value];
                         if (split_x) {
                             return ca.x != cb.x ? ca.x < cb.x
                                                 : ca.y < cb.y;
                         }
                         return ca.y != cb.y ? ca.y < cb.y : ca.x < cb.x;
                     });
    Bisect(coords, qubits, begin, begin + left_count, first_cluster,
           left_clusters, cluster_size, cluster_of);
    Bisect(coords, qubits, begin + left_count, end,
           first_cluster + left_clusters, num_clusters - left_clusters,
           cluster_size, cluster_of);
}

}  // namespace

std::vector<std::vector<QubitId>>
Partition::Members() const
{
    std::vector<std::vector<QubitId>> members(num_clusters);
    for (size_t q = 0; q < cluster_of.size(); ++q) {
        members[cluster_of[q]].push_back(QubitId(static_cast<int>(q)));
    }
    return members;
}

double
Partition::CutWeight(const qec::StabilizerCode& code) const
{
    double cut = 0.0;
    for (const auto& e : code.InteractionGraph()) {
        if (cluster_of[e.a.value] != cluster_of[e.b.value]) {
            cut += e.weight;
        }
    }
    return cut;
}

Partition
PartitionQubits(const qec::StabilizerCode& code, int cluster_size)
{
    if (cluster_size < 1) {
        throw std::invalid_argument("cluster_size must be >= 1");
    }
    const int n = code.num_qubits();
    Partition p;
    p.cluster_of.assign(n, -1);
    // Rounds up without overflow, as NumClustersFor does.
    p.num_clusters = n / cluster_size + (n % cluster_size != 0 ? 1 : 0);

    std::vector<QubitId> qubits;
    qubits.reserve(n);
    std::vector<Coord> coords(n);
    for (const auto& q : code.qubits()) {
        qubits.push_back(q.id);
        coords[q.id.value] = q.coord;
    }
    Bisect(coords, qubits, 0, n, 0, p.num_clusters, cluster_size,
           p.cluster_of);

    std::vector<int> sizes(p.num_clusters, 0);
    for (const int c : p.cluster_of) {
        assert(c >= 0 && c < p.num_clusters);
        ++sizes[c];
    }
    p.max_cluster_size = *std::max_element(sizes.begin(), sizes.end());
    p.min_cluster_size = *std::min_element(sizes.begin(), sizes.end());
    assert(p.max_cluster_size <= cluster_size);
    return p;
}

}  // namespace tiqec::compiler
