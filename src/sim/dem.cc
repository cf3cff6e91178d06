#include "sim/dem.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

namespace tiqec::sim {

namespace {

/** A single Pauli error component: what it flips and where it occurs. */
struct Component
{
    int instruction = 0;  ///< index of the owning channel instruction
    bool flip_x0 = false, flip_z0 = false;  ///< action on q0
    bool flip_x1 = false, flip_z1 = false;  ///< action on q1
    bool flip_record = false;               ///< measurement-record flip
    double p = 0.0;
};

/** Enumerates all components of all channels in instruction order. */
std::vector<Component>
EnumerateComponents(const NoisyCircuit& circuit)
{
    std::vector<Component> comps;
    const auto& instructions = circuit.instructions();
    for (size_t i = 0; i < instructions.size(); ++i) {
        const SimInstruction& inst = instructions[i];
        auto add = [&](Component c) {
            c.instruction = static_cast<int>(i);
            comps.push_back(c);
        };
        switch (inst.op) {
          case SimOp::kXError:
            add({.flip_x0 = true, .p = inst.p});
            break;
          case SimOp::kZError:
            add({.flip_z0 = true, .p = inst.p});
            break;
          case SimOp::kDepolarize1:
            add({.flip_x0 = true, .p = inst.p / 3.0});
            add({.flip_z0 = true, .p = inst.p / 3.0});
            add({.flip_x0 = true, .flip_z0 = true, .p = inst.p / 3.0});
            break;
          case SimOp::kDepolarize2:
            for (int which = 1; which < 16; ++which) {
                add({.flip_x0 = (which & 1) != 0,
                     .flip_z0 = (which & 2) != 0,
                     .flip_x1 = (which & 4) != 0,
                     .flip_z1 = (which & 8) != 0,
                     .p = inst.p / 15.0});
            }
            break;
          case SimOp::kMeasure:
            if (inst.p > 0.0) {
                add({.flip_record = true, .p = inst.p});
            }
            break;
          case SimOp::kReset:
            if (inst.p > 0.0) {
                add({.flip_x0 = true, .p = inst.p});
            }
            break;
          default:
            break;
        }
    }
    return comps;
}

using Plane = std::vector<std::uint64_t>;

void
SetBit(Plane& plane, int lane)
{
    plane[lane >> 6] |= 1ULL << (lane & 63);
}

}  // namespace

DetectorErrorModel
BuildDem(const NoisyCircuit& circuit)
{
    DetectorErrorModel dem;
    dem.num_detectors = circuit.num_detectors();
    dem.num_observables = circuit.num_observables();

    const std::vector<Component> comps = EnumerateComponents(circuit);
    dem.num_components = static_cast<int>(comps.size());
    const int lanes = static_cast<int>(comps.size());
    if (lanes == 0) {
        return dem;
    }
    const int words = (lanes + 63) / 64;
    const int nq = circuit.num_qubits();
    std::vector<Plane> x(nq, Plane(words, 0));
    std::vector<Plane> z(nq, Plane(words, 0));
    std::vector<Plane> records(circuit.num_measurements(), Plane(words, 0));
    std::vector<Plane> det(circuit.num_detectors(), Plane(words, 0));
    std::vector<Plane> obs(std::max(1, circuit.num_observables()),
                           Plane(words, 0));

    // Group components by owning instruction for injection.
    std::vector<std::vector<int>> by_instruction(
        circuit.instructions().size());
    for (int c = 0; c < lanes; ++c) {
        by_instruction[comps[c].instruction].push_back(c);
    }

    int next_record = 0;
    const auto& instructions = circuit.instructions();
    for (size_t i = 0; i < instructions.size(); ++i) {
        const SimInstruction& inst = instructions[i];
        // Clifford / record semantics first (so a measure's record flip
        // component applies to its own record, and a reset clears errors
        // injected before it).
        switch (inst.op) {
          case SimOp::kH:
            x[inst.q0].swap(z[inst.q0]);
            break;
          case SimOp::kCnot:
            for (int w = 0; w < words; ++w) {
                x[inst.q1][w] ^= x[inst.q0][w];
                z[inst.q0][w] ^= z[inst.q1][w];
            }
            break;
          case SimOp::kSwap:
            x[inst.q0].swap(x[inst.q1]);
            z[inst.q0].swap(z[inst.q1]);
            break;
          case SimOp::kMeasure:
            records[next_record] = x[inst.q0];
            break;
          case SimOp::kReset:
            std::fill(x[inst.q0].begin(), x[inst.q0].end(), 0);
            std::fill(z[inst.q0].begin(), z[inst.q0].end(), 0);
            break;
          case SimOp::kDetector:
            for (const auto m : inst.targets) {
                for (int w = 0; w < words; ++w) {
                    det[inst.index][w] ^= records[m][w];
                }
            }
            break;
          case SimOp::kObservableInclude:
            for (const auto m : inst.targets) {
                for (int w = 0; w < words; ++w) {
                    obs[inst.index][w] ^= records[m][w];
                }
            }
            break;
          default:
            break;
        }
        // Inject this instruction's error components into their lanes.
        for (const int c : by_instruction[i]) {
            const Component& comp = comps[c];
            if (comp.flip_x0) SetBit(x[inst.q0], c);
            if (comp.flip_z0) SetBit(z[inst.q0], c);
            if (comp.flip_x1) SetBit(x[inst.q1], c);
            if (comp.flip_z1) SetBit(z[inst.q1], c);
            if (comp.flip_record) SetBit(records[next_record], c);
        }
        if (inst.op == SimOp::kMeasure) {
            ++next_record;
        }
    }

    // Collect per-lane flipped detectors / observables.
    std::vector<std::vector<int>> lane_dets(lanes);
    std::vector<std::uint32_t> lane_obs(lanes, 0);
    for (int d = 0; d < circuit.num_detectors(); ++d) {
        for (int w = 0; w < words; ++w) {
            std::uint64_t bits = det[d][w];
            while (bits) {
                const int lane = w * 64 + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (lane < lanes) {
                    lane_dets[lane].push_back(d);
                }
            }
        }
    }
    for (int o = 0; o < circuit.num_observables(); ++o) {
        for (int w = 0; w < words; ++w) {
            std::uint64_t bits = obs[o][w];
            while (bits) {
                const int lane = w * 64 + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (lane < lanes) {
                    lane_obs[lane] |= 1u << o;
                }
            }
        }
    }

    // Merge identical components; key = (sorted detectors, obs mask).
    struct Key
    {
        std::vector<int> dets;
        std::uint32_t obs;
        bool operator<(const Key& o) const
        {
            if (dets != o.dets) {
                return dets < o.dets;
            }
            return obs < o.obs;
        }
    };
    std::map<Key, double> merged;
    for (int c = 0; c < lanes; ++c) {
        if (lane_dets[c].empty() && lane_obs[c] == 0) {
            continue;  // invisible component (e.g. Z before a reset)
        }
        double& p = merged[Key{lane_dets[c], lane_obs[c]}];
        p = p * (1.0 - comps[c].p) + comps[c].p * (1.0 - p);
    }

    // First pass: elementary (<= 2 detector) mechanisms become edges
    // directly. Edges are keyed by (d0, d1, obs): mechanisms with the
    // same endpoints but different logical action stay distinct here and
    // are coalesced at the end. pair_variants indexes every variant of a
    // (d0, d1) pair, so the decomposition search below is linear in the
    // variants of a pair, never in 2^num_observables.
    std::map<std::tuple<int, int, std::uint32_t>, size_t> edge_index;
    std::map<std::pair<int, int>, std::vector<size_t>> pair_variants;
    auto canon = [](int d0, int d1) {
        if (d1 != DemEdge::kBoundary && d0 > d1) {
            std::swap(d0, d1);
        }
        return std::make_pair(d0, d1);
    };
    auto add_edge = [&](int d0, int d1, double p, std::uint32_t obs_mask) {
        const auto [a, b] = canon(d0, d1);
        const auto key = std::make_tuple(a, b, obs_mask);
        const auto it = edge_index.find(key);
        if (it != edge_index.end()) {
            double& q = dem.edges[it->second].p;
            q = q * (1.0 - p) + p * (1.0 - q);
            return;
        }
        edge_index[key] = dem.edges.size();
        pair_variants[std::make_pair(a, b)].push_back(dem.edges.size());
        dem.edges.push_back({a, b, p, obs_mask});
    };
    std::vector<std::pair<Key, double>> composite;
    for (const auto& [key, p] : merged) {
        if (key.dets.empty()) {
            // Pure observable flip with no detector signature: invisible
            // to any decoder; drop it (counted).
            ++dem.num_undecomposable;
            dem.undecomposable_probability += p;
            continue;
        }
        if (key.dets.size() == 1) {
            add_edge(key.dets[0], DemEdge::kBoundary, p, key.obs);
        } else if (key.dets.size() == 2) {
            add_edge(key.dets[0], key.dets[1], p, key.obs);
        } else {
            composite.emplace_back(key, p);
        }
    }
    // Second pass: decompose composite mechanisms onto existing
    // elementary edges with a backtracking perfect-matching search over
    // the signature's detectors, where any detector may take a boundary
    // edge instead of a partner (the greedy pair-then-leftover scheme
    // this replaces failed on signatures that need boundary absorption
    // mid-matching). A matching whose total observable action equals the
    // mechanism's folds the probability into its edges exactly as
    // before; every composite mechanism additionally records its
    // structural matchings as hyperedge variants for the decoder's
    // correlated second stage. A fabricated edge would poison the
    // decoding graph, so signatures with no matching at all are still
    // dropped (`num_undecomposable`).
    constexpr int kMaxVariants = 8;
    constexpr int kSearchBudget = 4096;
    for (const auto& [key, p] : composite) {
        std::vector<int> chosen;
        int budget = kSearchBudget;
        // Canonical DFS order (deterministic): the smallest remaining
        // detector pairs with partners in ascending order before its
        // boundary option; edge variants in ascending obs order.
        std::function<bool(const std::vector<int>&, std::uint32_t)>
            exact = [&](const std::vector<int>& rest,
                        std::uint32_t acc) -> bool {
            if (rest.empty()) {
                return acc == key.obs;
            }
            if (--budget < 0) {
                return false;
            }
            const int x = rest.front();
            for (size_t j = 1; j < rest.size(); ++j) {
                const auto it = pair_variants.find(canon(x, rest[j]));
                if (it == pair_variants.end()) {
                    continue;
                }
                std::vector<int> sub;
                sub.reserve(rest.size() - 2);
                for (size_t t = 1; t < rest.size(); ++t) {
                    if (t != j) {
                        sub.push_back(rest[t]);
                    }
                }
                for (const size_t e : it->second) {
                    chosen.push_back(static_cast<int>(e));
                    if (exact(sub, acc ^ dem.edges[e].obs_mask)) {
                        return true;
                    }
                    chosen.pop_back();
                }
            }
            const auto boundary = pair_variants.find(
                std::make_pair(x, DemEdge::kBoundary));
            if (boundary != pair_variants.end()) {
                const std::vector<int> sub(rest.begin() + 1, rest.end());
                for (const size_t e : boundary->second) {
                    chosen.push_back(static_cast<int>(e));
                    if (exact(sub, acc ^ dem.edges[e].obs_mask)) {
                        return true;
                    }
                    chosen.pop_back();
                }
            }
            return false;
        };
        const bool exact_found = exact(key.dets, 0);
        if (exact_found) {
            for (const int e : chosen) {
                double& q = dem.edges[e].p;
                q = q * (1.0 - p) + p * (1.0 - q);
            }
            ++dem.num_decomposed;
        }
        // Record the mechanism's structural matchings (over each pair's
        // first variant) as hyperedge variants of one mechanism group,
        // whether or not an exact matching existed: the peeling forest
        // may realise ANY matching of the signature, and only variants
        // whose observable XOR differs from the mechanism's need the
        // second-stage correction — but consistent variants must be
        // present too, so a more probable consistent interpretation can
        // veto a correction (the decoder arbitrates per edge set).
        std::vector<std::vector<int>> variants;
        chosen.clear();
        budget = kSearchBudget;
        std::function<void(const std::vector<int>&)> enumerate =
            [&](const std::vector<int>& rest) {
            if (static_cast<int>(variants.size()) >= kMaxVariants ||
                --budget < 0) {
                return;
            }
            if (rest.empty()) {
                std::vector<int> sorted = chosen;
                std::sort(sorted.begin(), sorted.end());
                if (std::find(variants.begin(), variants.end(), sorted) ==
                    variants.end()) {
                    variants.push_back(std::move(sorted));
                }
                return;
            }
            const int x = rest.front();
            for (size_t j = 1; j < rest.size(); ++j) {
                const auto it = pair_variants.find(canon(x, rest[j]));
                if (it == pair_variants.end()) {
                    continue;
                }
                std::vector<int> sub;
                sub.reserve(rest.size() - 2);
                for (size_t t = 1; t < rest.size(); ++t) {
                    if (t != j) {
                        sub.push_back(rest[t]);
                    }
                }
                chosen.push_back(static_cast<int>(it->second.front()));
                enumerate(sub);
                chosen.pop_back();
            }
            const auto boundary = pair_variants.find(
                std::make_pair(x, DemEdge::kBoundary));
            if (boundary != pair_variants.end()) {
                const std::vector<int> sub(rest.begin() + 1, rest.end());
                chosen.push_back(
                    static_cast<int>(boundary->second.front()));
                enumerate(sub);
                chosen.pop_back();
            }
        };
        enumerate(key.dets);
        if (variants.empty()) {
            if (!exact_found) {
                ++dem.num_undecomposable;
                dem.undecomposable_probability += p;
            }
            continue;
        }
        const int mech = dem.num_hyperedges++;
        dem.hyperedge_probability += p;
        for (std::vector<int>& v : variants) {
            dem.hyperedges.push_back(
                {key.dets, std::move(v), p, key.obs, mech});
        }
    }
    // Final pass: parallel edges with conflicting observable masks cannot
    // be told apart by a syndrome decoder; keep the most probable one
    // (exactly what weighted matching would effectively do) and demote
    // the rest to single-edge hyperedges shadowing the kept edge, so the
    // conflicting mass stays represented and reported instead of
    // silently vanishing. Hyperedge decompositions are remapped onto the
    // surviving edge indices.
    std::map<std::pair<int, int>, size_t> slot_of_pair;
    std::vector<DemEdge> kept;
    std::vector<size_t> remap(dem.edges.size(), 0);
    struct Loser
    {
        DemEdge edge;
        size_t slot;
    };
    std::vector<Loser> losers;
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        const auto key = std::make_pair(e.d0, e.d1);
        const auto it = slot_of_pair.find(key);
        if (it == slot_of_pair.end()) {
            slot_of_pair[key] = kept.size();
            remap[i] = kept.size();
            kept.push_back(e);
            continue;
        }
        remap[i] = it->second;
        DemEdge& winner = kept[it->second];
        const DemEdge loser_edge = e.p > winner.p ? winner : e;
        if (e.p > winner.p) {
            winner = e;
        }
        dem.dropped_probability += loser_edge.p;
        losers.push_back({loser_edge, it->second});
    }
    dem.edges = std::move(kept);
    for (DemHyperedge& h : dem.hyperedges) {
        for (int& e : h.edges) {
            e = static_cast<int>(remap[static_cast<size_t>(e)]);
        }
        std::sort(h.edges.begin(), h.edges.end());
    }
    for (const Loser& l : losers) {
        std::vector<int> dets = {l.edge.d0};
        if (l.edge.d1 != DemEdge::kBoundary) {
            dets.push_back(l.edge.d1);
        }
        dem.hyperedges.push_back({std::move(dets),
                                  {static_cast<int>(l.slot)},
                                  l.edge.p,
                                  l.edge.obs_mask,
                                  dem.num_hyperedges++});
        dem.hyperedge_probability += l.edge.p;
    }
    return dem;
}

}  // namespace tiqec::sim
