#include "analysis/distance_certifier.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace tiqec::analysis {

namespace {

using sim::DemEdge;
using sim::DemHyperedge;
using sim::DetectorErrorModel;

/** Symmetric difference of two strictly ascending detector lists. */
std::vector<int>
XorSorted(const std::vector<int>& a, const std::vector<int>& b)
{
    std::vector<int> out;
    out.reserve(a.size() + b.size());
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            out.push_back(a[i++]);
        } else if (b[j] < a[i]) {
            out.push_back(b[j++]);
        } else {
            ++i;
            ++j;
        }
    }
    out.insert(out.end(), a.begin() + static_cast<long>(i), a.end());
    out.insert(out.end(), b.begin() + static_cast<long>(j), b.end());
    return out;
}

std::string
SyndromeKey(const std::vector<int>& syndrome)
{
    std::string key(syndrome.size() * sizeof(int), '\0');
    if (!syndrome.empty()) {
        std::memcpy(key.data(), syndrome.data(), key.size());
    }
    return key;
}

/** Per-observable best witness under construction. Updates are
 *  strict-improvement only and every candidate source enumerates in a
 *  fixed order, so the result is deterministic. */
struct BestWitness
{
    bool found = false;
    int weight = 0;
    std::vector<int> mechanisms;
};

class DistanceAccumulator
{
  public:
    explicit DistanceAccumulator(int num_observables)
        : best_(static_cast<size_t>(std::max(num_observables, 0)))
    {}

    void Offer(std::uint32_t obs_mask, int weight, std::vector<int> witness)
    {
        if (obs_mask == 0) {
            return;
        }
        std::sort(witness.begin(), witness.end());
        witness.erase(std::unique(witness.begin(), witness.end()),
                      witness.end());
        for (size_t o = 0; o < best_.size(); ++o) {
            if ((obs_mask >> o & 1u) == 0) {
                continue;
            }
            BestWitness& b = best_[o];
            if (!b.found || weight < b.weight) {
                b.found = true;
                b.weight = weight;
                b.mechanisms = witness;
            }
        }
    }

    const std::vector<BestWitness>& best() const { return best_; }

  private:
    std::vector<BestWitness> best_;
};

// -- Graphlike search: exact minimum over subsets of <= 2-detector
//    mechanisms, at any weight. ------------------------------------------

/** A graphlike undetectable logical error is a union of cycles of the
 *  multigraph over detectors plus one shared boundary vertex, with odd
 *  total observable parity; the minimum-weight one is a single simple
 *  cycle. Doubling the graph into observable-parity layers turns it
 *  into a shortest-path problem: the minimum odd closed walk through
 *  vertex `v` is the BFS distance from `(v, even)` to `(v, odd)`, and a
 *  shortest odd closed walk never repeats a mechanism (a repeat would
 *  XOR away into a shorter witness). It suffices to start from
 *  endpoints of odd-parity mechanisms, since the optimal cycle passes
 *  through one. */
class GraphlikeSearch
{
  public:
    GraphlikeSearch(const std::vector<DemMechanism>& mechanisms,
                    int num_detectors)
        : mechanisms_(mechanisms),
          num_vertices_(num_detectors + 1),
          boundary_(num_detectors),
          adjacency_(static_cast<size_t>(num_vertices_))
    {
        for (size_t i = 0; i < mechanisms.size(); ++i) {
            const DemMechanism& m = mechanisms[i];
            if (m.dets.empty() || m.dets.size() > 2) {
                continue;
            }
            const int u = m.dets[0];
            const int v = m.dets.size() == 2 ? m.dets[1] : boundary_;
            adjacency_[static_cast<size_t>(u)].push_back(
                {v, static_cast<int>(i)});
            adjacency_[static_cast<size_t>(v)].push_back(
                {u, static_cast<int>(i)});
        }
    }

    void Search(int observable, DistanceAccumulator& accumulator) const
    {
        std::vector<int> starts;
        for (const DemMechanism& m : mechanisms_) {
            if (m.dets.empty() || m.dets.size() > 2 ||
                (m.obs_mask >> observable & 1u) == 0) {
                continue;
            }
            starts.push_back(m.dets[0]);
            starts.push_back(m.dets.size() == 2 ? m.dets[1] : boundary_);
        }
        std::sort(starts.begin(), starts.end());
        starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

        const size_t num_states = 2 * static_cast<size_t>(num_vertices_);
        std::vector<int> dist(num_states);
        std::vector<int> parent_state(num_states);
        std::vector<int> parent_mechanism(num_states);
        bool have_best = false;
        int best_weight = 0;
        std::vector<int> best_witness;
        for (const int start : starts) {
            // The cheapest conceivable witness has weight 2 (a single
            // mechanism always flips its own nonempty syndrome).
            if (have_best && best_weight <= 2) {
                break;
            }
            std::fill(dist.begin(), dist.end(), -1);
            const size_t source = 2 * static_cast<size_t>(start);
            const size_t target = source + 1;
            dist[source] = 0;
            parent_state[source] = -1;
            parent_mechanism[source] = -1;
            std::deque<size_t> queue = {source};
            while (!queue.empty()) {
                const size_t state = queue.front();
                queue.pop_front();
                if (state == target) {
                    break;
                }
                if (have_best && dist[state] + 1 >= best_weight) {
                    continue;  // cannot improve on the incumbent
                }
                const int vertex = static_cast<int>(state / 2);
                const int parity = static_cast<int>(state % 2);
                for (const Arc& arc : adjacency_[static_cast<size_t>(vertex)])
                {
                    const int bit = static_cast<int>(
                        mechanisms_[static_cast<size_t>(arc.mechanism)]
                                .obs_mask >>
                            observable &
                        1u);
                    const size_t next =
                        2 * static_cast<size_t>(arc.to) +
                        static_cast<size_t>(parity ^ bit);
                    if (dist[next] >= 0) {
                        continue;
                    }
                    dist[next] = dist[state] + 1;
                    parent_state[next] = static_cast<int>(state);
                    parent_mechanism[next] = arc.mechanism;
                    queue.push_back(next);
                }
            }
            if (dist[target] < 0 ||
                (have_best && dist[target] >= best_weight)) {
                continue;
            }
            have_best = true;
            best_weight = dist[target];
            best_witness.clear();
            for (size_t state = target; parent_state[state] >= 0;
                 state = static_cast<size_t>(parent_state[state])) {
                best_witness.push_back(parent_mechanism[state]);
            }
        }
        if (have_best) {
            accumulator.Offer(1u << observable, best_weight,
                              std::move(best_witness));
        }
    }

  private:
    struct Arc
    {
        int to = 0;
        int mechanism = 0;
    };

    const std::vector<DemMechanism>& mechanisms_;
    int num_vertices_;
    int boundary_;
    std::vector<std::vector<Arc>> adjacency_;
};

// -- Meet-in-the-middle sweep: exhaustive over ALL mechanisms (hyperedge
//    groups included) up to the search weight. ---------------------------

/** One indexed right half: a single mechanism or a detector-sharing
 *  pair, keyed by its syndrome. Per (syndrome, observable-mask) only the
 *  lightest half is kept; if that half overlaps a left half the combined
 *  multiset XOR-reduces to a weight <= 2 witness that the exhaustive
 *  lower-weight coverage finds anyway, so dropping heavier duplicates
 *  never loses the minimum. */
struct RightHalf
{
    int weight = 0;
    std::uint32_t obs_mask = 0;
    int m0 = -1;
    int m1 = -1;
};

class MeetInTheMiddle
{
  public:
    MeetInTheMiddle(const std::vector<DemMechanism>& mechanisms,
                    int num_detectors, int search_weight)
        : mechanisms_(mechanisms), search_weight_(search_weight)
    {
        max_degree_ = 1;
        for (const DemMechanism& m : mechanisms) {
            max_degree_ = std::max(max_degree_,
                                   static_cast<int>(m.dets.size()));
        }
        for (size_t i = 0; i < mechanisms.size(); ++i) {
            Insert(mechanisms[i].dets, 1, mechanisms[i].obs_mask,
                   static_cast<int>(i), -1);
        }
        // Detector-sharing pairs, enumerated via the incidence lists so
        // the cost scales with detector degree, not mechanism count.
        std::vector<std::vector<int>> incident(
            static_cast<size_t>(std::max(num_detectors, 0)));
        for (size_t i = 0; i < mechanisms.size(); ++i) {
            for (const int d : mechanisms[i].dets) {
                incident[static_cast<size_t>(d)].push_back(
                    static_cast<int>(i));
            }
        }
        std::set<std::pair<int, int>> pairs;
        for (const std::vector<int>& on_det : incident) {
            for (size_t a = 0; a < on_det.size(); ++a) {
                for (size_t b = a + 1; b < on_det.size(); ++b) {
                    pairs.insert({on_det[a], on_det[b]});
                }
            }
        }
        for (const auto& [a, b] : pairs) {
            Insert(XorSorted(mechanisms[static_cast<size_t>(a)].dets,
                             mechanisms[static_cast<size_t>(b)].dets),
                   2,
                   mechanisms[static_cast<size_t>(a)].obs_mask ^
                       mechanisms[static_cast<size_t>(b)].obs_mask,
                   a, b);
        }
    }

    void Search(DistanceAccumulator& accumulator) const
    {
        // Weight <= 2 witnesses: right halves whose syndrome already
        // cancels outright.
        const auto empty_bucket = halves_.find(std::string());
        if (empty_bucket != halves_.end()) {
            for (const RightHalf& h : empty_bucket->second) {
                accumulator.Offer(h.obs_mask, h.weight, Witness(h, -1, -1));
            }
        }
        const size_t n = mechanisms_.size();
        // Left singles: total weight <= 3.
        if (search_weight_ >= 3) {
            for (size_t i = 0; i < n; ++i) {
                Combine(mechanisms_[i].dets, mechanisms_[i].obs_mask, 1,
                        static_cast<int>(i), -1, accumulator);
            }
        }
        // Left pairs (arbitrary): total weight <= 4. Any minimal witness
        // of weight 4 contains a detector-sharing pair (its syndrome
        // cancels), which the right index holds; the two leftover
        // mechanisms form the left pair.
        if (search_weight_ >= 4) {
            for (size_t i = 0; i < n; ++i) {
                for (size_t j = i + 1; j < n; ++j) {
                    const std::vector<int> syndrome =
                        XorSorted(mechanisms_[i].dets, mechanisms_[j].dets);
                    Combine(syndrome,
                            mechanisms_[i].obs_mask ^
                                mechanisms_[j].obs_mask,
                            2, static_cast<int>(i), static_cast<int>(j),
                            accumulator);
                }
            }
        }
    }

  private:
    void Insert(const std::vector<int>& syndrome, int weight,
                std::uint32_t obs_mask, int m0, int m1)
    {
        std::vector<RightHalf>& bucket = halves_[SyndromeKey(syndrome)];
        for (RightHalf& h : bucket) {
            if (h.obs_mask == obs_mask) {
                if (weight < h.weight) {
                    h = {weight, obs_mask, m0, m1};
                }
                return;
            }
        }
        bucket.push_back({weight, obs_mask, m0, m1});
    }

    static std::vector<int>
    Witness(const RightHalf& h, int left0, int left1)
    {
        std::vector<int> witness;
        for (const int m : {left0, left1, h.m0, h.m1}) {
            if (m >= 0) {
                witness.push_back(m);
            }
        }
        return witness;
    }

    void Combine(const std::vector<int>& syndrome, std::uint32_t obs_mask,
                 int left_weight, int left0, int left1,
                 DistanceAccumulator& accumulator) const
    {
        // A*-style admissible cutoff: at most two right mechanisms of at
        // most `max_degree_` detectors each remain to cancel the open
        // syndrome.
        const int remaining = search_weight_ - left_weight;
        if (static_cast<int>(syndrome.size()) > remaining * max_degree_) {
            return;
        }
        const auto bucket = halves_.find(SyndromeKey(syndrome));
        if (bucket == halves_.end()) {
            return;
        }
        for (const RightHalf& h : bucket->second) {
            if (left_weight + h.weight > search_weight_ ||
                h.m0 == left0 || h.m0 == left1 || h.m1 == left0 ||
                h.m1 == left1) {
                continue;
            }
            accumulator.Offer(obs_mask ^ h.obs_mask, left_weight + h.weight,
                              Witness(h, left0, left1));
        }
    }

    const std::vector<DemMechanism>& mechanisms_;
    int search_weight_;
    int max_degree_ = 1;
    std::unordered_map<std::string, std::vector<RightHalf>> halves_;
};

}  // namespace

std::vector<DemMechanism>
CollectMechanisms(const DetectorErrorModel& dem)
{
    std::vector<DemMechanism> mechanisms;
    mechanisms.reserve(dem.edges.size() + dem.hyperedges.size());
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        DemMechanism m;
        m.dets.push_back(e.d0);
        if (e.d1 != DemEdge::kBoundary) {
            m.dets.push_back(e.d1);
        }
        m.obs_mask = e.obs_mask;
        m.hyperedge = false;
        m.index = static_cast<int>(i);
        mechanisms.push_back(std::move(m));
    }
    int last_mechanism = -1;
    for (const DemHyperedge& h : dem.hyperedges) {
        if (h.mechanism == last_mechanism) {
            continue;  // later variant of the same mechanism
        }
        last_mechanism = h.mechanism;
        DemMechanism m;
        m.dets = h.dets;
        m.obs_mask = h.obs_mask;
        m.hyperedge = true;
        m.index = h.mechanism;
        mechanisms.push_back(std::move(m));
    }
    return mechanisms;
}

DistanceCertificate
CertifyDistance(const DetectorErrorModel& dem,
                const DistanceCertifierOptions& options)
{
    DistanceCertificate certificate;
    certificate.mechanisms = CollectMechanisms(dem);
    certificate.searched_weight =
        std::clamp(options.max_search_weight, 2, kMaxSearchWeight);
    certificate.graph_like = true;
    for (const DemMechanism& m : certificate.mechanisms) {
        if (m.dets.size() > 2) {
            certificate.graph_like = false;
            break;
        }
    }

    DistanceAccumulator accumulator(dem.num_observables);
    const GraphlikeSearch graph(certificate.mechanisms, dem.num_detectors);
    for (int o = 0; o < dem.num_observables; ++o) {
        graph.Search(o, accumulator);
    }
    const MeetInTheMiddle mitm(certificate.mechanisms, dem.num_detectors,
                               certificate.searched_weight);
    mitm.Search(accumulator);

    certificate.observables.reserve(
        static_cast<size_t>(std::max(dem.num_observables, 0)));
    for (int o = 0; o < dem.num_observables; ++o) {
        const BestWitness& b = accumulator.best()[static_cast<size_t>(o)];
        ObservableDistance od;
        od.observable = o;
        od.found = b.found;
        od.distance = b.weight;
        od.witness = b.mechanisms;
        if (certificate.graph_like) {
            od.exact = true;
        } else {
            od.exact = b.found &&
                       b.weight <= certificate.searched_weight + 1;
        }
        certificate.observables.push_back(std::move(od));
    }
    return certificate;
}

std::string
FormatWitness(const DistanceCertificate& certificate,
              const std::vector<int>& witness)
{
    std::ostringstream os;
    os << "{";
    for (size_t k = 0; k < witness.size(); ++k) {
        const DemMechanism& m =
            certificate.mechanisms[static_cast<size_t>(witness[k])];
        os << (k == 0 ? "" : ", ")
           << (m.hyperedge ? "hyperedge mechanism " : "edge ") << m.index
           << " (dets";
        for (const int d : m.dets) {
            os << " " << d;
        }
        os << ", obs 0x" << std::hex << m.obs_mask << std::dec << ")";
    }
    os << "}";
    return os.str();
}

std::vector<Diagnostic>
JudgeDistance(const DetectorErrorModel& dem, const DistanceCertificate& cert,
              int expected_distance)
{
    std::vector<Diagnostic> diagnostics;
    if (dem.num_undecomposable > 0) {
        std::ostringstream os;
        os << "cannot certify distance: " << dem.num_undecomposable
           << " undecomposable mechanisms (probability mass "
           << dem.undecomposable_probability
           << ") were dropped from the model and are invisible to the "
              "certifier";
        diagnostics.push_back({Severity::kError,
                               std::string(kRuleDemDistance), "dem",
                               os.str()});
    }
    for (const ObservableDistance& od : cert.observables) {
        std::ostringstream location;
        location << "observable " << od.observable;
        if (od.found && od.distance < expected_distance) {
            std::ostringstream os;
            os << "effective distance " << od.distance
               << " below expected " << expected_distance
               << "; witness mechanism set "
               << FormatWitness(cert, od.witness);
            diagnostics.push_back({Severity::kError,
                                   std::string(kRuleDemDistance),
                                   location.str(), os.str()});
        } else if (!cert.graph_like &&
                   expected_distance > cert.searched_weight + 1) {
            std::ostringstream os;
            os << "distance below expected " << expected_distance
               << " cannot be ruled out: the model has correlated "
                  "hyperedge mechanisms and the exhaustive search covers "
                  "weight <= "
               << cert.searched_weight;
            diagnostics.push_back({Severity::kError,
                                   std::string(kRuleDemDistance),
                                   location.str(), os.str()});
        }
    }
    return diagnostics;
}

std::vector<Diagnostic>
CheckDistance(const DetectorErrorModel& dem, int expected_distance,
              const DistanceCertifierOptions& options,
              DistanceCertificate* certificate)
{
    DistanceCertificate cert = CertifyDistance(dem, options);
    std::vector<Diagnostic> diagnostics =
        JudgeDistance(dem, cert, expected_distance);
    if (certificate != nullptr) {
        *certificate = std::move(cert);
    }
    return diagnostics;
}

}  // namespace tiqec::analysis
