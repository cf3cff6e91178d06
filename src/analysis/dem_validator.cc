#include "analysis/dem_validator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>

namespace tiqec::analysis {

namespace {

using sim::DemEdge;
using sim::DemHyperedge;
using sim::DetectorErrorModel;

constexpr int kMaxPerRule = 16;

class Reporter
{
  public:
    explicit Reporter(std::vector<Diagnostic>& out) : out_(out) {}

    void Report(std::string_view rule, std::string location,
                std::string message)
    {
        if (++count_[rule] > kMaxPerRule) {
            return;
        }
        out_.push_back({Severity::kError, std::string(rule),
                        std::move(location), std::move(message)});
    }

  private:
    std::vector<Diagnostic>& out_;
    std::map<std::string_view, int> count_;
};

std::string
EdgeLocation(size_t index)
{
    std::ostringstream os;
    os << "edge " << index;
    return os.str();
}

std::string
HyperedgeLocation(size_t index)
{
    std::ostringstream os;
    os << "hyperedge " << index;
    return os.str();
}

bool
ProbabilityOk(double p)
{
    return std::isfinite(p) && p > 0.0 && p < 1.0;
}

void
CheckEdges(const DetectorErrorModel& dem, Reporter& report)
{
    const int nd = dem.num_detectors;
    const auto canonical = [nd](const DemEdge& e) {
        return e.d0 >= 0 && e.d0 < nd &&
               (e.d1 == DemEdge::kBoundary || (e.d1 > e.d0 && e.d1 < nd));
    };
    // Canonical edges sorted by (endpoints, index): in each run of equal
    // endpoints, every edge after the first is a second edge.
    std::vector<std::pair<std::pair<int, int>, size_t>> by_endpoints;
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        if (canonical(e)) {
            by_endpoints.push_back({{e.d0, e.d1}, i});
        }
    }
    std::sort(by_endpoints.begin(), by_endpoints.end());
    std::vector<char> duplicate(dem.edges.size(), 0);
    for (size_t k = 1; k < by_endpoints.size(); ++k) {
        if (by_endpoints[k].first == by_endpoints[k - 1].first) {
            duplicate[by_endpoints[k].second] = 1;
        }
    }
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        const DemEdge& e = dem.edges[i];
        if (!ProbabilityOk(e.p)) {
            std::ostringstream os;
            os << "probability " << e.p << " outside (0, 1)";
            report.Report(kRuleDemProbabilityRange, EdgeLocation(i),
                          os.str());
        }
        if (!canonical(e)) {
            std::ostringstream os;
            os << "endpoints (" << e.d0 << ", " << e.d1
               << ") not canonical for " << nd
               << " detectors (want 0 <= d0 < d1 < n, or d1 = -1)";
            report.Report(kRuleDemDetectorRange, EdgeLocation(i), os.str());
        } else if (duplicate[i]) {
            std::ostringstream os;
            os << "second edge with endpoints (" << e.d0 << ", " << e.d1
               << "); parallel edges must be coalesced or demoted";
            report.Report(kRuleDemDuplicateEdge, EdgeLocation(i), os.str());
        }
    }
}

void
CheckHyperedges(const DetectorErrorModel& dem, Reporter& report)
{
    const int nd = dem.num_detectors;
    const int ne = static_cast<int>(dem.edges.size());
    int last_mechanism = -1;
    std::vector<int> endpoints;
    for (size_t i = 0; i < dem.hyperedges.size(); ++i) {
        const DemHyperedge& h = dem.hyperedges[i];
        if (!ProbabilityOk(h.p)) {
            std::ostringstream os;
            os << "probability " << h.p << " outside (0, 1)";
            report.Report(kRuleDemProbabilityRange, HyperedgeLocation(i),
                          os.str());
        }
        // Mechanism group ids must be dense and non-decreasing: composite
        // groups are emitted in mechanism order with contiguous variants,
        // then demoted parallel-edge losers each get a fresh id.
        if (h.mechanism < last_mechanism || h.mechanism > last_mechanism + 1) {
            std::ostringstream os;
            os << "mechanism id " << h.mechanism
               << " breaks the dense grouped ordering (previous "
               << last_mechanism << ")";
            report.Report(kRuleDemHyperedgeEdges, HyperedgeLocation(i),
                          os.str());
        }
        last_mechanism = std::max(last_mechanism, h.mechanism);
        bool dets_ok = !h.dets.empty();
        for (size_t j = 0; j < h.dets.size(); ++j) {
            if (h.dets[j] < 0 || h.dets[j] >= nd ||
                (j > 0 && h.dets[j] <= h.dets[j - 1])) {
                dets_ok = false;
            }
        }
        if (!dets_ok) {
            report.Report(kRuleDemDetectorRange, HyperedgeLocation(i),
                          "detector signature is not a strictly "
                          "ascending in-range list");
            continue;
        }
        // The decomposition must tile the signature: every referenced
        // edge exists, and the edges' non-boundary endpoints cover each
        // signature detector exactly once. The signature is strictly
        // ascending, so that is: the sorted endpoints equal it.
        endpoints.clear();
        bool edges_ok = !h.edges.empty();
        for (size_t j = 0; j < h.edges.size(); ++j) {
            const int e = h.edges[j];
            if (e < 0 || e >= ne ||
                (j > 0 && h.edges[j] <= h.edges[j - 1])) {
                edges_ok = false;
                break;
            }
            endpoints.push_back(dem.edges[e].d0);
            if (dem.edges[e].d1 != DemEdge::kBoundary) {
                endpoints.push_back(dem.edges[e].d1);
            }
        }
        if (edges_ok) {
            std::sort(endpoints.begin(), endpoints.end());
            edges_ok = endpoints == h.dets;
        }
        if (!edges_ok) {
            report.Report(kRuleDemHyperedgeEdges, HyperedgeLocation(i),
                          "decomposition is not a sorted list of existing "
                          "elementary edges partitioning the detector "
                          "signature");
        }
    }
}

void
CheckMassConservation(const DetectorErrorModel& dem, Reporter& report)
{
    // Recompute the retained and demoted mass in the hyperedges' own
    // storage order — the same order extraction accumulated them in — so
    // clean artifacts reproduce the diagnostics essentially exactly.
    // Composite mechanism groups (>= 3 detectors) contribute to the
    // retained mass only; demoted parallel-edge losers (<= 2 detectors)
    // contribute to both the retained and the demoted mass.
    double hyperedge_mass = 0.0;
    double dropped_mass = 0.0;
    int groups = 0;
    int last_mechanism = -1;
    for (const DemHyperedge& h : dem.hyperedges) {
        if (h.mechanism == last_mechanism) {
            continue;  // later variant of the same mechanism
        }
        last_mechanism = h.mechanism;
        ++groups;
        hyperedge_mass += h.p;
        if (h.dets.size() <= 2) {
            dropped_mass += h.p;
        }
    }
    const auto close = [](double a, double b) {
        return std::abs(a - b) <=
               1e-12 + 1e-9 * std::max(std::abs(a), std::abs(b));
    };
    if (groups != dem.num_hyperedges) {
        std::ostringstream os;
        os << "num_hyperedges reports " << dem.num_hyperedges
           << " mechanism groups but the model stores " << groups;
        report.Report(kRuleDemMassConservation, "dem", os.str());
    }
    if (!close(hyperedge_mass, dem.hyperedge_probability)) {
        std::ostringstream os;
        os << "hyperedge_probability reports " << dem.hyperedge_probability
           << " but the stored mechanism groups sum to " << hyperedge_mass;
        report.Report(kRuleDemMassConservation, "dem", os.str());
    }
    if (!close(dropped_mass, dem.dropped_probability)) {
        std::ostringstream os;
        os << "dropped_probability reports " << dem.dropped_probability
           << " but the demoted parallel-edge variants sum to "
           << dropped_mass;
        report.Report(kRuleDemMassConservation, "dem", os.str());
    }
}

/** Coverage of the detector set by the error mechanisms: every detector
 *  must be flippable by some mechanism (a dead detector is a check the
 *  noise model cannot exercise), and every connected component of the
 *  detector graph must contain a boundary — a mechanism flipping an odd
 *  number of its detectors (a bare boundary edge, or an odd-signature
 *  hyperedge). A boundaryless component can only ever fire detectors in
 *  pairs, the classic symptom of a detector column accidentally closed
 *  at both time boundaries. */
void
CheckDetectorCoverage(const DetectorErrorModel& dem, Reporter& report)
{
    const int nd = dem.num_detectors;
    if (nd == 0) {
        return;
    }
    std::vector<int> parent(static_cast<size_t>(nd));
    std::iota(parent.begin(), parent.end(), 0);
    const auto find = [&parent](int d) {
        while (parent[static_cast<size_t>(d)] != d) {
            parent[static_cast<size_t>(d)] =
                parent[static_cast<size_t>(parent[static_cast<size_t>(d)])];
            d = parent[static_cast<size_t>(d)];
        }
        return d;
    };
    const auto unite = [&parent, &find](int a, int b) {
        a = find(a);
        b = find(b);
        if (a != b) {
            parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
        }
    };
    const auto in_range = [nd](int d) { return d >= 0 && d < nd; };

    std::vector<char> touched(static_cast<size_t>(nd), 0);
    // (detector, odd-signature?) per mechanism; resolved to components
    // after all unions are in.
    std::vector<std::pair<int, bool>> mechanism_marks;
    for (const DemEdge& e : dem.edges) {
        if (!in_range(e.d0)) {
            continue;  // reported by dem.detector_range
        }
        touched[static_cast<size_t>(e.d0)] = 1;
        if (e.d1 == DemEdge::kBoundary) {
            mechanism_marks.emplace_back(e.d0, true);
        } else if (in_range(e.d1)) {
            touched[static_cast<size_t>(e.d1)] = 1;
            unite(e.d0, e.d1);
            mechanism_marks.emplace_back(e.d0, false);
        }
    }
    for (const DemHyperedge& h : dem.hyperedges) {
        bool ok = !h.dets.empty();
        for (const int d : h.dets) {
            ok = ok && in_range(d);
        }
        if (!ok) {
            continue;  // reported by dem.detector_range
        }
        for (const int d : h.dets) {
            touched[static_cast<size_t>(d)] = 1;
            unite(h.dets[0], d);
        }
        mechanism_marks.emplace_back(h.dets[0], h.dets.size() % 2 != 0);
    }

    for (int d = 0; d < nd; ++d) {
        if (!touched[static_cast<size_t>(d)]) {
            std::ostringstream loc;
            loc << "detector " << d;
            report.Report(kRuleDemDetectorCoverage, loc.str(),
                          "dead detector: no error mechanism can flip it");
        }
    }

    std::vector<char> has_boundary(static_cast<size_t>(nd), 0);
    for (const auto& [d, odd] : mechanism_marks) {
        if (odd) {
            has_boundary[static_cast<size_t>(find(d))] = 1;
        }
    }
    std::vector<int> component_size(static_cast<size_t>(nd), 0);
    for (int d = 0; d < nd; ++d) {
        if (touched[static_cast<size_t>(d)]) {
            ++component_size[static_cast<size_t>(find(d))];
        }
    }
    for (int d = 0; d < nd; ++d) {
        if (component_size[static_cast<size_t>(d)] == 0 ||
            has_boundary[static_cast<size_t>(d)]) {
            continue;  // not a component root, or has a boundary
        }
        std::ostringstream loc;
        loc << "detector " << d;
        std::ostringstream os;
        os << "connected component of "
           << component_size[static_cast<size_t>(d)]
           << " detectors has no boundary mechanism (odd detector "
              "signature); its detectors can only ever fire in pairs";
        report.Report(kRuleDemDetectorCoverage, loc.str(), os.str());
    }
}

/** Logical-operator accounting: every mechanism's observable mask must
 *  fit the circuit's observable count, and every observable must be
 *  acted on by at least one mechanism — an untouched observable means
 *  its logical operator is decoupled from the noise model, so the
 *  simulated LER for it is an exact (and vacuous) zero. */
void
CheckLogicalOperators(const DetectorErrorModel& dem, Reporter& report)
{
    const int no = dem.num_observables;
    const std::uint32_t valid_mask =
        no >= 32 ? ~0u : (1u << static_cast<unsigned>(std::max(no, 0))) - 1u;
    std::vector<int> support(static_cast<size_t>(std::max(no, 0)), 0);
    // `location()` spells the mechanism, and runs only for a report.
    const auto account = [&](std::uint32_t obs_mask, const auto& location) {
        if ((obs_mask & ~valid_mask) != 0) {
            std::ostringstream os;
            os << "observable mask 0x" << std::hex << obs_mask << std::dec
               << " has bits beyond the model's " << no << " observables";
            report.Report(kRuleDemLogicalOperator, location(), os.str());
        }
        for (int o = 0; o < no; ++o) {
            if (obs_mask >> o & 1u) {
                ++support[static_cast<size_t>(o)];
            }
        }
    };
    for (size_t i = 0; i < dem.edges.size(); ++i) {
        account(dem.edges[i].obs_mask, [i] { return EdgeLocation(i); });
    }
    int last_mechanism = -1;
    for (size_t i = 0; i < dem.hyperedges.size(); ++i) {
        if (dem.hyperedges[i].mechanism == last_mechanism) {
            continue;  // later variant of the same mechanism
        }
        last_mechanism = dem.hyperedges[i].mechanism;
        account(dem.hyperedges[i].obs_mask,
                [i] { return HyperedgeLocation(i); });
    }
    for (int o = 0; o < no; ++o) {
        if (support[static_cast<size_t>(o)] != 0) {
            continue;
        }
        std::ostringstream loc;
        loc << "observable " << o;
        report.Report(kRuleDemLogicalOperator, loc.str(),
                      "no error mechanism acts on this observable; its "
                      "logical operator is decoupled from the noise model");
    }
}

}  // namespace

std::vector<Diagnostic>
ValidateDem(const DetectorErrorModel& dem)
{
    std::vector<Diagnostic> diagnostics;
    Reporter report(diagnostics);
    CheckEdges(dem, report);
    CheckHyperedges(dem, report);
    CheckMassConservation(dem, report);
    CheckDetectorCoverage(dem, report);
    CheckLogicalOperators(dem, report);
    return diagnostics;
}

}  // namespace tiqec::analysis
