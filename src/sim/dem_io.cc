#include "sim/dem_io.h"

#include <stdexcept>

#include "common/text_format.h"

namespace tiqec::sim {

namespace {

constexpr char kHeader[] = "tiqec-dem v1";

// Line grammar (space-separated, exact doubles):
//   tiqec-dem v1
//   counts <num_detectors> <num_observables> <num_edges> <num_hyperedges>
//   diag <num_components> <num_decomposed> <num_hyperedge_groups>
//        <num_undecomposable>
//   mass <hyperedge_probability> <undecomposable_probability>
//        <dropped_probability>
//   e <d0> <d1> <p> <obs_mask>                       (x num_edges)
//   h <mechanism> <p> <obs_mask> <ndets> <dets...>
//        <nedges> <edge indices...>                  (x num_hyperedges)

void
AppendEdge(std::string& out, const DemEdge& e)
{
    out += "e ";
    out += std::to_string(e.d0);
    out += ' ';
    out += std::to_string(e.d1);
    out += ' ';
    out += text::ExactDouble(e.p);
    out += ' ';
    out += std::to_string(e.obs_mask);
    out += '\n';
}

void
AppendHyperedge(std::string& out, const DemHyperedge& h)
{
    out += "h ";
    out += std::to_string(h.mechanism);
    out += ' ';
    out += text::ExactDouble(h.p);
    out += ' ';
    out += std::to_string(h.obs_mask);
    out += ' ';
    out += std::to_string(h.dets.size());
    for (const int d : h.dets) {
        out += ' ';
        out += std::to_string(d);
    }
    out += ' ';
    out += std::to_string(h.edges.size());
    for (const int e : h.edges) {
        out += ' ';
        out += std::to_string(e);
    }
    out += '\n';
}

}  // namespace

std::string
FormatDem(const DetectorErrorModel& dem)
{
    std::string out;
    out += kHeader;
    out += '\n';
    out += "counts ";
    out += std::to_string(dem.num_detectors);
    out += ' ';
    out += std::to_string(dem.num_observables);
    out += ' ';
    out += std::to_string(dem.edges.size());
    out += ' ';
    out += std::to_string(dem.hyperedges.size());
    out += '\n';
    out += "diag ";
    out += std::to_string(dem.num_components);
    out += ' ';
    out += std::to_string(dem.num_decomposed);
    out += ' ';
    out += std::to_string(dem.num_hyperedges);
    out += ' ';
    out += std::to_string(dem.num_undecomposable);
    out += '\n';
    out += "mass ";
    out += text::ExactDouble(dem.hyperedge_probability);
    out += ' ';
    out += text::ExactDouble(dem.undecomposable_probability);
    out += ' ';
    out += text::ExactDouble(dem.dropped_probability);
    out += '\n';
    for (const DemEdge& e : dem.edges) {
        AppendEdge(out, e);
    }
    for (const DemHyperedge& h : dem.hyperedges) {
        AppendHyperedge(out, h);
    }
    return out;
}

namespace {

std::uint32_t
ParseMask(const text::LineReader& in, size_t k)
{
    const std::int64_t v = in.Int64(k);
    if (v < 0 || v > 0xffffffffll) {
        throw std::invalid_argument("obs_mask out of range in " + in.Where());
    }
    return static_cast<std::uint32_t>(v);
}

void
ParseDemImpl(std::string_view text_in, DetectorErrorModel* dem)
{
    text::LineReader in(text_in);
    in.ExpectHeader(kHeader);

    in.Tagged("counts", 5);
    dem->num_detectors = in.Int32(1);
    dem->num_observables = in.Int32(2);
    if (dem->num_observables < 0 ||
        dem->num_observables > kMaxObservables) {
        throw std::invalid_argument("observable count out of range in " +
                                    in.Where());
    }
    const std::int64_t num_edges = in.Int64(3);
    const std::int64_t num_hyper = in.Int64(4);
    if (num_edges < 0 || num_hyper < 0) {
        throw std::invalid_argument("negative element count");
    }

    in.Tagged("diag", 5);
    dem->num_components = in.Int32(1);
    dem->num_decomposed = in.Int32(2);
    dem->num_hyperedges = in.Int32(3);
    dem->num_undecomposable = in.Int32(4);

    in.Tagged("mass", 4);
    dem->hyperedge_probability = in.Double(1);
    dem->undecomposable_probability = in.Double(2);
    dem->dropped_probability = in.Double(3);

    // The element counts are not reserved: a corrupt count must end in
    // a truncation error, not in a huge allocation.
    for (std::int64_t i = 0; i < num_edges; ++i) {
        in.Tagged("e", 5, "edge", i);
        DemEdge e;
        e.d0 = in.Int32(1);
        e.d1 = in.Int32(2);
        e.p = in.Double(3);
        e.obs_mask = ParseMask(in, 4);
        dem->edges.push_back(e);
    }

    for (std::int64_t i = 0; i < num_hyper; ++i) {
        in.TaggedAtLeast("h", 5, "hyperedge", i);
        const size_t num_fields = in.fields().size();
        DemHyperedge h;
        h.mechanism = in.Int32(1);
        h.p = in.Double(2);
        h.obs_mask = ParseMask(in, 3);
        size_t pos = 4;
        const std::int64_t ndets = in.Int64(pos++);
        if (ndets < 0 || num_fields < pos + static_cast<size_t>(ndets) + 1) {
            throw std::invalid_argument("detector list truncated in " +
                                        in.Where());
        }
        h.dets.reserve(static_cast<size_t>(ndets));
        for (std::int64_t d = 0; d < ndets; ++d) {
            h.dets.push_back(in.Int32(pos++));
        }
        const std::int64_t nedges = in.Int64(pos++);
        if (nedges < 0 || num_fields != pos + static_cast<size_t>(nedges)) {
            throw std::invalid_argument("edge list truncated in " +
                                        in.Where());
        }
        h.edges.reserve(static_cast<size_t>(nedges));
        for (std::int64_t e = 0; e < nedges; ++e) {
            const int idx = in.Int32(pos++);
            if (idx < 0 || idx >= static_cast<int>(dem->edges.size())) {
                throw std::invalid_argument("edge index out of range in " +
                                            in.Where());
            }
            h.edges.push_back(idx);
        }
        dem->hyperedges.push_back(std::move(h));
    }

    in.ExpectEnd();
}

}  // namespace

bool
ParseDem(std::string_view text, DetectorErrorModel* dem, std::string* error)
{
    *dem = DetectorErrorModel{};
    try {
        ParseDemImpl(text, dem);
    } catch (const std::invalid_argument& e) {
        if (error != nullptr) {
            *error = std::string("dem parse: ") + e.what();
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::sim
