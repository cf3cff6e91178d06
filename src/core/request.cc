#include "core/request.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/text_format.h"
#include "qec/code.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::core {

namespace {

qccd::TopologyKind
ParseTopology(const std::string& value)
{
    if (value == "linear") {
        return qccd::TopologyKind::kLinear;
    }
    if (value == "grid") {
        return qccd::TopologyKind::kGrid;
    }
    if (value == "switch") {
        return qccd::TopologyKind::kSwitch;
    }
    throw std::invalid_argument("unknown topology '" + value +
                                "' (linear|grid|switch)");
}

WiringKind
ParseWiring(const std::string& value)
{
    if (value == "standard") {
        return WiringKind::kStandard;
    }
    if (value == "wise") {
        return WiringKind::kWise;
    }
    throw std::invalid_argument("unknown wiring '" + value +
                                "' (standard|wise)");
}

sim::MemoryBasis
ParseBasis(const std::string& value)
{
    if (value == "z") {
        return sim::MemoryBasis::kZ;
    }
    if (value == "x") {
        return sim::MemoryBasis::kX;
    }
    throw std::invalid_argument("unknown basis '" + value + "' (z|x)");
}

/** Parses `value` as an integer no larger than `max`, or throws
 *  "<key> must be at most <max>, got '<value>'". */
std::int32_t
ParseAtMost(const std::string& value, const std::string& key, int max)
{
    const std::int32_t parsed = text::ParseInt32(value, key);
    if (parsed > max) {
        throw std::invalid_argument(key + " must be at most " +
                                    std::to_string(max) + ", got '" +
                                    value + "'");
    }
    return parsed;
}

bool
ParseBool01(const std::string& value, const std::string& key)
{
    if (value == "0") {
        return false;
    }
    if (value == "1") {
        return true;
    }
    throw std::invalid_argument(key + " must be 0 or 1, got '" + value +
                                "'");
}

}  // namespace

bool
ParseRequestCandidate(const std::string& line, SweepCandidate* out,
                      std::string* error)
{
    SweepCandidate c;
    try {
        // Family, program and distance only pick the code built below.
        std::string family;
        std::string program;
        int distance = 0;
        // Applied after the loop: `workload=` resets the whole spec, so
        // `basis=` holds in either order.
        sim::MemoryBasis basis = sim::MemoryBasis::kZ;
        std::istringstream tokens(line);
        std::string token;
        while (tokens >> token) {
            const size_t eq = token.find('=');
            if (eq == std::string::npos || eq == 0) {
                throw std::invalid_argument("token '" + token +
                                            "' is not key=value");
            }
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (key == "family") {
                family = value;
            } else if (key == "program") {
                program = value;
            } else if (key == "distance") {
                distance = ParseAtMost(value, key, kMaxRequestDistance);
            } else if (key == "topology") {
                c.arch.topology = ParseTopology(value);
            } else if (key == "capacity") {
                c.arch.trap_capacity = text::ParseInt32(value, "capacity");
            } else if (key == "wiring") {
                c.arch.wiring = ParseWiring(value);
            } else if (key == "improvement") {
                c.arch.gate_improvement =
                    text::ParseDouble(value, "improvement");
                // A NaN key would also break the strict weak ordering
                // of the runner's noise and sim caches.
                if (!std::isfinite(c.arch.gate_improvement) ||
                    c.arch.gate_improvement <= 0.0) {
                    throw std::invalid_argument(
                        "improvement must be finite and positive, got '" +
                        value + "'");
                }
            } else if (key == "rounds") {
                c.options.rounds = ParseAtMost(value, key, kMaxRequestRounds);
                // The runner reads a non-positive count as d rounds.
                if (c.options.rounds < 1) {
                    throw std::invalid_argument(
                        "rounds must be at least 1, got '" + value + "'");
                }
            } else if (key == "compile_rounds") {
                c.compile_rounds = ParseAtMost(value, key, kMaxRequestRounds);
            } else if (key == "shots") {
                c.options.max_shots = text::ParseInt64(value, "shots");
                if (c.options.max_shots < 0) {
                    throw std::invalid_argument(
                        "shots must not be negative, got '" + value + "'");
                }
            } else if (key == "target_errors") {
                c.options.target_logical_errors =
                    text::ParseInt64(value, "target_errors");
            } else if (key == "seed") {
                c.options.seed = static_cast<std::uint64_t>(
                    text::ParseInt64(value, "seed"));
            } else if (key == "basis") {
                basis = ParseBasis(value);
            } else if (key == "workload") {
                c.options.workload = workloads::ParseWorkloadKind(value);
            } else if (key == "compile_only") {
                c.options.compile_only = ParseBool01(value, key);
            } else if (key == "validate") {
                c.options.validate_artifacts = ParseBool01(value, key);
            } else if (key == "certify") {
                c.options.certify_distance = ParseBool01(value, key);
            } else if (key == "label") {
                c.label = value;
            } else {
                throw std::invalid_argument("unknown key '" + key + "'");
            }
        }
        c.options.workload.basis = basis;
        const bool is_program =
            c.options.workload.kind == workloads::WorkloadKind::kProgram;
        if (is_program) {
            if (!family.empty()) {
                throw std::invalid_argument(
                    "key 'family' does not apply to workload=program");
            }
            if (program.empty()) {
                throw std::invalid_argument(
                    "missing required key 'program'");
            }
        } else {
            if (!program.empty()) {
                throw std::invalid_argument(
                    "key 'program' requires workload=program");
            }
            if (family.empty()) {
                throw std::invalid_argument(
                    "missing required key 'family'");
            }
        }
        if (distance <= 0) {
            throw std::invalid_argument(
                "missing or non-positive required key 'distance'");
        }
        if (is_program) {
            std::shared_ptr<const workloads::BoundProgram> bound =
                workloads::BoundProgram::Bind(
                    workloads::CanonicalProgram(program), distance);
            // The candidate's code is the program's primary phase code,
            // aliased so the bound program owns it for as long as the
            // candidate lives.
            c.code = std::shared_ptr<const qec::StabilizerCode>(
                bound, bound->primary_code());
            c.options.workload = workloads::WorkloadSpec::Program(bound);
        } else {
            c.code = qec::MakeCode(family, distance);
        }
        if (c.label.empty()) {
            c.label = (is_program ? program : family) + "_d" +
                      std::to_string(distance);
        }
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    *out = std::move(c);
    return true;
}

RequestBatch
ReadRequestBatch(const std::string& request_text)
{
    RequestBatch batch;
    std::istringstream stream(request_text);
    std::string line;
    while (std::getline(stream, line)) {
        text::StripCr(line);
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        BatchRequest& req = batch.requests.emplace_back();
        req.line = line;
        SweepCandidate candidate;
        if (ParseRequestCandidate(line, &candidate, &req.parse_error)) {
            req.candidate = batch.candidates.size();
            batch.candidates.push_back(std::move(candidate));
        }
    }
    return batch;
}

std::string
ParseErrorLine(const BatchRequest& request)
{
    common::JsonRecord r;
    r.Add("label", "");
    r.Add("request", request.line);
    r.Add("ok", false);
    r.Add("error", "request parse: " + request.parse_error);
    return r.Object();
}

}  // namespace tiqec::core
