#include "core/request.h"

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

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
ParseRequestLine(const std::string& line, RequestSpec* out,
                 std::string* error)
{
    RequestSpec spec;
    try {
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
                spec.family = value;
            } else if (key == "program") {
                spec.program = value;
            } else if (key == "distance") {
                spec.distance = text::ParseInt32(value, "distance");
            } else if (key == "topology") {
                spec.arch.topology = ParseTopology(value);
            } else if (key == "capacity") {
                spec.arch.trap_capacity =
                    text::ParseInt32(value, "capacity");
            } else if (key == "wiring") {
                spec.arch.wiring = ParseWiring(value);
            } else if (key == "improvement") {
                spec.arch.gate_improvement =
                    text::ParseDouble(value, "improvement");
            } else if (key == "rounds") {
                spec.options.rounds = text::ParseInt32(value, "rounds");
            } else if (key == "compile_rounds") {
                spec.compile_rounds =
                    text::ParseInt32(value, "compile_rounds");
            } else if (key == "shots") {
                spec.options.max_shots = text::ParseInt64(value, "shots");
            } else if (key == "target_errors") {
                spec.options.target_logical_errors =
                    text::ParseInt64(value, "target_errors");
            } else if (key == "seed") {
                spec.options.seed = static_cast<std::uint64_t>(
                    text::ParseInt64(value, "seed"));
            } else if (key == "basis") {
                basis = ParseBasis(value);
            } else if (key == "workload") {
                spec.options.workload =
                    workloads::ParseWorkloadKind(value);
            } else if (key == "compile_only") {
                spec.options.compile_only = ParseBool01(value, key);
            } else if (key == "validate") {
                spec.options.validate_artifacts = ParseBool01(value, key);
            } else if (key == "certify") {
                spec.options.certify_distance = ParseBool01(value, key);
            } else if (key == "label") {
                spec.label = value;
            } else {
                throw std::invalid_argument("unknown key '" + key + "'");
            }
        }
        spec.options.workload.basis = basis;
        if (spec.options.workload.kind ==
            workloads::WorkloadKind::kProgram) {
            if (!spec.family.empty()) {
                throw std::invalid_argument(
                    "key 'family' does not apply to workload=program");
            }
            if (spec.program.empty()) {
                throw std::invalid_argument(
                    "missing required key 'program'");
            }
        } else {
            if (!spec.program.empty()) {
                throw std::invalid_argument(
                    "key 'program' requires workload=program");
            }
            if (spec.family.empty()) {
                throw std::invalid_argument(
                    "missing required key 'family'");
            }
        }
        if (spec.distance <= 0) {
            throw std::invalid_argument(
                "missing or non-positive required key 'distance'");
        }
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    *out = std::move(spec);
    return true;
}

SweepCandidate
MakeSweepCandidate(const RequestSpec& spec)
{
    SweepCandidate c;
    c.arch = spec.arch;
    c.options = spec.options;
    c.compile_rounds = spec.compile_rounds;
    c.label = spec.label;
    if (spec.options.workload.kind == workloads::WorkloadKind::kProgram) {
        std::shared_ptr<const workloads::BoundProgram> bound =
            workloads::BoundProgram::Bind(
                workloads::CanonicalProgram(spec.program), spec.distance);
        // The candidate's code is the program's primary phase code,
        // aliased so the bound program owns it for as long as the
        // candidate lives.
        c.code = std::shared_ptr<const qec::StabilizerCode>(
            bound, bound->primary_code());
        c.options.workload = workloads::WorkloadSpec::Program(bound);
        if (c.label.empty()) {
            c.label = spec.program + "_d" + std::to_string(spec.distance);
        }
        return c;
    }
    c.code = qec::MakeCode(spec.family, spec.distance);
    if (c.label.empty()) {
        c.label = spec.family + "_d" + std::to_string(spec.distance);
    }
    return c;
}

bool
ParseRequestCandidate(const std::string& line, SweepCandidate* out,
                      std::string* error)
{
    RequestSpec spec;
    if (!ParseRequestLine(line, &spec, error)) {
        return false;
    }
    try {
        *out = MakeSweepCandidate(spec);
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::core
