/**
 * @file
 * The one `key=value` request-line parser and batch reader (DESIGN.md
 * §7.4): the sweep service, the `tiqec_certify` driver, and anything
 * else that turns text lines into `core::SweepCandidate`s all parse
 * through here, so field names, the `std::from_chars` numeric
 * discipline, the error message format and the parse-failure result
 * line are defined exactly once.
 *
 * Line format — one candidate per line, `key=value` tokens separated by
 * whitespace; in a batch, blank lines and `#` comments are skipped:
 *
 *   family=rotated distance=3 capacity=2 shots=4096 seed=7 label=a
 *   workload=program program=cnot distance=3 certify=1
 *
 * Keys: family (required unless workload=program; qec::MakeCode name),
 * distance (required, 1 to `kMaxRequestDistance`), program (canonical
 * program name, workloads/program.h; requires workload=program, which
 * in turn forbids family), topology (linear|grid|switch), capacity, wiring
 * (standard|wise), improvement (finite, > 0), rounds, compile_rounds,
 * shots, target_errors, seed, basis (z|x), workload
 * (memory|stability|surgery|program), compile_only (0|1), validate
 * (0|1), certify (0|1; certification needs the simulation, so a
 * candidate with certify=1 and compile_only=1 fails), label. Unknown
 * keys are an error.
 */
#ifndef TIQEC_CORE_REQUEST_H
#define TIQEC_CORE_REQUEST_H

#include <string>
#include <vector>

#include "core/sweep.h"

namespace tiqec::core {

/** The largest `distance` a request may ask for. A code of distance d
 *  has about 2 d^2 qubits, so an unbounded distance lets one line take
 *  all the memory, or overflow `int` from d = 46341, before any other
 *  check runs; 99 is far above the d=17 blocks the benchmark compiles. */
inline constexpr int kMaxRequestDistance = 99;

/**
 * Parses one request line and builds its sweep candidate: `qec::MakeCode`
 * for a family request, or `workloads::CanonicalProgram` +
 * `workloads::BoundProgram::Bind` for a program request (the candidate's
 * code is the program's primary phase code, aliased to the bound
 * program's lifetime, and `options.workload` carries the program spec).
 * Applies the default label (`<family>_d<distance>` /
 * `<program>_d<distance>`). Returns false with the message in `*error`
 * on malformed input, an unknown family or program, or a program that
 * fails validation; `*out` is untouched then.
 */
bool ParseRequestCandidate(const std::string& line, SweepCandidate* out,
                           std::string* error);

/** One request line of a batch. */
struct BatchRequest
{
    std::string line;
    /** Empty when the line parsed; else the parse or build error. */
    std::string parse_error;
    /** The line's index in `RequestBatch::candidates` when it parsed. */
    size_t candidate = 0;
};

struct RequestBatch
{
    /** Every line that is neither blank nor a `#` comment, in order. */
    std::vector<BatchRequest> requests;
    /** The candidates of the lines that parsed, in line order. */
    std::vector<SweepCandidate> candidates;
};

/** Splits a batch into request lines (CR stripped; blank and `#` lines
 *  skipped) and parses each through `ParseRequestCandidate`. A malformed
 *  line stays in `requests` with its error and adds no candidate, so it
 *  never reaches the runner and the rest of the batch proceeds. */
RequestBatch ReadRequestBatch(const std::string& request_text);

/** The JSON result line of a request that did not parse: an empty
 *  label, the request text, `ok:false`, and `request parse: <error>`. */
std::string ParseErrorLine(const BatchRequest& request);

}  // namespace tiqec::core

#endif  // TIQEC_CORE_REQUEST_H
