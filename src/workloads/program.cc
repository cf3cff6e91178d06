#include "workloads/program.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "sim/round_ops.h"

namespace tiqec::workloads {

namespace {

// Rule-id spellings. analysis/diagnostic.h re-declares these constants
// and the mutation battery pins the two spellings against each other.
constexpr const char* kRulePatch = "program.patch";
constexpr const char* kRuleLiveness = "program.liveness";
constexpr const char* kRuleAdjacency = "program.adjacency";
constexpr const char* kRuleMergeState = "program.merge_state";
constexpr const char* kRuleObservable = "program.observable";
constexpr const char* kRuleBasis = "program.basis";
constexpr const char* kRuleDistance = "program.distance";

const char*
BasisName(sim::MemoryBasis basis)
{
    return basis == sim::MemoryBasis::kX ? "x" : "z";
}

const char*
OpName(ProgramOp::Kind kind)
{
    switch (kind) {
      case ProgramOp::Kind::kPrepare: return "prepare";
      case ProgramOp::Kind::kIdle: return "idle";
      case ProgramOp::Kind::kMerge: return "merge";
      case ProgramOp::Kind::kSplit: return "split";
      case ProgramOp::Kind::kMeasure: return "measure";
    }
    return "?";
}

[[noreturn]] void
ParseFail(int line, const std::string& message)
{
    throw std::invalid_argument("program parse: line " +
                                std::to_string(line) + ": " + message);
}

sim::MemoryBasis
ParseBasisToken(int line, const std::string& token)
{
    if (token == "z") {
        return sim::MemoryBasis::kZ;
    }
    if (token == "x") {
        return sim::MemoryBasis::kX;
    }
    ParseFail(line, "unknown basis '" + token + "' (expected z or x)");
}

int
ParseIntToken(int line, const std::string& token, const char* what)
{
    int value = 0;
    const char* begin = token.data();
    const char* end = begin + token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) {
        ParseFail(line, std::string(what) + " '" + token +
                            "' is not an integer");
    }
    return value;
}

int
RequirePatch(int line, const LogicalProgram& program,
             const std::string& token)
{
    const int index = PatchIndex(program, token);
    if (index < 0) {
        ParseFail(line, "unknown patch '" + token + "'");
    }
    return index;
}

// ---------------------------------------------------------------------
// Logical-level stabilizer flow (the program.basis determinism check).
//
// One Pauli per patch, X/Z support as 64-bit masks. Each stabilizer
// generator carries a symbol mask: the XOR of fresh-randomness bits its
// sign depends on. Measuring a Pauli either replaces an anticommuting
// generator (outcome = a fresh random bit) or, when the Pauli is in the
// stabilizer group, expresses the outcome as the XOR of the generators
// that multiply to it. A declared observable is deterministic iff the
// XOR of its terms' outcome expressions is symbol-free.
// ---------------------------------------------------------------------

struct PauliGen
{
    std::uint64_t x = 0;
    std::uint64_t z = 0;
    std::uint64_t sym = 0;
};

bool
Anticommutes(const PauliGen& g, std::uint64_t mx, std::uint64_t mz)
{
    const int overlap = std::popcount(g.x & mz) + std::popcount(g.z & mx);
    return (overlap & 1) != 0;
}

std::uint64_t
MeasurePauli(std::vector<PauliGen>& gens, std::uint64_t mx,
             std::uint64_t mz, std::uint64_t fresh)
{
    int pivot = -1;
    for (int i = 0; i < static_cast<int>(gens.size()); ++i) {
        if (Anticommutes(gens[i], mx, mz)) {
            pivot = i;
            break;
        }
    }
    if (pivot >= 0) {
        for (int j = 0; j < static_cast<int>(gens.size()); ++j) {
            if (j == pivot || !Anticommutes(gens[j], mx, mz)) {
                continue;
            }
            gens[j].x ^= gens[pivot].x;
            gens[j].z ^= gens[pivot].z;
            gens[j].sym ^= gens[pivot].sym;
        }
        gens[pivot] = PauliGen{mx, mz, fresh};
        return fresh;
    }
    // Commuting: Gaussian elimination over the (x|z) support to express
    // the measured Pauli as a product of generators; its outcome is the
    // XOR of their symbol masks.
    std::vector<PauliGen> rows = gens;
    std::vector<char> used(rows.size(), 0);
    std::uint64_t tx = mx;
    std::uint64_t tz = mz;
    std::uint64_t tsym = 0;
    for (int bit = 0; bit < 128; ++bit) {
        const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
        const auto has = [&](std::uint64_t rx, std::uint64_t rz) {
            return ((bit < 64 ? rx : rz) & mask) != 0;
        };
        int pr = -1;
        for (int i = 0; i < static_cast<int>(rows.size()); ++i) {
            if (!used[i] && has(rows[i].x, rows[i].z)) {
                pr = i;
                break;
            }
        }
        if (pr < 0) {
            continue;
        }
        used[pr] = 1;
        for (int j = 0; j < static_cast<int>(rows.size()); ++j) {
            if (j == pr || !has(rows[j].x, rows[j].z)) {
                continue;
            }
            rows[j].x ^= rows[pr].x;
            rows[j].z ^= rows[pr].z;
            rows[j].sym ^= rows[pr].sym;
        }
        if (has(tx, tz)) {
            tx ^= rows[pr].x;
            tz ^= rows[pr].z;
            tsym ^= rows[pr].sym;
        }
    }
    if (tx != 0 || tz != 0) {
        // Not in the stabilizer group (an unentangled degree of
        // freedom): the outcome is an independent coin flip.
        return fresh;
    }
    return tsym;
}

}  // namespace

int
PatchIndex(const LogicalProgram& program, const std::string& patch)
{
    for (int i = 0; i < static_cast<int>(program.patches.size()); ++i) {
        if (program.patches[i] == patch) {
            return i;
        }
    }
    return -1;
}

LogicalProgram
ParseProgram(const std::string& text)
{
    LogicalProgram program;
    bool saw_program = false;
    bool saw_patches = false;
    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream fields(line);
        std::vector<std::string> tok;
        std::string t;
        while (fields >> t) {
            tok.push_back(t);
        }
        if (tok.empty()) {
            continue;
        }
        const std::string& dir = tok[0];
        if (dir == "program") {
            if (saw_program) {
                ParseFail(line_no, "duplicate 'program' line");
            }
            if (tok.size() != 2) {
                ParseFail(line_no, "'program' expects exactly one name");
            }
            program.name = tok[1];
            saw_program = true;
        } else if (dir == "patches") {
            if (saw_patches) {
                ParseFail(line_no, "duplicate 'patches' line");
            }
            if (tok.size() < 2) {
                ParseFail(line_no, "'patches' expects at least one name");
            }
            program.patches.assign(tok.begin() + 1, tok.end());
            saw_patches = true;
        } else if (dir == "prepare" || dir == "measure") {
            if (tok.size() != 3) {
                ParseFail(line_no, "'" + dir + "' expects <patch> <z|x>");
            }
            ProgramOp op;
            op.kind = dir == "prepare" ? ProgramOp::Kind::kPrepare
                                       : ProgramOp::Kind::kMeasure;
            op.patch_a = RequirePatch(line_no, program, tok[1]);
            op.basis = ParseBasisToken(line_no, tok[2]);
            program.ops.push_back(op);
        } else if (dir == "idle") {
            if (tok.size() != 2) {
                ParseFail(line_no, "'idle' expects <rounds>");
            }
            ProgramOp op;
            op.kind = ProgramOp::Kind::kIdle;
            op.rounds = ParseIntToken(line_no, tok[1], "idle rounds");
            program.ops.push_back(op);
        } else if (dir == "merge") {
            if (tok.size() != 4) {
                ParseFail(line_no, "'merge' expects <a> <b> <xx|zz>");
            }
            ProgramOp op;
            op.kind = ProgramOp::Kind::kMerge;
            op.patch_a = RequirePatch(line_no, program, tok[1]);
            op.patch_b = RequirePatch(line_no, program, tok[2]);
            if (tok[3] == "xx") {
                op.parity = qec::SurgeryParity::kXX;
            } else if (tok[3] == "zz") {
                op.parity = qec::SurgeryParity::kZZ;
            } else {
                ParseFail(line_no, "unknown parity '" + tok[3] +
                                       "' (expected xx or zz)");
            }
            program.ops.push_back(op);
        } else if (dir == "split") {
            if (tok.size() != 1) {
                ParseFail(line_no, "'split' expects no arguments");
            }
            ProgramOp op;
            op.kind = ProgramOp::Kind::kSplit;
            program.ops.push_back(op);
        } else if (dir == "observable") {
            if (tok.size() < 3) {
                ParseFail(line_no,
                          "'observable' expects <name> <term>...");
            }
            ProgramObservable obs;
            obs.name = tok[1];
            for (size_t i = 2; i < tok.size(); ++i) {
                const std::string& term = tok[i];
                const size_t colon = term.find(':');
                ObservableTerm parsed;
                if (colon != std::string::npos &&
                    term.substr(0, colon) == "merge") {
                    parsed.kind = ObservableTerm::Kind::kMerge;
                    parsed.index = ParseIntToken(
                        line_no, term.substr(colon + 1), "merge index");
                } else if (colon != std::string::npos &&
                           term.substr(0, colon) == "measure") {
                    parsed.kind = ObservableTerm::Kind::kMeasure;
                    parsed.index = RequirePatch(line_no, program,
                                                term.substr(colon + 1));
                } else {
                    ParseFail(line_no,
                              "bad observable term '" + term +
                                  "' (expected merge:<k> or "
                                  "measure:<patch>)");
                }
                obs.terms.push_back(parsed);
            }
            program.observables.push_back(std::move(obs));
        } else {
            ParseFail(line_no, "unknown directive '" + dir + "'");
        }
    }
    if (!saw_program) {
        throw std::invalid_argument(
            "program parse: missing 'program <name>' line");
    }
    if (!saw_patches) {
        throw std::invalid_argument(
            "program parse: missing 'patches' line");
    }
    return program;
}

std::string
FormatProgram(const LogicalProgram& program)
{
    std::ostringstream out;
    out << "program " << program.name << "\n";
    out << "patches";
    for (const std::string& p : program.patches) {
        out << " " << p;
    }
    out << "\n";
    const auto patch_name = [&](int index) -> std::string {
        if (index >= 0 &&
            index < static_cast<int>(program.patches.size())) {
            return program.patches[index];
        }
        // Appended, not `"?" + std::to_string(...)`: that rvalue
        // operator+ trips a GCC 12 -Wrestrict false positive (GCC bug
        // 105651).
        std::string unknown = "?";
        unknown += std::to_string(index);
        return unknown;
    };
    for (const ProgramOp& op : program.ops) {
        switch (op.kind) {
          case ProgramOp::Kind::kPrepare:
            out << "prepare " << patch_name(op.patch_a) << " "
                << BasisName(op.basis) << "\n";
            break;
          case ProgramOp::Kind::kIdle:
            out << "idle " << op.rounds << "\n";
            break;
          case ProgramOp::Kind::kMerge:
            out << "merge " << patch_name(op.patch_a) << " "
                << patch_name(op.patch_b) << " "
                << qec::SurgeryParityName(op.parity) << "\n";
            break;
          case ProgramOp::Kind::kSplit:
            out << "split\n";
            break;
          case ProgramOp::Kind::kMeasure:
            out << "measure " << patch_name(op.patch_a) << " "
                << BasisName(op.basis) << "\n";
            break;
        }
    }
    for (const ProgramObservable& obs : program.observables) {
        out << "observable " << obs.name;
        for (const ObservableTerm& term : obs.terms) {
            if (term.kind == ObservableTerm::Kind::kMerge) {
                out << " merge:" << term.index;
            } else {
                out << " measure:" << patch_name(term.index);
            }
        }
        out << "\n";
    }
    return out.str();
}

std::vector<ProgramIssue>
CheckProgram(const LogicalProgram& program, int distance)
{
    std::vector<ProgramIssue> issues;
    const auto add = [&](const char* rule, std::string location,
                         std::string message) {
        issues.push_back(ProgramIssue{rule, std::move(location),
                                      std::move(message)});
    };
    const int m = static_cast<int>(program.patches.size());

    // --- program.patch: patch table sanity -------------------------
    if (m == 0) {
        add(kRulePatch, "patches", "program declares no patches");
    }
    for (int i = 0; i < m; ++i) {
        for (int j = i + 1; j < m; ++j) {
            if (program.patches[i] == program.patches[j]) {
                add(kRulePatch, "patches",
                    "duplicate patch name '" + program.patches[i] + "'");
            }
        }
    }
    bool indices_ok = true;
    for (int i = 0; i < static_cast<int>(program.ops.size()); ++i) {
        const ProgramOp& op = program.ops[i];
        const auto check_index = [&](int index) {
            if (index < 0 || index >= m) {
                add(kRulePatch, "op " + std::to_string(i),
                    "patch index " + std::to_string(index) +
                        " out of range (program has " +
                        std::to_string(m) + " patches)");
                indices_ok = false;
            }
        };
        if (op.kind == ProgramOp::Kind::kPrepare ||
            op.kind == ProgramOp::Kind::kMeasure) {
            check_index(op.patch_a);
        } else if (op.kind == ProgramOp::Kind::kMerge) {
            check_index(op.patch_a);
            check_index(op.patch_b);
        }
    }
    for (const ProgramObservable& obs : program.observables) {
        for (const ObservableTerm& term : obs.terms) {
            if (term.kind == ObservableTerm::Kind::kMeasure &&
                (term.index < 0 || term.index >= m)) {
                add(kRulePatch, "observable '" + obs.name + "'",
                    "patch index " + std::to_string(term.index) +
                        " out of range (program has " +
                        std::to_string(m) + " patches)");
                indices_ok = false;
            }
        }
    }
    if (!indices_ok || m == 0) {
        // Further scans index the patch table; report what we have.
        if (distance >= 0 && (distance < 3 || distance % 2 == 0)) {
            add(kRuleDistance, "distance",
                "patch distance must be odd and >= 3 (got " +
                    std::to_string(distance) + ")");
        }
        return issues;
    }

    // --- op scan: liveness, adjacency, merge bracketing ------------
    enum class PatchState : std::uint8_t { kNever, kLive, kMeasured };
    std::vector<PatchState> state(m, PatchState::kNever);
    std::vector<char> rounds_seen(m, 0);
    std::vector<char> measured(m, 0);
    bool merge_open = false;
    int num_merges = 0;
    const auto pname = [&](int index) { return program.patches[index]; };
    for (int i = 0; i < static_cast<int>(program.ops.size()); ++i) {
        const ProgramOp& op = program.ops[i];
        const std::string loc =
            "op " + std::to_string(i) + " (" + OpName(op.kind) + ")";
        if (merge_open && op.kind != ProgramOp::Kind::kSplit) {
            add(kRuleMergeState, loc,
                "only 'split' may follow an open merge");
        }
        switch (op.kind) {
          case ProgramOp::Kind::kPrepare:
            if (state[op.patch_a] == PatchState::kLive) {
                add(kRuleLiveness, loc,
                    "patch '" + pname(op.patch_a) + "' is already live");
            } else if (state[op.patch_a] == PatchState::kMeasured) {
                add(kRuleLiveness, loc,
                    "patch '" + pname(op.patch_a) +
                        "' was already measured; patches cannot be "
                        "reused");
            }
            state[op.patch_a] = PatchState::kLive;
            break;
          case ProgramOp::Kind::kIdle: {
            if (op.rounds < 1) {
                add(kRuleLiveness, loc,
                    "idle rounds must be >= 1 (got " +
                        std::to_string(op.rounds) + ")");
            }
            bool any_live = false;
            for (int p = 0; p < m; ++p) {
                if (state[p] == PatchState::kLive) {
                    any_live = true;
                    rounds_seen[p] = 1;
                }
            }
            if (!any_live) {
                add(kRuleLiveness, loc, "idle with no live patches");
            }
            break;
          }
          case ProgramOp::Kind::kMerge: {
            if (op.patch_a == op.patch_b) {
                add(kRuleAdjacency, loc,
                    "cannot merge patch '" + pname(op.patch_a) +
                        "' with itself");
            } else if (std::abs(op.patch_a - op.patch_b) != 1) {
                add(kRuleAdjacency, loc,
                    "patches '" + pname(op.patch_a) + "' and '" +
                        pname(op.patch_b) +
                        "' are not fabric-adjacent");
            }
            for (const int p : {op.patch_a, op.patch_b}) {
                if (state[p] != PatchState::kLive) {
                    add(kRuleLiveness, loc,
                        "merge on patch '" + pname(p) +
                            "' which is not live");
                }
            }
            for (int p = 0; p < m; ++p) {
                if (state[p] == PatchState::kLive) {
                    rounds_seen[p] = 1;
                }
            }
            merge_open = true;
            ++num_merges;
            break;
          }
          case ProgramOp::Kind::kSplit:
            if (!merge_open) {
                add(kRuleMergeState, loc, "split without an open merge");
            }
            merge_open = false;
            break;
          case ProgramOp::Kind::kMeasure:
            if (state[op.patch_a] == PatchState::kNever) {
                add(kRuleLiveness, loc,
                    "measure on patch '" + pname(op.patch_a) +
                        "' which was never prepared");
            } else if (state[op.patch_a] == PatchState::kMeasured) {
                add(kRuleLiveness, loc,
                    "patch '" + pname(op.patch_a) +
                        "' was already measured");
            } else if (!rounds_seen[op.patch_a]) {
                add(kRuleLiveness, loc,
                    "patch '" + pname(op.patch_a) +
                        "' is measured before running any stabilizer "
                        "round");
            }
            state[op.patch_a] = PatchState::kMeasured;
            measured[op.patch_a] = 1;
            break;
        }
    }
    if (merge_open) {
        add(kRuleMergeState, "end of program",
            "program ends with a merge open");
    }
    for (int p = 0; p < m; ++p) {
        if (state[p] == PatchState::kLive) {
            add(kRuleLiveness, "end of program",
                "patch '" + pname(p) +
                    "' is still live at the end of the program");
        }
    }

    // --- program.observable: declared observable references --------
    if (program.observables.empty()) {
        add(kRuleObservable, "observables",
            "program declares no observables");
    }
    for (int i = 0; i < static_cast<int>(program.observables.size());
         ++i) {
        const ProgramObservable& obs = program.observables[i];
        const std::string loc = "observable '" + obs.name + "'";
        for (int j = 0; j < i; ++j) {
            if (program.observables[j].name == obs.name) {
                add(kRuleObservable, loc,
                    "duplicate observable name");
                break;
            }
        }
        if (obs.terms.empty()) {
            add(kRuleObservable, loc, "observable has no terms");
        }
        for (const ObservableTerm& term : obs.terms) {
            if (term.kind == ObservableTerm::Kind::kMerge) {
                if (term.index < 0 || term.index >= num_merges) {
                    add(kRuleObservable, loc,
                        "merge index " + std::to_string(term.index) +
                            " out of range (program has " +
                            std::to_string(num_merges) + " merges)");
                }
            } else if (!measured[term.index]) {
                add(kRuleObservable, loc,
                    "term references patch '" + pname(term.index) +
                        "' which is never measured");
            }
        }
    }

    // --- program.basis: determinism under ideal stabilizer flow ----
    int num_outcomes = 0;
    for (const ProgramOp& op : program.ops) {
        if (op.kind == ProgramOp::Kind::kMerge ||
            op.kind == ProgramOp::Kind::kMeasure) {
            ++num_outcomes;
        }
    }
    if (issues.empty() && m <= 64 && num_outcomes <= 64) {
        std::vector<PauliGen> gens;
        std::vector<std::uint64_t> merge_expr;
        std::vector<std::uint64_t> measure_expr(m, 0);
        int next_fresh = 0;
        for (const ProgramOp& op : program.ops) {
            const std::uint64_t bit_a =
                op.patch_a >= 0 ? std::uint64_t{1} << op.patch_a : 0;
            switch (op.kind) {
              case ProgramOp::Kind::kPrepare:
                gens.push_back(op.basis == sim::MemoryBasis::kX
                                   ? PauliGen{bit_a, 0, 0}
                                   : PauliGen{0, bit_a, 0});
                break;
              case ProgramOp::Kind::kMerge: {
                const std::uint64_t pair =
                    bit_a | (std::uint64_t{1} << op.patch_b);
                const std::uint64_t fresh = std::uint64_t{1}
                                            << next_fresh++;
                const bool xx = op.parity == qec::SurgeryParity::kXX;
                merge_expr.push_back(MeasurePauli(
                    gens, xx ? pair : 0, xx ? 0 : pair, fresh));
                break;
              }
              case ProgramOp::Kind::kMeasure: {
                const std::uint64_t fresh = std::uint64_t{1}
                                            << next_fresh++;
                const bool x = op.basis == sim::MemoryBasis::kX;
                measure_expr[op.patch_a] = MeasurePauli(
                    gens, x ? bit_a : 0, x ? 0 : bit_a, fresh);
                break;
              }
              case ProgramOp::Kind::kIdle:
              case ProgramOp::Kind::kSplit:
                break;
            }
        }
        for (const ProgramObservable& obs : program.observables) {
            std::uint64_t expr = 0;
            for (const ObservableTerm& term : obs.terms) {
                expr ^= term.kind == ObservableTerm::Kind::kMerge
                            ? merge_expr[term.index]
                            : measure_expr[term.index];
            }
            if (expr != 0) {
                add(kRuleBasis, "observable '" + obs.name + "'",
                    "observable is not deterministic under ideal "
                    "stabilizer flow (depends on random measurement "
                    "outcomes)");
            }
        }
    }

    // --- program.distance ------------------------------------------
    if (distance >= 0 && (distance < 3 || distance % 2 == 0)) {
        add(kRuleDistance, "distance",
            "patch distance must be odd and >= 3 (got " +
                std::to_string(distance) + ")");
    }
    return issues;
}

namespace {

constexpr const char* kSingleMergeText =
    "program single_merge\n"
    "patches a b\n"
    "prepare a x\n"
    "prepare b x\n"
    "merge a b xx\n"
    "split\n"
    "measure a x\n"
    "measure b x\n"
    "observable joint merge:0\n"
    "observable patch_a measure:a\n"
    "observable patch_b measure:b\n";

constexpr const char* kCnotText =
    "program cnot\n"
    "patches c a t\n"
    "prepare c z\n"
    "prepare a x\n"
    "merge c a zz\n"
    "split\n"
    "prepare t z\n"
    "merge a t xx\n"
    "split\n"
    "measure c z\n"
    "measure a z\n"
    "measure t z\n"
    "observable frame merge:0 measure:a measure:t\n"
    "observable control measure:c\n";

constexpr const char* kBellText =
    "program bell\n"
    "patches a b\n"
    "prepare a z\n"
    "prepare b z\n"
    "merge a b xx\n"
    "split\n"
    "measure a z\n"
    "measure b z\n"
    "observable bell measure:a measure:b\n";

}  // namespace

const std::vector<std::string>&
CanonicalProgramNames()
{
    static const std::vector<std::string> names = {"single_merge", "cnot",
                                                   "bell"};
    return names;
}

LogicalProgram
CanonicalProgram(const std::string& name)
{
    if (name == "single_merge") {
        return ParseProgram(kSingleMergeText);
    }
    if (name == "cnot") {
        return ParseProgram(kCnotText);
    }
    if (name == "bell") {
        return ParseProgram(kBellText);
    }
    throw std::invalid_argument("unknown program '" + name +
                                "' (expected single_merge, cnot, or "
                                "bell)");
}

std::shared_ptr<const BoundProgram>
BoundProgram::Bind(LogicalProgram program, int distance)
{
    {
        const std::vector<ProgramIssue> issues =
            CheckProgram(program, distance);
        if (!issues.empty()) {
            const ProgramIssue& issue = issues.front();
            throw std::invalid_argument(
                "program validation failed: [" + issue.rule + "] " +
                issue.location + ": " + issue.message);
        }
    }
    std::shared_ptr<BoundProgram> bound(new BoundProgram());
    bound->program_ = std::move(program);
    bound->distance_ = distance;
    bound->canonical_ = FormatProgram(bound->program_);
    const int d = distance;
    const int m = static_cast<int>(bound->program_.patches.size());

    bound->layout_ = std::make_shared<qec::RectangularSurfaceCode>(
        m * (d + 1) - 1, d);
    for (const qec::CodeQubit& q : bound->layout_->qubits()) {
        bound->coord_id_[{std::llround(q.coord.x),
                          std::llround(q.coord.y)}] = q.id.value;
    }

    // Which phase codes do the program's rounds need?
    bool need_patch = false;
    bool need_xx = false;
    bool need_zz = false;
    bool has_merge = false;
    qec::SurgeryParity first_parity = qec::SurgeryParity::kXX;
    bound->measure_basis_.assign(m, -1);
    {
        std::vector<char> live(m, 0);
        for (const ProgramOp& op : bound->program_.ops) {
            switch (op.kind) {
              case ProgramOp::Kind::kPrepare:
                live[op.patch_a] = 1;
                break;
              case ProgramOp::Kind::kIdle:
                need_patch = true;
                break;
              case ProgramOp::Kind::kMerge: {
                if (!has_merge) {
                    has_merge = true;
                    first_parity = op.parity;
                }
                if (op.parity == qec::SurgeryParity::kXX) {
                    need_xx = true;
                } else {
                    need_zz = true;
                }
                for (int p = 0; p < m; ++p) {
                    if (live[p] && p != op.patch_a && p != op.patch_b) {
                        need_patch = true;
                    }
                }
                break;
              }
              case ProgramOp::Kind::kSplit:
                break;
              case ProgramOp::Kind::kMeasure:
                live[op.patch_a] = 0;
                bound->measure_basis_[op.patch_a] =
                    op.basis == sim::MemoryBasis::kX ? 1 : 0;
                break;
            }
        }
    }
    if (need_patch) {
        bound->patch_phase_ =
            static_cast<int>(bound->phase_codes_.size());
        bound->phase_codes_.push_back(
            std::make_shared<qec::RotatedSurfaceCode>(d));
    }
    if (need_xx) {
        bound->xx_phase_ = static_cast<int>(bound->phase_codes_.size());
        bound->phase_codes_.push_back(
            std::make_shared<qec::MergedPatchCode>(
                d, qec::SurgeryParity::kXX));
    }
    if (need_zz) {
        bound->zz_phase_ = static_cast<int>(bound->phase_codes_.size());
        bound->phase_codes_.push_back(
            std::make_shared<qec::MergedPatchCode>(
                d, qec::SurgeryParity::kZZ));
    }
    TIQEC_CHECK(!bound->phase_codes_.empty(),
                "program '" << bound->program_.name
                            << "' binds no phase codes");
    bound->primary_index_ =
        has_merge ? (first_parity == qec::SurgeryParity::kXX
                         ? bound->xx_phase_
                         : bound->zz_phase_)
                  : bound->patch_phase_;

    if (need_patch) {
        bound->patch_maps_.reserve(m);
        for (int p = 0; p < m; ++p) {
            bound->patch_maps_.push_back(bound->MapPatchAt(p));
        }
    }
    for (const ProgramOp& op : bound->program_.ops) {
        if (op.kind != ProgramOp::Kind::kMerge) {
            continue;
        }
        const int left = std::min(op.patch_a, op.patch_b);
        const std::pair<int, int> key = {left,
                                         static_cast<int>(op.parity)};
        if (bound->merge_maps_.count(key) != 0) {
            continue;
        }
        const int phase = op.parity == qec::SurgeryParity::kXX
                              ? bound->xx_phase_
                              : bound->zz_phase_;
        const auto& merged = static_cast<const qec::MergedPatchCode&>(
            *bound->phase_codes_[phase]);
        bound->merge_maps_.emplace(key,
                                   bound->MapMergedAt(merged, left));
    }

    for (const QubitId q : bound->layout_->data_qubits()) {
        bound->fabric_data_.push_back(q.value);
    }
    bound->seam_columns_.resize(m > 0 ? m - 1 : 0);
    for (int s = 0; s + 1 < m; ++s) {
        const double x = 2.0 * (s * (d + 1) + d) + 1.0;
        for (int j = 0; j < d; ++j) {
            bound->seam_columns_[s].push_back(
                bound->GlobalAt(x, 2.0 * j + 1.0));
        }
        bound->seam_data_.insert(bound->seam_data_.end(),
                                 bound->seam_columns_[s].begin(),
                                 bound->seam_columns_[s].end());
    }
    std::sort(bound->seam_data_.begin(), bound->seam_data_.end());
    bound->patch_data_.resize(m);
    for (int p = 0; p < m; ++p) {
        for (int i = 0; i < d; ++i) {
            const double x = 2.0 * (p * (d + 1) + i) + 1.0;
            for (int j = 0; j < d; ++j) {
                bound->patch_data_[p].push_back(
                    bound->GlobalAt(x, 2.0 * j + 1.0));
            }
        }
        std::sort(bound->patch_data_[p].begin(),
                  bound->patch_data_[p].end());
    }
    return bound;
}

int
BoundProgram::GlobalAt(double x, double y) const
{
    const auto it = coord_id_.find({std::llround(x), std::llround(y)});
    TIQEC_CHECK(it != coord_id_.end(),
                "program fabric: no strip qubit at (" << x << ", " << y
                                                      << ")");
    return it->second;
}

BoundProgram::QubitMap
BoundProgram::MapPatchAt(int position) const
{
    const qec::StabilizerCode& patch = *phase_codes_[patch_phase_];
    const double off = 2.0 * position * (distance_ + 1);
    QubitMap map(patch.num_qubits(), -1);
    for (const qec::CodeQubit& q : patch.qubits()) {
        map[q.id.value] = GlobalAt(q.coord.x + off, q.coord.y);
    }
    return map;
}

BoundProgram::QubitMap
BoundProgram::MapMergedAt(const qec::MergedPatchCode& merged,
                          int left_position) const
{
    const int d = distance_;
    const int s = left_position;
    const double off_a = 2.0 * s * (d + 1);
    QubitMap map(merged.num_qubits(), -1);
    if (merged.parity() == qec::SurgeryParity::kXX) {
        // The horizontal double patch embeds directly: patch A's data
        // columns, the seam column, and patch B's data columns coincide
        // with the strip's columns at offset s*(d+1). For a two-patch
        // fabric this map is the identity, which is what pins the
        // single-merge program to the surgery workload byte-for-byte.
        for (const qec::CodeQubit& q : merged.qubits()) {
            map[q.id.value] = GlobalAt(q.coord.x + off_a, q.coord.y);
        }
        return map;
    }
    // Vertical (ZZ) double patch: patch A keeps its columns, the seam
    // row folds onto the strip's seam column, and patch B shifts up by
    // the seam row onto the next fabric position. The joint Z checks
    // have no same-type strip slots (the strip hosts X checks in the
    // two seam-adjacent plaquette columns), so they zip onto those X
    // slots by ordinal: slot identity only carries the telescoping
    // history, and the joint slots' history never crosses a phase
    // boundary (split clears them), so the fictional coordinates are
    // harmless.
    const double off_b = 2.0 * (s + 1) * (d + 1);
    const double seam_x = 2.0 * (s * (d + 1) + d) + 1.0;
    const double shift = 2.0 * (d + 1);
    for (const QubitId dq : merged.data_qubits()) {
        const Coord c = merged.qubit(dq).coord;
        const int j = static_cast<int>((c.y - 1.0) / 2.0);
        if (j < d) {
            map[dq.value] = GlobalAt(c.x + off_a, c.y);
        } else if (j == d) {
            map[dq.value] = GlobalAt(seam_x, c.x);
        } else {
            map[dq.value] = GlobalAt(c.x + off_b, c.y - shift);
        }
    }
    std::vector<char> joint(merged.num_ancillas(), 0);
    for (const int k : merged.joint_parity_checks()) {
        joint[k] = 1;
    }
    for (int k = 0; k < merged.num_ancillas(); ++k) {
        if (joint[k]) {
            continue;
        }
        const qec::Check& chk = merged.checks()[k];
        const Coord c = merged.qubit(chk.ancilla).coord;
        const int b = static_cast<int>(c.y / 2.0);
        map[chk.ancilla.value] = b <= d
                                     ? GlobalAt(c.x + off_a, c.y)
                                     : GlobalAt(c.x + off_b, c.y - shift);
    }
    const int c0 = s * (d + 1) + d;
    std::vector<int> strip_slots;
    for (const qec::Check& chk : layout_->checks()) {
        if (chk.type != qec::CheckType::kX) {
            continue;
        }
        const int a = static_cast<int>(
            layout_->qubit(chk.ancilla).coord.x / 2.0);
        if (a == c0 || a == c0 + 1) {
            strip_slots.push_back(chk.ancilla.value);
        }
    }
    TIQEC_CHECK(strip_slots.size() ==
                    merged.joint_parity_checks().size(),
                "program fabric: " << strip_slots.size()
                                   << " strip slots for "
                                   << merged.joint_parity_checks().size()
                                   << " joint checks");
    int next = 0;
    for (const int k : merged.joint_parity_checks()) {
        map[merged.checks()[k].ancilla.value] = strip_slots[next++];
    }
    return map;
}

std::vector<int>
BoundProgram::LogicalSupport(int patch, sim::MemoryBasis basis) const
{
    const int d = distance_;
    const double off = 2.0 * patch * (d + 1);
    std::vector<int> support;
    support.reserve(d);
    if (basis == sim::MemoryBasis::kZ) {
        // A data row is a logical-Z representative. Every patch uses
        // row 0 so that a joint Z (X) Z observable across an XX merge
        // continues straight through the seam: together with the seam
        // qubit's split readout record (stitched in by `Build`), the
        // two rows form one full-width row of the merged strip - the
        // protected representative of Za*Zb while the patches share a
        // code. Disconnected rows would leave adjacent same-syndrome
        // qubits on either side of the seam with different observable
        // membership, collapsing the effective distance to 2.
        for (int i = 0; i < d; ++i) {
            support.push_back(GlobalAt(off + 2.0 * i + 1.0, 1.0));
        }
    } else {
        const int i = patch == 0 ? 0 : d - 1;
        for (int j = 0; j < d; ++j) {
            support.push_back(
                GlobalAt(off + 2.0 * i + 1.0, 2.0 * j + 1.0));
        }
    }
    return support;
}

sim::NoisyCircuit
BoundProgram::Build(const std::vector<PhaseCircuit>& phases,
                    const noise::NoiseParams& params, int rounds) const
{
    TIQEC_CHECK(rounds >= 1,
                "program build: rounds must be >= 1 (got " << rounds
                                                           << ")");
    TIQEC_CHECK(phases.size() == phase_codes_.size(),
                "program build: " << phases.size() << " phases for "
                                  << phase_codes_.size()
                                  << " phase codes");
    std::vector<std::unique_ptr<sim::RoundOps>> round_ops;
    round_ops.reserve(phases.size());
    for (size_t i = 0; i < phases.size(); ++i) {
        TIQEC_CHECK(phases[i].round_circuit != nullptr &&
                        phases[i].profile != nullptr,
                    "program build: phase " << i
                                            << " is missing artifacts");
        round_ops.push_back(std::make_unique<sim::RoundOps>(
            *phase_codes_[i], *phases[i].round_circuit,
            *phases[i].profile));
    }

    const int d = distance_;
    const int m = static_cast<int>(program_.patches.size());
    const int nq = layout_->num_qubits();
    sim::NoisyCircuit sim(nq);

    // Per-slot detector state. A "slot" is a strip ancilla id; its
    // pending set is the measurement records the next outcome on that
    // slot telescopes against (§5.4).
    std::vector<std::vector<std::int32_t>> pending(nq);
    std::vector<std::vector<int>> slot_support(nq);
    std::vector<qec::CheckType> slot_type(nq, qec::CheckType::kZ);
    std::vector<int> fresh_basis(nq, -1);  // -1 none, 0 Z, 1 X
    std::vector<int> fresh_list;
    std::vector<int> defer_basis(nq, -1);  // pending transversal readout
    std::vector<std::int32_t> data_record(nq, -1);
    std::vector<int> data_basis(nq, -1);
    std::vector<char> is_seam(nq, 0);
    for (const int q : seam_data_) {
        is_seam[q] = 1;
    }
    std::vector<char> live(m, 0);
    std::vector<char> prep_done(m, 0);
    std::vector<int> pend_prep(m, 0);
    std::vector<std::vector<std::int32_t>> merge_records;
    // Per-merge metadata for observable assembly: the merged pair, its
    // parity, and (once the split readout lands) the seam data records
    // by qubit id — the stitching material for joint observables that
    // cross the seam.
    struct MergeInfo
    {
        int patch_a = 0;
        int patch_b = 0;
        qec::SurgeryParity parity = qec::SurgeryParity::kXX;
        std::vector<std::pair<int, std::int32_t>> seam_records;
    };
    std::vector<MergeInfo> merges;
    // Seam captures: merge ordinals whose seam readout is deferred;
    // resolved into `merges[k].seam_records` at the next flush.
    std::vector<int> seam_captures;
    // Fold entries: (slot, seam qubits) — applied at the next flush so
    // the widened checks' time axes close across the seam readout.
    std::vector<std::pair<int, std::vector<int>>> folds;
    bool have_defer = false;
    int round_index = 0;

    const auto flush = [&]() {
        if (!have_defer) {
            return;
        }
        for (const QubitId dq : layout_->data_qubits()) {
            const int q = dq.value;
            const int basis = defer_basis[q];
            if (basis < 0) {
                continue;
            }
            if (basis == 1) {
                sim.AddH(q);
            }
            data_record[q] = static_cast<std::int32_t>(
                sim.AddMeasure(q, params.MeasureError()));
            data_basis[q] = basis;
            defer_basis[q] = -1;
        }
        have_defer = false;
        for (const int ordinal : seam_captures) {
            MergeInfo& info = merges[static_cast<size_t>(ordinal)];
            const int pair =
                std::min(info.patch_a, info.patch_b);
            for (const int q : seam_columns_[pair]) {
                info.seam_records.emplace_back(q, data_record[q]);
            }
        }
        seam_captures.clear();
        for (const auto& [slot, qubits] : folds) {
            // Narrow the widened check: the seam readout records join
            // the slot's time axis, and the seam qubits leave its
            // support (the slot now stands for the patch-boundary
            // check). Without the support trim, a same-flush closure
            // would count each seam record twice and XOR them away.
            for (const int q : qubits) {
                pending[slot].push_back(data_record[q]);
                std::vector<int>& support = slot_support[slot];
                support.erase(
                    std::remove(support.begin(), support.end(), q),
                    support.end());
            }
        }
        folds.clear();
        // Space-like closure: a slot whose whole support was just read
        // out in the check's basis closes its time axis.
        for (int slot = 0; slot < nq; ++slot) {
            if (pending[slot].empty() || slot_support[slot].empty()) {
                continue;
            }
            const int want =
                slot_type[slot] == qec::CheckType::kX ? 1 : 0;
            bool closes = true;
            for (const int q : slot_support[slot]) {
                if (data_record[q] < 0 || data_basis[q] != want) {
                    closes = false;
                    break;
                }
            }
            if (!closes) {
                continue;
            }
            std::vector<std::int32_t> targets = pending[slot];
            for (const int q : slot_support[slot]) {
                targets.push_back(data_record[q]);
            }
            sim.AddDetector(std::move(targets),
                            layout_->qubit(QubitId(slot)).coord,
                            round_index);
            pending[slot].clear();
            slot_support[slot].clear();
        }
    };

    const auto append_phase = [&](int phase, const QubitMap& map,
                                  int joint_ordinal) {
        const qec::StabilizerCode& code = *phase_codes_[phase];
        std::vector<int> meas;
        round_ops[phase]->AppendRound(sim, meas, &map);
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const qec::Check& chk = code.checks()[k];
            const int slot = map[chk.ancilla.value];
            const std::int32_t rec = meas[k];
            slot_type[slot] = chk.type;
            std::vector<int>& support = slot_support[slot];
            support.clear();
            for (const QubitId dq : chk.data_order) {
                if (dq.valid()) {
                    support.push_back(map[dq.value]);
                }
            }
            const Coord coord =
                layout_->qubit(QubitId(slot)).coord;
            std::vector<std::int32_t>& pend = pending[slot];
            if (!pend.empty()) {
                std::vector<std::int32_t> targets;
                targets.reserve(1 + pend.size());
                targets.push_back(rec);
                targets.insert(targets.end(), pend.begin(), pend.end());
                sim.AddDetector(std::move(targets), coord, round_index);
            } else {
                const int want =
                    chk.type == qec::CheckType::kX ? 1 : 0;
                bool all_fresh = true;
                for (const int q : support) {
                    if (fresh_basis[q] != want) {
                        all_fresh = false;
                        break;
                    }
                }
                if (all_fresh) {
                    sim.AddDetector({rec}, coord, round_index);
                }
            }
            pend.assign(1, rec);
        }
        if (joint_ordinal >= 0) {
            const auto& merged =
                static_cast<const qec::MergedPatchCode&>(code);
            for (const int k : merged.joint_parity_checks()) {
                merge_records[joint_ordinal].push_back(meas[k]);
            }
        }
    };

    // Runs one global round. `pair` < 0 means no merge is active;
    // otherwise the pair (pair, pair+1) runs one merged round (round
    // `merge_round` of merge `ordinal`) while live bystanders run
    // standalone patch rounds at their positions.
    const auto run_round = [&](int pair, qec::SurgeryParity parity,
                               int merge_round, int ordinal) {
        flush();
        std::vector<std::pair<int, int>> preps;
        for (int p = 0; p < m; ++p) {
            if (!live[p] || prep_done[p]) {
                continue;
            }
            for (const int q : patch_data_[p]) {
                preps.emplace_back(q, pend_prep[p]);
            }
            prep_done[p] = 1;
        }
        if (pair >= 0 && merge_round == 0) {
            const int conj =
                parity == qec::SurgeryParity::kXX ? 0 : 1;
            for (const int q : seam_columns_[pair]) {
                preps.emplace_back(q, conj);
            }
        }
        std::sort(preps.begin(), preps.end());
        for (const auto& [q, basis] : preps) {
            sim.AddReset(q, params.ResetError());
            if (basis == 1) {
                sim.AddH(q);
            }
            fresh_basis[q] = basis;
            fresh_list.push_back(q);
        }
        for (int p = 0; p < m; ++p) {
            if (pair >= 0 && p == pair) {
                const int phase =
                    parity == qec::SurgeryParity::kXX ? xx_phase_
                                                      : zz_phase_;
                append_phase(
                    phase,
                    merge_maps_.at({pair, static_cast<int>(parity)}),
                    merge_round == 0 ? ordinal : -1);
            } else if (pair >= 0 && p == pair + 1) {
                // Covered by the merged phase.
            } else if (live[p]) {
                append_phase(patch_phase_, patch_maps_[p], -1);
            }
        }
        for (const int q : fresh_list) {
            fresh_basis[q] = -1;
        }
        fresh_list.clear();
        ++round_index;
    };

    int open_pair = -1;
    qec::SurgeryParity open_parity = qec::SurgeryParity::kXX;
    int merge_counter = 0;
    for (const ProgramOp& op : program_.ops) {
        switch (op.kind) {
          case ProgramOp::Kind::kPrepare:
            live[op.patch_a] = 1;
            prep_done[op.patch_a] = 0;
            pend_prep[op.patch_a] =
                op.basis == sim::MemoryBasis::kX ? 1 : 0;
            break;
          case ProgramOp::Kind::kIdle:
            for (int r = 0; r < op.rounds; ++r) {
                run_round(-1, qec::SurgeryParity::kXX, -1, -1);
            }
            break;
          case ProgramOp::Kind::kMerge: {
            open_pair = std::min(op.patch_a, op.patch_b);
            open_parity = op.parity;
            const int ordinal = merge_counter++;
            merge_records.emplace_back();
            merges.push_back({op.patch_a, op.patch_b, op.parity, {}});
            for (int r = 0; r < rounds; ++r) {
                run_round(open_pair, open_parity, r, ordinal);
            }
            break;
          }
          case ProgramOp::Kind::kSplit: {
            const int conj =
                open_parity == qec::SurgeryParity::kXX ? 0 : 1;
            for (const int q : seam_columns_[open_pair]) {
                defer_basis[q] = conj;
            }
            have_defer = true;
            seam_captures.push_back(merge_counter - 1);
            const int phase =
                open_parity == qec::SurgeryParity::kXX ? xx_phase_
                                                       : zz_phase_;
            const auto& merged =
                static_cast<const qec::MergedPatchCode&>(
                    *phase_codes_[phase]);
            const QubitMap& map = merge_maps_.at(
                {open_pair, static_cast<int>(open_parity)});
            std::vector<char> joint(merged.num_ancillas(), 0);
            for (const int k : merged.joint_parity_checks()) {
                joint[k] = 1;
            }
            for (int k = 0; k < merged.num_ancillas(); ++k) {
                const qec::Check& chk = merged.checks()[k];
                const int slot = map[chk.ancilla.value];
                if (joint[k]) {
                    // The joint checks stop existing at the split;
                    // their time axes end here (the round-0 records
                    // feed the merge observable instead).
                    pending[slot].clear();
                    slot_support[slot].clear();
                    continue;
                }
                std::vector<int> seam_support;
                for (const QubitId dq : chk.data_order) {
                    if (dq.valid() && is_seam[map[dq.value]]) {
                        seam_support.push_back(map[dq.value]);
                    }
                }
                if (!seam_support.empty()) {
                    folds.emplace_back(slot, std::move(seam_support));
                }
            }
            open_pair = -1;
            break;
          }
          case ProgramOp::Kind::kMeasure: {
            const int basis =
                op.basis == sim::MemoryBasis::kX ? 1 : 0;
            for (const int q : patch_data_[op.patch_a]) {
                defer_basis[q] = basis;
            }
            have_defer = true;
            live[op.patch_a] = 0;
            break;
          }
        }
    }
    flush();

    for (int i = 0; i < static_cast<int>(program_.observables.size());
         ++i) {
        const ProgramObservable& obs = program_.observables[i];
        std::vector<std::int32_t> targets;
        std::vector<char> measured(static_cast<size_t>(m), 0);
        for (const ObservableTerm& term : obs.terms) {
            if (term.kind == ObservableTerm::Kind::kMerge) {
                targets.insert(targets.end(),
                               merge_records[term.index].begin(),
                               merge_records[term.index].end());
            } else {
                measured[term.index] = 1;
                const sim::MemoryBasis basis =
                    measure_basis_[term.index] == 1
                        ? sim::MemoryBasis::kX
                        : sim::MemoryBasis::kZ;
                for (const int q : LogicalSupport(term.index, basis)) {
                    targets.push_back(data_record[q]);
                }
            }
        }
        // Seam stitching: when both patches of a merge contribute
        // measure terms in the seam's readout basis, the two logical
        // representatives continue through the seam (Za*Zb across an
        // XX merge is one full-width strip row, not two dangling
        // patch rows). The connecting seam qubit's split record joins
        // the observable so the representative stays connected — and
        // distance-d — through the merged phase.
        for (const MergeInfo& info : merges) {
            const int conj =
                info.parity == qec::SurgeryParity::kXX ? 0 : 1;
            if (!measured[info.patch_a] || !measured[info.patch_b] ||
                measure_basis_[info.patch_a] != conj ||
                measure_basis_[info.patch_b] != conj) {
                continue;
            }
            int row;
            if (conj == 0) {
                row = 0;  // Z representatives all use row 0.
            } else {
                // X representatives use the fabric-outer column; only
                // a matching column index continues straight through
                // the seam.
                const int col_a = info.patch_a == 0 ? 0 : d - 1;
                const int col_b = info.patch_b == 0 ? 0 : d - 1;
                if (col_a != col_b) {
                    continue;
                }
                row = col_a;
            }
            const int pair = std::min(info.patch_a, info.patch_b);
            const int seam_q = GlobalAt(
                2.0 * (pair * (d + 1) + d) + 1.0, 2.0 * row + 1.0);
            for (const auto& [q, rec] : info.seam_records) {
                if (q == seam_q) {
                    targets.push_back(rec);
                }
            }
        }
        sim.AddObservableInclude(i, std::move(targets));
    }
    return sim;
}

}  // namespace tiqec::workloads
