#include "compiler/schedule_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/text_format.h"

namespace tiqec::compiler {

namespace {

constexpr char kCsvHeader[] =
    "index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,chain,"
    "nbar,source_gate";
constexpr size_t kNumFields = 12;

constexpr std::array<qccd::OpKind, 10> kAllOpKinds = {
    qccd::OpKind::kMs,           qccd::OpKind::kRotation,
    qccd::OpKind::kMeasure,      qccd::OpKind::kReset,
    qccd::OpKind::kShuttle,      qccd::OpKind::kSplit,
    qccd::OpKind::kMerge,        qccd::OpKind::kJunctionEnter,
    qccd::OpKind::kJunctionExit, qccd::OpKind::kGateSwap,
};

qccd::OpKind
OpKindFromName(const std::string& name, const std::string& line)
{
    for (const qccd::OpKind kind : kAllOpKinds) {
        if (qccd::OpKindName(kind) == name) {
            return kind;
        }
    }
    throw std::invalid_argument("ParseScheduleCsv: unknown op kind '" +
                                name + "' in line: " + line);
}

std::int32_t
ParseInt(const std::string& field, const std::string& line)
{
    return text::ParseInt32(field, "line: " + line);
}

/** Times and n-bar must be finite: std::from_chars accepts "nan" and
 *  "inf", and a NaN start would break RecomputeStats' interval sort. */
double
ParseDouble(const std::string& field, const std::string& line)
{
    const double value = text::ParseDouble(field, "line: " + line);
    if (!std::isfinite(value)) {
        throw std::invalid_argument("bad number '" + field +
                                    "' in line: " + line);
    }
    return value;
}

}  // namespace

void
WriteScheduleCsv(const Schedule& schedule, std::ostream& os)
{
    os << kCsvHeader << '\n';
    for (size_t i = 0; i < schedule.ops.size(); ++i) {
        const TimedOp& t = schedule.ops[i];
        os << i << ',' << t.op.pass << ','
           << qccd::OpKindName(t.op.kind) << ',' << t.op.ion0.value << ','
           << t.op.ion1.value << ',' << t.op.node.value << ','
           << t.op.segment.value << ',' << text::ExactDouble(t.start) << ','
           << text::ExactDouble(t.duration) << ',' << t.chain_size << ','
           << text::ExactDouble(t.nbar) << ',' << t.op.source_gate.value
           << '\n';
    }
}

std::string
ScheduleCsv(const Schedule& schedule)
{
    std::ostringstream os;
    WriteScheduleCsv(schedule, os);
    return os.str();
}

Schedule
ParseScheduleCsv(std::istream& is)
{
    std::string line;
    if (!std::getline(is, line)) {
        throw std::invalid_argument("ParseScheduleCsv: empty input");
    }
    // CRLF input (git autocrlf / Windows checkout) reaches us with a
    // trailing '\r' on every line; strip it before the header compare
    // and before the last field of each row, or the header check fails
    // and the trailing nbar field parses as corrupt.
    text::StripCr(line);
    if (line != kCsvHeader) {
        throw std::invalid_argument(
            "ParseScheduleCsv: missing or unexpected header: " + line);
    }
    Schedule schedule;
    std::int32_t max_pass = -1;
    while (std::getline(is, line)) {
        text::StripCr(line);
        if (line.empty()) {
            continue;
        }
        // SplitFields preserves empty fields, so a row ending in ',' is
        // reported as a field-count error rather than silently losing
        // its trailing field the way a getline(',') loop does.
        const std::vector<std::string> fields =
            text::SplitFields(line, ',');
        if (fields.size() != kNumFields) {
            throw std::invalid_argument(
                "ParseScheduleCsv: expected " +
                std::to_string(kNumFields) + " fields, got " +
                std::to_string(fields.size()) + " in line: " + line);
        }
        const std::int32_t index = ParseInt(fields[0], line);
        if (index != static_cast<std::int32_t>(schedule.ops.size())) {
            throw std::invalid_argument(
                "ParseScheduleCsv: out-of-order index in line: " + line);
        }
        TimedOp t;
        t.op.pass = ParseInt(fields[1], line);
        t.op.kind = OpKindFromName(fields[2], line);
        t.op.ion0 = QubitId(ParseInt(fields[3], line));
        t.op.ion1 = QubitId(ParseInt(fields[4], line));
        t.op.node = NodeId(ParseInt(fields[5], line));
        t.op.segment = SegmentId(ParseInt(fields[6], line));
        t.start = ParseDouble(fields[7], line);
        t.duration = ParseDouble(fields[8], line);
        t.chain_size = ParseInt(fields[9], line);
        t.nbar = ParseDouble(fields[10], line);
        t.op.source_gate = GateId(ParseInt(fields[11], line));
        max_pass = std::max(max_pass, t.op.pass);
        schedule.ops.push_back(t);
    }
    schedule.RecomputeStats();
    schedule.num_passes = max_pass + 1;
    return schedule;
}

Schedule
ParseScheduleCsv(const std::string& csv)
{
    std::istringstream is(csv);
    return ParseScheduleCsv(is);
}

std::string
ScheduleSummary(const Schedule& schedule)
{
    struct PassInfo
    {
        Microseconds lo = 1e300;
        Microseconds hi = 0.0;
        int gates = 0;
        int moves = 0;
    };
    std::map<std::int32_t, PassInfo> passes;
    for (const TimedOp& t : schedule.ops) {
        PassInfo& p = passes[t.op.pass];
        p.lo = std::min(p.lo, t.start);
        p.hi = std::max(p.hi, t.end());
        (qccd::IsMovement(t.op.kind) ? p.moves : p.gates) += 1;
    }
    std::ostringstream os;
    os << "makespan " << schedule.makespan << " us, movement "
       << schedule.num_movement_ops << " ops / " << schedule.movement_time
       << " us busy\n";
    for (const auto& [pass, info] : passes) {
        os << "pass " << pass << ": [" << info.lo << ", " << info.hi
           << "] us, " << info.gates << " gates, " << info.moves
           << " movement ops\n";
    }
    return os.str();
}

}  // namespace tiqec::compiler
