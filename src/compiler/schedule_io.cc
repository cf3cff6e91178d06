#include "compiler/schedule_io.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/text_format.h"

namespace tiqec::compiler {

namespace {

constexpr char kCsvHeader[] =
    "index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,"
    "source_gate";
constexpr size_t kNumFields = 10;

qccd::OpKind
OpKindFromName(std::string_view name, std::string_view line)
{
    for (int k = 0; k < qccd::kNumOpKinds; ++k) {
        const auto kind = static_cast<qccd::OpKind>(k);
        if (qccd::OpKindName(kind) == name) {
            return kind;
        }
    }
    throw std::invalid_argument("ParseScheduleCsv: unknown op kind '" +
                                std::string(name) + "' in line: " +
                                std::string(line));
}

}  // namespace

std::string
ScheduleCsv(const Schedule& schedule)
{
    std::ostringstream os;
    os << kCsvHeader << '\n';
    for (size_t i = 0; i < schedule.ops.size(); ++i) {
        const TimedOp& t = schedule.ops[i];
        os << i << ',' << t.op.pass << ','
           << qccd::OpKindName(t.op.kind) << ',' << t.op.ion0.value << ','
           << t.op.ion1.value << ',' << t.op.node.value << ','
           << t.op.segment.value << ',' << text::ExactDouble(t.start) << ','
           << text::ExactDouble(t.duration) << ',' << t.op.source_gate.value
           << '\n';
    }
    return os.str();
}

Schedule
ParseScheduleCsv(std::string_view csv)
{
    text::LineReader reader(csv);
    if (!reader.Next()) {
        throw std::invalid_argument("ParseScheduleCsv: empty input");
    }
    if (reader.line() != kCsvHeader) {
        throw std::invalid_argument(
            "ParseScheduleCsv: missing or unexpected header: " +
            std::string(reader.line()));
    }
    // Error text is built only when a check fails.
    const auto in_line = [&reader] {
        return "line: " + std::string(reader.line());
    };
    const auto malformed = [&](const std::string& what) {
        throw std::invalid_argument("ParseScheduleCsv: " + what + " in " +
                                    in_line());
    };
    Schedule schedule;
    std::int32_t max_pass = -1;
    std::vector<std::string_view> fields;
    const auto int_at = [&](size_t k) {
        return text::ParseAs<std::int32_t>(fields[k], in_line);
    };
    // Times must be finite: std::from_chars accepts "nan" and "inf",
    // and a NaN start would break RecomputeStats' interval sort.
    const auto time_at = [&](size_t k) {
        const double value = text::ParseAs<double>(fields[k], in_line);
        if (!std::isfinite(value)) {
            throw std::invalid_argument("bad number '" +
                                        std::string(fields[k]) +
                                        "' in " + in_line());
        }
        return value;
    };
    while (reader.Next()) {
        const std::string_view line = reader.line();
        if (line.empty()) {
            continue;
        }
        // SplitViews preserves empty fields, so a row ending in ',' is
        // reported as a field-count error rather than silently losing
        // its trailing field.
        text::SplitViews(line, ',', fields);
        if (fields.size() != kNumFields) {
            malformed("expected " + std::to_string(kNumFields) +
                      " fields, got " + std::to_string(fields.size()));
        }
        if (int_at(0) != static_cast<std::int32_t>(schedule.ops.size())) {
            malformed("out-of-order index");
        }
        TimedOp t;
        t.op.pass = int_at(1);
        // num_passes = max_pass + 1 must not overflow.
        if (t.op.pass < 0 ||
            t.op.pass == std::numeric_limits<std::int32_t>::max()) {
            malformed("pass out of range");
        }
        t.op.kind = OpKindFromName(fields[2], line);
        t.op.ion0 = QubitId(int_at(3));
        t.op.ion1 = QubitId(int_at(4));
        t.op.node = NodeId(int_at(5));
        t.op.segment = SegmentId(int_at(6));
        t.start = time_at(7);
        t.duration = time_at(8);
        t.op.source_gate = GateId(int_at(9));
        max_pass = std::max(max_pass, t.op.pass);
        schedule.ops.push_back(t);
    }
    schedule.RecomputeStats();
    schedule.num_passes = max_pass + 1;
    return schedule;
}

}  // namespace tiqec::compiler
