#include "analysis/schedule_validator.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qccd/device_state.h"
#include "qccd/primitives.h"

namespace tiqec::analysis {

namespace {

using compiler::TimedOp;
using qccd::OpKind;

/** Cap per rule so one systemic defect cannot flood the report. */
constexpr int kMaxPerRule = 16;

// The hardware occupancy model, restated independently of the
// scheduler (paper §2/§4.3): gates and split/merge engage their trap's
// single gate/transport unit; a segment is exclusively held from the op
// that puts an ion into it (split, junction exit) until the op that
// takes it out (merge, junction enter); a junction is held from entry
// start to exit end, up to its capacity.
bool
UsesTrapUnit(OpKind kind)
{
    switch (kind) {
      case OpKind::kMs:
      case OpKind::kRotation:
      case OpKind::kMeasure:
      case OpKind::kReset:
      case OpKind::kGateSwap:
      case OpKind::kSplit:
      case OpKind::kMerge:
        return true;
      default:
        return false;
    }
}

bool
AcquiresSegment(OpKind kind)
{
    return kind == OpKind::kSplit || kind == OpKind::kJunctionExit;
}

bool
ReleasesSegment(OpKind kind)
{
    return kind == OpKind::kMerge || kind == OpKind::kJunctionEnter;
}

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
        out_.push_back(
            {std::string(rule), std::move(location), std::move(message)});
    }

  private:
    std::vector<Diagnostic>& out_;
    std::map<std::string_view, int> count_;
};

std::string
OpLocation(int index, const qccd::PrimitiveOp& op)
{
    std::ostringstream os;
    os << "op " << index << " (" << qccd::OpKindName(op.kind) << " ion "
       << op.ion0;
    if (op.ion1.valid()) {
        os << "," << op.ion1;
    }
    os << ")";
    return os.str();
}

/**
 * The schedule under check plus the table sizes its ids index: ions by
 * the circuit's qubit count, nodes and segments by the device graph.
 * Each rule keeps its per-id state in flat vectors of these sizes.
 */
struct Context
{
    const ScheduleValidationInput& in;
    const std::vector<TimedOp>& ops;
    int num_ions;
    int num_nodes;
    int num_segments;
    /** Per op: nonzero when FindIdFault finds an unusable id. */
    std::vector<char> bad;
};

/** An id of an op that cannot index its table. */
struct IdFault
{
    const char* table;  // "ion", "node" or "segment"
    int id;
    int size;
};

/**
 * The first id of `op` that cannot be checked against the circuit and
 * device tables: an id past the end of its table, or an id the replay
 * reads that the op leaves unset (every op's ion, a two-ion op's second
 * ion, the segment of a split or junction exit). The position-trace
 * rule reports such an op; every per-resource rule and the replay skip
 * it.
 */
std::optional<IdFault>
FindIdFault(const qccd::PrimitiveOp& op, const Context& ctx)
{
    if (!op.ion0.valid() || op.ion0.value >= ctx.num_ions) {
        return IdFault{"ion", op.ion0.value, ctx.num_ions};
    }
    const bool two_ions =
        op.kind == OpKind::kMs || op.kind == OpKind::kGateSwap;
    if ((two_ions && !op.ion1.valid()) || op.ion1.value >= ctx.num_ions) {
        return IdFault{"ion", op.ion1.value, ctx.num_ions};
    }
    if (op.node.value >= ctx.num_nodes) {
        return IdFault{"node", op.node.value, ctx.num_nodes};
    }
    const bool needs_segment =
        op.kind == OpKind::kSplit || op.kind == OpKind::kJunctionExit;
    if ((needs_segment && !op.segment.valid()) ||
        op.segment.value >= ctx.num_segments) {
        return IdFault{"segment", op.segment.value, ctx.num_segments};
    }
    return std::nullopt;
}

void
CheckDurations(const Context& ctx, Reporter& report)
{
    const Microseconds cooling =
        ctx.in.wise ? ctx.in.timing->cooling_per_two_qubit_gate : 0.0;
    Microseconds expected_of[qccd::kNumOpKinds];
    for (int k = 0; k < qccd::kNumOpKinds; ++k) {
        const auto kind = static_cast<OpKind>(k);
        expected_of[k] = ctx.in.timing->DurationOf(kind);
        if (kind == OpKind::kMs) {
            expected_of[k] += cooling;
        } else if (kind == OpKind::kGateSwap) {
            expected_of[k] += 3.0 * cooling;
        }
    }
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        const Microseconds expected =
            expected_of[static_cast<int>(t.op.kind)];
        if (t.duration != expected || !(t.start >= 0.0)) {
            std::ostringstream os;
            os << "duration " << t.duration << " (start " << t.start
               << ") does not match the timing LUT value " << expected;
            report.Report(kRuleDurationLut,
                          OpLocation(static_cast<int>(i), t.op), os.str());
        }
    }
}

/** End of the latest op on one exclusive resource, and that op's index
 *  (-1 before the resource's first op). */
struct Busy
{
    Microseconds until = 0.0;
    int op = -1;
};

/** Folds op `i` into `busy`; true when it starts before the previous
 *  op on the resource has ended. */
bool
Overlaps(Busy& busy, const TimedOp& t, int i)
{
    if (busy.op < 0) {
        busy = {t.end(), i};
        return false;
    }
    const bool overlaps = t.start < busy.until;
    busy = {std::max(busy.until, t.end()), i};
    return overlaps;
}

void
CheckIonExclusion(const Context& ctx, Reporter& report)
{
    std::vector<Busy> busy(static_cast<size_t>(ctx.num_ions));
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        if (ctx.bad[i]) {
            continue;
        }
        const int ions[2] = {t.op.ion0.value,
                             t.op.ion1.valid() ? t.op.ion1.value : -1};
        for (const int ion : ions) {
            if (ion < 0) {
                continue;
            }
            const Busy before = busy[ion];
            if (Overlaps(busy[ion], t, static_cast<int>(i))) {
                std::ostringstream os;
                os << "starts at " << t.start << " while ion " << ion
                   << " is busy until " << before.until << " (op "
                   << before.op << ")";
                report.Report(kRuleIonOverlap,
                              OpLocation(static_cast<int>(i), t.op),
                              os.str());
            }
        }
    }
}

void
CheckTrapExclusion(const Context& ctx, Reporter& report)
{
    std::vector<Busy> busy(static_cast<size_t>(ctx.num_nodes));
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        if (ctx.bad[i] || !UsesTrapUnit(t.op.kind) || !t.op.node.valid()) {
            continue;
        }
        const Busy before = busy[t.op.node.value];
        if (Overlaps(busy[t.op.node.value], t, static_cast<int>(i))) {
            std::ostringstream os;
            os << "starts at " << t.start << " while trap " << t.op.node
               << " is busy until " << before.until << " (op "
               << before.op << ")";
            report.Report(kRuleTrapOverlap,
                          OpLocation(static_cast<int>(i), t.op), os.str());
        }
    }
}

void
CheckSegmentExclusion(const Context& ctx, Reporter& report)
{
    struct SegState
    {
        bool held = false;
        Microseconds free_at = 0.0;
        int holder_op = -1;
    };
    std::vector<SegState> segs(static_cast<size_t>(ctx.num_segments));
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        const bool acquires = AcquiresSegment(t.op.kind);
        const bool releases = ReleasesSegment(t.op.kind);
        if (ctx.bad[i] || (!acquires && !releases)) {
            continue;
        }
        if (!t.op.segment.valid()) {
            report.Report(kRuleSegmentOverlap,
                          OpLocation(static_cast<int>(i), t.op),
                          "segment-transfer op names no segment");
            continue;
        }
        SegState& s = segs[t.op.segment.value];
        if (acquires) {
            if (s.held) {
                std::ostringstream os;
                os << "acquires segment " << t.op.segment
                   << " already held since op " << s.holder_op;
                report.Report(kRuleSegmentOverlap,
                              OpLocation(static_cast<int>(i), t.op),
                              os.str());
            } else if (t.start < s.free_at) {
                std::ostringstream os;
                os << "starts at " << t.start << " while segment "
                   << t.op.segment << " is occupied until " << s.free_at;
                report.Report(kRuleSegmentOverlap,
                              OpLocation(static_cast<int>(i), t.op),
                              os.str());
            }
            s.held = true;
            s.holder_op = static_cast<int>(i);
        } else {
            if (!s.held) {
                std::ostringstream os;
                os << "releases segment " << t.op.segment
                   << " that is not held";
                report.Report(kRuleSegmentOverlap,
                              OpLocation(static_cast<int>(i), t.op),
                              os.str());
            }
            s.held = false;
            s.free_at = std::max(s.free_at, t.end());
        }
    }
}

void
CheckJunctionCapacity(const Context& ctx, Reporter& report)
{
    // Hold interval per crossing: [enter.start, exit.end]. An exit
    // releases the junction the ion last entered.
    struct Event
    {
        Microseconds time;
        int delta;  // -1 sorts before +1 at equal times (release-first)
        int op;
    };
    std::vector<std::vector<Event>> events(
        static_cast<size_t>(ctx.num_nodes));
    // Per ion: the junction node it last entered, -1 once it exits.
    std::vector<int> held(static_cast<size_t>(ctx.num_ions), -1);
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        const bool enter = t.op.kind == OpKind::kJunctionEnter;
        if (ctx.bad[i] || (!enter && t.op.kind != OpKind::kJunctionExit)) {
            continue;
        }
        if (enter) {
            if (!t.op.node.valid()) {
                continue;  // position trace reports the malformed op
            }
            events[t.op.node.value].push_back(
                {t.start, +1, static_cast<int>(i)});
            held[t.op.ion0.value] = t.op.node.value;
        } else {
            int& node = held[t.op.ion0.value];
            if (node < 0) {
                report.Report(kRuleJunctionCapacity,
                              OpLocation(static_cast<int>(i), t.op),
                              "junction exit without a matching entry");
                continue;
            }
            events[node].push_back({t.end(), -1, static_cast<int>(i)});
            node = -1;
        }
    }
    for (int node = 0; node < ctx.num_nodes; ++node) {
        std::vector<Event>& evs = events[node];
        if (evs.empty()) {
            continue;
        }
        std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) {
            return a.time != b.time ? a.time < b.time : a.delta < b.delta;
        });
        const int capacity = ctx.in.graph->node(NodeId(node)).capacity;
        int occupancy = 0;
        for (const Event& e : evs) {
            occupancy += e.delta;
            if (occupancy > capacity) {
                std::ostringstream os;
                os << "junction " << NodeId(node) << " holds " << occupancy
                   << " ions at t=" << e.time << " (capacity " << capacity
                   << ")";
                report.Report(kRuleJunctionCapacity,
                              OpLocation(e.op, ctx.ops[e.op].op), os.str());
            }
        }
    }
}

void
CheckDagOrder(const Context& ctx, Reporter& report)
{
    const circuit::Circuit& native = *ctx.in.native;
    // Per circuit gate: the op that emits it and that op's [start, end],
    // so the order check below never revisits the op stream.
    std::vector<int> op_of(native.size(), -1);
    std::vector<std::pair<Microseconds, Microseconds>> span_of(
        native.size());
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        const TimedOp& t = ctx.ops[i];
        if (!t.op.IsGate()) {
            continue;
        }
        const GateId g = t.op.source_gate;
        if (!g.valid() || g.value >= native.size()) {
            report.Report(kRuleDagOrder,
                          OpLocation(static_cast<int>(i), t.op),
                          "gate op does not reference a circuit gate");
            continue;
        }
        if (op_of[g.value] >= 0) {
            std::ostringstream os;
            os << "circuit gate " << g << " emitted twice (first at op "
               << op_of[g.value] << ")";
            report.Report(kRuleDagOrder,
                          OpLocation(static_cast<int>(i), t.op), os.str());
            continue;
        }
        op_of[g.value] = static_cast<int>(i);
        span_of[g.value] = {t.start, t.end()};
    }
    const int missing = static_cast<int>(
        std::count(op_of.begin(), op_of.end(), -1));
    if (missing > 0) {
        std::ostringstream os;
        os << missing << " of " << native.size()
           << " circuit gates never appear in the schedule";
        report.Report(kRuleDagOrder, "schedule", os.str());
    }
    // Each gate's predecessors by circuit::Dag's rule, derived inline:
    // the latest earlier gate on q0, then the latest on q1 if different.
    std::vector<int> last_on_qubit(native.num_qubits(), -1);
    for (int g = 0; g < native.size(); ++g) {
        const circuit::Gate& gate = native.gates()[g];
        int preds[2];
        int num_preds = 0;
        const auto link = [&](QubitId q) {
            const int prev = last_on_qubit[q.value];
            if (prev >= 0 && prev != g &&
                (num_preds == 0 || preds[0] != prev)) {
                preds[num_preds++] = prev;
            }
            last_on_qubit[q.value] = g;
        };
        link(gate.q0);
        if (gate.IsTwoQubit()) {
            link(gate.q1);
        }
        if (op_of[g] < 0) {
            continue;
        }
        const Microseconds start = span_of[g].first;
        for (int k = 0; k < num_preds; ++k) {
            const int p = preds[k];
            if (op_of[p] < 0) {
                continue;  // already reported as missing
            }
            const Microseconds pred_end = span_of[p].second;
            if (pred_end > start) {
                std::ostringstream os;
                os << "starts at " << start << " before DAG predecessor "
                   << GateId(p) << " (op " << op_of[p] << ") finishes at "
                   << pred_end;
                report.Report(kRuleDagOrder,
                              OpLocation(op_of[g], ctx.ops[op_of[g]].op),
                              os.str());
            }
        }
    }
}

void
CheckPositionTrace(const Context& ctx, Reporter& report)
{
    const compiler::Placement& placement = *ctx.in.placement;
    const int num_qubits = ctx.num_ions;
    if (static_cast<int>(placement.qubit_trap.size()) < num_qubits) {
        report.Report(kRulePositionTrace, "placement",
                      "placement does not cover every circuit qubit");
        return;
    }
    bool placed = true;
    for (int q = 0; q < num_qubits; ++q) {
        const NodeId trap = placement.qubit_trap[q];
        if (!trap.valid() || trap.value >= ctx.num_nodes) {
            std::ostringstream os;
            os << "qubit " << q << " is placed at node id " << trap.value
               << ", outside [0, " << ctx.num_nodes << ")";
            report.Report(kRulePositionTrace, "placement", os.str());
            placed = false;
        }
    }
    if (!placed) {
        return;
    }
    try {
        qccd::DeviceState state(*ctx.in.graph, num_qubits);
        for (int q = 0; q < num_qubits; ++q) {
            state.LoadIon(QubitId(q), placement.qubit_trap[q]);
        }
        for (size_t i = 0; i < ctx.ops.size(); ++i) {
            const TimedOp& t = ctx.ops[i];
            const std::optional<IdFault> fault =
                ctx.bad[i] ? FindIdFault(t.op, ctx) : std::nullopt;
            if (fault) {
                std::ostringstream os;
                os << fault->table << " id " << fault->id
                   << " is outside [0, " << fault->size << ")";
                report.Report(kRulePositionTrace,
                              OpLocation(static_cast<int>(i), t.op),
                              os.str());
            } else if (const auto err = state.TryApply(t.op)) {
                report.Report(kRulePositionTrace,
                              OpLocation(static_cast<int>(i), t.op), *err);
            }
        }
        if (!state.TransportComponentsEmpty()) {
            report.Report(kRulePositionTrace, "schedule",
                          "an ion is left in a segment or junction after "
                          "the final op");
        }
    } catch (const std::exception& e) {
        // LoadIon aborts on an over-full or non-trap home; report it as a
        // trace defect instead of propagating.
        report.Report(kRulePositionTrace, "placement", e.what());
    }
}

void
CheckStats(const Context& ctx, Reporter& report)
{
    const compiler::Schedule& schedule = *ctx.in.schedule;
    Microseconds makespan = 0.0;
    int movement_ops = 0;
    compiler::MovementUnion movement;
    movement.Reset(ctx.num_ions);
    for (const TimedOp& t : ctx.ops) {
        makespan = std::max(makespan, t.end());
        if (qccd::IsMovement(t.op.kind)) {
            ++movement_ops;
            movement.Add(t.op.ion0.value, t.start, t.end());
        }
    }
    const Microseconds movement_time = movement.Measure();
    if (makespan != schedule.makespan) {
        std::ostringstream os;
        os << "recorded makespan " << schedule.makespan
           << " != recomputed " << makespan;
        report.Report(kRuleScheduleStats, "schedule", os.str());
    }
    if (movement_ops != schedule.num_movement_ops) {
        std::ostringstream os;
        os << "recorded movement ops " << schedule.num_movement_ops
           << " != recomputed " << movement_ops;
        report.Report(kRuleScheduleStats, "schedule", os.str());
    }
    if (std::abs(movement_time - schedule.movement_time) > 1e-9) {
        std::ostringstream os;
        os << "recorded movement time " << schedule.movement_time
           << " != recomputed " << movement_time;
        report.Report(kRuleScheduleStats, "schedule", os.str());
    }
}

}  // namespace

std::vector<Diagnostic>
ValidateSchedule(const ScheduleValidationInput& in)
{
    std::vector<Diagnostic> diagnostics;
    Reporter report(diagnostics);
    Context ctx{in, in.schedule->ops, in.native->num_qubits(),
                in.graph->num_nodes(), in.graph->num_segments(), {}};
    ctx.bad.resize(ctx.ops.size());
    for (size_t i = 0; i < ctx.ops.size(); ++i) {
        ctx.bad[i] = FindIdFault(ctx.ops[i].op, ctx) ? 1 : 0;
    }
    CheckDurations(ctx, report);
    CheckIonExclusion(ctx, report);
    CheckTrapExclusion(ctx, report);
    CheckSegmentExclusion(ctx, report);
    CheckJunctionCapacity(ctx, report);
    CheckDagOrder(ctx, report);
    CheckPositionTrace(ctx, report);
    CheckStats(ctx, report);
    return diagnostics;
}

}  // namespace tiqec::analysis
