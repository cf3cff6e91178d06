#include "compiler/schedule.h"

#include <algorithm>

namespace tiqec::compiler {

Microseconds
UnionMeasure(std::vector<std::pair<Microseconds, Microseconds>>& intervals)
{
    std::sort(intervals.begin(), intervals.end());
    Microseconds total = 0.0;
    Microseconds cur_start = 0.0;
    Microseconds cur_end = -1.0;
    for (const auto& [s, e] : intervals) {
        if (s > cur_end) {
            if (cur_end >= 0.0) {
                total += cur_end - cur_start;
            }
            cur_start = s;
            cur_end = e;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (cur_end >= 0.0) {
        total += cur_end - cur_start;
    }
    return total;
}

void
Schedule::RecomputeStats()
{
    makespan = 0.0;
    num_movement_ops = 0;
    // Ion ids may come from a file here (ParseScheduleCsv runs this
    // before any validation), so the coalescing table is bounded by the
    // op count, not by an id.
    MovementUnion movement;
    movement.Reset(static_cast<int>(ops.size()));
    for (const TimedOp& t : ops) {
        makespan = std::max(makespan, t.end());
        if (qccd::IsMovement(t.op.kind)) {
            ++num_movement_ops;
            movement.Add(t.op.ion0.value, t.start, t.end());
        }
    }
    movement_time = movement.Measure();
}

}  // namespace tiqec::compiler
