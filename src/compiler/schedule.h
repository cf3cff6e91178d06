/**
 * @file
 * Timed execution schedule produced by the compiler: the primitive
 * instruction stream with physical timestamps (paper Figure 5, bottom
 * right) plus the metrics used throughout the evaluation (paper §6.3):
 * elapsed/QEC-round time, number of movement operations, movement time.
 */
#ifndef TIQEC_COMPILER_SCHEDULE_H
#define TIQEC_COMPILER_SCHEDULE_H

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.h"
#include "qccd/primitives.h"

namespace tiqec::compiler {

/** One primitive with its scheduled execution window. */
struct TimedOp
{
    qccd::PrimitiveOp op;
    Microseconds start = 0.0;
    Microseconds duration = 0.0;

    Microseconds end() const { return start + duration; }
};

/** A complete schedule in instruction-stream order. */
struct Schedule
{
    std::vector<TimedOp> ops;
    /** Total elapsed time (QEC round time for one-round inputs). */
    Microseconds makespan = 0.0;
    /**
     * Count of ion reconfiguration primitives t7-t11 plus in-trap gate
     * swaps (paper §6.3 "Number of Movement / Routing Operations").
     */
    int num_movement_ops = 0;
    /**
     * Wall-clock time during which at least one reconfiguration primitive
     * is active (union of movement intervals; paper Table 3 "movement
     * time").
     */
    Microseconds movement_time = 0.0;
    /** Number of router passes used. */
    int num_passes = 0;

    /** Recomputes makespan / movement metrics from `ops`. */
    void RecomputeStats();
};

/**
 * Total measure of the union of `intervals` (sorted in place): one sweep
 * in (start, end) order, summing each run of overlapping or touching
 * intervals. The sweep opens with an empty run [0, -1], so a start at
 * or below -1 joins it.
 */
Microseconds UnionMeasure(
    std::vector<std::pair<Microseconds, Microseconds>>& intervals);

/**
 * Movement time (paper Table 3): the union measure of the movement ops'
 * intervals. The one implementation behind the fast scheduler's inline
 * stats, `Schedule::RecomputeStats` and the validator's `schedule.stats`
 * rule, so the arithmetic can never diverge between them.
 *
 * Each ion's back-to-back movement ops are coalesced before the sort:
 * an op that starts exactly where its ion's previous movement interval
 * ends, with neither running backwards, extends that interval instead of
 * adding one. This leaves the result bit-identical (DESIGN.md §1.1):
 * after [a, b] the sweep's running end is >= b, and everything sorted
 * before [b, c] starts at or before b, so both always fall in one run
 * and the runs, their ends and the summation order do not change. Ions
 * mostly move in chains of such ops, so the sort input shrinks 6-10x.
 */
class MovementUnion
{
  public:
    /**
     * Starts an empty union. Ions in [0, num_ions) are coalesced; any
     * other id keeps one interval per op. Size the table from a trusted
     * count, never from an id read from a file.
     */
    void Reset(int num_ions)
    {
        intervals_.clear();
        open_.assign(static_cast<size_t>(std::max(num_ions, 0)), -1);
    }

    /** Adds one movement op of `ion` spanning [start, end]. */
    void Add(int ion, Microseconds start, Microseconds end)
    {
        if (ion >= 0 && ion < static_cast<int>(open_.size())) {
            int& open = open_[ion];
            if (open >= 0) {
                auto& [open_start, open_end] = intervals_[open];
                if (start == open_end && open_start <= open_end &&
                    start <= end) {
                    open_end = end;
                    return;
                }
            }
            open = static_cast<int>(intervals_.size());
        }
        intervals_.emplace_back(start, end);
    }

    /** Union measure of everything added since Reset. */
    Microseconds Measure() { return UnionMeasure(intervals_); }

  private:
    std::vector<std::pair<Microseconds, Microseconds>> intervals_;
    /** Per ion: index in `intervals_` of its latest interval, or -1. */
    std::vector<int> open_;
};

}  // namespace tiqec::compiler

#endif  // TIQEC_COMPILER_SCHEDULE_H
