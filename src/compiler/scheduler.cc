/**
 * @file
 * Overhauled list-scheduler hot path (see scheduler.h for the model,
 * DESIGN.md §1 for the write-up). Timestamps are bit-identical to
 * scheduler_reference.cc — pinned by the differential suite in
 * compiler_golden_test — with these structural changes:
 *
 *  - capacity-1 junctions (all grid/linear junctions) track one scalar
 *    free-at time; only multi-slot junctions (the switch hub has one
 *    slot per trap) keep a min-heap of free slots keyed (free-at, slot),
 *    which reproduces the reference's linear first-minimum scan;
 *  - per-op kind dispatch (durations incl. cooling, resource flags) is
 *    precomputed into dense lookup tables;
 *  - the WISE cross-kind conflict search processes the other kinds'
 *    scheduled intervals in nondecreasing start order (a single sweep
 *    reaches the same least fixpoint the reference's repeated full
 *    rescans converge to) over per-kind start-sorted interval lists;
 *  - all working state is thread_local and reused across calls, and the
 *    schedule stats are accumulated inline instead of via a second pass.
 */
#include "compiler/scheduler.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace tiqec::compiler {

namespace {

using qccd::NodeKind;
using qccd::OpKind;
using qccd::PrimitiveOp;

constexpr Microseconds kHeld = 1e30;

/**
 * Min-heap of free slots for a multi-capacity junction with hold
 * semantics (an ion occupies the junction from the start of its entry
 * until the end of its exit). Held slots are absent from the heap, so an
 * empty heap reports "infinitely" busy exactly like the reference's
 * linear min over kHeld entries, and the (time, slot) key reproduces the
 * reference's first-minimum tie-break.
 */
class SlotHeap
{
  public:
    explicit SlotHeap(int capacity)
    {
        for (int i = 0; i < capacity; ++i) {
            free_.push({0.0, i});
        }
    }

    Microseconds EarliestFree() const
    {
        return free_.empty() ? kHeld : free_.top().first;
    }

    /** Marks the earliest slot held; returns its index. */
    int Acquire()
    {
        TIQEC_CHECK(!free_.empty(),
                    "junction entry beyond capacity (invalid stream)");
        const int slot = free_.top().second;
        free_.pop();
        return slot;
    }

    void Release(int slot, Microseconds at) { free_.push({at, slot}); }

  private:
    using Slot = std::pair<Microseconds, int>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> free_;
};

// Per-kind resource flags.
constexpr unsigned kUsesTrap = 1u << 0;
constexpr unsigned kAcquiresSegment = 1u << 1;
constexpr unsigned kReleasesSegment = 1u << 2;
constexpr unsigned kIsMovement = 1u << 3;
constexpr unsigned kIsTransport = 1u << 4;
using qccd::kNumOpKinds;

unsigned
FlagsOf(OpKind kind)
{
    unsigned flags = 0;
    if (kind == OpKind::kMs || kind == OpKind::kRotation ||
        kind == OpKind::kMeasure || kind == OpKind::kReset ||
        kind == OpKind::kGateSwap || kind == OpKind::kSplit ||
        kind == OpKind::kMerge) {
        flags |= kUsesTrap;
    }
    if (kind == OpKind::kSplit || kind == OpKind::kJunctionExit) {
        flags |= kAcquiresSegment;
    }
    if (kind == OpKind::kMerge || kind == OpKind::kJunctionEnter) {
        flags |= kReleasesSegment;
    }
    if (qccd::IsMovement(kind)) {
        flags |= kIsMovement;
    }
    if (qccd::IsTransport(kind)) {
        flags |= kIsTransport;
    }
    return flags;
}

}  // namespace

Schedule
ScheduleStream(const std::vector<PrimitiveOp>& ops,
               const qccd::DeviceGraph& graph,
               const qccd::TimingModel& timing,
               const SchedulerOptions& options)
{
    Schedule schedule;
    schedule.ops.reserve(ops.size());

    // Resource free-at times. All scratch is thread_local and reused
    // across calls (the sweep engine schedules one stream per candidate
    // per worker thread).
    thread_local std::vector<Microseconds> trap_free;
    thread_local std::vector<Microseconds> segment_free;
    // Capacity-1 junctions (every grid/linear junction) are a scalar
    // free-at per node; multi-slot junctions (switch hub) get a SlotHeap.
    thread_local std::vector<Microseconds> junction_single;
    thread_local std::vector<int> junction_multi_index;
    thread_local std::vector<SlotHeap> junction_multi;
    thread_local std::vector<Microseconds> ion_free;
    // Per-ion (junction node, slot) currently held between entry and exit.
    thread_local std::vector<std::pair<int, int>> held_junction_slot;
    trap_free.assign(graph.num_nodes(), 0.0);
    segment_free.assign(graph.num_segments(), 0.0);
    junction_single.assign(graph.num_nodes(), 0.0);
    junction_multi_index.assign(graph.num_nodes(), -1);
    junction_multi.clear();
    for (int i = 0; i < graph.num_nodes(); ++i) {
        const auto& n = graph.node(NodeId(i));
        if (n.kind == NodeKind::kJunction && n.capacity > 1) {
            junction_multi_index[i] =
                static_cast<int>(junction_multi.size());
            junction_multi.emplace_back(n.capacity);
        }
    }
    auto junction_earliest = [&](int node) {
        const int m = junction_multi_index[node];
        return m < 0 ? junction_single[node]
                     : junction_multi[m].EarliestFree();
    };
    auto junction_acquire = [&](int node) {
        const int m = junction_multi_index[node];
        if (m < 0) {
            TIQEC_CHECK(junction_single[node] < kHeld,
                        "junction entry beyond capacity (invalid stream)");
            junction_single[node] = kHeld;
            return 0;
        }
        return junction_multi[m].Acquire();
    };
    auto junction_release = [&](int node, int slot, Microseconds at) {
        const int m = junction_multi_index[node];
        if (m < 0) {
            junction_single[node] = at;
        } else {
            junction_multi[m].Release(slot, at);
        }
    };
    // Ion tables pre-sized in one scan (streams name ions densely).
    int max_ion = -1;
    for (const PrimitiveOp& op : ops) {
        max_ion = std::max(max_ion, op.ion0.value);
        if (op.ion1.valid()) {
            max_ion = std::max(max_ion, op.ion1.value);
        }
    }
    ion_free.assign(max_ion + 1, 0.0);
    held_junction_slot.assign(max_ion + 1, {-1, -1});

    thread_local MovementUnion movement;
    movement.Reset(max_ion + 1);

    // Per-kind dispatch tables: duration (cooling included) and resource
    // flags — the exact values the reference computes per op.
    Microseconds duration_of[kNumOpKinds];
    unsigned flags_of[kNumOpKinds];
    for (int k = 0; k < kNumOpKinds; ++k) {
        const auto kind = static_cast<OpKind>(k);
        Microseconds d = timing.DurationOf(kind);
        if (options.cooling_per_two_qubit_gate > 0.0) {
            if (kind == OpKind::kMs) {
                d += options.cooling_per_two_qubit_gate;
            } else if (kind == OpKind::kGateSwap) {
                d += 3.0 * options.cooling_per_two_qubit_gate;
            }
        }
        duration_of[k] = d;
        flags_of[k] = FlagsOf(kind);
    }

    // Router pass movement barrier.
    Microseconds barrier = 0.0;         // all movement in passes < cur done by
    Microseconds pass_move_end = 0.0;   // movement end watermark in cur pass
    std::int32_t cur_pass = 0;

    // WISE same-kind transport concurrency: transport ops of different
    // kinds may never overlap in time (all dynamic electrodes share the
    // demultiplexed DAC bus, which broadcasts one waveform type at a
    // time), but any number of same-kind ops may co-occur. Scheduled
    // transport intervals are kept per kind, sorted by start; a new op
    // starts at the earliest instant where no other-kind interval
    // overlaps it, found by one sweep over the other kinds' intervals in
    // nondecreasing start order (the reference's repeated full rescans
    // converge to the same least fixpoint), which makes the ASAP
    // scheduler discover the odd-even-sort style phase batching (all
    // splits, then all shuttles, ...).
    constexpr int kNumTransportKinds = 5;
    auto transport_rank = [](OpKind kind) {
        switch (kind) {
          case OpKind::kShuttle: return 0;
          case OpKind::kSplit: return 1;
          case OpKind::kMerge: return 2;
          case OpKind::kJunctionEnter: return 3;
          case OpKind::kJunctionExit: return 4;
          default: return -1;
        }
    };
    using Interval = std::pair<Microseconds, Microseconds>;
    thread_local std::vector<std::vector<Interval>> wise_intervals;
    wise_intervals.resize(kNumTransportKinds);
    for (auto& intervals : wise_intervals) {
        intervals.clear();
    }
    auto wise_earliest = [&](int rank, Microseconds lower,
                             Microseconds duration) {
        Microseconds s = lower;
        // Merge-sweep the four other kinds' start-sorted interval lists.
        size_t idx[kNumTransportKinds] = {};
        while (true) {
            int best = -1;
            for (int k = 0; k < kNumTransportKinds; ++k) {
                if (k == rank || idx[k] >= wise_intervals[k].size()) {
                    continue;
                }
                if (best < 0 || wise_intervals[k][idx[k]].first <
                                    wise_intervals[best][idx[best]].first) {
                    best = k;
                }
            }
            if (best < 0) {
                break;
            }
            const auto& [a, b] = wise_intervals[best][idx[best]];
            if (a >= s + duration) {
                break;  // sorted: nothing later can overlap either
            }
            if (b > s) {
                s = b;
            }
            ++idx[best];
        }
        return s;
    };
    auto wise_insert = [&](int rank, Microseconds start, Microseconds end) {
        auto& intervals = wise_intervals[rank];
        const auto pos = std::upper_bound(
            intervals.begin(), intervals.end(), start,
            [](Microseconds s, const Interval& iv) { return s < iv.first; });
        intervals.insert(pos, {start, end});
    };

    for (const PrimitiveOp& op : ops) {
        if (op.pass != cur_pass) {
            TIQEC_CHECK(op.pass > cur_pass,
                        "instruction stream pass numbers must not decrease");
            barrier = std::max(barrier, pass_move_end);
            pass_move_end = 0.0;
            cur_pass = op.pass;
            if (options.wise) {
                // Movement in this pass starts at or after the barrier,
                // so finished WISE intervals can no longer conflict.
                // erase_if keeps each list start-sorted.
                for (auto& intervals : wise_intervals) {
                    std::erase_if(intervals, [&](const auto& iv) {
                        return iv.second <= barrier;
                    });
                }
            }
        }
        const unsigned flags = flags_of[static_cast<int>(op.kind)];
        const Microseconds duration =
            duration_of[static_cast<int>(op.kind)];

        Microseconds start = ion_free[op.ion0.value];
        if (op.ion1.valid()) {
            start = std::max(start, ion_free[op.ion1.value]);
        }

        // Resource usage. Segments are held from the op that puts an ion
        // into them (split, junction exit) until the op that takes it out
        // (merge, junction enter); junctions likewise between entry and
        // exit. Gates and split/merge engage the trap's single gate/
        // transport unit for their own duration.
        if ((flags & kUsesTrap) != 0 && op.node.valid()) {
            start = std::max(start, trap_free[op.node.value]);
        }
        if ((flags & kAcquiresSegment) != 0) {
            TIQEC_CHECK(op.segment.valid(),
                        "segment-acquiring op without a segment");
            start = std::max(start, segment_free[op.segment.value]);
        }
        if (op.kind == OpKind::kJunctionEnter) {
            TIQEC_CHECK(op.node.valid(), "junction-enter without a node");
            start = std::max(start, junction_earliest(op.node.value));
        }
        if ((flags & kIsMovement) != 0) {
            start = std::max(start, barrier);
            if (options.wise && (flags & kIsTransport) != 0) {
                start = wise_earliest(transport_rank(op.kind), start,
                                      duration);
            }
        }

        const Microseconds end = start + duration;
        ion_free[op.ion0.value] = end;
        if (op.ion1.valid()) {
            ion_free[op.ion1.value] = end;
        }
        if ((flags & kUsesTrap) != 0 && op.node.valid()) {
            trap_free[op.node.value] = end;
        }
        if ((flags & kAcquiresSegment) != 0) {
            segment_free[op.segment.value] = kHeld;
        }
        if ((flags & kReleasesSegment) != 0) {
            TIQEC_CHECK(op.segment.valid(),
                        "segment-releasing op without a segment");
            segment_free[op.segment.value] = end;
        }
        if (op.kind == OpKind::kJunctionEnter) {
            held_junction_slot[op.ion0.value] = {
                op.node.value, junction_acquire(op.node.value)};
        }
        if (op.kind == OpKind::kJunctionExit) {
            auto& held = held_junction_slot[op.ion0.value];
            TIQEC_CHECK(held.first == op.node.value,
                        "junction-exit for ion " << op.ion0
                                                 << " without a held slot");
            junction_release(op.node.value, held.second, end);
            held = {-1, -1};
        }
        if ((flags & kIsMovement) != 0) {
            pass_move_end = std::max(pass_move_end, end);
            if (options.wise && (flags & kIsTransport) != 0) {
                wise_insert(transport_rank(op.kind), start, end);
            }
            ++schedule.num_movement_ops;
            movement.Add(op.ion0.value, start, end);
        }
        schedule.makespan = std::max(schedule.makespan, end);

        schedule.ops.push_back(
            {.op = op, .start = start, .duration = duration});
    }
    // Movement time through the same MovementUnion RecomputeStats uses,
    // fed inline into a reused buffer instead of a second pass.
    schedule.movement_time = movement.Measure();
    return schedule;
}

}  // namespace tiqec::compiler
