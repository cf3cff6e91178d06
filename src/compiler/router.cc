/**
 * @file
 * Overhauled multi-pass router hot path (see router.h for the algorithm,
 * DESIGN.md §1 for the data-structure write-up).
 *
 * The algorithm is identical to router_reference.cc — the differential
 * suite in compiler_golden_test pins byte-identical instruction streams —
 * but the per-gate work is restructured around reusable flat state:
 *
 *  - a flat CSR adjacency (per-node [segment, neighbour] slots) replaces
 *    the node/segment object walk inside every BFS step;
 *  - one search scratch (epoch-stamped `seen`, parent links, flat FIFO)
 *    is reused by every BFS in the compile — no per-call allocation or
 *    clearing;
 *  - ion positions live in a fixed-capacity chain-slot arena (one slot
 *    block per trap) updated in place by the emitter, replacing the
 *    general DeviceState replay (vector chains, per-op validation) the
 *    reference routes through — emitted streams still replay cleanly
 *    through DeviceState, which the compiler tests verify;
 *  - trap occupancy is tracked incrementally (±1 at the endpoints of each
 *    emitted path), so ReRoute reads availability straight off `occ_`
 *    instead of rebuilding per-node tables per call;
 *  - detour rejection runs a targeted early-exit BFS on the static graph
 *    (the reference allocates two full-graph vectors per query);
 *  - ready-gate chasing is a one-touch FIFO over the promotion log
 *    instead of scan-until-fixpoint, and the per-qubit two-qubit-gate
 *    lists are flattened to CSR with a monotone cursor past retired
 *    gates.
 */
#include "compiler/router.h"

#include <algorithm>
#include <sstream>

#include "circuit/dag.h"
#include "common/check.h"

namespace tiqec::compiler {

namespace {

using circuit::GateKind;
using qccd::DeviceGraph;
using qccd::DeviceState;
using qccd::NodeKind;
using qccd::OpKind;
using qccd::PrimitiveOp;

OpKind
GateOpKind(GateKind kind)
{
    switch (kind) {
      case GateKind::kMs: return OpKind::kMs;
      case GateKind::kRx:
      case GateKind::kRy:
      case GateKind::kRz: return OpKind::kRotation;
      case GateKind::kMeasure: return OpKind::kMeasure;
      case GateKind::kReset: return OpKind::kReset;
      default:
        TIQEC_CHECK(false, "router requires a native-gate circuit");
        return OpKind::kRotation;
    }
}

/**
 * Reusable per-thread router workspace: every compile re-derives its
 * contents, so only the allocations (not the values) survive between
 * compiles. One compile allocates ~20 vectors through this scratch on
 * first use and none afterwards.
 */
struct RouterScratch
{
    std::vector<int> adj_off;
    std::vector<SegmentId> adj_seg;
    std::vector<NodeId> adj_nbr;
    std::vector<int> cap;
    std::vector<char> is_trap;
    std::vector<SegmentId> front_seg;
    std::vector<int> chain_off;
    std::vector<QubitId> chain;
    std::vector<int> chain_len;
    std::vector<NodeId> ion_node;
    std::vector<int> occ;
    std::vector<int> seen_epoch;
    std::vector<NodeId> parent;
    std::vector<int> depth_scratch;
    std::vector<NodeId> queue;
    std::vector<int> avail;
    std::vector<int> seg_blocked_epoch;
    std::vector<int> ion_routed_epoch;
    std::vector<int> tq_off;
    std::vector<GateId> tq_gates;
    std::vector<int> tq_cursor;
    std::vector<GateId> ready_scratch;
    std::vector<GateId> blocked_scratch;
    std::vector<NodeId> path_scratch;
    std::vector<NodeId> path_arena;
};

RouterScratch&
ThreadScratch()
{
    thread_local RouterScratch scratch;
    return scratch;
}

class Router
{
  public:
    Router(const circuit::Circuit& native, const std::vector<char>& mobile,
           const DeviceGraph& graph, const Placement& placement,
           const RouterOptions& options)
        : native_(native),
          mobile_(mobile),
          options_(options),
          graph_(graph),
          dag_(native),
          frontier_(dag_),
          s_(ThreadScratch()),
          home_(placement.qubit_trap)
    {
        const int num_nodes = graph.num_nodes();
        // Flat CSR adjacency in the exact order of each node's incident
        // segment list (BFS tie-breaking must match the reference).
        adj_off_.resize(num_nodes + 1);
        adj_off_[0] = 0;
        for (int i = 0; i < num_nodes; ++i) {
            adj_off_[i + 1] =
                adj_off_[i] +
                static_cast<int>(graph.node(NodeId(i)).segments.size());
        }
        adj_seg_.resize(adj_off_[num_nodes]);
        adj_nbr_.resize(adj_off_[num_nodes]);
        for (int i = 0; i < num_nodes; ++i) {
            int slot = adj_off_[i];
            for (const SegmentId seg : graph.node(NodeId(i)).segments) {
                adj_seg_[slot] = seg;
                adj_nbr_[slot] = graph.Neighbor(NodeId(i), seg);
                ++slot;
            }
        }
        cap_.resize(num_nodes);
        is_trap_.resize(num_nodes);
        front_seg_.resize(num_nodes);
        for (int i = 0; i < num_nodes; ++i) {
            const auto& n = graph.node(NodeId(i));
            cap_[i] = n.capacity;
            is_trap_[i] = n.kind == NodeKind::kTrap ? 1 : 0;
            front_seg_[i] =
                n.segments.empty() ? SegmentId() : n.segments.front();
        }
        // Chain-slot arena: trap i's chain occupies
        // chain_[chain_off_[i] .. chain_off_[i] + chain_len_[i]), in the
        // same front-to-back order DeviceState keeps its chain vectors.
        // A chain never holds more than every ion, so a block needs no
        // more slots than that, whatever the trap capacity.
        chain_off_.resize(num_nodes + 1);
        chain_off_[0] = 0;
        for (int i = 0; i < num_nodes; ++i) {
            chain_off_[i + 1] =
                chain_off_[i] +
                (is_trap_[i] ? std::min(cap_[i], native.num_qubits()) : 0);
        }
        chain_.resize(chain_off_[num_nodes]);
        chain_len_.assign(num_nodes, 0);
        // Initial loading plus incremental occupancy (updated at the
        // endpoints of every emitted path; transport components are empty
        // whenever the router consults it, so trap counts are the whole
        // story).
        occ_.assign(num_nodes, 0);
        ion_node_.resize(native.num_qubits());
        for (int q = 0; q < native.num_qubits(); ++q) {
            const NodeId trap = placement.qubit_trap[q];
            TIQEC_CHECK(is_trap_[trap.value] != 0 &&
                            chain_len_[trap.value] < cap_[trap.value],
                        "loading ion " << q << " into full or non-trap "
                                       << "node " << trap);
            chain_[chain_off_[trap.value] + chain_len_[trap.value]] =
                QubitId(q);
            ++chain_len_[trap.value];
            ++occ_[trap.value];
            ion_node_[q] = trap;
        }
        // Search scratch (reused by every BFS; epoch bump = O(1) clear).
        seen_epoch_.assign(num_nodes, 0);
        parent_.resize(num_nodes);
        depth_scratch_.resize(num_nodes);
        queue_.reserve(num_nodes);
        avail_.resize(num_nodes);
        seg_blocked_epoch_.assign(graph.num_segments(), 0);
        // Per-qubit ordered two-qubit gate ids, flattened to CSR (for
        // re-route look-ahead), plus a cursor past retired gates.
        const int num_qubits = native.num_qubits();
        tq_off_.assign(num_qubits + 1, 0);
        for (int i = 0; i < native.size(); ++i) {
            const circuit::Gate& g = native.gates()[i];
            if (g.IsTwoQubit()) {
                ++tq_off_[g.q0.value + 1];
                ++tq_off_[g.q1.value + 1];
            }
        }
        for (int q = 0; q < num_qubits; ++q) {
            tq_off_[q + 1] += tq_off_[q];
        }
        tq_gates_.resize(tq_off_[num_qubits]);
        tq_cursor_ = tq_off_;  // cursor starts at each qubit's list head
        std::vector<int> fill = tq_off_;
        for (int i = 0; i < native.size(); ++i) {
            const circuit::Gate& g = native.gates()[i];
            if (g.IsTwoQubit()) {
                tq_gates_[fill[g.q0.value]++] = GateId(i);
                tq_gates_[fill[g.q1.value]++] = GateId(i);
            }
        }
        ion_routed_epoch_.assign(num_qubits, 0);
        // The two-hop search fast path assumes at most one segment joins
        // any node pair (true for every built-in topology); detect
        // parallel segments once and fall back to plain BFS if present.
        has_parallel_segments_ = false;
        for (int u = 0; u < num_nodes && !has_parallel_segments_; ++u) {
            const int epoch = ++search_epoch_;
            for (int e = adj_off_[u]; e < adj_off_[u + 1]; ++e) {
                const int v = adj_nbr_[e].value;
                if (seen_epoch_[v] == epoch) {
                    has_parallel_segments_ = true;
                    break;
                }
                seen_epoch_[v] = epoch;
            }
        }
        out_.reserve(static_cast<size_t>(native.size()) * 3);
    }

    RouteResult Run();

  private:
    struct Route
    {
        GateId gate;
        QubitId mover;
        int path_off;
        int path_len;
    };

    NodeId NodeOf(QubitId ion) const { return ion_node_[ion.value]; }

    /** Emits one ready gate; promotions are appended to `promoted` when
     *  given (EmitLocalGates chases them without rescanning). */
    void EmitGate(GateId id, std::vector<GateId>* promoted = nullptr);
    /** Step (1): emits movement-free ready gates to fixpoint. */
    int EmitLocalGates();
    /** The mobile operand of a blocked two-qubit gate. */
    QubitId MoverOf(const circuit::Gate& g) const;
    /**
     * BFS shortest path through components with remaining allocation
     * (availability from `avail_`, segments blocked in the current pass
     * epoch). Fills `path` with [src..dst]; false if unreachable.
     */
    bool FindAllocPath(NodeId src, NodeId dst, std::vector<NodeId>& path);
    /**
     * BFS shortest path through components with transient occupancy
     * headroom (capacity - occ_ > 0), all segments available — the
     * re-route phase search. Fills `path`; false if unreachable.
     */
    bool FindOccupancyPath(NodeId src, NodeId dst,
                           std::vector<NodeId>& path);
    /**
     * Shared search body: two-hop fast path (disabled when the graph has
     * parallel segments) then epoch-stamped BFS with exit at discovery
     * of dst. `seg_ok(seg)` gates segment traversal; `node_ok(node)`
     * gates node passability. Both searches above are instances; keeping
     * one body is what keeps their BFS tie-breaking in lock-step with
     * the reference.
     */
    template <typename SegOk, typename NodeOk>
    bool FindPathImpl(NodeId src, NodeId dst, SegOk seg_ok, NodeOk node_ok,
                      std::vector<NodeId>& path);
    /** Static shortest-path distance (hops) ignoring occupancy (early
     *  exit at dst); -1 if unreachable. */
    int DirectDistance(NodeId src, NodeId dst);
    void Allocate(const std::vector<NodeId>& path);
    /** Steps (7): emits split/shuttle/junction/merge ops along a path,
     *  updating the chain arena in place. */
    void EmitPath(QubitId ion, const NodeId* path, int len);
    /** Step (9): moves `ion` out of an at-capacity trap. */
    void ReRoute(QubitId ion);
    /** First pending two-qubit gate involving `q`, or invalid. */
    GateId NextTwoQubitGate(QubitId q);

    /** First segment joining u and v in u's segment-list order (the
     *  SegmentBetween contract), off the CSR. */
    SegmentId SegBetween(NodeId u, NodeId v) const
    {
        const int end = adj_off_[u.value + 1];
        for (int e = adj_off_[u.value]; e < end; ++e) {
            if (adj_nbr_[e] == v) {
                return adj_seg_[e];
            }
        }
        return SegmentId();
    }

    void ReconstructPath(NodeId src, NodeId dst,
                         std::vector<NodeId>& path) const;

    const circuit::Circuit& native_;
    const std::vector<char>& mobile_;
    RouterOptions options_;
    const DeviceGraph& graph_;
    circuit::Dag dag_;
    circuit::DagFrontier frontier_;
    RouterScratch& s_;
    std::vector<NodeId> home_;

    // CSR adjacency: slots [adj_off_[v], adj_off_[v+1]) hold the incident
    // (segment, neighbour) pairs of node v in segment-list order.
    std::vector<int>& adj_off_ = s_.adj_off;
    std::vector<SegmentId>& adj_seg_ = s_.adj_seg;
    std::vector<NodeId>& adj_nbr_ = s_.adj_nbr;
    std::vector<int>& cap_ = s_.cap;
    std::vector<char>& is_trap_ = s_.is_trap;
    std::vector<SegmentId>& front_seg_ = s_.front_seg;

    // Flat ion-position state (replaces DeviceState in the hot path).
    std::vector<int>& chain_off_ = s_.chain_off;
    std::vector<QubitId>& chain_ = s_.chain;
    std::vector<int>& chain_len_ = s_.chain_len;
    std::vector<NodeId>& ion_node_ = s_.ion_node;
    std::vector<int>& occ_ = s_.occ;

    // Reusable BFS scratch: a node is "seen" iff seen_epoch_ matches the
    // current search epoch; bumping the epoch clears the search in O(1).
    std::vector<int>& seen_epoch_ = s_.seen_epoch;
    std::vector<NodeId>& parent_ = s_.parent;
    std::vector<int>& depth_scratch_ = s_.depth_scratch;
    std::vector<NodeId>& queue_ = s_.queue;
    int search_epoch_ = 0;

    // Per-pass allocation state: avail_ is rebuilt from occ_ once per
    // pass; a segment is allocation-blocked iff its epoch matches the
    // current pass epoch (no per-pass vector clears).
    std::vector<int>& avail_ = s_.avail;
    std::vector<int>& seg_blocked_epoch_ = s_.seg_blocked_epoch;
    std::vector<int>& ion_routed_epoch_ = s_.ion_routed_epoch;
    int pass_epoch_ = 0;

    // Two-qubit gate lists in CSR form with a retired-prefix cursor.
    std::vector<int>& tq_off_ = s_.tq_off;
    std::vector<GateId>& tq_gates_ = s_.tq_gates;
    std::vector<int>& tq_cursor_ = s_.tq_cursor;

    std::vector<GateId>& ready_scratch_ = s_.ready_scratch;
    std::vector<GateId>& blocked_scratch_ = s_.blocked_scratch;
    std::vector<NodeId>& path_scratch_ = s_.path_scratch;
    // Routed paths are stored back-to-back in one arena per pass; routes
    // reference [off, off+len) spans (stable under arena growth).
    std::vector<NodeId>& path_arena_ = s_.path_arena;
    std::vector<PrimitiveOp> out_;
    bool has_parallel_segments_ = false;
    int pass_ = 0;
    int movement_ops_ = 0;
};

void
Router::EmitGate(GateId id, std::vector<GateId>* promoted)
{
    const circuit::Gate& g = native_.gate(id);
    PrimitiveOp op;
    op.kind = GateOpKind(g.kind);
    op.ion0 = g.q0;
    op.ion1 = g.IsTwoQubit() ? g.q1 : QubitId();
    op.node = NodeOf(g.q0);
    op.source_gate = id;
    op.pass = pass_;
    TIQEC_CHECK(op.node.valid(), "gate emitted for ion outside a trap");
    out_.push_back(op);
    if (promoted) {
        frontier_.RetireCollect(id, *promoted);
    } else {
        frontier_.Retire(id);
    }
}

int
Router::EmitLocalGates()
{
    // One-touch FIFO over the ready snapshot plus every gate promoted
    // while draining it. No ion moves inside this step, so a skipped
    // two-qubit gate (operands in different traps) stays unemittable for
    // the whole call — the reference's scan-until-fixpoint loop only ever
    // emits newly-promoted gates on later iterations, and it visits them
    // in promotion order, which is exactly this queue's order.
    int emitted = 0;
    ready_scratch_ = frontier_.Ready();
    for (size_t i = 0; i < ready_scratch_.size(); ++i) {
        const GateId id = ready_scratch_[i];
        const circuit::Gate& g = native_.gate(id);
        if (g.IsTwoQubit() && NodeOf(g.q0) != NodeOf(g.q1)) {
            continue;  // needs routing
        }
        EmitGate(id, &ready_scratch_);
        ++emitted;
    }
    return emitted;
}

QubitId
Router::MoverOf(const circuit::Gate& g) const
{
    const bool m0 = mobile_[g.q0.value] != 0;
    const bool m1 = mobile_[g.q1.value] != 0;
    if (m0 != m1) {
        return m0 ? g.q0 : g.q1;
    }
    return g.q1;
}

void
Router::ReconstructPath(NodeId src, NodeId dst,
                        std::vector<NodeId>& path) const
{
    path.clear();
    for (NodeId v = dst; v != src; v = parent_[v.value]) {
        path.push_back(v);
    }
    path.push_back(src);
    std::reverse(path.begin(), path.end());
}

bool
Router::FindAllocPath(NodeId src, NodeId dst, std::vector<NodeId>& path)
{
    // Instant-fail pre-checks (the reference floods the whole reachable
    // region before concluding the same): dst can never be discovered
    // when it has no allocation headroom, or when every segment incident
    // to it is already claimed this pass.
    if (src != dst) {
        if (avail_[dst.value] <= 0) {
            return false;
        }
        bool dst_reachable = false;
        const int end = adj_off_[dst.value + 1];
        for (int e = adj_off_[dst.value]; e < end; ++e) {
            if (seg_blocked_epoch_[adj_seg_[e].value] != pass_epoch_) {
                dst_reachable = true;
                break;
            }
        }
        if (!dst_reachable) {
            return false;
        }
    }
    return FindPathImpl(
        src, dst,
        [this](SegmentId seg) {
            return seg_blocked_epoch_[seg.value] != pass_epoch_;
        },
        [this](NodeId v) { return avail_[v.value] > 0; }, path);
}

bool
Router::FindOccupancyPath(NodeId src, NodeId dst, std::vector<NodeId>& path)
{
    // dst can never be discovered without occupancy headroom (the BFS
    // and the reference both enforce this at discovery; check it up
    // front so the two-hop fast path honours it too).
    if (src != dst && cap_[dst.value] - occ_[dst.value] <= 0) {
        return false;
    }
    return FindPathImpl(
        src, dst, [](SegmentId) { return true; },
        [this](NodeId v) { return cap_[v.value] - occ_[v.value] > 0; },
        path);
}

template <typename SegOk, typename NodeOk>
bool
Router::FindPathImpl(NodeId src, NodeId dst, SegOk seg_ok, NodeOk node_ok,
                     std::vector<NodeId>& path)
{
    if (src == dst) {
        path.assign(1, src);
        return true;
    }
    // Two-hop fast path: almost every route at trap capacity 2 is
    // trap -> junction -> trap. BFS would discover dst at the first
    // (depth-1 node in src-edge order, then that node's edge order)
    // match; with no parallel segments the m->dst segment is unique, so
    // checking candidates in src-edge order and probing dst's edge list
    // reproduces the BFS choice exactly. Falls through to the plain BFS
    // when dst is further than two hops.
    if (!has_parallel_segments_) {
        const int src_end = adj_off_[src.value + 1];
        for (int e = adj_off_[src.value]; e < src_end; ++e) {
            if (!seg_ok(adj_seg_[e])) {
                continue;
            }
            if (adj_nbr_[e] == dst) {  // depth-1 discovery
                path.clear();
                path.push_back(src);
                path.push_back(dst);
                return true;
            }
        }
        for (int e = adj_off_[src.value]; e < src_end; ++e) {
            if (!seg_ok(adj_seg_[e])) {
                continue;
            }
            const NodeId m = adj_nbr_[e];
            if (!node_ok(m)) {
                continue;
            }
            const int dst_end = adj_off_[dst.value + 1];
            for (int de = adj_off_[dst.value]; de < dst_end; ++de) {
                if (adj_nbr_[de] == m && seg_ok(adj_seg_[de])) {
                    path.clear();
                    path.push_back(src);
                    path.push_back(m);
                    path.push_back(dst);
                    return true;
                }
            }
        }
    }
    const int epoch = ++search_epoch_;
    seen_epoch_[src.value] = epoch;
    queue_.clear();
    queue_.push_back(src);
    for (size_t head = 0; head < queue_.size(); ++head) {
        const NodeId u = queue_[head];
        const int end = adj_off_[u.value + 1];
        for (int e = adj_off_[u.value]; e < end; ++e) {
            if (!seg_ok(adj_seg_[e])) {
                continue;
            }
            const NodeId v = adj_nbr_[e];
            if (seen_epoch_[v.value] == epoch || !node_ok(v)) {
                continue;
            }
            // Exit at discovery: the reference sets dst's parent at
            // discovery too and only reads it after the (pointless)
            // remaining expansion, so the returned path is identical.
            if (v == dst) {
                parent_[v.value] = u;
                ReconstructPath(src, dst, path);
                return true;
            }
            seen_epoch_[v.value] = epoch;
            parent_[v.value] = u;
            queue_.push_back(v);
        }
    }
    return false;
}

int
Router::DirectDistance(NodeId src, NodeId dst)
{
    // Targeted unconstrained BFS with early exit at discovery of dst —
    // on the typical (near-adjacent) query this touches a handful of
    // nodes, where the reference allocates and floods two full-graph
    // vectors.
    if (src == dst) {
        return 0;
    }
    const int epoch = ++search_epoch_;
    seen_epoch_[src.value] = epoch;
    depth_scratch_[src.value] = 0;
    queue_.clear();
    queue_.push_back(src);
    for (size_t head = 0; head < queue_.size(); ++head) {
        const NodeId u = queue_[head];
        const int end = adj_off_[u.value + 1];
        for (int e = adj_off_[u.value]; e < end; ++e) {
            const NodeId v = adj_nbr_[e];
            if (seen_epoch_[v.value] == epoch) {
                continue;
            }
            if (v == dst) {
                return depth_scratch_[u.value] + 1;
            }
            seen_epoch_[v.value] = epoch;
            depth_scratch_[v.value] = depth_scratch_[u.value] + 1;
            queue_.push_back(v);
        }
    }
    return -1;
}

void
Router::Allocate(const std::vector<NodeId>& path)
{
    for (size_t i = 1; i < path.size(); ++i) {
        --avail_[path[i].value];
        // SegBetween (not the BFS discovery segment) mirrors the
        // reference implementation exactly.
        const SegmentId seg = SegBetween(path[i - 1], path[i]);
        TIQEC_CHECK(seg.valid(), "allocated path hop without a segment");
        seg_blocked_epoch_[seg.value] = pass_epoch_;
    }
}

void
Router::EmitPath(QubitId ion, const NodeId* path, int len)
{
    // Emits the same primitive sequence as EmitMovementPath (gate swaps
    // to the facing chain end, split/shuttle/junction hops, merge),
    // mutating the flat chain arena in place instead of replaying through
    // DeviceState. The emitted stream remains sequentially valid — the
    // compiler tests replay every compiled stream through DeviceState.
    auto emit = [&](PrimitiveOp op) {
        op.pass = pass_;
        out_.push_back(op);
        ++movement_ops_;
    };
    for (int i = 0; i + 1 < len; ++i) {
        const NodeId u = path[i];
        const NodeId v = path[i + 1];
        const SegmentId seg = SegBetween(u, v);
        TIQEC_CHECK(seg.valid(), "path hop " << u << " -> " << v
                                             << " has no segment");
        if (is_trap_[u.value] != 0) {
            // Bring the ion to the chain end facing the segment, then
            // split out of the trap.
            QubitId* chain = chain_.data() + chain_off_[u.value];
            const int chain_n = chain_len_[u.value];
            int idx = 0;
            while (idx < chain_n && chain[idx] != ion) {
                ++idx;
            }
            TIQEC_CHECK(idx < chain_n,
                        "ion " << ion << " missing from chain of trap "
                               << u);
            const bool front = front_seg_[u.value] == seg ||
                               !front_seg_[u.value].valid();
            int swaps = front ? idx : chain_n - 1 - idx;
            while (swaps-- > 0) {
                const int nidx = front ? idx - 1 : idx + 1;
                const QubitId neighbor = chain[nidx];
                chain[nidx] = ion;
                chain[idx] = neighbor;
                idx = nidx;
                emit({.kind = OpKind::kGateSwap,
                      .ion0 = ion,
                      .ion1 = neighbor,
                      .node = u});
            }
            // Split: drop the ion off its chain end.
            if (front) {
                for (int k = 0; k + 1 < chain_n; ++k) {
                    chain[k] = chain[k + 1];
                }
            }
            --chain_len_[u.value];
            emit({.kind = OpKind::kSplit, .ion0 = ion, .node = u,
                  .segment = seg});
            emit({.kind = OpKind::kShuttle, .ion0 = ion, .segment = seg});
        } else {
            emit({.kind = OpKind::kJunctionExit, .ion0 = ion, .node = u,
                  .segment = seg});
            emit({.kind = OpKind::kShuttle, .ion0 = ion, .segment = seg});
        }
        if (is_trap_[v.value] != 0) {
            // Merge: enter the chain at the end facing the segment we
            // came from.
            QubitId* chain = chain_.data() + chain_off_[v.value];
            const int chain_n = chain_len_[v.value];
            TIQEC_CHECK(chain_n < cap_[v.value],
                        "merge into full trap " << v);
            const bool front = front_seg_[v.value] == seg ||
                               !front_seg_[v.value].valid();
            if (front) {
                for (int k = chain_n; k > 0; --k) {
                    chain[k] = chain[k - 1];
                }
                chain[0] = ion;
            } else {
                chain[chain_n] = ion;
            }
            ++chain_len_[v.value];
            emit({.kind = OpKind::kMerge, .ion0 = ion, .node = v,
                  .segment = seg});
        } else {
            emit({.kind = OpKind::kJunctionEnter, .ion0 = ion, .node = v,
                  .segment = seg});
        }
    }
    ion_node_[ion.value] = path[len - 1];
    // Occupancy delta: the ion leaves the trap at the head of the path
    // and settles in the trap at its tail; intermediate junctions and
    // segments are empty again once the path completes.
    --occ_[path[0].value];
    ++occ_[path[len - 1].value];
}

GateId
Router::NextTwoQubitGate(QubitId q)
{
    int& cur = tq_cursor_[q.value];
    const int end = tq_off_[q.value + 1];
    // Retirement is permanent, so the cursor only ever advances.
    while (cur < end && frontier_.IsRetired(tq_gates_[cur])) {
        ++cur;
    }
    return cur < end ? tq_gates_[cur] : GateId();
}

void
Router::ReRoute(QubitId ion)
{
    const NodeId here = NodeOf(ion);
    const int cap = cap_[here.value];
    if (occ_[here.value] <= cap - 1) {
        return;  // invariant already satisfied
    }
    // Preferred target: the trap of the ion's next two-qubit partner if it
    // has settle room, else the ion's own home trap (freed when it left;
    // returning home keeps every ancilla adjacent to its data partners,
    // which is what gives the distance-independent round time at
    // capacity 2). Falling through to a nearest-free search only happens
    // when both are taken.
    auto settleable = [&](NodeId t) {
        return t.valid() && t != here &&
               occ_[t.value] <= cap_[t.value] - 2;
    };
    NodeId preferred;
    if (options_.prefer_home) {
        const GateId next = NextTwoQubitGate(ion);
        if (next.valid()) {
            const circuit::Gate& g = native_.gate(next);
            const QubitId partner = g.q0 == ion ? g.q1 : g.q0;
            const NodeId t = NodeOf(partner);
            if (settleable(t)) {
                preferred = t;
            }
        }
        if (!preferred.valid() && settleable(home_[ion.value])) {
            preferred = home_[ion.value];
        }
    }
    // BFS over current occupancies; transport components are free within
    // the re-route phase (scheduler serialises any timing overlaps).
    // Pass-through only needs transient capacity headroom; the chosen
    // destination must additionally stay below capacity after arrival.
    // Availability is read straight off the incremental occ_ table — the
    // reference implementation rebuilt per-node pass_avail / can_settle
    // vectors on every call.
    path_scratch_.clear();
    bool have_path = false;
    if (preferred.valid()) {
        have_path = FindOccupancyPath(here, preferred, path_scratch_);
    }
    if (!have_path) {
        // Nearest settleable trap: BFS from `here` through components with
        // transient headroom, stopping at the first trap that can accept
        // an ion while staying below capacity.
        const int epoch = ++search_epoch_;
        seen_epoch_[here.value] = epoch;
        queue_.clear();
        queue_.push_back(here);
        NodeId found;
        for (size_t head = 0; head < queue_.size() && !found.valid();
             ++head) {
            const NodeId u = queue_[head];
            const int end = adj_off_[u.value + 1];
            for (int e = adj_off_[u.value]; e < end; ++e) {
                const NodeId v = adj_nbr_[e];
                if (seen_epoch_[v.value] == epoch ||
                    cap_[v.value] - occ_[v.value] <= 0) {
                    continue;
                }
                seen_epoch_[v.value] = epoch;
                parent_[v.value] = u;
                if (is_trap_[v.value] != 0 &&
                    occ_[v.value] <= cap_[v.value] - 2) {
                    found = v;
                    break;
                }
                queue_.push_back(v);
            }
        }
        if (!found.valid()) {
            return;  // nowhere to go; capacity (though not the
                     // cap-1 invariant) still holds
        }
        ReconstructPath(here, found, path_scratch_);
    }
    EmitPath(ion, path_scratch_.data(),
             static_cast<int>(path_scratch_.size()));
}

RouteResult
Router::Run()
{
    RouteResult result;
    thread_local std::vector<Route> routes;
    while (!frontier_.AllRetired()) {
        const int before = frontier_.num_retired();
        EmitLocalGates();
        if (frontier_.AllRetired()) {
            ++pass_;
            break;
        }
        // Step (2): blocked ready two-qubit gates in priority (program)
        // order.
        blocked_scratch_.clear();
        for (const GateId id : frontier_.Ready()) {
            const circuit::Gate& g = native_.gate(id);
            if (g.IsTwoQubit() && NodeOf(g.q0) != NodeOf(g.q1)) {
                blocked_scratch_.push_back(id);
            }
        }
        std::sort(blocked_scratch_.begin(), blocked_scratch_.end());
        // Steps (3-6): sequential path allocation with component
        // capacities. avail_ starts at capacity - occupancy and is
        // decremented by Allocate; a segment is blocked for the rest of
        // the pass once a path claims it (epoch stamp, no re-clear).
        ++pass_epoch_;
        for (int i = 0; i < graph_.num_nodes(); ++i) {
            avail_[i] = cap_[i] - occ_[i];
        }
        routes.clear();
        path_arena_.clear();
        for (const GateId id : blocked_scratch_) {
            const circuit::Gate& g = native_.gate(id);
            const QubitId mover = MoverOf(g);
            const QubitId partner = g.q0 == mover ? g.q1 : g.q0;
            // A previously allocated route may already carry this pass's
            // mover; one route per ion per pass.
            if (ion_routed_epoch_[mover.value] == pass_epoch_ ||
                ion_routed_epoch_[partner.value] == pass_epoch_) {
                continue;
            }
            const NodeId src = NodeOf(mover);
            const NodeId dst = NodeOf(partner);
            if (!FindAllocPath(src, dst, path_scratch_)) {
                continue;
            }
            // Reject detours: when the shortest physical route is blocked
            // by this pass's allocations, deferring the gate one pass is
            // far cheaper than dragging the ion through occupied traps
            // (every pass-through costs a merge, gate swaps, and a split).
            // Short paths are decided by adjacency alone: a 2-node path
            // rides a direct segment (distance 1, optimal); a 3-node path
            // is optimal exactly when src and dst share no segment
            // (otherwise the distance is 1 and the path is a detour).
            // Only length >= 4 needs the unconstrained BFS.
            if (options_.reject_detours) {
                const int plen = static_cast<int>(path_scratch_.size());
                if (plen == 3) {
                    if (SegBetween(src, dst).valid()) {
                        continue;
                    }
                } else if (plen >= 4) {
                    const int direct = DirectDistance(src, dst);
                    if (direct >= 0 && plen > direct + 1) {
                        continue;
                    }
                }
            }
            Allocate(path_scratch_);
            ion_routed_epoch_[mover.value] = pass_epoch_;
            const int off = static_cast<int>(path_arena_.size());
            path_arena_.insert(path_arena_.end(), path_scratch_.begin(),
                               path_scratch_.end());
            routes.push_back(
                {id, mover, off,
                 static_cast<int>(path_scratch_.size())});
        }
        if (routes.empty()) {
            if (frontier_.num_retired() == before) {
                std::ostringstream os;
                os << "routing deadlock in pass " << pass_ << " with "
                   << blocked_scratch_.size() << " blocked gates";
                result.error = os.str();
                return result;
            }
            ++pass_;
            continue;
        }
        // Step (7): movement primitives.
        for (const Route& r : routes) {
            EmitPath(r.mover, path_arena_.data() + r.path_off, r.path_len);
        }
        // Step (8): the gates that required routing, plus any gates the
        // new co-locations unblocked (multi-gate visits at high capacity).
        for (const Route& r : routes) {
            const circuit::Gate& g = native_.gate(r.gate);
            TIQEC_CHECK(NodeOf(g.q0) == NodeOf(g.q1),
                        "routed gate operands not co-located");
            EmitGate(r.gate);
        }
        EmitLocalGates();
        // Step (9): restore the pass-boundary invariants.
        for (const Route& r : routes) {
            ReRoute(r.mover);
        }
        ++pass_;
    }
    result.ok = true;
    result.ops = std::move(out_);
    result.num_passes = pass_;
    result.num_movement_ops = movement_ops_;
    return result;
}

}  // namespace

RouteResult
RouteCircuit(const circuit::Circuit& native, const std::vector<char>& mobile,
             const qccd::DeviceGraph& graph, const Placement& placement,
             const RouterOptions& options)
{
    TIQEC_CHECK(static_cast<int>(mobile.size()) == native.num_qubits(),
                "mobility mask size " << mobile.size() << " vs "
                                      << native.num_qubits() << " qubits");
    Router router(native, mobile, graph, placement, options);
    return router.Run();
}

int
EmitMovementPath(qccd::DeviceState& state, const qccd::DeviceGraph& graph,
                 QubitId ion, const std::vector<NodeId>& path, int pass,
                 std::vector<qccd::PrimitiveOp>& out)
{
    int movement_ops = 0;
    auto emit = [&](PrimitiveOp op) {
        op.pass = pass;
        const auto err = state.TryApply(op);
        TIQEC_CHECK(!err.has_value(), "invalid movement primitive: "
                                          << (err ? *err : std::string()));
        out.push_back(op);
        ++movement_ops;
    };
    for (size_t i = 0; i + 1 < path.size(); ++i) {
        const NodeId u = path[i];
        const NodeId v = path[i + 1];
        const SegmentId seg = graph.SegmentBetween(u, v);
        TIQEC_CHECK(seg.valid(), "path hop " << u << " -> " << v
                                             << " has no segment");
        if (graph.node(u).kind == NodeKind::kTrap) {
            // Bring the ion to the chain end facing the segment, then
            // split out of the trap.
            int swaps = state.SwapsToEnd(ion, seg);
            while (swaps-- > 0) {
                const auto& chain = state.ChainOf(u);
                const auto it = std::find(chain.begin(), chain.end(), ion);
                const auto& segs = graph.node(u).segments;
                const bool front = segs.empty() || segs.front() == seg;
                const QubitId neighbor = front ? *(it - 1) : *(it + 1);
                emit({.kind = OpKind::kGateSwap,
                      .ion0 = ion,
                      .ion1 = neighbor,
                      .node = u});
            }
            emit({.kind = OpKind::kSplit, .ion0 = ion, .node = u,
                  .segment = seg});
            emit({.kind = OpKind::kShuttle, .ion0 = ion, .segment = seg});
        } else {
            emit({.kind = OpKind::kJunctionExit, .ion0 = ion, .node = u,
                  .segment = seg});
            emit({.kind = OpKind::kShuttle, .ion0 = ion, .segment = seg});
        }
        if (graph.node(v).kind == NodeKind::kTrap) {
            emit({.kind = OpKind::kMerge, .ion0 = ion, .node = v,
                  .segment = seg});
        } else {
            emit({.kind = OpKind::kJunctionEnter, .ion0 = ion, .node = v,
                  .segment = seg});
        }
    }
    return movement_ops;
}

}  // namespace tiqec::compiler
