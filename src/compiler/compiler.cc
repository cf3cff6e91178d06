#include "compiler/compiler.h"

#include <algorithm>
#include <cmath>

#include "circuit/native_translation.h"
#include "qec/parity_check.h"

namespace tiqec::compiler {

int
NumClustersFor(const qec::StabilizerCode& code, int trap_capacity)
{
    // Rounds up without forming n + cluster_size - 1, which overflows
    // at the largest capacities.
    const int n = code.num_qubits();
    const int cluster_size = trap_capacity - 1;
    return n / cluster_size + (n % cluster_size != 0 ? 1 : 0);
}

qccd::DeviceGraph
MakeDeviceFor(const qec::StabilizerCode& code, qccd::TopologyKind topology,
              int trap_capacity)
{
    const int clusters = NumClustersFor(code, trap_capacity);
    if (topology != qccd::TopologyKind::kGrid) {
        return qccd::DeviceGraph::Make(topology, clusters, trap_capacity);
    }
    // Grid devices must match the code layout's aspect ratio: the
    // placer's uniform (aspect-preserving) scaling would otherwise leave
    // one axis compressed and break the one-hop neighbourhood embedding
    // (rectangular lattice-surgery patches are the common case).
    double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
    for (const auto& q : code.qubits()) {
        min_x = std::min(min_x, q.coord.x);
        max_x = std::max(max_x, q.coord.x);
        min_y = std::min(min_y, q.coord.y);
        max_y = std::max(max_y, q.coord.y);
    }
    const double width = std::max(1.0, max_x - min_x);
    const double height = std::max(1.0, max_y - min_y);
    const double aspect = width / height;
    int rows = 2;
    int cols = 2;
    auto traps_of = [](int r, int c) { return r * (c - 1) + c * (r - 1); };
    while (traps_of(rows, cols) < clusters) {
        ++rows;
        cols = std::max(
            2, static_cast<int>(std::ceil(rows * aspect)));
    }
    // One ring of slack (see MakeGridForTraps).
    return qccd::DeviceGraph::MakeGrid(rows + 1, cols + 1, trap_capacity);
}

CompilationResult
CompileParityCheckRounds(const qec::StabilizerCode& code, int rounds,
                         const qccd::DeviceGraph& graph,
                         const qccd::TimingModel& timing,
                         const CompilerOptions& options)
{
    CompilationResult result;
    if (graph.trap_capacity() < 2) {
        result.error = "trap capacity must be at least 2 (one slot is "
                       "reserved for communication)";
        return result;
    }
    result.qec_circuit = qec::BuildParityCheckRounds(code, rounds);
    result.native = circuit::TranslateToNative(result.qec_circuit);
    if (options.naive_placement) {
        // Program-order packing (ablation): qubit q -> cluster
        // q / (capacity - 1), clusters -> traps in construction order.
        const int fill = graph.trap_capacity() - 1;
        const int n = code.num_qubits();
        result.partition.num_clusters =
            NumClustersFor(code, graph.trap_capacity());
        result.partition.cluster_of.resize(n);
        for (int q = 0; q < n; ++q) {
            result.partition.cluster_of[q] = q / fill;
        }
        result.partition.max_cluster_size = fill;
        result.partition.min_cluster_size = n - (result.partition.num_clusters - 1) * fill;
        if (result.partition.num_clusters > graph.num_traps()) {
            result.error = "device has too few traps for the code at "
                           "this capacity";
            return result;
        }
        result.placement.cluster_trap.resize(result.partition.num_clusters);
        result.placement.qubit_trap.resize(n);
        for (int c = 0; c < result.partition.num_clusters; ++c) {
            result.placement.cluster_trap[c] = graph.traps()[c];
        }
        for (int q = 0; q < n; ++q) {
            result.placement.qubit_trap[q] =
                result.placement.cluster_trap[result.partition.cluster_of[q]];
        }
    } else {
        result.partition = PartitionQubits(code, graph.trap_capacity() - 1);
        if (result.partition.num_clusters > graph.num_traps()) {
            result.error = "device has too few traps for the code at this "
                           "capacity";
            return result;
        }
        result.placement =
            options.reference_pipeline
                ? PlaceClustersReference(code, result.partition, graph)
                : PlaceClusters(code, result.partition, graph);
    }

    std::vector<char> mobile(code.num_qubits(), 0);
    for (const auto& q : code.qubits()) {
        mobile[q.id.value] = q.role == qec::QubitRole::kAncilla ? 1 : 0;
    }
    result.routing =
        options.reference_pipeline
            ? RouteCircuitReference(result.native, mobile, graph,
                                    result.placement, options.router)
            : RouteCircuit(result.native, mobile, graph, result.placement,
                           options.router);
    if (!result.routing.ok) {
        result.error = "routing failed: " + result.routing.error;
        return result;
    }
    SchedulerOptions sched;
    sched.wise = options.wise;
    sched.cooling_per_two_qubit_gate =
        options.wise ? timing.cooling_per_two_qubit_gate : 0.0;
    result.schedule =
        options.reference_pipeline
            ? ScheduleStreamReference(result.routing.ops, graph, timing,
                                      sched)
            : ScheduleStream(result.routing.ops, graph, timing, sched);
    result.schedule.num_passes = result.routing.num_passes;
    result.ok = true;
    return result;
}

}  // namespace tiqec::compiler
