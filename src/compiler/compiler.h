/**
 * @file
 * The end-to-end QEC-to-QCCD compiler (paper §4, Figure 5):
 *
 *   parity-check circuit -> native-gate translation -> qubit clustering ->
 *   cluster-to-trap placement -> ion routing -> list scheduling.
 *
 * The result carries every intermediate artefact so the evaluation layer
 * (noise annotation, logical-error simulation, resource estimation) can
 * interrogate the mapping.
 */
#ifndef TIQEC_COMPILER_COMPILER_H
#define TIQEC_COMPILER_COMPILER_H

#include <string>

#include "circuit/circuit.h"
#include "compiler/partitioner.h"
#include "compiler/placer.h"
#include "compiler/router.h"
#include "compiler/schedule.h"
#include "compiler/scheduler.h"
#include "qccd/timing.h"
#include "qccd/topology.h"
#include "qec/code.h"

namespace tiqec::compiler {

struct CompilerOptions
{
    /** WISE wiring: schedule under the same-kind transport restriction
     *  and charge every two-qubit gate the timing model's cooling time
     *  (paper §5.1). */
    bool wise = false;
    /** Routing policy ablations (see bench_ablation_compiler). */
    RouterOptions router;
    /**
     * Ablation: replace the geometric partition/placement with
     * program-order packing (what the NISQ baselines do).
     */
    bool naive_placement = false;
    /**
     * Route and schedule with the pre-overhaul reference implementations
     * (router_reference.cc / scheduler_reference.cc). Output is
     * byte-identical to the default fast path — pinned by the
     * differential suite in compiler_golden_test — at pre-overhaul
     * speed. For differential tests and bench_compile_throughput only.
     */
    bool reference_pipeline = false;
};

struct CompilationResult
{
    bool ok = false;
    std::string error;
    circuit::Circuit qec_circuit;  ///< parity-check circuit (QEC IR)
    circuit::Circuit native;       ///< after native-gate translation
    Partition partition;
    Placement placement;
    RouteResult routing;
    Schedule schedule;
};

/** Number of clusters (traps) a code needs at a given trap capacity. */
int NumClustersFor(const qec::StabilizerCode& code, int trap_capacity);

/**
 * Builds a device of `topology` just large enough for `code` at
 * `trap_capacity` (paper §6.2 methodology: the device is sized to the
 * logical qubit under study).
 */
qccd::DeviceGraph MakeDeviceFor(const qec::StabilizerCode& code,
                                qccd::TopologyKind topology,
                                int trap_capacity);

/**
 * Compiles `rounds` rounds of parity checks for `code` onto `graph`.
 * Requires trap capacity >= 2 and enough traps for all clusters.
 */
CompilationResult CompileParityCheckRounds(
    const qec::StabilizerCode& code, int rounds,
    const qccd::DeviceGraph& graph, const qccd::TimingModel& timing,
    const CompilerOptions& options = {});

}  // namespace tiqec::compiler

#endif  // TIQEC_COMPILER_COMPILER_H
