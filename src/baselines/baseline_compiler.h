/**
 * @file
 * Baseline QCCD compilers used for the paper's Table 3 comparison
 * (§6.5): reimplementations of the published strategies of QCCDSim
 * (Murali et al. [28]) and MuzzleTheShuttle (Saki et al. [33]). Both are
 * NISQ-era compilers with no QEC awareness:
 *
 *  - QCCDSim-like: program-order (non-geometric) placement and
 *    on-demand serial routing - each two-qubit gate's mobile ion is
 *    shuttled when the gate is reached, one movement chain at a time,
 *    with no per-pass parallel allocation and no return-home policy.
 *  - Muzzle-like: the same serial on-demand strategy plus the
 *    swap-minimisation heuristic of the paper it models; it targets
 *    linear-chain devices and refuses routes that cross more than one
 *    junction, so it fails (the paper's "NaN") on junction grids of any
 *    interesting size.
 *
 * Both backends emit the same primitive instruction stream format as the
 * QEC compiler and are scheduled with the same list scheduler, so the
 * movement-time / movement-operation comparison is apples-to-apples.
 */
#ifndef TIQEC_BASELINES_BASELINE_COMPILER_H
#define TIQEC_BASELINES_BASELINE_COMPILER_H

#include "compiler/compiler.h"
#include "qccd/timing.h"
#include "qccd/topology.h"
#include "qec/code.h"

namespace tiqec::baselines {

enum class BaselineKind
{
    kQccdSim,
    kMuzzleTheShuttle,
};

/**
 * Compiles `rounds` rounds of parity checks with a baseline strategy.
 * On failure (the published tools' compile failures / constraint
 * violations), `ok` is false and `error` names the cause - reported as
 * "NaN" in the Table 3 benchmark, as in the paper.
 */
compiler::CompilationResult CompileBaseline(
    BaselineKind kind, const qec::StabilizerCode& code, int rounds,
    const qccd::DeviceGraph& graph, const qccd::TimingModel& timing);

}  // namespace tiqec::baselines

#endif  // TIQEC_BASELINES_BASELINE_COMPILER_H
