/**
 * @file
 * The evaluation tool flow split into cacheable stages (DESIGN.md §4.2):
 *
 *   compile  — device synthesis + QEC-to-QCCD compilation
 *   annotate — schedule walk -> per-gate / per-idle noise profile
 *   build-sim — noisy memory experiment + detector error model
 *
 * `core::SweepRunner` chains the stages, memoising each behind a keyed
 * artifact cache so a design-space sweep compiles, annotates, and
 * extracts the DEM once per unique candidate; `core::Evaluate` is a
 * one-candidate run of it. Every stage is a pure function of its
 * inputs, which is what makes the cache transparent: a candidate's
 * result does not depend on the batch it runs in.
 */
#ifndef TIQEC_CORE_PIPELINE_H
#define TIQEC_CORE_PIPELINE_H

#include <string>

#include "compiler/compiler.h"
#include "core/architecture.h"
#include "core/toolflow.h"
#include "noise/annotator.h"
#include "qccd/timing.h"
#include "qccd/topology.h"
#include "qec/code.h"
#include "sim/dem.h"
#include "sim/memory_experiment.h"
#include "sim/noisy_circuit.h"
#include "workloads/experiment.h"
#include "workloads/program.h"

namespace tiqec::core {

/** Output of the compile stage: the device the candidate was compiled
 *  onto plus every compiler artefact the later stages interrogate. */
struct CompileArtifacts
{
    bool ok = false;
    std::string error;
    /** Parity-check rounds handed to the compiler (1 = the `Evaluate`
     *  contract; multi-round blocks are compile-only, see below). */
    int compile_rounds = 1;
    qccd::TimingModel timing;
    qccd::DeviceGraph graph;
    compiler::CompilationResult compiled;
};

/**
 * Compile stage. Synthesises a device for (code, arch) — or compiles
 * onto `device` when non-null (hand-built devices, e.g. single ion
 * chains) — and runs the QEC compiler for `compile_rounds` rounds.
 * Never throws: invalid configurations (trap capacity < 2, too few
 * traps, routing failures) and compiler exceptions all come back as
 * `ok == false` with a message, so one broken candidate cannot abort a
 * sweep.
 */
CompileArtifacts CompileCandidate(const qec::StabilizerCode& code,
                                  const ArchitectureConfig& arch,
                                  int compile_rounds = 1,
                                  const qccd::DeviceGraph* device = nullptr);

/**
 * Annotate stage: schedule-derived noise profile for a successful
 * one-round compilation (`arts.ok && arts.compile_rounds == 1`). Works
 * on an internal copy of the compilation result, so a cached
 * `CompileArtifacts` can be annotated concurrently under several noise
 * scenarios (gate-improvement factors) without aliasing.
 */
noise::RoundNoiseProfile AnnotateCandidate(const qec::StabilizerCode& code,
                                           const ArchitectureConfig& arch,
                                           const CompileArtifacts& arts);

/** Output of the build-sim stage: what the Monte-Carlo estimate needs. */
struct SimArtifacts
{
    sim::NoisyCircuit experiment{0};
    sim::DetectorErrorModel dem;
};

/** Build-sim stage: the noisy experiment the workload spec selects
 *  (memory / stability / surgery, workloads/experiment.h) over `rounds`
 *  rounds plus its detector error model (the decoder graph source).
 *  Throws std::invalid_argument when the code cannot host the workload
 *  (e.g. surgery on a plain patch). */
SimArtifacts BuildSimArtifacts(const qec::StabilizerCode& code,
                               const CompileArtifacts& arts,
                               const noise::RoundNoiseProfile& profile,
                               const ArchitectureConfig& arch, int rounds,
                               const workloads::WorkloadSpec& spec);

/**
 * Fills the compiler/noise/resource metrics (everything except the
 * Monte-Carlo fields) from cached stage outputs. `profile` may be null
 * for multi-round compile-only candidates. For `compile_rounds == 1`,
 * `round_time` is the schedule makespan and `shot_time` is
 * `rounds * round_time`; for a multi-round block, `shot_time` is the
 * block's elapsed makespan and `round_time` its per-round mean.
 */
void FillCompileMetrics(const qec::StabilizerCode& code,
                        const ArchitectureConfig& arch,
                        const CompileArtifacts& arts,
                        const noise::RoundNoiseProfile* profile,
                        int rounds, Metrics& metrics);

/**
 * Candidate-shape check the sweep engine runs before any stage: returns
 * a non-empty error for a program-workload spec with no bound program,
 * or whose primary phase code is not `code` (compared by address);
 * empty otherwise.
 */
std::string CheckProgramCandidate(const qec::StabilizerCode& code,
                                  const workloads::WorkloadSpec& spec);

/**
 * The distinct codes whose one-round compilations a candidate needs:
 * the program's phase codes for a program workload (in
 * `BoundProgram::phase_codes()` order, primary included), or just
 * `code` itself for every other workload. Raw pointers into `spec` /
 * the caller's code; no ownership.
 */
std::vector<const qec::StabilizerCode*> UnitCodesFor(
    const qec::StabilizerCode& code, const workloads::WorkloadSpec& spec);

/** One compiled+annotated phase of a program candidate, aligned with
 *  `BoundProgram::phase_codes()`. */
struct ProgramUnit
{
    const qec::StabilizerCode* code = nullptr;
    const CompileArtifacts* arts = nullptr;
    const noise::RoundNoiseProfile* profile = nullptr;
};

/**
 * Build-sim stage for a program workload: stitches every compiled
 * phase round into the program's global noisy circuit
 * (`BoundProgram::Build`, DESIGN.md §5.4) and extracts its DEM. Each
 * merge runs `rounds` merged rounds. `units` must align with
 * `program.phase_codes()`.
 */
SimArtifacts BuildProgramSimArtifacts(const workloads::BoundProgram& program,
                                      const std::vector<ProgramUnit>& units,
                                      const ArchitectureConfig& arch,
                                      int rounds);

/** Wraps sampler totals into a `LerEstimate` (Wilson intervals for the
 *  any-observable and per-observable counts, per-round conversion) —
 *  shared by `EstimateLogicalErrorRate` and the sweep engine so both
 *  report identical statistics. */
LerEstimate FinishLerEstimate(
    std::int64_t shots, std::int64_t logical_errors,
    const std::vector<std::int64_t>& per_observable_errors,
    std::int64_t shards, bool early_stopped, int rounds);

}  // namespace tiqec::core

#endif  // TIQEC_CORE_PIPELINE_H
