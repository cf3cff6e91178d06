/**
 * @file
 * The end-to-end evaluation tool flow (paper Figure 2): candidate QEC
 * code + candidate QCCD architecture -> compiled schedule -> QEC round
 * time, logical error rate (Monte-Carlo frame simulation + union-find
 * decoding), and control-hardware resource estimates.
 *
 * `Evaluate` is the one-candidate entry point: a run of the staged
 * sweep engine (core/sweep.h), which chains the stages of
 * core/pipeline.h. The benchmark binaries in bench/ are thin drivers
 * over `Evaluate` and `SweepRunner`.
 */
#ifndef TIQEC_CORE_TOOLFLOW_H
#define TIQEC_CORE_TOOLFLOW_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/architecture.h"
#include "noise/noise_model.h"
#include "qec/code.h"
#include "resources/resource_model.h"
#include "workloads/experiment.h"

namespace tiqec::core {

struct EvaluationOptions
{
    /** Parity-check rounds per memory shot; -1 means the code distance. */
    int rounds = -1;
    /** Monte-Carlo budget. Sampling stops at whichever comes first. */
    std::int64_t max_shots = 1 << 20;
    std::int64_t target_logical_errors = 100;
    std::uint64_t seed = 0x5EED;
    /** Skip the (expensive) logical-error simulation. */
    bool compile_only = false;
    /** Simulated workload (DESIGN.md §5). Memory is the paper's
     *  logical-identity benchmark (`workload.basis` picks the protected
     *  logical); surgery and stability run the joint-parity measurement
     *  on a merged double patch and require the candidate's code to be
     *  a `qec::MergedPatchCode`; a program workload carries a
     *  `workloads::BoundProgram` whose primary phase code must be the
     *  candidate's code. A bare `WorkloadKind` assigns here. */
    workloads::WorkloadSpec workload = workloads::WorkloadKind::kMemory;
    /** Worker threads of `Evaluate` (its pool runs every stage and the
     *  Monte-Carlo shards); 0 means hardware concurrency. The result is
     *  bit-identical for every value (see DESIGN.md §3.4). A
     *  `SweepRunner` ignores it: the runner's own pool owns the
     *  threads. */
    int num_threads = 0;
    /** Shots per RNG shard (the sampler's determinism unit). */
    int shard_shots = 1 << 12;
    /** Probability-aware decoding (weighted peeling forest + correlated
     *  hyperedge stage). Off gives the unweighted elementary-graph
     *  baseline, for A/B comparisons. */
    bool correlated = true;
    /** Run the static artifact validators (src/analysis/, DESIGN.md §6)
     *  over the compiled schedule and the simulation artifacts; a
     *  failing candidate reports the formatted diagnostics exactly like
     *  a compile error (so sweeps isolate it rather than abort). On by
     *  default in Debug builds, off in Release; a request line selects
     *  it with `validate=0|1`. */
#ifdef NDEBUG
    bool validate_artifacts = false;
#else
    bool validate_artifacts = true;
#endif
    /** Statically certify the effective fault distance of the extracted
     *  DEM against the candidate code's distance
     *  (`analysis::CertifyDistance` + `JudgeDistance`, DESIGN.md §6.5);
     *  a sub-distance observable fails the candidate with its witness
     *  mechanism set, exactly like a compile error. Deliberately
     *  independent of `rounds`: running fewer rounds than the code
     *  distance is precisely the kind of silent distance loss the
     *  certifier exists to catch. Needs the DEM, so a `compile_only`
     *  candidate that asks for it fails up front. */
    bool certify_distance = false;

    /** The experiment shape these options select: `workload`. */
    workloads::WorkloadSpec workload_spec() const { return workload; }
};

struct Metrics
{
    bool ok = false;
    std::string error;

    // Compiler outputs (paper §6.3). For a multi-round compile-only
    // block (`SweepCandidate::compile_rounds` > 1), `round_time` is the
    // per-round mean and `shot_time` the block makespan, but the two
    // movement fields are block totals despite their names: a d=11
    // block of 11 rounds on grid capacity 2 reports 58,080 movement
    // ops, 11 rounds' worth.
    Microseconds round_time = 0.0;
    Microseconds shot_time = 0.0;  ///< rounds * round_time
    int movement_ops_per_round = 0;
    Microseconds movement_time_per_round = 0.0;
    int num_traps_used = 0;

    // Noise profile diagnostics.
    double mean_two_qubit_error = 0.0;
    double max_two_qubit_error = 0.0;
    double idle_dephasing_data_qubit = 0.0;

    // Logical error rate (per shot of `rounds` rounds, and per round).
    // `logical_errors` counts shots mismatching ANY tracked observable;
    // the per-observable vectors break the same committed shard prefix
    // down by observable (joint parity + both patch logicals from one
    // surgery run), so max(per_observable_errors) <= logical_errors <=
    // sum(per_observable_errors). Empty for a zero-shot budget.
    std::int64_t shots = 0;
    std::int64_t logical_errors = 0;
    BinomialEstimate ler_per_shot;
    double ler_per_round = 0.0;
    std::vector<std::int64_t> per_observable_errors;
    std::vector<BinomialEstimate> per_observable_ler;

    // DEM extraction diagnostics (sim::DetectorErrorModel): how much of
    // the error-mechanism probability mass the decoder graph actually
    // represents. Any non-zero dropped/undecomposable mass is a decoding
    // floor the LER can never beat, so it is surfaced in every table.
    int dem_hyperedges = 0;
    int dem_undecomposable = 0;
    double dem_dropped_probability = 0.0;
    double dem_undecomposable_probability = 0.0;

    // Control-hardware estimate for the minimal device (paper §5.2).
    resources::ResourceEstimate resources;
};

/** Runs the full tool flow for one (code, architecture) pair: a
 *  one-candidate `SweepRunner` run whose pool is `options.num_threads`
 *  wide (core/sweep.h). */
Metrics Evaluate(const qec::StabilizerCode& code,
                 const ArchitectureConfig& arch,
                 const EvaluationOptions& options = {});

/** Noise parameters implied by an architecture (wiring + improvement). */
noise::NoiseParams NoiseParamsFor(const ArchitectureConfig& arch);

}  // namespace tiqec::core

#endif  // TIQEC_CORE_TOOLFLOW_H
