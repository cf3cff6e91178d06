/**
 * @file
 * Detector-error-model (DEM) extraction, Stim-style: every individual
 * error component of every stochastic channel is injected into its own
 * bit-lane and the whole circuit is propagated once, so each lane ends up
 * holding exactly the set of detectors (and observables) that component
 * flips. Components are then merged into graph edges for the union-find
 * decoder, with multi-detector components (Y errors, hook faults)
 * decomposed into elementary edges; mechanisms whose observable action
 * cannot be expressed on the elementary graph are kept as correlated
 * hyperedges (`DemHyperedge`) for the decoder's second stage instead of
 * being dropped.
 */
#ifndef TIQEC_SIM_DEM_H
#define TIQEC_SIM_DEM_H

#include <cstdint>
#include <vector>

#include "sim/noisy_circuit.h"

namespace tiqec::sim {

/** Observable masks (`DemEdge::obs_mask`, the decoder's predictions)
 *  are 32 bits wide, so a DEM tracks at most this many observables. */
inline constexpr int kMaxObservables = 32;

/** One decoding-graph edge. `d1 == kBoundary` marks a boundary edge. */
struct DemEdge
{
    static constexpr int kBoundary = -1;

    int d0 = 0;
    int d1 = kBoundary;
    /** Probability that this error mechanism fires. */
    double p = 0.0;
    /** Bitmask of logical observables the mechanism flips. */
    std::uint32_t obs_mask = 0;
};

/**
 * One structural decomposition of a correlated (multi-detector) error
 * mechanism: the mechanism's detector signature expressed as existing
 * graph edges (`edges`), together with the mechanism's true observable
 * action (`obs_mask`) and probability. When the XOR of the
 * decomposition edges' masks differs from `obs_mask`, a decoder that
 * realises exactly these edges mislabels the mechanism's logical
 * effect; the second decode stage in `decoder::UnionFindDecoder`
 * arbitrates per realised edge set between the independent-edges
 * interpretation and every mechanism entry sharing that set, and
 * re-applies the winner's residual action.
 *
 * One mechanism may admit several structural decompositions (the
 * peeling forest can realise any of them); each is stored as its own
 * entry, and entries of the same mechanism share a `mechanism` group id
 * so the decoder applies at most one interpretation per mechanism.
 */
struct DemHyperedge
{
    /** Sorted detector signature of the mechanism. */
    std::vector<int> dets;
    /** Decomposition: indices into `DetectorErrorModel::edges`. */
    std::vector<int> edges;
    /** Probability that this mechanism fires. */
    double p = 0.0;
    /** The mechanism's true observable action. */
    std::uint32_t obs_mask = 0;
    /** Mechanism group id; variants of one mechanism share it. */
    int mechanism = -1;
};

struct DetectorErrorModel
{
    int num_detectors = 0;
    int num_observables = 0;
    std::vector<DemEdge> edges;
    /** Correlated mechanisms kept beside the elementary graph (variants
     *  grouped by `DemHyperedge::mechanism`). */
    std::vector<DemHyperedge> hyperedges;

    // Extraction diagnostics.
    int num_components = 0;
    int num_decomposed = 0;   ///< components split into elementary edges
    /** Mechanism groups kept as hyperedges (observable action not
     *  expressible on the elementary graph; mass retained). */
    int num_hyperedges = 0;
    int num_undecomposable = 0;  ///< dropped (probability mass lost)
    /** Probability mass retained in `hyperedges` (sum over mechanism
     *  groups; conflicting parallel variants included). */
    double hyperedge_probability = 0.0;
    /** Probability mass of mechanisms dropped outright: detector-free
     *  observable flips and structurally unmatchable signatures. */
    double undecomposable_probability = 0.0;
    /** Probability mass of conflicting parallel-edge variants demoted to
     *  single-edge hyperedges: a lower bound on what the elementary
     *  graph alone must misjudge. */
    double dropped_probability = 0.0;
};

/** Extracts the DEM of `circuit` by exhaustive component propagation. */
DetectorErrorModel BuildDem(const NoisyCircuit& circuit);

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_DEM_H
