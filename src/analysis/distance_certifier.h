/**
 * @file
 * Static fault-distance certifier (DESIGN.md §6.5): finds the
 * minimum-weight undetectable logical error of a detector error model —
 * a set of error mechanisms whose detector symptoms cancel under GF(2)
 * XOR (hyperedge mechanisms included) but whose combined observable
 * action is nonzero — and reports the per-observable effective distance
 * with the witness mechanism set.
 *
 * Algorithm (deterministic; see DESIGN.md §6.5 for the full argument):
 *
 *  1. Graphlike search. Every mechanism with <= 2 detectors is an edge
 *     of a multigraph over detectors plus one boundary vertex. For each
 *     observable the graph is doubled into observable-parity layers and
 *     a BFS from every `(vertex, even)` to its `(vertex, odd)` twin
 *     yields the shortest odd-parity closed walk — which XOR-reduces to
 *     a minimum-weight graphlike undetectable logical error. Exact over
 *     all graphlike subsets at any weight.
 *  2. Meet-in-the-middle sweep. All mechanisms (correlated hyperedge
 *     groups included) are searched exhaustively for witnesses up to
 *     `searched_weight`: right halves (single mechanisms and
 *     detector-sharing pairs) are indexed by syndrome, left halves
 *     (singles and arbitrary pairs) stream against the index, and an
 *     A*-style lower bound — remaining budget times the maximum
 *     mechanism degree must cover the open syndrome — prunes states
 *     that can no longer cancel. Any minimal witness of weight w <= 4
 *     splits into such halves (a zero-syndrome set always contains a
 *     detector-sharing pair), so the sweep is exhaustive below
 *     `searched_weight + 1`.
 *
 * The reported distance is the minimum of both searches; it is `exact`
 * when every smaller weight was covered (always the case for the
 * d = 3 / d = 5 acceptance workloads, and for purely graphlike models
 * at any distance).
 */
#ifndef TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H
#define TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "sim/dem.h"

namespace tiqec::analysis {

/** One DEM error mechanism viewed as a GF(2) symptom/observable vector:
 *  an elementary edge or one correlated hyperedge mechanism group. */
struct DemMechanism
{
    /** Sorted detector signature (boundary edges contribute one). */
    std::vector<int> dets;
    std::uint32_t obs_mask = 0;
    /** True for a hyperedge mechanism group; false for an edge. */
    bool hyperedge = false;
    /** Edge index, or the hyperedge mechanism group id. */
    int index = 0;
};

/** Effective distance of one observable. */
struct ObservableDistance
{
    int observable = 0;
    /** An undetectable logical error was found within the search bound. */
    bool found = false;
    /** Its minimum weight (mechanism count); valid when `found`. */
    int distance = 0;
    /** Every weight below `distance` was searched exhaustively, so
     *  `distance` is the true effective distance (when `found`) or a
     *  certified lower bound of `searched_weight + 1` (when not). */
    bool exact = false;
    /** Indices into `DistanceCertificate::mechanisms` of one
     *  minimum-weight witness, ascending; empty when not found. */
    std::vector<int> witness;
};

struct DistanceCertificate
{
    /** Flattened mechanism list the witnesses index into: all elementary
     *  edges in order, then one entry per hyperedge mechanism group. */
    std::vector<DemMechanism> mechanisms;
    std::vector<ObservableDistance> observables;
    /** Exhaustive meet-in-the-middle bound actually applied. */
    int searched_weight = 0;
    /** Every mechanism has <= 2 detectors: the graphlike search alone is
     *  exact at any weight. */
    bool graph_like = false;
};

/** Largest exhaustive meet-in-the-middle witness weight (the half-split
 *  argument covers weight 4). */
inline constexpr int kMaxSearchWeight = 4;

struct DistanceCertifierOptions
{
    /** Cap on the exhaustive meet-in-the-middle witness weight, clamped
     *  to [2, kMaxSearchWeight]; the graphlike search is never capped. */
    int max_search_weight = kMaxSearchWeight;
};

/** Flattens `dem` into the mechanism list certificates index into: every
 *  elementary edge in order, then one entry per hyperedge mechanism
 *  group (variants of one mechanism share detector signature and
 *  observable action, so the first variant represents the group). */
std::vector<DemMechanism> CollectMechanisms(
    const sim::DetectorErrorModel& dem);

/** Certifies the per-observable effective distance of `dem`. */
DistanceCertificate CertifyDistance(
    const sim::DetectorErrorModel& dem,
    const DistanceCertifierOptions& options = {});

/** Renders a witness as "mechanism set {edge 3, hyperedge 12}" style
 *  text for diagnostics and reports. */
std::string FormatWitness(const DistanceCertificate& certificate,
                          const std::vector<int>& witness);

/**
 * The judging half of the `dem.distance` rule: reports an error for
 * every observable of `certificate` (a certificate of `dem`, computed or
 * loaded from the artifact store) whose effective distance is below
 * `expected_distance` (the witness mechanism set is spelled out in the
 * message), for models whose dropped/undecomposable mechanisms make
 * certification unsound, and for observables whose distance could not
 * be certified up to `expected_distance` within the search bound.
 */
std::vector<Diagnostic> JudgeDistance(const sim::DetectorErrorModel& dem,
                                      const DistanceCertificate& certificate,
                                      int expected_distance);

/**
 * The `dem.distance` rule: `CertifyDistance` then `JudgeDistance`. When
 * `certificate` is non-null the full certificate is copied out.
 */
std::vector<Diagnostic> CheckDistance(
    const sim::DetectorErrorModel& dem, int expected_distance,
    const DistanceCertifierOptions& options = {},
    DistanceCertificate* certificate = nullptr);

}  // namespace tiqec::analysis

#endif  // TIQEC_ANALYSIS_DISTANCE_CERTIFIER_H
