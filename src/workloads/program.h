/**
 * @file
 * Logical-program IR over a multi-patch lattice-surgery fabric
 * (DESIGN.md §5.4, ROADMAP item 1): a program is a named sequence of
 * logical operations — prepare / idle / merge / split / measure — over
 * a row of named surface-code patches, plus declared logical
 * observables. Executing a program stitches the already-compiled
 * *split* (single patch) and *merged* (double patch) round circuits
 * into one noisy circuit whose detectors telescope across every merge
 * boundary (the §5.3 boundary discipline), so a whole program flows
 * through the unchanged DEM / sampler / decoder / certifier stack.
 *
 * Text grammar (one instruction per line; '#' starts a comment):
 *
 *   program <name>
 *   patches <p0> <p1> ...          # fabric order, left to right
 *   prepare <patch> <z|x>
 *   idle <rounds>
 *   merge <a> <b> <xx|zz>          # fabric-adjacent patches
 *   split
 *   measure <patch> <z|x>
 *   observable <name> <term>...    # term: merge:<k> | measure:<patch>
 *
 * An `observable` term `merge:<k>` is the k-th merge's measured joint
 * parity (the product of its round-0 joint-check outcomes, exactly the
 * surgery workload's observable 0); `measure:<patch>` is the logical
 * readout of that patch's final transversal measurement (the parity of
 * a logical representative of the measured basis). Teleported Pauli
 * corrections are expressed by summing terms: the CNOT program's frame
 * observable is `merge:0 measure:a measure:t`.
 *
 * Structural validation (`CheckProgram`) reports through the
 * `analysis::Diagnostic` machinery under the new `program.*` rule ids
 * via `analysis::ValidateProgram`; `BoundProgram::Bind` refuses invalid
 * programs. Binding fixes the patch distance, lays the fabric out on a
 * global qubit strip, and derives the per-phase qubit maps the
 * executor (`BoundProgram::Build`) stitches with.
 */
#ifndef TIQEC_WORKLOADS_PROGRAM_H
#define TIQEC_WORKLOADS_PROGRAM_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "noise/annotator.h"
#include "noise/noise_model.h"
#include "qec/code.h"
#include "qec/surgery.h"
#include "sim/noisy_circuit.h"
#include "workloads/experiment.h"

namespace tiqec::workloads {

/** One logical operation of a program. */
struct ProgramOp
{
    enum class Kind : std::uint8_t
    {
        kPrepare,
        kIdle,
        kMerge,
        kSplit,
        kMeasure,
    };

    Kind kind = Kind::kPrepare;
    /** Patch index (prepare/measure), or the merge pair (merge). */
    int patch_a = -1;
    int patch_b = -1;
    /** Preparation / readout basis (prepare/measure). */
    sim::MemoryBasis basis = sim::MemoryBasis::kZ;
    /** Measured joint parity (merge). */
    qec::SurgeryParity parity = qec::SurgeryParity::kXX;
    /** Stabilizer rounds (idle). Merges run the candidate's `rounds`. */
    int rounds = -1;
};

/** One term of a declared logical observable. */
struct ObservableTerm
{
    enum class Kind : std::uint8_t
    {
        kMerge,    ///< `index` = merge ordinal (order of merge ops)
        kMeasure,  ///< `index` = patch index
    };

    Kind kind = Kind::kMerge;
    int index = -1;
};

struct ProgramObservable
{
    std::string name;
    std::vector<ObservableTerm> terms;
};

/** A parsed logical program (pure IR; nothing laid out yet). */
struct LogicalProgram
{
    std::string name;
    /** Patch names in fabric order (left to right on the strip). */
    std::vector<std::string> patches;
    std::vector<ProgramOp> ops;
    std::vector<ProgramObservable> observables;
};

/** Index of `patch` in `program.patches`, or -1. */
int PatchIndex(const LogicalProgram& program, const std::string& patch);

/** Parses the text grammar above. Throws std::invalid_argument with
 *  "program parse: line N: ..." on malformed input. */
LogicalProgram ParseProgram(const std::string& text);

/** Canonical text form. `ParseProgram(FormatProgram(p))` reproduces `p`
 *  and `FormatProgram` of the reparse is byte-identical (the round-trip
 *  stability the store's sim-key extension depends on). */
std::string FormatProgram(const LogicalProgram& program);

/** One structural-validation finding. `rule` is the dotted `program.*`
 *  rule id (spelled here so workloads does not depend on analysis;
 *  analysis::ValidateProgram adapts these into Diagnostics and the
 *  mutation battery pins the spelling against the registry). */
struct ProgramIssue
{
    std::string rule;
    std::string location;
    std::string message;
};

/**
 * Structural validation: patch table sanity (program.patch), liveness
 * (program.liveness), merge adjacency (program.adjacency), merge
 * open/close bracketing (program.merge_state), observable references
 * (program.observable), observable determinism under stabilizer flow
 * (program.basis), and — when `distance >= 0` — distance legality
 * (program.distance: odd, >= 3). Returns every finding; empty means
 * the program binds.
 */
std::vector<ProgramIssue> CheckProgram(const LogicalProgram& program,
                                       int distance = -1);

/** Names of the canonical shipped programs ("single_merge", "cnot",
 *  "bell"). */
const std::vector<std::string>& CanonicalProgramNames();

/** Returns a canonical program by name; throws std::invalid_argument
 *  ("unknown program ...") for anything else. */
LogicalProgram CanonicalProgram(const std::string& name);

/**
 * A validated program bound to a patch distance and laid out on the
 * global fabric strip: `m` patches of distance `d` side by side with
 * one data-qubit seam column between neighbours, i.e. exactly
 * `qec::RectangularSurfaceCode(m*(d+1)-1, d)`. For a two-patch fabric
 * the strip *is* the merged double patch, which is what makes the
 * single-merge program instruction-identical to the surgery workload.
 *
 * Binding derives the distinct *phase codes* the program's rounds need
 * — the standalone patch and/or the merged double patches — which the
 * caller compiles and annotates as ordinary candidates (they share the
 * compile/noise caches by key), then hands back to `Build` to stitch.
 */
class BoundProgram
{
  public:
    /** Validates and binds. Throws std::invalid_argument carrying the
     *  first issue as "program validation failed: [rule] location:
     *  message" when `CheckProgram(program, distance)` is non-empty. */
    static std::shared_ptr<const BoundProgram> Bind(LogicalProgram program,
                                                    int distance);

    const LogicalProgram& program() const { return program_; }
    int distance() const { return distance_; }
    const std::string& name() const { return program_.name; }
    /** Canonical text (`FormatProgram`); the store's sim-key extension
     *  embeds this so program artifacts are content-addressed. */
    const std::string& canonical_text() const { return canonical_; }

    /** The distinct codes whose compiled rounds the program stitches,
     *  in fixed order: standalone patch (if any op runs single-patch
     *  rounds), merged XX (if any XX merge), merged ZZ (if any ZZ
     *  merge). */
    const std::vector<std::shared_ptr<const qec::StabilizerCode>>&
    phase_codes() const
    {
        return phase_codes_;
    }
    /** Index into `phase_codes()` of the primary code — the first
     *  merge's merged patch (or the standalone patch for a merge-free
     *  program). A program candidate's `code` must be this object. */
    int primary_index() const { return primary_index_; }
    const qec::StabilizerCode* primary_code() const
    {
        return phase_codes_[static_cast<size_t>(primary_index_)].get();
    }

    /** Global fabric strip (the built circuit's qubit space). */
    const qec::RectangularSurfaceCode& layout() const { return *layout_; }
    int num_qubits() const { return layout_->num_qubits(); }
    int num_observables() const
    {
        return static_cast<int>(program_.observables.size());
    }

    /** All strip data-qubit ids, sorted (the validator's tracked set). */
    const std::vector<int>& fabric_data_qubits() const
    {
        return fabric_data_;
    }
    /** Strip data ids of every seam column, sorted (the validator's
     *  allowed-unreferenced set: a program that splits and never runs
     *  another round leaves its seam readout unreferenced, exactly like
     *  the surgery workload). */
    const std::vector<int>& seam_data_qubits() const { return seam_data_; }

    /** One compiled+annotated phase, aligned with `phase_codes()`. */
    struct PhaseCircuit
    {
        const circuit::Circuit* round_circuit = nullptr;
        const noise::RoundNoiseProfile* profile = nullptr;
    };

    /**
     * Stitches the program into one noisy circuit over the fabric
     * strip. Each merge runs `rounds` merged rounds; concurrently-live
     * bystander patches run standalone rounds in the same global round.
     * Detector discipline (DESIGN.md §5.4): per check slot, a detector
     * telescopes the new outcome against the slot's pending record set;
     * a slot with no pending history anchors a round-0 detector only if
     * its whole support was freshly prepared in the check's basis; the
     * split folds the seam's conjugate readout into the widened checks'
     * pending sets so their time axes close across the seam.
     */
    sim::NoisyCircuit Build(const std::vector<PhaseCircuit>& phases,
                            const noise::NoiseParams& params,
                            int rounds) const;

  private:
    BoundProgram() = default;

    /** Per-phase-instance qubit map: phase-code qubit id -> strip id. */
    using QubitMap = std::vector<int>;

    QubitMap MapPatchAt(int position) const;
    QubitMap MapMergedAt(const qec::MergedPatchCode& merged,
                         int left_position) const;
    int GlobalAt(double x, double y) const;

    LogicalProgram program_;
    int distance_ = 0;
    std::string canonical_;
    std::shared_ptr<const qec::RectangularSurfaceCode> layout_;
    std::vector<std::shared_ptr<const qec::StabilizerCode>> phase_codes_;
    int primary_index_ = 0;
    /** phase_codes_ ordinals; -1 = unused. */
    int patch_phase_ = -1;
    int xx_phase_ = -1;
    int zz_phase_ = -1;
    /** Strip coord -> qubit id (doubled integer coords). */
    std::map<std::pair<std::int64_t, std::int64_t>, int> coord_id_;
    /** Patch position -> qubit map (only when patch_phase_ >= 0). */
    std::vector<QubitMap> patch_maps_;
    /** (left position, parity ordinal) -> merged-phase qubit map. */
    std::map<std::pair<int, int>, QubitMap> merge_maps_;
    std::vector<int> fabric_data_;
    std::vector<int> seam_data_;
    /** Per fabric position: sorted strip ids of that patch's data. */
    std::vector<std::vector<int>> patch_data_;
    /** Per seam (left position): strip ids of the seam column, by row. */
    std::vector<std::vector<int>> seam_columns_;
    /** Per patch index: basis of its measure op (set during bind). */
    std::vector<int> measure_basis_;

    /** Logical representative of `patch`'s `basis` logical on the
     *  strip, ascending ids (the `measure:` observable support). */
    std::vector<int> LogicalSupport(int patch, sim::MemoryBasis basis) const;

    friend struct BoundProgramBuilder;
};

}  // namespace tiqec::workloads

#endif  // TIQEC_WORKLOADS_PROGRAM_H
