/**
 * @file
 * Content-addressed on-disk artifact store (DESIGN.md §7): persists the
 * three sweep-cache artifact levels — compile bundle, noise profile,
 * experiment + DEM — and the DEM's distance certificate across
 * processes, so every bench driver, CI job, and service request sharing
 * one store directory compiles and certifies each unique candidate once
 * ever, not once per process.
 *
 * Contracts:
 *  - Keys are canonical content strings (store/keys.h); the full string
 *    is stored in the artifact and compared on load, so hash collisions
 *    and stale files degrade to misses, never to wrong artifacts.
 *  - Every loaded artifact is validated before use — the compile bundle
 *    through `analysis::ValidateCompiledArtifacts`, the sim bundle
 *    through `analysis::ValidateSimArtifacts`, the noise profile
 *    against the compile artifacts' shapes, the certificate's witnesses
 *    against the DEM — so a corrupt or tampered
 *    file isolates the candidate with a diagnostic (kCorrupt) exactly
 *    like a compile error, instead of poisoning results or crashing.
 *  - Writes are atomic (a per-writer temp file + checked close +
 *    rename): concurrent writers of the same key, in one process or
 *    several sharing the directory, each publish a whole artifact and
 *    the last rename wins, so readers never observe a torn or truncated
 *    artifact.
 *  - Only successful artifacts are stored; failures always re-run.
 */
#ifndef TIQEC_STORE_ARTIFACT_STORE_H
#define TIQEC_STORE_ARTIFACT_STORE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "analysis/distance_certifier.h"
#include "core/pipeline.h"
#include "noise/annotator.h"
#include "store/keys.h"

namespace tiqec::store {

/** Outcome of a load probe. */
enum class LoadStatus
{
    kMiss,    ///< no artifact for this key (or key-string mismatch)
    kHit,     ///< artifact loaded and validated
    kCorrupt  ///< artifact present but unparseable or validator-rejected
};

class ArtifactStore
{
  public:
    /** Opens (and lazily creates) the store rooted at `root`. */
    explicit ArtifactStore(std::string root);

    const std::string& root() const { return root_; }

    /**
     * Loads and reconstructs a compile bundle. The stored payload is the
     * stage's *outputs that are not cheap pure functions of the inputs*
     * (schedule CSV, placement, partition, routing scalars); the QEC and
     * native circuits and the device graph are re-derived from `code` /
     * `arch` / `device` by the same pure builders the compiler uses.
     * On kHit `*arts` is a successful, validator-clean bundle; on
     * kCorrupt `*error` carries the parse error or the formatted
     * validator diagnostics. `routing.ops` is not persisted (no
     * post-compile consumer; the timed schedule is the artifact).
     */
    LoadStatus LoadCompile(const StoreKey& key,
                           const qec::StabilizerCode& code,
                           const core::ArchitectureConfig& arch,
                           int compile_rounds,
                           const qccd::DeviceGraph* device,
                           core::CompileArtifacts* arts,
                           std::string* error) const;

    /** Persists a successful compile bundle. Failed bundles are
     *  rejected (returns false without writing). */
    bool StoreCompile(const StoreKey& key,
                      const core::CompileArtifacts& arts,
                      std::string* error = nullptr) const;

    /**
     * Loads a noise profile. `expected_gates` / `expected_qubits` are
     * the shapes the profile must match (QEC-IR gate count and qubit
     * count of the compile bundle it annotates); a mismatch is kCorrupt.
     */
    LoadStatus LoadNoise(const StoreKey& key, size_t expected_gates,
                         size_t expected_qubits,
                         noise::RoundNoiseProfile* profile,
                         std::string* error) const;

    bool StoreNoise(const StoreKey& key,
                    const noise::RoundNoiseProfile& profile,
                    std::string* error = nullptr) const;

    /** Loads an experiment + DEM bundle; runs the sim validators on the
     *  loaded pair before reporting kHit. */
    LoadStatus LoadSim(const StoreKey& key, core::SimArtifacts* arts,
                       std::string* error) const;

    bool StoreSim(const StoreKey& key, const core::SimArtifacts& arts,
                  std::string* error = nullptr) const;

    /**
     * Loads the distance certificate of `dem` (see `CertificateStoreKey`).
     * The payload is the search verdict — `searched_weight`,
     * `graph_like`, and per observable `{found, distance, exact,
     * witness}` — plus a digest of the DEM it certified; `mechanisms` is
     * re-derived from `dem`. kCorrupt when the payload does not parse,
     * the digest differs from `dem`'s, or a witness does not re-verify as
     * a zero-syndrome, observable-flipping mechanism set of the recorded
     * size. The exhaustive lower-bound search (no lighter witness exists)
     * is the one claim a load trusts.
     */
    LoadStatus LoadCertificate(const StoreKey& key,
                               const sim::DetectorErrorModel& dem,
                               analysis::DistanceCertificate* certificate,
                               std::string* error) const;

    /** Persists the certificate `CertifyDistance` computed for `dem`,
     *  whatever its verdict: judging it is the caller's job. */
    bool StoreCertificate(const StoreKey& key,
                          const sim::DetectorErrorModel& dem,
                          const analysis::DistanceCertificate& certificate,
                          std::string* error = nullptr) const;

    /** Monotonic probe/write counters (thread-safe snapshot). */
    struct Counters
    {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t corrupt = 0;
        std::int64_t writes = 0;
        /** Loads that ran the artifact validators before being served
         *  (the validate-on-load contract; a warm sweep reports these
         *  as its re-check count). */
        std::int64_t validated = 0;
    };
    Counters counters() const;

    /** Full path an artifact for `key` would occupy (tests, tooling). */
    std::string PathFor(const StoreKey& key) const;

    /** Removes the artifact for `key`, if any, so the next probe misses
     *  and recomputes it. A load never removes what it rejects; the
     *  runner discards each artifact it found corrupt. */
    void Discard(const StoreKey& key) const;

  private:
    LoadStatus ReadPayload(const StoreKey& key, std::string* payload,
                           std::string* error) const;
    bool WritePayload(const StoreKey& key, const std::string& payload,
                      std::string* error) const;
    LoadStatus Count(LoadStatus status) const;

    std::string root_;
    mutable std::atomic<std::int64_t> hits_{0};
    mutable std::atomic<std::int64_t> misses_{0};
    mutable std::atomic<std::int64_t> corrupt_{0};
    mutable std::atomic<std::int64_t> writes_{0};
    mutable std::atomic<std::int64_t> validated_{0};
};

}  // namespace tiqec::store

#endif  // TIQEC_STORE_ARTIFACT_STORE_H
