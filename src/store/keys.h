/**
 * @file
 * Content-addressed keys for the on-disk artifact store (DESIGN.md §7).
 *
 * Keys are derived from content, never object identity, so they persist
 * across processes (the sweep's in-memory compile cache uses the same
 * strings). A key is the canonical *string* of the content the stage is
 * a pure function of — the full code
 * definition, the device graph (or the synthesis parameters), the
 * architecture knobs, and a toolchain fingerprint (compiler banner +
 * build type + source tree hash) so artifacts built by a different
 * binary never alias.
 *
 * The key string is hashed (FNV-1a 64) into the file name; the full
 * string is stored inside the artifact and compared on load, so a hash
 * collision or a stale file degrades to a cache miss, never to wrong
 * artifacts.
 */
#ifndef TIQEC_STORE_KEYS_H
#define TIQEC_STORE_KEYS_H

#include <cstdint>
#include <string>
#include <string_view>

#include "core/architecture.h"
#include "qccd/topology.h"
#include "qec/code.h"

namespace tiqec::store {

/** A fully-resolved store key: the canonical content string and the
 *  artifact kind ("compile" | "noise" | "sim" | "certificate") it
 *  addresses. */
struct StoreKey
{
    std::string kind;
    std::string canonical;

    /** `<fnv1a64-hex>.art` — the on-disk file name under `<root>/<kind>/`. */
    std::string FileName() const;
};

/** FNV-1a 64-bit hash (stable across platforms and runs). */
std::uint64_t Fnv1a64(std::string_view data);

/** Hash of the src/ tree captured at build time, or "unversioned" when
 *  the build did not generate one (editor/lint compiles). */
std::string SourceFingerprint();

/** Compiler banner + build type + source fingerprint: artifacts from a
 *  different binary must never alias (extends bench::ToolchainRecord's
 *  provenance discipline to the store). */
std::string ToolchainFingerprint();

/** Canonical content description of a code: name, distance, every qubit
 *  (role + layout coordinate), every check (ancilla, type, dance order),
 *  and the logical operator supports. */
std::string CodeFingerprint(const qec::StabilizerCode& code);

/** Canonical content description of a device graph: topology, capacity,
 *  nodes (kind, capacity, coordinate) and segments (endpoints). */
std::string DeviceFingerprint(const qccd::DeviceGraph& graph);

/**
 * Compile-stage key. Mirrors the sweep runner's in-memory CompileKey:
 * code + device override (or the (topology, capacity) synthesis inputs)
 * + wiring + compile_rounds, by content instead of identity.
 * `device` may be null (device synthesised via `MakeDeviceFor`).
 */
StoreKey CompileStoreKey(const qec::StabilizerCode& code,
                         const core::ArchitectureConfig& arch,
                         int compile_rounds,
                         const qccd::DeviceGraph* device);

/** Noise-stage key: compile key + gate-improvement scenario. */
StoreKey NoiseStoreKey(const StoreKey& compile_key, double gate_improvement);

/** Sim-stage key: noise key + experiment shape (rounds, basis as
 *  normalised by the sweep runner, workload). A program workload
 *  additionally passes the program's canonical text
 *  (`workloads::BoundProgram::canonical_text()`), appended as
 *  `|program={...}`; the default empty string keeps every non-program
 *  key byte-identical to the historical format. */
StoreKey SimStoreKey(const StoreKey& noise_key, int rounds, int basis,
                     int workload, const std::string& program_canonical = "");

/** Certificate key: sim key + the search weight the certifier applies,
 *  `analysis::SearchWeightFor` of its options (a distance certificate is
 *  a pure function of the DEM and that weight). */
StoreKey CertificateStoreKey(const StoreKey& sim_key, int max_search_weight);

}  // namespace tiqec::store

#endif  // TIQEC_STORE_KEYS_H
