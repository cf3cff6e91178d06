/**
 * @file
 * Byte-stable text serialization for `DetectorErrorModel`, including the
 * correlated-hyperedge variants and the extraction diagnostics added in
 * the hyperedge-decoding work. The format follows the `schedule_io`
 * discipline: exact doubles via std::to_chars (serialize -> parse ->
 * re-serialize is byte-identical), strict field counts, CRLF-tolerant
 * line handling, and parse failures reported as error strings rather
 * than exceptions so the artifact store can isolate a corrupt file like
 * a compile error.
 */
#ifndef TIQEC_SIM_DEM_IO_H
#define TIQEC_SIM_DEM_IO_H

#include <string>
#include <string_view>

#include "sim/dem.h"

namespace tiqec::sim {

/** Serializes `dem` to the `tiqec-dem v1` text format. */
std::string FormatDem(const DetectorErrorModel& dem);

/**
 * Parses text produced by `FormatDem`. Returns true on success; on
 * failure returns false with a diagnostic in `*error` and leaves `*dem`
 * unspecified.
 */
bool ParseDem(std::string_view text, DetectorErrorModel* dem,
              std::string* error);

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_DEM_IO_H
