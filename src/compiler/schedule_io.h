/**
 * @file
 * The schedule CSV: the text in which an artifact store compile bundle
 * keeps its timed instruction stream (store/artifact_store.h), one row
 * per op. Doubles are written in shortest exact (round-trippable) form,
 * so serialise -> parse -> re-serialise is byte-stable and parsing
 * loses no timing information.
 */
#ifndef TIQEC_COMPILER_SCHEDULE_IO_H
#define TIQEC_COMPILER_SCHEDULE_IO_H

#include <string>
#include <string_view>

#include "compiler/schedule.h"

namespace tiqec::compiler {

/**
 * The CSV text: a header and one row per operation,
 * `index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,source_gate`.
 * (`duration_us` rather than the derived end time: the stored field
 * round-trips exactly, where `end - start` need not in floating point.)
 */
std::string ScheduleCsv(const Schedule& schedule);

/**
 * Parses the `ScheduleCsv` format back into a schedule. Aggregate
 * stats (makespan, movement ops/time) are recomputed from the parsed
 * ops and `num_passes` from the pass column; the QEC-IR `source_gate`
 * link round-trips via the last column, so a parsed schedule can be
 * re-annotated (the artifact store depends on this). CRLF input is
 * accepted and blank lines are skipped. Fields are views into `csv`,
 * and error text is built only when a check fails.
 *
 * @throws std::invalid_argument on a malformed header or row (a wrong
 *   field count, an out-of-order index, a pass outside
 *   [0, INT32_MAX)), a bad or non-finite field, or an unknown op kind;
 *   the offending line is quoted.
 */
Schedule ParseScheduleCsv(std::string_view csv);

}  // namespace tiqec::compiler

#endif  // TIQEC_COMPILER_SCHEDULE_IO_H
