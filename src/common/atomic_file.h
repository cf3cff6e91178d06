/**
 * @file
 * Crash-safe whole-file writes: write to a temp sibling, flush, check
 * the close result, then rename over the target. An interrupted or
 * out-of-disk run leaves either the old file or no file — never a
 * truncated one that later fails parsing confusingly (the failure mode
 * `WriteBenchJson`'s bare fopen/"w" used to have, and one a persistent
 * artifact store cannot afford at all).
 */
#ifndef TIQEC_COMMON_ATOMIC_FILE_H
#define TIQEC_COMMON_ATOMIC_FILE_H

#include <string>

namespace tiqec::common {

/**
 * Atomically replaces `path` with `content`. Returns true on success;
 * on failure returns false with a message in `*error` (when non-null)
 * and leaves no temp file behind. Each call writes its own temp file,
 * so concurrent writers of one path, in one process or several, never
 * tear it: a reader sees one writer's whole content.
 */
bool AtomicWriteFile(const std::string& path, const std::string& content,
                     std::string* error = nullptr);

/** Reads a whole file. Returns false (with `*error`) if unreadable. */
bool ReadFile(const std::string& path, std::string* content,
              std::string* error = nullptr);

}  // namespace tiqec::common

#endif  // TIQEC_COMMON_ATOMIC_FILE_H
