#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tiqec::common {

namespace {

std::string
Errno(const std::string& what, const std::string& path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

/**
 * Creates `<path>.tmp.<pid>.<n>` for writing and sets `*tmp` to its
 * name. O_EXCL makes the file this writer's alone: another writer of
 * the same path, in this process or another, gets a different name,
 * and a leftover of a crashed run is skipped, not reused. Mode 0666
 * leaves the permissions to the umask, as `fopen` does. Returns null
 * with errno set on failure.
 */
std::FILE*
CreateTempSibling(const std::string& path, std::string* tmp)
{
    static std::atomic<unsigned long> counter{0};
    const std::string prefix =
        path + ".tmp." + std::to_string(::getpid()) + ".";
    int fd = -1;
    do {
        *tmp = prefix + std::to_string(counter.fetch_add(1));
        fd = ::open(tmp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                    0666);
    } while (fd < 0 && errno == EEXIST);
    if (fd < 0) {
        return nullptr;
    }
    std::FILE* f = ::fdopen(fd, "wb");
    if (f == nullptr) {
        const int saved = errno;
        ::close(fd);
        std::remove(tmp->c_str());
        errno = saved;
    }
    return f;
}

}  // namespace

bool
AtomicWriteFile(const std::string& path, const std::string& content,
                std::string* error)
{
    // The temp file must live on the same filesystem as the target for
    // rename() to be atomic, so it is a sibling, not a /tmp file. It is
    // this writer's alone, so concurrent writers of one path cannot
    // truncate each other's file mid-write: every rename publishes one
    // writer's whole content, and the last rename wins.
    std::string tmp;
    std::FILE* f = CreateTempSibling(path, &tmp);
    if (f == nullptr) {
        if (error != nullptr) {
            *error = Errno("cannot create temp file for", path);
        }
        return false;
    }
    const size_t written = content.empty()
                               ? 0
                               : std::fwrite(content.data(), 1,
                                             content.size(), f);
    // fclose flushes buffered data; its result is where ENOSPC actually
    // surfaces, so it must be checked even after a successful fwrite.
    const bool closed = std::fclose(f) == 0;
    if (written != content.size() || !closed) {
        if (error != nullptr) {
            *error = Errno("short write to temp file", tmp);
        }
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr) {
            *error = Errno("cannot rename temp file over", path);
        }
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
ReadFile(const std::string& path, std::string* content, std::string* error)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (error != nullptr) {
            *error = Errno("cannot open", path);
        }
        return false;
    }
    content->clear();
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        content->append(buf, n);
    }
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) {
        if (error != nullptr) {
            *error = Errno("read error on", path);
        }
        return false;
    }
    return true;
}

}  // namespace tiqec::common
