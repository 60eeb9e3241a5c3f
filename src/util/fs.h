// Filesystem helpers for the persistent stores: whole-file reads, atomic
// replacement writes (write to a sibling temp file, then rename), and the
// small existence/creation queries the store layer needs. All paths are
// UTF-8 narrow strings, as everywhere else in the codebase.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace nada::util {

/// True if `path` names an existing regular file.
[[nodiscard]] bool file_exists(const std::string& path);

/// Reads a whole file; std::nullopt when the file does not exist (open(2)
/// fails with ENOENT or ENOTDIR). Throws std::runtime_error on any other
/// failure, including a path that names a directory.
[[nodiscard]] std::optional<std::string> read_file_if_exists(
    const std::string& path);

/// Reads a whole file; throws std::runtime_error when missing/unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// pread()s `n` bytes of `fd` at `offset` into `buf`, retrying short reads
/// and EINTR: the bytes read (fewer only at end of file), or -1 on error.
[[nodiscard]] ssize_t read_at(int fd, char* buf, std::size_t n,
                              std::uint64_t offset);

/// Atomically replaces `path` with `content`: the bytes land in
/// `path + ".tmp"` first and are renamed over the target, so readers never
/// observe a half-written file.
void write_file_atomic(const std::string& path, const std::string& content);

/// Creates every missing directory on `path` (no-op when it exists).
void ensure_directories(const std::string& path);

/// The directory portion of `path` ("" when there is none).
[[nodiscard]] std::string parent_directory(const std::string& path);

}  // namespace nada::util
