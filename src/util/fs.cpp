#include "util/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace nada::util {

namespace fs = std::filesystem;

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
  // "Missing" is decided by the failed open's own errno. Asking a second
  // existence query afterwards would race a writer whose atomic rename
  // lands between the two calls and misreport a present file as an error.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) return std::nullopt;
    throw std::runtime_error("read_file: cannot open " + path + ": " +
                             std::generic_category().message(err));
  }
  std::string content;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n > 0) {
      content.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("read_file: read failed for " + path + ": " +
                               std::generic_category().message(err));
    }
  }
  ::close(fd);
  return content;
}

std::string read_file(const std::string& path) {
  auto content = read_file_if_exists(path);
  if (!content.has_value()) {
    throw std::runtime_error("read_file: no such file " + path);
  }
  return *std::move(content);
}

ssize_t read_at(int fd, char* buf, std::size_t n, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

void write_file_atomic(const std::string& path, const std::string& content) {
  ensure_directories(parent_directory(path));
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("write_file_atomic: write failed for " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("write_file_atomic: rename to " + path +
                             " failed: " + ec.message());
  }
}

void ensure_directories(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("ensure_directories: cannot create " + path +
                             ": " + ec.message());
  }
}

std::string parent_directory(const std::string& path) {
  return fs::path(path).parent_path().string();
}

}  // namespace nada::util
