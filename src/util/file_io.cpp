#include "util/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

#include "util/common.h"

namespace gapsp::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  const int err = errno;  // read before the string building can clobber it
  throw IoError(what + " " + path + ": " + std::strerror(err));
}

/// off_t is signed: reject ranges whose end it cannot represent instead of
/// letting the conversion wrap to a negative offset.
off_t to_off(std::uint64_t offset, std::size_t bytes, const std::string& path) {
  constexpr auto kMax = static_cast<std::uint64_t>(
      std::numeric_limits<off_t>::max());
  if (offset > kMax || bytes > kMax - offset) {
    throw IoError("file range past the largest offset in " + path + " (" +
                  std::to_string(offset) + " + " + std::to_string(bytes) +
                  " bytes)");
  }
  return static_cast<off_t>(offset);
}

int open_fd(const std::string& path, int flags, mode_t mode) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags | O_CLOEXEC, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

}  // namespace

File::File(std::string path, int flags, mode_t mode) : path_(std::move(path)) {
  fd_ = open_fd(path_, flags, mode);
  if (fd_ < 0) fail("cannot open", path_);
}

std::optional<File> File::open_if_present(std::string path, int flags) {
  File file(std::move(path));
  file.fd_ = open_fd(file.path_, flags, 0);
  if (file.fd_ >= 0) return file;
  if (errno == ENOENT) return std::nullopt;
  fail("cannot open", file.path_);
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

std::uint64_t File::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("cannot stat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::pread_exact(void* dst, std::size_t bytes,
                       std::uint64_t offset) const {
  off_t off = to_off(offset, bytes, path_);
  auto* out = static_cast<char*>(dst);
  while (bytes > 0) {
    const ssize_t got = ::pread(fd_, out, bytes, off);
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("read failed in", path_);
    }
    if (got == 0) {
      throw IoError("short read from " + path_ + ": file ends before byte " +
                    std::to_string(static_cast<std::uint64_t>(off) + bytes));
    }
    out += got;
    off += got;
    bytes -= static_cast<std::size_t>(got);
  }
}

void File::pwrite_exact(const void* src, std::size_t bytes,
                        std::uint64_t offset) {
  off_t off = to_off(offset, bytes, path_);
  const auto* in = static_cast<const char*>(src);
  while (bytes > 0) {
    const ssize_t put = ::pwrite(fd_, in, bytes, off);
    if (put < 0) {
      if (errno == EINTR) continue;
      fail("write failed in", path_);
    }
    if (put == 0) throw IoError("short write to " + path_);
    in += put;
    off += put;
    bytes -= static_cast<std::size_t>(put);
  }
}

bool has_magic(const std::string& path, const char (&magic)[8]) {
  const auto file = File::open_if_present(path);
  char head[8] = {};
  if (!file || file->size() < sizeof(head)) return false;
  file->pread_exact(head, sizeof(head), 0);
  return std::memcmp(head, magic, sizeof(head)) == 0;
}

void commit_rename(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) == 0) return;
  const int err = errno;  // std::remove below may overwrite it
  std::remove(tmp.c_str());
  throw IoError("cannot rename " + tmp + " to " + path + ": " +
                std::strerror(err));
}

std::string write_tmp(const std::string& path,
                      const std::function<void(File&)>& write_fn) {
  std::string tmp = path + ".tmp";
  try {
    File file(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    write_fn(file);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  return tmp;
}

void atomic_replace(const std::string& path,
                    const std::function<void(File&)>& write_fn) {
  commit_rename(write_tmp(path, write_fn), path);
}

}  // namespace gapsp::util
