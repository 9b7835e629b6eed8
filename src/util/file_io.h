// Positional file I/O and the landing protocol: the one place the on-disk
// formats touch a file descriptor, and the one place a file is renamed.
//
// Every transfer names its own 64-bit offset (pread/pwrite), so an open
// File carries no seek position and no userspace buffer. Concurrent readers
// of one File therefore need no lock, and a completed pwrite_exact is
// already in the kernel's page cache: there is nothing left to flush.
//
// Landing protocol. Every file that replaces an earlier version of itself
// (checkpoints, sidecars, compacted stores, shard files and manifests)
// lands through atomic_replace: the new bytes go to `path + ".tmp"`,
// commit_rename renames the finished tmp over `path`, and a throw or a
// failed rename removes the tmp. A reader sees the previous file or the new
// one, and a failed write leaves the previous file intact with no tmp
// behind. This survives a killed process, not power loss: nothing calls
// fsync yet, and commit_rename is where it goes (fsync the tmp, rename,
// then fsync the directory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include <fcntl.h>

namespace gapsp::util {

/// An open file descriptor plus the path it was opened from, closed on
/// destruction. Every failure throws IoError naming the path.
class File {
 public:
  /// open(2) with `flags` (O_CLOEXEC is always added); `mode` applies when
  /// O_CREAT creates the file. Throws IoError when the open fails.
  File(std::string path, int flags, mode_t mode = 0644);
  ~File();

  /// Like the constructor, but a path that does not exist yields nothing
  /// instead of throwing: the probe for optional files (sidecars,
  /// checkpoints). Any other open failure still throws IoError.
  static std::optional<File> open_if_present(std::string path,
                                             int flags = O_RDONLY);

  File(File&& other) noexcept;
  File& operator=(File&&) = delete;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  const std::string& path() const { return path_; }

  /// Current size in bytes (fstat).
  std::uint64_t size() const;

  /// Reads exactly `bytes` at `offset` into `dst`, looping on short reads
  /// and EINTR. Reaching end of file first throws IoError.
  void pread_exact(void* dst, std::size_t bytes, std::uint64_t offset) const;

  /// Writes exactly `bytes` from `src` at `offset`, looping on short writes
  /// and EINTR.
  void pwrite_exact(const void* src, std::size_t bytes, std::uint64_t offset);

 private:
  explicit File(std::string path) : path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// True when the file at `path` exists and starts with the 8-byte `magic`:
/// the format sniff of every framed file (stores, slices, sidecars).
bool has_magic(const std::string& path, const char (&magic)[8]);

/// Renames the finished `tmp` over `path`; a failure removes `tmp` and
/// throws IoError. `apsp_cli update` lands its long-lived copy with it.
void commit_rename(const std::string& tmp, const std::string& path);

/// The write step: `write_fn` fills a fresh `path + ".tmp"`, whose name is
/// returned for commit_rename; a throw removes it. Files that land as one
/// (shard slices and their manifest) write every tmp before any rename.
std::string write_tmp(const std::string& path,
                      const std::function<void(File&)>& write_fn);

/// Lands `path` by the protocol above: write_tmp, then commit_rename.
void atomic_replace(const std::string& path,
                    const std::function<void(File&)>& write_fn);

}  // namespace gapsp::util
