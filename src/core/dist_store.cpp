#include "core/dist_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "util/file_io.h"

namespace gapsp::core {

void DistStore::check_block(vidx_t row0, vidx_t col0, vidx_t rows,
                            vidx_t cols) const {
  GAPSP_CHECK(row0 >= 0 && col0 >= 0 && rows >= 0 && cols >= 0 &&
                  row0 + rows <= n_ && col0 + cols <= n_,
              "block out of bounds");
}

dist_t DistStore::at(vidx_t u, vidx_t v) const {
  dist_t d = kInf;
  read_block(u, v, 1, 1, &d, 1);
  return d;
}

namespace {

class RamStore final : public DistStore {
 public:
  explicit RamStore(vidx_t n)
      : DistStore(n),
        data_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf) {}

  void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                   const dist_t* src, std::size_t src_ld) override {
    check_block(row0, col0, rows, cols);
    for (vidx_t r = 0; r < rows; ++r) {
      std::copy_n(src + static_cast<std::size_t>(r) * src_ld, cols,
                  data_.data() + row_offset(row0 + r) + col0);
    }
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    for (vidx_t r = 0; r < rows; ++r) {
      std::copy_n(data_.data() + row_offset(row0 + r) + col0, cols,
                  dst + static_cast<std::size_t>(r) * dst_ld);
    }
  }

 private:
  std::size_t row_offset(vidx_t r) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(n());
  }
  std::vector<dist_t> data_;
};

/// File-backed store over positional reads and writes. Rows are contiguous
/// on disk; unwritten regions read back as kInf via an initialization pass
/// at construction. Every transfer names its own offset, so reads carry no
/// shared stream state and may run concurrently; a write that comes back
/// short surfaces as a typed IoError — the distance matrix is the product
/// of hours of simulated work, so a full disk must not masquerade as
/// success.
class FileStore final : public DistStore {
 public:
  /// Read-only store over an already-opened existing matrix.
  FileStore(vidx_t n, util::File file)
      : DistStore(n), file_(std::move(file)), keep_file_(true),
        read_only_(true) {}

  FileStore(vidx_t n, const std::string& path, bool keep_file)
      : DistStore(n),
        file_(open_or_create(n, path, keep_file)),
        keep_file_(keep_file) {}

  ~FileStore() override {
    if (!keep_file_) std::remove(file_.path().c_str());
  }

  void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                   const dist_t* src, std::size_t src_ld) override {
    check_block(row0, col0, rows, cols);
    if (read_only_) {
      throw IoError("dist store " + file_.path() + " is opened read-only");
    }
    // Full-width multi-row blocks are one contiguous span on disk when the
    // source rows are packed too: a single write instead of a per-row loop.
    if (cols == n() && src_ld == static_cast<std::size_t>(cols)) {
      file_.pwrite_exact(src, span_bytes(rows, cols), offset(row0, 0));
      return;
    }
    for (vidx_t r = 0; r < rows; ++r) {
      file_.pwrite_exact(src + static_cast<std::size_t>(r) * src_ld,
                         span_bytes(1, cols), offset(row0 + r, col0));
    }
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    // Row-contiguous fast path: full-width rows packed in the destination
    // read back as one span (the query service's block loads and the CLI's
    // row queries land here).
    if (cols == n() && dst_ld == static_cast<std::size_t>(cols)) {
      file_.pread_exact(dst, span_bytes(rows, cols), offset(row0, 0));
      return;
    }
    for (vidx_t r = 0; r < rows; ++r) {
      file_.pread_exact(dst + static_cast<std::size_t>(r) * dst_ld,
                        span_bytes(1, cols), offset(row0 + r, col0));
    }
  }

 private:
  /// Adopts an existing file of exactly the right size instead of
  /// truncating: the store is the durable state of a checkpointed run, so
  /// resuming across processes must see the rounds the dead run completed.
  /// (Safe for fresh runs too — every algorithm fully overwrites the region
  /// it reads back.) Anything else is recreated and pre-filled with kInf.
  static util::File open_or_create(vidx_t n, const std::string& path,
                                   bool keep_file) {
    const std::uint64_t expected = static_cast<std::uint64_t>(n) *
                                   static_cast<std::uint64_t>(n) *
                                   sizeof(dist_t);
    if (auto existing = util::File::open_if_present(path, O_RDWR);
        existing && existing->size() == expected) {
      return std::move(*existing);
    }
    util::File file(path, O_RDWR | O_CREAT | O_TRUNC);
    try {
      // Pre-fill with kInf in bounded chunks of whole rows.
      const std::uint64_t row_bytes =
          static_cast<std::uint64_t>(n) * sizeof(dist_t);
      const vidx_t chunk_rows = static_cast<vidx_t>(std::clamp<std::uint64_t>(
          (std::uint64_t{1} << 20) / std::max<std::uint64_t>(row_bytes, 1), 1,
          static_cast<std::uint64_t>(std::max<vidx_t>(n, 1))));
      const std::vector<dist_t> fill(
          static_cast<std::size_t>(chunk_rows) * static_cast<std::size_t>(n),
          kInf);
      for (vidx_t r = 0; r < n; r += chunk_rows) {
        const vidx_t rows = std::min<vidx_t>(chunk_rows, n - r);
        file.pwrite_exact(fill.data(), static_cast<std::size_t>(rows) * row_bytes,
                          static_cast<std::uint64_t>(r) * row_bytes);
      }
    } catch (...) {
      // The destructor will not run for a throwing constructor: scrub the
      // partial file here, unless the caller owns the path.
      if (!keep_file) std::remove(path.c_str());
      throw;
    }
    return file;
  }

  std::uint64_t offset(vidx_t row, vidx_t col) const {
    return (static_cast<std::uint64_t>(row) * static_cast<std::uint64_t>(n()) +
            static_cast<std::uint64_t>(col)) *
           sizeof(dist_t);
  }
  static std::size_t span_bytes(vidx_t rows, vidx_t cols) {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
           sizeof(dist_t);
  }

  util::File file_;
  bool keep_file_ = false;
  bool read_only_ = false;
};

}  // namespace

std::unique_ptr<DistStore> make_ram_store(vidx_t n) {
  return std::make_unique<RamStore>(n);
}

std::unique_ptr<DistStore> make_file_store(vidx_t n, const std::string& path,
                                           bool keep_file) {
  return std::make_unique<FileStore>(n, path, keep_file);
}

std::unique_ptr<DistStore> open_file_store(const std::string& path) {
  util::File file(path, O_RDONLY);
  const std::uint64_t bytes = file.size();
  const std::uint64_t elems = bytes / sizeof(dist_t);
  const auto n = static_cast<vidx_t>(std::llround(std::sqrt(
      static_cast<double>(elems))));
  if (bytes == 0 || bytes % sizeof(dist_t) != 0 ||
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) != elems) {
    throw IoError("file " + path + " is not a square dist_t matrix (" +
                  std::to_string(bytes) + " bytes)");
  }
  return std::make_unique<FileStore>(n, std::move(file));
}

}  // namespace gapsp::core
