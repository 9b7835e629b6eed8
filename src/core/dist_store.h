// Host-side storage for the n×n output distance matrix — the object that is
// orders of magnitude larger than the input and drives the whole paper.
//
// Two backends: RAM (output fits in host memory, Table III graphs) and a
// file-backed store (output exceeds host memory, Table IV / Fig. 5 graphs).
// All out-of-core algorithms stream block writes into this interface.
//
// Concurrency contract, for every backend: read_block may run concurrently
// with itself (the file-backed formats read through positional I/O, with no
// shared stream position), and write_block may not run concurrently with
// anything — neither another write nor a read.
#pragma once

#include <memory>
#include <string>

#include "util/common.h"

namespace gapsp::core {

class DistStore {
 public:
  virtual ~DistStore() = default;

  vidx_t n() const { return n_; }

  /// Writes a rows×cols block whose top-left corner is (row0, col0) from
  /// `src` with leading dimension `src_ld` (elements, not bytes).
  virtual void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                           const dist_t* src, std::size_t src_ld) = 0;

  /// Reads a block into `dst` with leading dimension `dst_ld`. Every
  /// backend writes every element of the rows×cols rectangle or throws, so
  /// callers may read into recycled buffers without clearing them (the
  /// serving cache's miss buffers, core/block_cache.h); what a read that
  /// threw left in `dst` is unspecified.
  virtual void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                          dist_t* dst, std::size_t dst_ld) const = 0;

  /// Single-element convenience (slow path, for queries and tests).
  dist_t at(vidx_t u, vidx_t v) const;

  /// The grid readers align to (0 = untiled): the stored tiling of a
  /// GAPSPZ1 store or shard slice, or a checked raw store's sidecar grid,
  /// which verifies whole tiles only (core/store_integrity.h).
  virtual vidx_t tile_size() const { return 0; }

  /// True when the backend can prove, without reading data, that every
  /// element of the block is kInf (the compressed store's directory marks
  /// all-kInf tiles). False only means "unknown" — callers still scan.
  virtual bool block_known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                               vidx_t cols) const {
    check_block(row0, col0, rows, cols);
    return false;
  }

  /// The durability boundary for checkpointed writers: a checkpoint must not
  /// claim a tile complete before this returns. No backend buffers writes in
  /// userspace (the file-backed ones write positionally straight to the
  /// kernel), so this is a no-op today; it is where an fsync would go.
  virtual void flush() {}

 protected:
  explicit DistStore(vidx_t n) : n_(n) {
    GAPSP_CHECK(n >= 0, "negative matrix dimension");
  }
  void check_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols) const;

 private:
  vidx_t n_;
};

/// In-memory store: a single row-major n×n buffer.
std::unique_ptr<DistStore> make_ram_store(vidx_t n);

/// File-backed store at `path` (created/truncated, n²·sizeof(dist_t) bytes,
/// row-major). Used when the output exceeds the host RAM budget. By default
/// the file is removed when the store is destroyed; pass keep_file=true to
/// leave the raw matrix on disk.
std::unique_ptr<DistStore> make_file_store(vidx_t n, const std::string& path,
                                           bool keep_file = false);

/// Opens an existing kept store file read-only for serving queries (the
/// query service's entry point; see src/service/). The dimension is inferred
/// from the file size, which must be exactly n²·sizeof(dist_t) for integer
/// n. Throws IoError when the file is missing or not a square matrix;
/// write_block on the returned store throws IoError. The file is never
/// removed on destruction.
std::unique_ptr<DistStore> open_file_store(const std::string& path);

// open_store(path) — the one open path for a kept store, raw (checked when
// it has a `.sum`) or GAPSPZ1 — lives in compressed_store.h.

}  // namespace gapsp::core
