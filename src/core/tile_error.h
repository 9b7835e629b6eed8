// Typed tile-read failures for the serving tier.
//
// Every fault-tolerant read path — BlockCache's guarded miss path, the
// CheckedTileReader underneath it, the QueryEngine's per-query degrade, the
// scrubber — speaks this one error type, so a caller can tell *why* a tile
// is unserveable and pick the right reaction from the DESIGN.md §13 matrix:
// retry (kTransient, before the reader gives up), quarantine + degrade
// (kCorrupt / kTransient after retries), answer-from-repair (either, when a
// repair source is configured), or reject (kShed, admission control).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/common.h"

namespace gapsp::core {

enum class TileFailure {
  kTransient,    ///< I/O kept failing through the whole retry budget
  kCorrupt,      ///< checksum/decode mismatch — persistent, retry is useless
  kQuarantined,  ///< tile already marked bad in the cache; load not attempted
  kShed,         ///< rejected by admission control, nothing was read
};

/// Raised by tile reads that cannot be served. Carries the tile coordinate
/// (in the read grid) so batch callers can fail exactly the queries that
/// touch it and leave sibling queries alone.
class TileError : public Error {
 public:
  TileError(TileFailure kind, vidx_t row_block, vidx_t col_block,
            const std::string& what)
      : Error(what), kind_(kind), row_block_(row_block),
        col_block_(col_block) {}

  TileFailure kind() const { return kind_; }
  vidx_t row_block() const { return row_block_; }
  vidx_t col_block() const { return col_block_; }

 private:
  TileFailure kind_;
  vidx_t row_block_;
  vidx_t col_block_;
};

/// On-demand tile re-derivation: returns the true row-major rows×cols
/// contents of the stored-coordinate rectangle at (row0, col0) — typically a
/// bounded SSSP recompute from the kept CSR (scrub.h::make_sssp_repair).
/// Must be thread-safe: the query engine calls it from pool workers.
using TileRepairFn = std::function<std::vector<dist_t>(
    vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols)>;

}  // namespace gapsp::core
