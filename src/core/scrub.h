// Offline scrub & repair for kept distance stores.
//
// A serving fleet cannot wait for a query to trip over bit rot: the scrubber
// walks every tile of a kept store (raw + GAPSPSM1 sidecar, or GAPSPZ1 with
// its built-in frame checksums), reports damage, and — when given a repair
// source — rewrites the damaged tiles with recomputed truth. Exposed as
// `apsp_cli scrub`; see EXPERIMENTS.md for the walkthrough and DESIGN.md §13
// for where scrub sits in the failure-semantics matrix.
#pragma once

#include <string>
#include <vector>

#include "core/dist_store.h"
#include "core/tile_error.h"
#include "util/retry.h"

namespace gapsp::sim {
class FaultInjector;
}  // namespace gapsp::sim
namespace gapsp::graph {
class CsrGraph;
}  // namespace gapsp::graph

namespace gapsp::core {

struct ScrubOptions {
  /// Rewrite damaged tiles using `repair_fn` (required when set). Without
  /// it the scrub only detects and reports.
  bool repair = false;
  TileRepairFn repair_fn;
  util::RetryPolicy retry;
  sim::FaultInjector* faults = nullptr;
  /// Raw stores only: (re)compute and write the checksum sidecar after the
  /// scan — from current contents when the store is clean or repaired, so a
  /// legacy store without a sidecar gains one.
  bool write_sums = false;
  /// Tile size used when no sidecar/store tiling dictates one.
  vidx_t tile = kStoreTile;
};

struct DamagedTile {
  vidx_t row_block = 0;
  vidx_t col_block = 0;
  bool repaired = false;
  std::string reason;  ///< the read error, naming the tile once
};

struct ScrubReport {
  vidx_t n = 0;
  vidx_t tile = 0;
  long long tiles = 0;      ///< tiles scanned
  long long corrupt = 0;    ///< tiles that failed their integrity check
  long long repaired = 0;
  long long unrepaired = 0;
  bool compressed = false;    ///< GAPSPZ1 store (self-checksummed frames)
  bool sums_present = false;  ///< raw store had a sidecar before the scrub
  bool sums_written = false;  ///< sidecar (re)written by this scrub
  /// First damaged tiles, bounded so a fully-rotten store stays reportable.
  std::vector<DamagedTile> damaged;

  bool clean() const { return corrupt == 0; }
  /// True when serving from this store is safe: nothing broken, or
  /// everything broken was repaired.
  bool ok() const { return unrepaired == 0; }
};

/// Scrubs the store at `path`. A raw store without a sidecar can only be
/// checked for readability (and gains a sidecar when opt.write_sums);
/// corruption detection needs the sidecar or the GAPSPZ1 frame checksums.
/// Throws IoError/CorruptError only for store-level damage that prevents
/// the walk entirely (missing file, unreadable GAPSPZ1 directory).
ScrubReport scrub_store(const std::string& path, const ScrubOptions& opt);

/// Repair source that recomputes tiles by bounded SSSP over the kept CSR.
/// Thread-safe; each call runs its own Dijkstras. The graph is captured by
/// reference and must outlive the returned function.
TileRepairFn make_sssp_repair(const graph::CsrGraph& g);

}  // namespace gapsp::core
