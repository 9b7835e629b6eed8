// Checksum sidecar for raw (uncompressed) distance stores.
//
// A raw FileStore is n² little-endian dist_t values with no framing, so a
// flipped bit on disk silently becomes a wrong answer. The sidecar
// (`<store>.sum`, magic GAPSPSM1) records one FNV-1a checksum per
// tile×tile block of the store; the serving tier verifies each tile on the
// BlockCache miss path (core/tile_reader.h) and the scrubber
// (core/scrub.h) uses it to locate damage offline. GAPSPZ1 compressed
// stores already carry per-frame checksums and need no sidecar.
//
// Layout (little-endian):
//   bytes  0..7   magic "GAPSPSM1"
//   bytes  8..15  i64 n            (store dimension)
//   bytes 16..23  i64 tile         (checksum tile size)
//   bytes 24..31  i64 tiles_per_side
//   bytes 32..39  u64 fnv1a over the sums array bytes (self-check)
//   bytes 40..63  reserved, zero
//   then tiles_per_side² u64 tile checksums, row-major over the tile grid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.h"

namespace gapsp::core {

class DistStore;

/// In-memory sidecar contents. Default-constructed = "no sidecar present";
/// readers then skip verification rather than failing.
struct StoreChecksums {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::vector<std::uint64_t> sums;  ///< row-major tile grid

  bool present() const { return tile > 0 && !sums.empty(); }

  std::uint64_t tile_sum(vidx_t bi, vidx_t bj) const {
    return sums[static_cast<std::size_t>(bi) * tiles_per_side + bj];
  }
};

/// Checksum of one tile's row-major payload (FNV-1a over the raw bytes).
std::uint64_t tile_checksum(const dist_t* data, std::size_t elems);

/// `<store_path>.sum` — the sidecar lives next to the store it covers.
std::string checksum_sidecar_path(const std::string& store_path);

/// Reads every tile of `store` and computes the full checksum grid.
StoreChecksums compute_store_checksums(DistStore& store, vidx_t tile = 256);

/// Writes the sidecar, landed by util::atomic_replace. Throws IoError on
/// failure.
void write_store_checksums(const StoreChecksums& sums, const std::string& path);

/// Loads a sidecar. Returns false (leaving `out` absent) when the file is
/// missing; throws CorruptError when the file exists but fails its own
/// self-check, and IoError on read failures.
bool load_store_checksums(const std::string& path, StoreChecksums& out);

}  // namespace gapsp::core
