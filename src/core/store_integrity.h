// Checksum sidecar for raw (uncompressed) distance stores.
//
// A raw FileStore is n² little-endian dist_t values with no framing, so a
// flipped bit on disk silently becomes a wrong answer. The sidecar
// (`<store>.sum`, magic GAPSPSM1) records one FNV-1a checksum per
// tile×tile block of the store; core::open_store reads a raw store that has
// one through a CheckedStore, so every consumer reads it checked. GAPSPZ1
// compressed stores already carry per-frame checksums and need no sidecar.
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
#include <memory>
#include <string>
#include <vector>

#include "core/dist_store.h"
#include "util/common.h"

namespace gapsp::core {

/// In-memory sidecar contents. Default-constructed = "no sidecar present".
struct StoreChecksums {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::vector<std::uint64_t> sums;  ///< row-major tile grid

  bool present() const { return tile > 0 && !sums.empty(); }
};

/// `<store_path>.sum` — the sidecar lives next to the store it covers.
std::string checksum_sidecar_path(const std::string& store_path);

/// Reads every tile of `store` and computes the full checksum grid.
StoreChecksums compute_store_checksums(const DistStore& store,
                                       vidx_t tile = kStoreTile);

/// Writes the sidecar, landed by util::atomic_replace. Throws IoError on
/// failure.
void write_store_checksums(const StoreChecksums& sums, const std::string& path);

/// Loads a sidecar. Returns false (leaving `out` absent) when the file is
/// missing; throws CorruptError when the file exists but fails its own
/// self-check, and IoError on read failures.
bool load_store_checksums(const std::string& path, StoreChecksums& out);

/// A raw store read through its sidecar, the one verifier of raw bytes.
/// read_block reads the base once, then hashes in place every sidecar tile
/// the rectangle covers whole, throwing CorruptError that names the tile
/// and the store on a mismatch; a read inside one tile passes unchecked.
/// tile_size() is the sidecar grid. Read-only; reads may run concurrently.
class CheckedStore final : public DistStore {
 public:
  /// A view over `base`, which must outlive it; `name` is the store's path.
  /// Throws Error when `sums` covers another n.
  CheckedStore(const DistStore& base, StoreChecksums sums, std::string name);
  /// The same, owning its base (core::open_store's form).
  CheckedStore(std::unique_ptr<const DistStore> base, StoreChecksums sums,
               std::string name);

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("checked store " + name_ + " is read-only");
  }
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override;
  vidx_t tile_size() const override { return sums_.tile; }

 private:
  std::unique_ptr<const DistStore> owned_;  ///< null for a view
  const DistStore& base_;
  StoreChecksums sums_;
  std::string name_;
};

/// DESIGN.md §16's sidecar matrix, applied after new bytes land at `path`:
/// the shard manifest and slices go; a raw store gets a fresh `.sum` on a
/// `sum_tile` grid (none named: a stale one goes); a GAPSPZ1 store loses
/// its `.sum`. `.cal` stays, and `.updck` is the update engine's.
void land_store(const std::string& path, vidx_t sum_tile = 0);

}  // namespace gapsp::core
