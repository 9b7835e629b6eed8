// Block-compressed distance store ("GAPSPZ1") and its codec.
//
// The solved n×n matrix is the object the paper says we cannot afford to
// move: output bytes dominate both the disk footprint and the host I/O time
// of every out-of-core run. Road-like and kInf-dominated matrices are highly
// compressible (unreachable pairs are a single repeated 4-byte pattern), so
// the kept store is compressed — but only at the *sinks*. Blocked FW
// rewrites every tile O(n_d) times, so the solve loop keeps writing the raw
// FileStore; compression happens where bytes leave the hot loop for good:
// checkpoint sidecar payloads, the post-solve `--keep-store` compaction, and
// the read-only serving path (QueryEngine/BlockCache decompress tiles on the
// cache miss path). See DESIGN.md §11.
//
// File layout (same-machine binary, like the GAPSPCK1 sidecars):
//   ZHeader (64 bytes: magic "GAPSPZ1\0", n, tile, tiles_per_side,
//            payload_bytes, directory checksum)
//   directory: tiles_per_side² × {u64 offset, u64 bytes}, row-major tiles;
//              bytes == 0 marks an all-kInf tile with no stored payload
//   payload: concatenated z1 frames, one per non-empty tile
//
// Codec ("z1"): a hand-rolled LZ4-style byte stream — no new dependencies.
// The codec itself lives in core/z1_codec.h (shared with the compressed
// host↔device transfer path); this header re-exports it for existing users.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dist_store.h"
#include "core/z1_codec.h"
#include "util/common.h"
#include "util/file_io.h"

namespace gapsp::core {

// ---- GAPSPZ1 store ----

/// Outcome of one compaction, surfaced in ApspMetrics and the CLI summary.
struct StoreCompactionStats {
  std::uint64_t raw_bytes = 0;         ///< n² · sizeof(dist_t)
  std::uint64_t compressed_bytes = 0;  ///< whole output file, header included
  long long tiles = 0;
  long long inf_tiles = 0;  ///< all-kInf tiles stored as zero-length entries
  double seconds = 0.0;
  double ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes);
  }
};

/// Writes `src` to `out_path` as a GAPSPZ1 store with `tile`-sided tiles
/// (clamped to n; edge tiles are ragged), landed by util::atomic_replace.
StoreCompactionStats write_compressed_store(const DistStore& src,
                                            const std::string& out_path,
                                            vidx_t tile = 256);

/// Compacts the raw kept store at `raw_path` into a GAPSPZ1 store at
/// `out_path` (the same path compacts in place), then land_store(out_path).
/// A checked source (open_store) keeps its sidecar grid as the tile, so
/// every read is checked; `tile` applies without a `.sum`. Throws IoError
/// when `raw_path` is already compressed or is not a square dist_t matrix,
/// and CorruptError, landing nothing, on a damaged tile.
StoreCompactionStats compact_store(const std::string& raw_path,
                                   const std::string& out_path,
                                   vidx_t tile = 256);

/// True when the file at `path` starts with the GAPSPZ1 magic.
bool is_compressed_store(const std::string& path);

/// Header-level facts about a compressed store, without decompressing.
struct CompressedStoreInfo {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t raw_bytes = 0;
  long long tiles = 0;
  long long inf_tiles = 0;
};

/// Reads and validates the header+directory. Throws IoError on corruption.
CompressedStoreInfo compressed_store_info(const std::string& path);

/// One tile's frame location inside a GAPSPZ1 file (bytes == 0 marks an
/// all-kInf tile with no stored payload).
struct CompressedTileEntry {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// The validated geometry + tile directory of a GAPSPZ1 store, for tools
/// that relocate compressed frames without decompressing them (the
/// row-range shard slicer, core/shard_store.h). Throws IoError/CorruptError
/// exactly like open_compressed_store.
struct CompressedDirectory {
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tiles_per_side = 0;
  std::vector<CompressedTileEntry> entries;  ///< row-major tile grid
};
CompressedDirectory read_compressed_directory(const std::string& path);

/// Reads the `rows`×`cols` tile directory at byte `offset` of a GAPSPZ1
/// store or GAPSPSD1 shard (`format` names which in errors). Throws
/// CorruptError unless the entries fit in the file (checked before they are
/// allocated), hash to `checksum`, and each lies after the directory and
/// inside the file without wrapping.
std::vector<CompressedTileEntry> read_tile_directory(
    const util::File& file, const char* format, std::uint64_t rows,
    std::uint64_t cols, std::uint64_t offset, std::uint64_t checksum);

/// The read side of a file of z1 tile frames, shared by GAPSPZ1 stores and
/// z1 shard slices (core/shard_store.h) so both decode by one rule.
///
/// read_block may run concurrently with itself. A request covering a whole
/// tile — every cache miss is one — preads the frame into a buffer of the
/// calling thread and decodes it straight into the destination, with no
/// lock. Only reads
/// of part of a tile go through a one-tile memo behind its own mutex, so a
/// row sweep or an at() loop decodes each tile once. Every decode checks
/// the frame's size against the tile geometry and its content checksum.
class Z1TileGrid {
 public:
  /// `entries` holds the frames of the tile rows from `first_row_block` on
  /// of an n×n matrix cut into `tile`-sided tiles (edge tiles ragged),
  /// row-major, one entry per tile column. Offsets are absolute in `file`
  /// and must already be bounds-checked by the caller.
  Z1TileGrid(util::File file, vidx_t n, vidx_t tile, vidx_t first_row_block,
             std::vector<CompressedTileEntry> entries);

  /// Copies the block into dst (leading dimension dst_ld). The block must
  /// lie inside the grid's tile rows; callers check their own bounds.
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const;

  /// True when every tile the block overlaps is stored as all-kInf.
  bool known_inf(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols) const;

 private:
  const CompressedTileEntry& entry(vidx_t bi, vidx_t bj) const;
  /// Reads tile (bi, bj)'s frame into `frame` and decodes it into `out`,
  /// which holds the tile's `elems` elements row-major.
  void decode(vidx_t bi, vidx_t bj, std::vector<std::uint8_t>& frame,
              dist_t* out, std::size_t elems) const;

  util::File file_;
  vidx_t n_;
  vidx_t tile_;
  vidx_t tiles_per_side_;
  vidx_t first_row_block_;
  std::vector<CompressedTileEntry> entries_;
  mutable std::mutex memo_mu_;
  mutable std::vector<dist_t> memo_;     ///< guarded by memo_mu_
  mutable std::int64_t memo_tile_ = -1;  ///< guarded by memo_mu_; -1 = none
};

/// Opens a GAPSPZ1 store read-only. read_block decompresses the overlapped
/// tiles (all-kInf tiles are synthesized from the directory without I/O) and
/// may run concurrently (see Z1TileGrid); write_block throws IoError.
/// tile_size() reports the stored tiling so caches can align to it, and
/// block_known_inf() answers from the directory alone.
std::unique_ptr<DistStore> open_compressed_store(const std::string& path);

enum class StoreFormat { kRaw, kRawChecked, kCompressed };

/// The one open path for a kept store: GAPSPZ1 or raw, wrapped in a
/// CheckedStore whenever `<path>.sum` exists; `format` reports which.
/// Throws CorruptError for a sidecar that fails its self-check, Error for
/// one of another n, IoError for a shard slice or an unreadable file.
std::unique_ptr<DistStore> open_store(const std::string& path,
                                      StoreFormat* format = nullptr);

}  // namespace gapsp::core
