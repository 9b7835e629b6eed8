// Row-range sharding of a solved distance store ("GAPSPSH1").
//
// One logical n×n matrix is too big for one process to serve at fleet
// scale: one QueryEngine means one block cache budget, one file descriptor,
// one failure domain. Sharding splits the kept store into row-range slices
// — shard K owns stored rows [row_begin, row_end) across all columns — so a
// router can put an independent engine (or a whole worker process,
// service/shard_router.h) in front of each slice. Row ranges align to the
// tile grid, so routing a query is one comparison on its stored row and a
// cache tile never straddles two shards.
//
// Both kept-store formats slice:
//   raw      — a shard file is a contiguous byte range of the row-major
//              matrix (rows are already adjacent on disk);
//   GAPSPZ1  — every tile has an independent directory entry, so a shard is
//              just a directory slice: the compressed frames are copied
//              verbatim, never recompressed.
//
// On-disk layout (same-machine binary, little-endian, like GAPSPCK1/Z1/SM1):
//
//   manifest `<store>.shards` (magic GAPSPSH1):
//     64-byte header: magic, i64 n, i64 tile, i64 num_shards,
//                     u64 flags (bit0 = compressed payloads),
//                     u64 fnv1a over the entry array, 8 reserved bytes
//     entries: num_shards × {i64 row_begin, i64 row_end, u64 bytes,
//                            u64 checksum}   (checksum = fnv1a over the
//                            whole shard file; bytes = its exact size)
//
//   shard file `<store>.shard.K` (magic GAPSPSD1):
//     64-byte header: magic, i64 n, i64 tile, i64 row_begin, i64 row_end,
//                     u64 flags (bit0 = compressed), u64 dir_checksum,
//                     8 reserved bytes
//     raw payload:  (row_end−row_begin)·n dist_t, row-major
//     z1 payload:   row_blocks×col_blocks × {u64 offset, u64 bytes}
//                   directory (bytes == 0 ⇒ all-kInf tile), then the z1
//                   frames; dir_checksum covers the directory array
//
// See DESIGN.md §15 for the serving architecture this feeds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dist_store.h"
#include "util/common.h"

namespace gapsp::core {

/// One shard's row range plus the integrity facts the manifest pins.
struct ShardRange {
  vidx_t row_begin = 0;  ///< first stored row owned by the shard
  vidx_t row_end = 0;    ///< one past the last owned row
  std::uint64_t bytes = 0;     ///< exact shard file size
  std::uint64_t checksum = 0;  ///< fnv1a over the whole shard file
};

/// In-memory manifest. Default-constructed = "not sharded".
struct ShardManifest {
  vidx_t n = 0;
  vidx_t tile = 0;  ///< routing granularity; every row range aligns to it
  bool compressed = false;  ///< shard payloads are z1 tile frames, not rows
  std::vector<ShardRange> shards;

  int num_shards() const { return static_cast<int>(shards.size()); }
  bool present() const { return n > 0 && !shards.empty(); }

  /// Shard owning `stored_row`, or -1 when the row is outside [0, n).
  /// Shards are contiguous and sorted, so this is a binary search.
  int shard_of_row(vidx_t stored_row) const;
};

/// `<store_path>.shards` — the manifest lives next to the store it slices.
std::string shard_manifest_path(const std::string& store_path);

/// `<store_path>.shard.K` — shard files live next to the store too.
std::string shard_file_path(const std::string& store_path, int shard);

/// Outcome of one sharding pass, for CLI/bench reporting.
struct ShardingStats {
  int shards = 0;
  bool compressed = false;
  std::uint64_t bytes_written = 0;  ///< shard files + manifest
  double seconds = 0.0;
};

/// Slices the kept store at `store_path` (raw or GAPSPZ1, auto-detected)
/// into `num_shards` row-range shard files plus a manifest, all next to the
/// store. Row ranges are balanced in whole tile rows with the remainder
/// spread over the leading shards (the last shard may be ragged). The store
/// opens through core::open_store, so a `.sum` checks every tile a raw
/// slice copies. All files are written before any lands, so a failed pass
/// leaves the previous ones intact and nothing new. Throws Error when
/// num_shards exceeds the tile row count (an empty shard could never serve
/// a query), IoError/CorruptError on store damage. Returns the written
/// manifest.
ShardManifest shard_store_file(const std::string& store_path, int num_shards,
                               vidx_t tile = 256, ShardingStats* stats = nullptr);

/// True when the file at `path` starts with the GAPSPSD1 shard-slice magic.
bool is_shard_slice(const std::string& path);

/// Loads the manifest at `path`. Returns false (leaving `out` absent) when
/// the file is missing; throws CorruptError when it exists but fails its
/// self-checks, IoError on read failure.
bool load_shard_manifest(const std::string& path, ShardManifest& out);

/// Opens shard `k` of the sharded store as a read-only DistStore of the
/// *full* dimension n whose readable rows are exactly the shard's range:
/// read_block outside [row_begin, row_end) throws IoError — a routing bug
/// must surface as a typed error, never as a silently-synthesized kInf.
/// tile_size() reports the manifest tile for both payload formats so the
/// query engine's cache grid aligns to shard boundaries. With `verify` set
/// the shard file is checksummed against the manifest before serving and a
/// mismatch throws CorruptError.
std::unique_ptr<DistStore> open_shard_slice(const std::string& store_path,
                                            const ShardManifest& manifest,
                                            int k, bool verify = true);

}  // namespace gapsp::core
