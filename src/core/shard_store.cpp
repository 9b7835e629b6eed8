#include "core/shard_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "core/compressed_store.h"
#include "core/z1_codec.h"
#include "util/file_io.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

constexpr char kManifestMagic[8] = {'G', 'A', 'P', 'S', 'P', 'S', 'H', '1'};
constexpr char kShardMagic[8] = {'G', 'A', 'P', 'S', 'P', 'S', 'D', '1'};
constexpr std::uint64_t kFlagCompressed = 1;

struct ManifestHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t num_shards;
  std::uint64_t flags;
  std::uint64_t dir_checksum;  ///< fnv1a over the entry array
  std::uint64_t reserved[2];
};
static_assert(sizeof(ManifestHeader) == 64, "GAPSPSH1 header layout drifted");

struct ManifestEntry {
  std::int64_t row_begin;
  std::int64_t row_end;
  std::uint64_t bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(ManifestEntry) == 32, "GAPSPSH1 entry layout drifted");

struct ShardHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t row_begin;
  std::int64_t row_end;
  std::uint64_t flags;
  std::uint64_t dir_checksum;  ///< z1 payload: fnv1a over the directory; raw: 0
  std::uint64_t reserved;
};
static_assert(sizeof(ShardHeader) == 64, "GAPSPSD1 header layout drifted");

/// {absolute shard-file offset of the frame, bytes}; bytes == 0 marks an
/// all-kInf tile with nothing stored.
using SliceDirEntry = CompressedTileEntry;
static_assert(sizeof(SliceDirEntry) == 16, "GAPSPSD1 directory layout drifted");

/// Streams the whole file through fnv1a. Also reports the size.
std::uint64_t checksum_file(const std::string& path, std::uint64_t& bytes_out) {
  const util::File file(path, O_RDONLY);
  const std::uint64_t total = file.size();
  std::vector<std::uint8_t> buf(1u << 20);
  std::uint64_t sum = util::fnv1a(nullptr, 0);
  for (std::uint64_t off = 0; off < total;) {
    const auto got = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), total - off));
    file.pread_exact(buf.data(), got, off);
    sum = util::fnv1a(buf.data(), got, sum);
    off += got;
  }
  bytes_out = total;
  return sum;
}

/// Balanced row ranges: B tile rows split as evenly as whole tiles allow,
/// remainder tiles going to the leading shards. The last shard's range is
/// ragged when tile does not divide n.
std::vector<ShardRange> split_rows(vidx_t n, vidx_t tile, int num_shards) {
  const long long blocks = (static_cast<long long>(n) + tile - 1) / tile;
  GAPSP_CHECK(num_shards >= 1, "need at least one shard");
  GAPSP_CHECK(num_shards <= blocks,
              "more shards than tile rows: " + std::to_string(num_shards) +
                  " shards over " + std::to_string(blocks) +
                  " tile rows of " + std::to_string(tile));
  const long long base = blocks / num_shards;
  const long long rem = blocks % num_shards;
  std::vector<ShardRange> out(static_cast<std::size_t>(num_shards));
  long long cursor = 0;
  for (int i = 0; i < num_shards; ++i) {
    const long long take = base + (i < rem ? 1 : 0);
    out[static_cast<std::size_t>(i)].row_begin =
        static_cast<vidx_t>(cursor * tile);
    cursor += take;
    out[static_cast<std::size_t>(i)].row_end = static_cast<vidx_t>(
        std::min<long long>(n, cursor * tile));
  }
  return out;
}

/// Writes one raw shard file: header + the source's rows [row_begin,
/// row_end), read in whole strips of the store's tile, else `tile`, so a
/// checked store verifies every tile (each shard reads a shared strip).
void write_raw_shard(const DistStore& src, util::File& file, vidx_t tile,
                     const ShardRange& r) {
  ShardHeader h{};
  std::memcpy(h.magic, kShardMagic, sizeof(kShardMagic));
  h.n = src.n();
  h.tile = tile;
  h.row_begin = r.row_begin;
  h.row_end = r.row_end;

  const vidx_t n = src.n();
  const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(dist_t);
  const vidx_t strip = std::min(src.tile_size() > 0 ? src.tile_size() : tile, n);
  std::vector<dist_t> buf(static_cast<std::size_t>(strip) * n);
  file.pwrite_exact(&h, sizeof(h), 0);
  for (vidx_t s0 = r.row_begin - r.row_begin % strip; s0 < r.row_end;
       s0 += strip) {
    const vidx_t s1 = std::min<vidx_t>(s0 + strip, n);
    src.read_block(s0, 0, s1 - s0, n, buf.data(), static_cast<std::size_t>(n));
    const vidx_t w0 = std::max(s0, r.row_begin);
    const vidx_t w1 = std::min(s1, r.row_end);
    file.pwrite_exact(
        buf.data() + static_cast<std::size_t>(w0 - s0) * n,
        static_cast<std::size_t>(w1 - w0) * row_bytes,
        sizeof(h) + static_cast<std::uint64_t>(w0 - r.row_begin) * row_bytes);
  }
}

/// Writes one GAPSPZ1-sliced shard file: the source directory rows for the
/// shard's tile rows with offsets rebased, then the frames copied verbatim.
void write_z1_shard(const util::File& src, const CompressedDirectory& dir,
                    util::File& file, const ShardRange& r) {
  const vidx_t tps = dir.tiles_per_side;
  const vidx_t bb0 = r.row_begin / dir.tile;
  const vidx_t bb1 = (r.row_end + dir.tile - 1) / dir.tile;
  const std::size_t entries =
      static_cast<std::size_t>(bb1 - bb0) * static_cast<std::size_t>(tps);
  const CompressedTileEntry* source =
      dir.entries.data() + static_cast<std::size_t>(bb0) * tps;

  std::vector<SliceDirEntry> slice(entries);
  std::uint64_t cursor = sizeof(ShardHeader) + entries * sizeof(SliceDirEntry);
  for (std::size_t i = 0; i < entries; ++i) {
    slice[i].bytes = source[i].bytes;
    slice[i].offset = source[i].bytes == 0 ? 0 : cursor;
    cursor += source[i].bytes;
  }

  ShardHeader h{};
  std::memcpy(h.magic, kShardMagic, sizeof(kShardMagic));
  h.n = dir.n;
  h.tile = dir.tile;
  h.row_begin = r.row_begin;
  h.row_end = r.row_end;
  h.flags = kFlagCompressed;
  h.dir_checksum = util::fnv1a(slice.data(), entries * sizeof(SliceDirEntry));
  file.pwrite_exact(&h, sizeof(h), 0);
  file.pwrite_exact(slice.data(), entries * sizeof(SliceDirEntry), sizeof(h));
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < entries; ++i) {
    if (source[i].bytes == 0) continue;
    frame.resize(static_cast<std::size_t>(source[i].bytes));
    src.pread_exact(frame.data(), frame.size(), source[i].offset);
    file.pwrite_exact(frame.data(), frame.size(), slice[i].offset);
  }
}

void write_manifest(util::File& file, const ShardManifest& m) {
  std::vector<ManifestEntry> entries(m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    entries[i].row_begin = m.shards[i].row_begin;
    entries[i].row_end = m.shards[i].row_end;
    entries[i].bytes = m.shards[i].bytes;
    entries[i].checksum = m.shards[i].checksum;
  }
  ManifestHeader h{};
  std::memcpy(h.magic, kManifestMagic, sizeof(kManifestMagic));
  h.n = m.n;
  h.tile = m.tile;
  h.num_shards = m.num_shards();
  h.flags = m.compressed ? kFlagCompressed : 0;
  h.dir_checksum =
      util::fnv1a(entries.data(), entries.size() * sizeof(ManifestEntry));
  file.pwrite_exact(&h, sizeof(h), 0);
  file.pwrite_exact(entries.data(), entries.size() * sizeof(ManifestEntry),
                    sizeof(h));
}

/// Read-only DistStore over one shard file. Full dimension n; rows outside
/// the shard's range throw IoError so routing bugs surface typed. Both
/// payload formats report the manifest tile as tile_size() — the serving
/// cache grid must align to shard boundaries, and a raw slice reporting 0
/// would let the engine pick a block size that straddles them. Reads may
/// run concurrently: raw rows are positional reads, and z1 tiles decode
/// through the same Z1TileGrid as a GAPSPZ1 store.
class ShardSliceStore final : public DistStore {
 public:
  /// Raw payload: owned rows follow the header.
  ShardSliceStore(util::File raw, vidx_t n, vidx_t tile, vidx_t row_begin,
                  vidx_t row_end)
      : DistStore(n),
        path_(raw.path()),
        tile_(tile),
        row_begin_(row_begin),
        row_end_(row_end),
        raw_(std::move(raw)) {}

  /// z1 payload: the slice directory covers the owned tile rows.
  ShardSliceStore(util::File file, vidx_t n, vidx_t tile, vidx_t row_begin,
                  vidx_t row_end, std::vector<SliceDirEntry> dir)
      : DistStore(n),
        path_(file.path()),
        tile_(tile),
        row_begin_(row_begin),
        row_end_(row_end),
        z1_(std::in_place, std::move(file), n, tile, row_begin / tile,
            std::move(dir)) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError(path_ + ": shard slices are read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    if (rows == 0 || cols == 0) return;
    check_owned(row0, rows);
    if (z1_) {
      z1_->read_block(row0, col0, rows, cols, dst, dst_ld);
    } else {
      read_raw(row0, col0, rows, cols, dst, dst_ld);
    }
  }

  vidx_t tile_size() const override { return tile_; }

  bool block_known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                       vidx_t cols) const override {
    check_block(row0, col0, rows, cols);
    if (!z1_ || rows == 0 || cols == 0) return false;
    if (row0 < row_begin_ || row0 + rows > row_end_) return false;
    return z1_->known_inf(row0, col0, rows, cols);
  }

 private:
  void check_owned(vidx_t row0, vidx_t rows) const {
    if (row0 < row_begin_ || row0 + rows > row_end_) {
      throw IoError(path_ + ": rows [" + std::to_string(row0) + ", " +
                    std::to_string(row0 + rows) + ") outside shard rows [" +
                    std::to_string(row_begin_) + ", " +
                    std::to_string(row_end_) +
                    ") — route the query to the owning shard");
    }
  }

  void read_raw(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                dist_t* dst, std::size_t dst_ld) const {
    const std::uint64_t row_bytes =
        static_cast<std::uint64_t>(n()) * sizeof(dist_t);
    const auto offset = [&](vidx_t row, vidx_t col) {
      return sizeof(ShardHeader) +
             static_cast<std::uint64_t>(row - row_begin_) * row_bytes +
             static_cast<std::uint64_t>(col) * sizeof(dist_t);
    };
    if (cols == n() && dst_ld == static_cast<std::size_t>(cols)) {
      raw_->pread_exact(
          dst, static_cast<std::size_t>(rows) * cols * sizeof(dist_t),
          offset(row0, 0));
      return;
    }
    for (vidx_t r = 0; r < rows; ++r) {
      raw_->pread_exact(dst + static_cast<std::size_t>(r) * dst_ld,
                        static_cast<std::size_t>(cols) * sizeof(dist_t),
                        offset(row0 + r, col0));
    }
  }

  std::string path_;
  vidx_t tile_;
  vidx_t row_begin_;
  vidx_t row_end_;
  std::optional<util::File> raw_;  ///< engaged for a raw payload
  std::optional<Z1TileGrid> z1_;   ///< engaged for a z1 payload
};

}  // namespace

int ShardManifest::shard_of_row(vidx_t stored_row) const {
  if (stored_row < 0 || stored_row >= n || shards.empty()) return -1;
  int lo = 0;
  int hi = num_shards() - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (stored_row < shards[static_cast<std::size_t>(mid)].row_end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const ShardRange& r = shards[static_cast<std::size_t>(lo)];
  return stored_row >= r.row_begin && stored_row < r.row_end ? lo : -1;
}

std::string shard_manifest_path(const std::string& store_path) {
  return store_path + ".shards";
}

std::string shard_file_path(const std::string& store_path, int shard) {
  return store_path + ".shard." + std::to_string(shard);
}

ShardManifest shard_store_file(const std::string& store_path, int num_shards,
                               vidx_t tile, ShardingStats* stats) {
  Timer timer;
  StoreFormat format = StoreFormat::kRaw;
  const auto src = open_store(store_path, &format);
  ShardManifest m;
  m.compressed = format == StoreFormat::kCompressed;
  GAPSP_CHECK(m.compressed || tile > 0, "shard tile must be positive");
  m.n = src->n();
  // A GAPSPZ1 store's frames are copied verbatim, so its tiling is the only
  // valid routing granularity; the caller's `tile` is for raw sources.
  m.tile = m.compressed ? src->tile_size() : std::min(tile, m.n);
  m.shards = split_rows(m.n, m.tile, num_shards);

  // Every slice, then the manifest, is written before any lands.
  std::vector<std::string> tmps;
  std::uint64_t total = 0;
  try {
    CompressedDirectory dir;
    std::optional<util::File> frames;
    if (m.compressed) {
      dir = read_compressed_directory(store_path);
      frames.emplace(store_path, O_RDONLY);
    }
    for (int k = 0; k < num_shards; ++k) {
      ShardRange& r = m.shards[static_cast<std::size_t>(k)];
      const auto write = [&](util::File& file) {
        if (m.compressed) {
          write_z1_shard(*frames, dir, file, r);
        } else {
          write_raw_shard(*src, file, m.tile, r);
        }
      };
      tmps.push_back(util::write_tmp(shard_file_path(store_path, k), write));
      r.checksum = checksum_file(tmps.back(), r.bytes);
      total += r.bytes;
    }
    const std::string manifest = shard_manifest_path(store_path);
    tmps.push_back(util::write_tmp(
        manifest, [&](util::File& file) { write_manifest(file, m); }));
    total += util::File(tmps.back(), O_RDONLY).size();
    for (int k = 0; k < num_shards; ++k) {
      util::commit_rename(tmps[k], shard_file_path(store_path, k));
    }
    util::commit_rename(tmps.back(), manifest);
  } catch (...) {
    for (const std::string& tmp : tmps) std::remove(tmp.c_str());
    throw;
  }
  if (stats != nullptr) {
    stats->shards = num_shards;
    stats->compressed = m.compressed;
    stats->bytes_written = total;
    stats->seconds = timer.seconds();
  }
  return m;
}

bool is_shard_slice(const std::string& path) {
  return util::has_magic(path, kShardMagic);
}

bool load_shard_manifest(const std::string& path, ShardManifest& out) {
  const auto file = util::File::open_if_present(path);
  if (!file) return false;  // no manifest: the store is not sharded
  const std::uint64_t size = file->size();
  if (size < sizeof(ManifestHeader)) {
    throw CorruptError(path + ": short read of GAPSPSH1 header");
  }
  ManifestHeader h{};
  file->pread_exact(&h, sizeof(h), 0);
  if (std::memcmp(h.magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    throw CorruptError(path + ": not a GAPSPSH1 shard manifest");
  }
  // The entry count is bounded by the bytes present before it is allocated.
  if (h.n <= 0 || h.n > std::numeric_limits<vidx_t>::max() || h.tile <= 0 ||
      h.tile > h.n || h.num_shards < 1 ||
      h.num_shards > (h.n + h.tile - 1) / h.tile ||
      static_cast<std::uint64_t>(h.num_shards) >
          (size - sizeof(h)) / sizeof(ManifestEntry)) {
    throw CorruptError(path + ": implausible shard manifest geometry");
  }
  std::vector<ManifestEntry> entries(static_cast<std::size_t>(h.num_shards));
  file->pread_exact(entries.data(), entries.size() * sizeof(ManifestEntry),
                    sizeof(h));
  if (util::fnv1a(entries.data(), entries.size() * sizeof(ManifestEntry)) !=
      h.dir_checksum) {
    throw CorruptError(path + ": shard manifest checksum mismatch");
  }
  ShardManifest m;
  m.n = static_cast<vidx_t>(h.n);
  m.tile = static_cast<vidx_t>(h.tile);
  m.compressed = (h.flags & kFlagCompressed) != 0;
  std::int64_t cursor = 0;
  for (const ManifestEntry& e : entries) {
    if (e.row_begin != cursor || e.row_end <= e.row_begin ||
        e.row_begin % h.tile != 0) {
      throw CorruptError(path + ": shard row ranges not contiguous");
    }
    cursor = e.row_end;
    m.shards.push_back({static_cast<vidx_t>(e.row_begin),
                        static_cast<vidx_t>(e.row_end), e.bytes, e.checksum});
  }
  if (cursor != h.n) {
    throw CorruptError(path + ": shard row ranges do not cover the matrix");
  }
  out = std::move(m);
  return true;
}

std::unique_ptr<DistStore> open_shard_slice(const std::string& store_path,
                                            const ShardManifest& manifest,
                                            int k, bool verify) {
  GAPSP_CHECK(manifest.present(), "shard manifest is empty");
  GAPSP_CHECK(k >= 0 && k < manifest.num_shards(),
              "shard " + std::to_string(k) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  const ShardRange& r = manifest.shards[static_cast<std::size_t>(k)];
  const std::string path = shard_file_path(store_path, k);
  if (verify) {
    std::uint64_t bytes = 0;
    const std::uint64_t sum = checksum_file(path, bytes);
    if (bytes != r.bytes) {
      throw CorruptError(path + ": shard file does not match its manifest (" +
                         std::to_string(bytes) + " bytes vs " +
                         std::to_string(r.bytes) + " expected)");
    }
    if (sum != r.checksum) {
      throw CorruptError(path +
                         ": shard file checksum mismatch against its "
                         "manifest — the slice is damaged; re-run `apsp_cli "
                         "shard` to rebuild it");
    }
  }
  util::File file(path, O_RDONLY);
  const std::uint64_t file_bytes = file.size();
  if (file_bytes < sizeof(ShardHeader)) {
    throw CorruptError(path + ": short read of GAPSPSD1 header");
  }
  ShardHeader h{};
  file.pread_exact(&h, sizeof(h), 0);
  if (std::memcmp(h.magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw CorruptError(path + ": not a GAPSPSD1 shard file");
  }
  const bool compressed = (h.flags & kFlagCompressed) != 0;
  if (h.n != manifest.n || h.tile != manifest.tile ||
      h.row_begin != r.row_begin || h.row_end != r.row_end ||
      compressed != manifest.compressed) {
    throw CorruptError(path + ": shard header disagrees with the manifest");
  }

  std::vector<SliceDirEntry> dir;
  if (compressed) {
    const std::int64_t tps = (h.n + h.tile - 1) / h.tile;
    const std::int64_t row_blocks =
        (h.row_end + h.tile - 1) / h.tile - h.row_begin / h.tile;
    dir = read_tile_directory(file, "GAPSPSD1",
                              static_cast<std::uint64_t>(row_blocks),
                              static_cast<std::uint64_t>(tps),
                              sizeof(ShardHeader), h.dir_checksum);
  } else {
    const std::uint64_t want =
        sizeof(ShardHeader) +
        static_cast<std::uint64_t>(h.row_end - h.row_begin) *
            static_cast<std::uint64_t>(h.n) * sizeof(dist_t);
    if (file_bytes != want) {
      throw CorruptError(path + ": raw shard payload is " +
                         std::to_string(file_bytes) + " bytes, expected " +
                         std::to_string(want));
    }
  }
  if (!compressed) {
    return std::make_unique<ShardSliceStore>(std::move(file), manifest.n,
                                             manifest.tile, r.row_begin,
                                             r.row_end);
  }
  return std::make_unique<ShardSliceStore>(std::move(file), manifest.n,
                                           manifest.tile, r.row_begin,
                                           r.row_end, std::move(dir));
}

}  // namespace gapsp::core
