#include "core/compressed_store.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/timer.h"

namespace gapsp::core {

// ---- GAPSPZ1 store ----
// (The z1 codec itself lives in core/z1_codec.cpp; this TU only frames
// tiles into the GAPSPZ1 container.)

namespace {

constexpr char kZMagic[8] = {'G', 'A', 'P', 'S', 'P', 'Z', '1', '\0'};

struct ZHeader {
  char magic[8];
  std::int64_t n;
  std::int64_t tile;
  std::int64_t tiles_per_side;
  std::uint64_t payload_bytes;  ///< sum of directory entry sizes
  std::uint64_t dir_checksum;   ///< fnv1a over the directory array
  std::uint64_t reserved[2];
};
static_assert(sizeof(ZHeader) == 64, "GAPSPZ1 header layout drifted");

/// {absolute file offset of the tile's frame, bytes}; bytes == 0 marks an
/// all-kInf tile with nothing stored.
using ZDirEntry = CompressedTileEntry;
static_assert(sizeof(ZDirEntry) == 16, "GAPSPZ1 directory layout drifted");

bool all_inf(const dist_t* p, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (p[i] != kInf) return false;
  }
  return true;
}

/// Header + validated directory, shared by the reader and the info probe.
struct ZIndex {
  ZHeader h{};
  std::vector<ZDirEntry> dir;
  std::uint64_t file_bytes = 0;
};

ZIndex read_index(const util::File& f) {
  const std::string& path = f.path();
  ZIndex ix;
  f.pread_exact(&ix.h, sizeof(ix.h), 0);
  if (std::memcmp(ix.h.magic, kZMagic, sizeof(kZMagic)) != 0) {
    throw IoError(path + ": not a GAPSPZ1 store");
  }
  const std::int64_t n = ix.h.n;
  const std::int64_t tile = ix.h.tile;
  const std::int64_t tps = ix.h.tiles_per_side;
  if (n <= 0 || n > std::numeric_limits<vidx_t>::max() || tile <= 0 ||
      tile > n || tps != (n + tile - 1) / tile) {
    throw CorruptError(path + ": corrupt GAPSPZ1 geometry");
  }
  ix.file_bytes = f.size();
  ix.dir = read_tile_directory(f, "GAPSPZ1", static_cast<std::uint64_t>(tps),
                               static_cast<std::uint64_t>(tps),
                               sizeof(ZHeader), ix.h.dir_checksum);
  std::uint64_t payload = 0;
  for (const ZDirEntry& e : ix.dir) payload += e.bytes;
  if (payload != ix.h.payload_bytes) {
    throw CorruptError(path + ": GAPSPZ1 payload size mismatch");
  }
  return ix;
}

class CompressedStore final : public DistStore {
 public:
  CompressedStore(ZIndex ix, util::File file)
      : DistStore(static_cast<vidx_t>(ix.h.n)),
        tile_(static_cast<vidx_t>(ix.h.tile)),
        path_(file.path()),
        grid_(std::move(file), n(), tile_, 0, std::move(ix.dir)) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("compressed store " + path_ + " is read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    grid_.read_block(row0, col0, rows, cols, dst, dst_ld);
  }

  vidx_t tile_size() const override { return tile_; }

  bool block_known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                       vidx_t cols) const override {
    check_block(row0, col0, rows, cols);
    return grid_.known_inf(row0, col0, rows, cols);
  }

 private:
  vidx_t tile_;
  std::string path_;
  Z1TileGrid grid_;
};

}  // namespace

std::vector<CompressedTileEntry> read_tile_directory(
    const util::File& file, const char* format, std::uint64_t rows,
    std::uint64_t cols, std::uint64_t offset, std::uint64_t checksum) {
  const std::string& path = file.path();
  const std::uint64_t file_bytes = file.size();
  // rows > held / cols is the overflow-safe form of rows · cols > held.
  const std::uint64_t held =
      file_bytes > offset ? (file_bytes - offset) / sizeof(CompressedTileEntry)
                          : 0;
  if (cols != 0 && rows > held / cols) {
    throw CorruptError(path + ": " + format + " directory past end of file");
  }
  std::vector<CompressedTileEntry> dir(static_cast<std::size_t>(rows * cols));
  const std::uint64_t dir_bytes = dir.size() * sizeof(CompressedTileEntry);
  file.pread_exact(dir.data(), dir_bytes, offset);
  if (util::fnv1a(dir.data(), dir_bytes) != checksum) {
    throw CorruptError(path + ": " + format + " directory checksum mismatch");
  }
  const std::uint64_t data_start = offset + dir_bytes;
  for (const CompressedTileEntry& e : dir) {
    if (e.bytes == 0) continue;
    if (e.offset < data_start || e.offset + e.bytes < e.offset ||
        e.offset + e.bytes > file_bytes) {
      throw CorruptError(path + ": " + format +
                         " directory entry out of bounds");
    }
  }
  return dir;
}

Z1TileGrid::Z1TileGrid(util::File file, vidx_t n, vidx_t tile,
                       vidx_t first_row_block,
                       std::vector<CompressedTileEntry> entries)
    : file_(std::move(file)),
      n_(n),
      tile_(tile),
      tiles_per_side_((n + tile - 1) / tile),
      first_row_block_(first_row_block),
      entries_(std::move(entries)) {}

const CompressedTileEntry& Z1TileGrid::entry(vidx_t bi, vidx_t bj) const {
  return entries_[static_cast<std::size_t>(bi - first_row_block_) *
                      static_cast<std::size_t>(tiles_per_side_) +
                  static_cast<std::size_t>(bj)];
}

void Z1TileGrid::decode(vidx_t bi, vidx_t bj,
                        std::vector<std::uint8_t>& frame, dist_t* out,
                        std::size_t elems) const {
  const CompressedTileEntry& e = entry(bi, bj);
  frame.resize(static_cast<std::size_t>(e.bytes));
  file_.pread_exact(frame.data(), frame.size(), e.offset);
  if (z1_raw_size(frame.data(), frame.size()) != elems * sizeof(dist_t)) {
    throw CorruptError(file_.path() + ": tile (" + std::to_string(bi) + ", " +
                       std::to_string(bj) + ") frame does not decode to " +
                       std::to_string(elems * sizeof(dist_t)) + " bytes");
  }
  z1_decompress(frame.data(), frame.size(), out, elems * sizeof(dist_t));
}

void Z1TileGrid::read_block(vidx_t row0, vidx_t col0, vidx_t rows,
                            vidx_t cols, dist_t* dst,
                            std::size_t dst_ld) const {
  if (rows == 0 || cols == 0) return;
  // Per-thread buffers: no lock, and no fresh allocation (and page faults)
  // on every cache miss.
  thread_local std::vector<std::uint8_t> frame;
  thread_local std::vector<dist_t> scratch;
  for (vidx_t bi = row0 / tile_; bi * tile_ < row0 + rows; ++bi) {
    for (vidx_t bj = col0 / tile_; bj * tile_ < col0 + cols; ++bj) {
      // Intersection of the request with tile (bi, bj).
      const vidx_t tr0 = bi * tile_;
      const vidx_t tc0 = bj * tile_;
      const vidx_t trows = std::min<vidx_t>(tile_, n_ - tr0);
      const vidx_t tcols = std::min<vidx_t>(tile_, n_ - tc0);
      const vidx_t r0 = std::max(row0, tr0);
      const vidx_t r1 = std::min<vidx_t>(row0 + rows, tr0 + trows);
      const vidx_t c0 = std::max(col0, tc0);
      const vidx_t c1 = std::min<vidx_t>(col0 + cols, tc0 + tcols);
      dist_t* out = dst + static_cast<std::size_t>(r0 - row0) * dst_ld +
                    static_cast<std::size_t>(c0 - col0);
      const auto width = static_cast<std::size_t>(c1 - c0);
      if (entry(bi, bj).bytes == 0) {
        for (vidx_t r = r0; r < r1; ++r) {
          std::fill_n(out + static_cast<std::size_t>(r - r0) * dst_ld, width,
                      kInf);
        }
        continue;
      }
      // Copies rows [r0, r1) × cols [c0, c1) out of a decoded tile.
      const auto copy_out = [&](const dist_t* decoded) {
        for (vidx_t r = r0; r < r1; ++r) {
          std::copy_n(decoded +
                          static_cast<std::size_t>(r - tr0) *
                              static_cast<std::size_t>(tcols) +
                          static_cast<std::size_t>(c0 - tc0),
                      width, out + static_cast<std::size_t>(r - r0) * dst_ld);
        }
      };
      const std::size_t elems =
          static_cast<std::size_t>(trows) * static_cast<std::size_t>(tcols);
      const bool whole_tile =
          r0 == tr0 && r1 == tr0 + trows && c0 == tc0 && c1 == tc0 + tcols;
      if (whole_tile && dst_ld == static_cast<std::size_t>(tcols)) {
        decode(bi, bj, frame, out, elems);  // the destination is the tile
      } else if (whole_tile) {
        scratch.resize(elems);
        decode(bi, bj, frame, scratch.data(), elems);
        copy_out(scratch.data());
      } else {
        const auto t = static_cast<std::int64_t>(
            static_cast<std::size_t>(bi - first_row_block_) *
                static_cast<std::size_t>(tiles_per_side_) +
            static_cast<std::size_t>(bj));
        std::lock_guard<std::mutex> lock(memo_mu_);
        if (memo_tile_ != t) {
          memo_tile_ = -1;  // invalid while the buffer is being overwritten
          memo_.resize(elems);
          decode(bi, bj, frame, memo_.data(), elems);
          memo_tile_ = t;
        }
        copy_out(memo_.data());
      }
    }
  }
}

bool Z1TileGrid::known_inf(vidx_t row0, vidx_t col0, vidx_t rows,
                           vidx_t cols) const {
  if (rows == 0 || cols == 0) return true;
  for (vidx_t bi = row0 / tile_; bi * tile_ < row0 + rows; ++bi) {
    for (vidx_t bj = col0 / tile_; bj * tile_ < col0 + cols; ++bj) {
      if (entry(bi, bj).bytes != 0) return false;
    }
  }
  return true;
}

StoreCompactionStats write_compressed_store(const DistStore& src,
                                            const std::string& out_path,
                                            vidx_t tile) {
  const vidx_t n = src.n();
  GAPSP_CHECK(n > 0, "cannot compress an empty store");
  GAPSP_CHECK(tile > 0, "tile side must be positive");
  tile = std::min(tile, n);
  const vidx_t tps = (n + tile - 1) / tile;

  Timer timer;
  StoreCompactionStats stats;
  stats.raw_bytes = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) * sizeof(dist_t);

  ZHeader h{};
  std::memcpy(h.magic, kZMagic, sizeof(kZMagic));
  h.n = n;
  h.tile = tile;
  h.tiles_per_side = tps;
  std::vector<ZDirEntry> dir(static_cast<std::size_t>(tps) *
                             static_cast<std::size_t>(tps));

  util::atomic_replace(out_path, [&](util::File& file) {
    // Frames first; the header and directory go in front once the offsets
    // are known.
    std::uint64_t offset = sizeof(ZHeader) + dir.size() * sizeof(ZDirEntry);
    std::vector<dist_t> buf;
    std::vector<std::uint8_t> frame;
    for (vidx_t bi = 0; bi < tps; ++bi) {
      for (vidx_t bj = 0; bj < tps; ++bj) {
        const vidx_t rows = std::min<vidx_t>(tile, n - bi * tile);
        const vidx_t cols = std::min<vidx_t>(tile, n - bj * tile);
        const std::size_t elems =
            static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
        buf.resize(elems);
        src.read_block(bi * tile, bj * tile, rows, cols, buf.data(),
                       static_cast<std::size_t>(cols));
        ++stats.tiles;
        ZDirEntry& e = dir[static_cast<std::size_t>(bi) * tps + bj];
        if (all_inf(buf.data(), elems)) {
          ++stats.inf_tiles;
          continue;  // zero-length entry: the directory is the payload
        }
        z1_compress(buf.data(), elems * sizeof(dist_t), frame,
                    static_cast<std::size_t>(cols));
        e.offset = offset;
        e.bytes = frame.size();
        file.pwrite_exact(frame.data(), frame.size(), offset);
        offset += frame.size();
        h.payload_bytes += frame.size();
      }
    }
    h.dir_checksum = util::fnv1a(dir.data(), dir.size() * sizeof(ZDirEntry));
    stats.compressed_bytes = offset;
    file.pwrite_exact(&h, sizeof(h), 0);
    file.pwrite_exact(dir.data(), dir.size() * sizeof(ZDirEntry), sizeof(h));
  });
  stats.seconds = timer.seconds();
  return stats;
}

StoreCompactionStats compact_store(const std::string& raw_path,
                                   const std::string& out_path, vidx_t tile) {
  if (is_compressed_store(raw_path)) {
    throw IoError(raw_path + " is already a GAPSPZ1 compressed store");
  }
  const auto src = open_file_store(raw_path);
  return write_compressed_store(*src, out_path, tile);
}

bool is_compressed_store(const std::string& path) {
  const auto file = util::File::open_if_present(path);
  char magic[8] = {};
  if (!file || file->size() < sizeof(magic)) return false;
  file->pread_exact(magic, sizeof(magic), 0);
  return std::memcmp(magic, kZMagic, sizeof(kZMagic)) == 0;
}

CompressedStoreInfo compressed_store_info(const std::string& path) {
  const ZIndex ix = read_index(util::File(path, O_RDONLY));
  CompressedStoreInfo info;
  info.n = static_cast<vidx_t>(ix.h.n);
  info.tile = static_cast<vidx_t>(ix.h.tile);
  info.tiles_per_side = static_cast<vidx_t>(ix.h.tiles_per_side);
  info.file_bytes = ix.file_bytes;
  info.raw_bytes = static_cast<std::uint64_t>(ix.h.n) *
                   static_cast<std::uint64_t>(ix.h.n) * sizeof(dist_t);
  info.tiles = static_cast<long long>(ix.dir.size());
  for (const ZDirEntry& e : ix.dir) {
    if (e.bytes == 0) ++info.inf_tiles;
  }
  return info;
}

CompressedDirectory read_compressed_directory(const std::string& path) {
  ZIndex ix = read_index(util::File(path, O_RDONLY));
  CompressedDirectory dir;
  dir.n = static_cast<vidx_t>(ix.h.n);
  dir.tile = static_cast<vidx_t>(ix.h.tile);
  dir.tiles_per_side = static_cast<vidx_t>(ix.h.tiles_per_side);
  dir.entries = std::move(ix.dir);
  return dir;
}

std::unique_ptr<DistStore> open_compressed_store(const std::string& path) {
  util::File file(path, O_RDONLY);
  ZIndex ix = read_index(file);
  return std::make_unique<CompressedStore>(std::move(ix), std::move(file));
}

std::unique_ptr<DistStore> open_store(const std::string& path) {
  return is_compressed_store(path) ? open_compressed_store(path)
                                   : open_file_store(path);
}

}  // namespace gapsp::core
