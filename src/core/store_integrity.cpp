#include "core/store_integrity.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/compressed_store.h"
#include "core/shard_store.h"
#include "util/file_io.h"

namespace gapsp::core {

namespace {

constexpr char kMagic[8] = {'G', 'A', 'P', 'S', 'P', 'S', 'M', '1'};
constexpr std::size_t kHeaderBytes = 64;

void put_i64(std::uint8_t* dst, std::int64_t v) {
  for (int i = 0; i < 8; ++i)
    dst[i] = static_cast<std::uint8_t>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff);
}

std::int64_t get_i64(const std::uint8_t* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  return static_cast<std::int64_t>(v);
}

/// Calls fn(bi, bj, sum) with the checksum of every tile of a t-wide grid
/// over an n×n matrix that the rows×cols rectangle at (row0, col0), held in
/// `data` with leading dimension `ld`, covers whole. FNV-1a chains over a
/// tile's rows, so a tile hashes the same in place as packed.
template <class Fn>
void tile_checksums(vidx_t n, vidx_t t, vidx_t row0, vidx_t col0, vidx_t rows,
                    vidx_t cols, const dist_t* data, std::size_t ld, Fn&& fn) {
  // Tiles wholly inside [x, x + len): from x rounded up to the last one
  // that ends by x + len (the ragged last tile ends at n).
  const auto end = [&](vidx_t x) { return x == n ? (n + t - 1) / t : x / t; };
  for (vidx_t bi = (row0 + t - 1) / t; bi < end(row0 + rows); ++bi) {
    const vidx_t tile_rows = std::min<vidx_t>(t, n - bi * t);
    for (vidx_t bj = (col0 + t - 1) / t; bj < end(col0 + cols); ++bj) {
      const dist_t* tile = data +
                           static_cast<std::size_t>(bi * t - row0) * ld +
                           static_cast<std::size_t>(bj * t - col0);
      const std::size_t row_bytes =
          static_cast<std::size_t>(std::min<vidx_t>(t, n - bj * t)) *
          sizeof(dist_t);
      std::uint64_t sum = util::fnv1a(nullptr, 0);
      for (vidx_t r = 0; r < tile_rows; ++r) {
        sum = util::fnv1a(tile + static_cast<std::size_t>(r) * ld, row_bytes,
                          sum);
      }
      fn(bi, bj, sum);
    }
  }
}

}  // namespace

std::string checksum_sidecar_path(const std::string& store_path) {
  return store_path + ".sum";
}

StoreChecksums compute_store_checksums(const DistStore& store, vidx_t tile) {
  GAPSP_CHECK(tile > 0, "checksum tile size must be positive");
  StoreChecksums out;
  out.n = store.n();
  out.tile = tile;
  out.tiles_per_side = (out.n + tile - 1) / tile;
  out.sums.reserve(static_cast<std::size_t>(out.tiles_per_side) *
                   out.tiles_per_side);
  // Strips of whole tile rows, hashed in place: the grid in row-major order.
  const vidx_t n = out.n;
  std::vector<dist_t> strip(static_cast<std::size_t>(std::min(tile, n)) * n);
  for (vidx_t row0 = 0; row0 < n; row0 += tile) {
    const vidx_t rows = std::min<vidx_t>(tile, n - row0);
    store.read_block(row0, 0, rows, n, strip.data(), n);
    tile_checksums(n, tile, row0, 0, rows, n, strip.data(), n,
                   [&](vidx_t, vidx_t, std::uint64_t sum) {
                     out.sums.push_back(sum);
                   });
  }
  return out;
}

void write_store_checksums(const StoreChecksums& sums,
                           const std::string& path) {
  GAPSP_CHECK(sums.present(), "cannot write an absent checksum sidecar");
  const std::size_t sums_bytes = sums.sums.size() * sizeof(std::uint64_t);
  std::uint8_t header[kHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  put_i64(header + 8, sums.n);
  put_i64(header + 16, sums.tile);
  put_i64(header + 24, sums.tiles_per_side);
  put_i64(header + 32, static_cast<std::int64_t>(
                           util::fnv1a(sums.sums.data(), sums_bytes)));
  util::atomic_replace(path, [&](util::File& f) {
    f.pwrite_exact(header, kHeaderBytes, 0);
    f.pwrite_exact(sums.sums.data(), sums_bytes, kHeaderBytes);
  });
}

bool load_store_checksums(const std::string& path, StoreChecksums& out) {
  const auto f = util::File::open_if_present(path);
  if (!f) return false;  // absent sidecar: verification is simply off

  const std::uint64_t size = f->size();
  if (size < kHeaderBytes)
    throw CorruptError("checksum sidecar too short: " + path);
  std::uint8_t header[kHeaderBytes];
  f->pread_exact(header, kHeaderBytes, 0);
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
    throw CorruptError("bad checksum sidecar magic: " + path);

  StoreChecksums s;
  const std::int64_t n = get_i64(header + 8);
  const std::int64_t tile = get_i64(header + 16);
  const std::int64_t tps = get_i64(header + 24);
  const std::uint64_t self_sum = static_cast<std::uint64_t>(get_i64(header + 32));
  constexpr std::int64_t kMaxSide = std::numeric_limits<vidx_t>::max();
  if (n < 0 || n > kMaxSide || tile <= 0 || tile > kMaxSide ||
      tps != (n + tile - 1) / tile)
    throw CorruptError("inconsistent checksum sidecar geometry: " + path);
  // tps < 2^31, so tps² cannot overflow: bound it by the bytes present
  // before allocating the grid.
  const auto entries =
      static_cast<std::uint64_t>(tps) * static_cast<std::uint64_t>(tps);
  if (entries > (size - kHeaderBytes) / sizeof(std::uint64_t))
    throw CorruptError("checksum sidecar shorter than its tile grid: " + path);
  s.n = static_cast<vidx_t>(n);
  s.tile = static_cast<vidx_t>(tile);
  s.tiles_per_side = static_cast<vidx_t>(tps);
  s.sums.resize(static_cast<std::size_t>(entries));
  f->pread_exact(s.sums.data(), s.sums.size() * sizeof(std::uint64_t),
                 kHeaderBytes);
  if (util::fnv1a(s.sums.data(), s.sums.size() * sizeof(std::uint64_t)) !=
      self_sum)
    throw CorruptError("checksum sidecar failed its self-check: " + path);

  out = std::move(s);
  return true;
}

CheckedStore::CheckedStore(const DistStore& base, StoreChecksums sums,
                           std::string name)
    : DistStore(base.n()), base_(base), sums_(std::move(sums)),
      name_(std::move(name)) {
  GAPSP_CHECK(sums_.present() && sums_.n == n(),
              checksum_sidecar_path(name_) + " covers n=" +
                  std::to_string(sums_.n) + ", not the store's n=" +
                  std::to_string(n()));
}

CheckedStore::CheckedStore(std::unique_ptr<const DistStore> base,
                           StoreChecksums sums, std::string name)
    : CheckedStore(*base, std::move(sums), std::move(name)) {
  owned_ = std::move(base);
}

void CheckedStore::read_block(vidx_t row0, vidx_t col0, vidx_t rows,
                              vidx_t cols, dist_t* dst,
                              std::size_t dst_ld) const {
  base_.read_block(row0, col0, rows, cols, dst, dst_ld);
  const auto check = [&](vidx_t bi, vidx_t bj, std::uint64_t sum) {
    if (sum != sums_.sums[static_cast<std::size_t>(bi) * sums_.tiles_per_side +
                          bj]) {
      throw CorruptError("tile (" + std::to_string(bi) + "," +
                         std::to_string(bj) + ") of " + name_ +
                         " fails its checksum in " +
                         checksum_sidecar_path(name_));
    }
  };
  tile_checksums(n(), sums_.tile, row0, col0, rows, cols, dst, dst_ld, check);
}

void land_store(const std::string& path, vidx_t sum_tile) {
  // Shards first, by probing the slices: a failed refresh must not leave
  // old slices in service.
  std::remove(shard_manifest_path(path).c_str());
  for (int k = 0; std::remove(shard_file_path(path, k).c_str()) == 0; ++k) {
  }
  const std::string sums_path = checksum_sidecar_path(path);
  if (sum_tile > 0 && !is_compressed_store(path)) {
    write_store_checksums(
        compute_store_checksums(*open_file_store(path), sum_tile), sums_path);
  } else {
    std::remove(sums_path.c_str());
  }
}

}  // namespace gapsp::core
