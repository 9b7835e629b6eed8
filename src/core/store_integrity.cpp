#include "core/store_integrity.h"

#include <cstring>
#include <limits>

#include "core/dist_store.h"
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

}  // namespace

std::uint64_t tile_checksum(const dist_t* data, std::size_t elems) {
  return util::fnv1a(data, elems * sizeof(dist_t));
}

std::string checksum_sidecar_path(const std::string& store_path) {
  return store_path + ".sum";
}

StoreChecksums compute_store_checksums(DistStore& store, vidx_t tile) {
  GAPSP_CHECK(tile > 0, "checksum tile size must be positive");
  StoreChecksums out;
  out.n = store.n();
  out.tile = tile;
  out.tiles_per_side = (out.n + tile - 1) / tile;
  out.sums.assign(static_cast<std::size_t>(out.tiles_per_side) *
                      out.tiles_per_side,
                  0);
  std::vector<dist_t> buf(static_cast<std::size_t>(tile) * tile);
  for (vidx_t bi = 0; bi < out.tiles_per_side; ++bi) {
    const vidx_t row0 = bi * tile;
    const vidx_t rows = std::min<vidx_t>(tile, out.n - row0);
    for (vidx_t bj = 0; bj < out.tiles_per_side; ++bj) {
      const vidx_t col0 = bj * tile;
      const vidx_t cols = std::min<vidx_t>(tile, out.n - col0);
      store.read_block(row0, col0, rows, cols, buf.data(), cols);
      out.sums[static_cast<std::size_t>(bi) * out.tiles_per_side + bj] =
          tile_checksum(buf.data(), static_cast<std::size_t>(rows) * cols);
    }
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

}  // namespace gapsp::core
