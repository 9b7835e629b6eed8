#include "core/dist_io.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/file_io.h"

namespace gapsp::core {
namespace {

constexpr char kMagic[8] = {'G', 'A', 'P', 'S', 'P', 'D', 'M', '1'};

struct Header {
  char magic[8];
  std::int64_t n;
  std::int64_t has_perm;
};

}  // namespace

void save_distances(const DistStore& store, const ApspResult& result,
                    const std::string& path) {
  util::File f(path, O_WRONLY | O_CREAT | O_TRUNC);
  const vidx_t n = store.n();
  GAPSP_CHECK(result.perm.empty() ||
                  result.perm.size() == static_cast<std::size_t>(n),
              "result permutation does not match store");
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.n = n;
  h.has_perm = result.perm.empty() ? 0 : 1;
  f.pwrite_exact(&h, sizeof(h), 0);
  std::uint64_t offset = sizeof(h);
  f.pwrite_exact(result.perm.data(), result.perm.size() * sizeof(vidx_t),
                 offset);
  offset += result.perm.size() * sizeof(vidx_t);
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    store.read_block(r, 0, 1, n, row.data(), row.size());
    f.pwrite_exact(row.data(), row.size() * sizeof(dist_t), offset);
    offset += row.size() * sizeof(dist_t);
  }
}

LoadedDistances load_distances(const std::string& path) {
  const util::File f(path, O_RDONLY);
  const std::uint64_t actual = f.size();
  GAPSP_CHECK(actual >= sizeof(Header), "truncated header in " + path);
  Header h{};
  f.pread_exact(&h, sizeof(h), 0);
  GAPSP_CHECK(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0,
              path + " is not a gapsp distance file");
  GAPSP_CHECK(h.n >= 0 && h.n < (1LL << 31), "implausible matrix size");
  GAPSP_CHECK(h.has_perm == 0 || h.has_perm == 1,
              "malformed header in " + path);
  const auto n = static_cast<vidx_t>(h.n);

  // A malformed header with a huge n must be rejected *before* any
  // allocation: n² elements can overflow std::size_t on 32-bit hosts and
  // OOM-kill the process on 64-bit ones. n < 2^31 keeps every term below
  // exactly representable in uint64, so compare the implied file size
  // against the real one first.
  const auto un = static_cast<std::uint64_t>(n);
  GAPSP_CHECK(un == 0 ||
                  un <= std::numeric_limits<std::size_t>::max() /
                            sizeof(dist_t) / un,
              "matrix size overflows addressable memory");
  const std::uint64_t perm_bytes = h.has_perm != 0 ? un * sizeof(vidx_t) : 0;
  const std::uint64_t expected =
      sizeof(Header) + perm_bytes + un * un * sizeof(dist_t);
  GAPSP_CHECK(actual == expected,
              path + " size does not match its header (truncated or "
                     "malformed n)");

  LoadedDistances out;
  if (h.has_perm != 0) {
    out.perm.resize(static_cast<std::size_t>(n));
    f.pread_exact(out.perm.data(), perm_bytes, sizeof(Header));
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
    for (vidx_t p : out.perm) {
      GAPSP_CHECK(p >= 0 && p < n && !seen[p],
                  "malformed permutation in " + path);
      seen[p] = 1;
    }
  }
  out.store = make_ram_store(n);
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  std::uint64_t offset = sizeof(Header) + perm_bytes;
  for (vidx_t r = 0; r < n; ++r) {
    f.pread_exact(row.data(), row.size() * sizeof(dist_t), offset);
    offset += row.size() * sizeof(dist_t);
    out.store->write_block(r, 0, 1, n, row.data(), row.size());
  }
  return out;
}

}  // namespace gapsp::core
