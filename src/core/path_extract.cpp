#include "core/path_extract.h"

#include <algorithm>

namespace gapsp::core {

PathExtractor::PathExtractor(const graph::CsrGraph& g, const DistStore& store,
                             const ApspResult& result,
                             std::size_t cache_bytes, StoreChecksums checksums,
                             TileReaderOptions reader_opt)
    : g_(g),
      reverse_(g.transpose()),
      store_(store),
      perm_(result.perm),
      cache_(cache_bytes, /*shards=*/4),
      reader_(store, std::move(checksums), reader_opt) {
  GAPSP_CHECK(store.n() == g.num_vertices(), "store does not match graph");
  GAPSP_CHECK(perm_.empty() ||
                  perm_.size() == static_cast<std::size_t>(g.num_vertices()),
              "result permutation does not match graph");
  // Same tiling policy as the query service: follow the store's native tile
  // side when it has one so a miss never decompresses two tiles; a sidecar
  // grid likewise so every miss is a verifiable unit.
  block_ = store.tile_size() > 0 ? store.tile_size()
           : reader_.checksums().present() ? reader_.checksums().tile
                                           : 256;
  block_ = std::min<vidx_t>(block_, std::max<vidx_t>(1, store.n()));
  // One shared all-kInf tile (charged no cache bytes) serves every
  // negative block, edge tiles included.
  cache_.set_negative_tile(std::make_shared<const std::vector<dist_t>>(
      static_cast<std::size_t>(block_) * static_cast<std::size_t>(block_),
      kInf));
}

BlockData PathExtractor::fetch(vidx_t block_row, vidx_t block_col) const {
  return cache_.get_or_load(block_row, block_col, [&] {
    return reader_.load_tile(cache_, block_, block_row, block_col);
  });
}

dist_t PathExtractor::distance(vidx_t u, vidx_t v) const {
  GAPSP_CHECK(u >= 0 && u < store_.n() && v >= 0 && v < store_.n(),
              "vertex out of range");
  const vidx_t su = perm_.empty() ? u : perm_[u];
  const vidx_t sv = perm_.empty() ? v : perm_[v];
  const vidx_t bi = su / block_;
  const vidx_t bj = sv / block_;
  const BlockData tile = fetch(bi, bj);
  const vidx_t cols = std::min<vidx_t>(block_, store_.n() - bj * block_);
  return (*tile)[static_cast<std::size_t>(su - bi * block_) *
                     static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(sv - bj * block_)];
}

std::vector<vidx_t> PathExtractor::path(vidx_t u, vidx_t v) const {
  const vidx_t n = g_.num_vertices();
  GAPSP_CHECK(u >= 0 && u < n && v >= 0 && v < n, "vertex out of range");
  if (u == v) return {u};
  if (distance(u, v) >= kInf) return {};

  // Backtrack from v. With zero-weight edges several candidates can share
  // the same distance; preferring strictly-closer predecessors and marking
  // visited vertices guarantees termination, and a valid chain always
  // exists because the distances came from a real shortest-path run.
  std::vector<vidx_t> rev_path{v};
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(n), 0);
  visited[v] = 1;
  vidx_t cur = v;
  for (vidx_t steps = 0; steps < n && cur != u; ++steps) {
    const dist_t d_cur = distance(u, cur);
    const auto preds = reverse_.neighbors(cur);
    const auto wts = reverse_.weights(cur);
    vidx_t best = -1;
    dist_t best_d = kInf;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const vidx_t w = preds[i];
      if (visited[w] && w != u) continue;
      const dist_t dw = distance(u, w);
      if (sat_add(dw, wts[i]) != d_cur) continue;
      if (dw < best_d || (dw == best_d && w == u)) {
        best_d = dw;
        best = w;
      }
    }
    GAPSP_CHECK(best != -1, "backtracking dead end: inconsistent distances");
    visited[best] = 1;
    rev_path.push_back(best);
    cur = best;
  }
  GAPSP_CHECK(cur == u, "path reconstruction exceeded n steps");
  std::reverse(rev_path.begin(), rev_path.end());
  return rev_path;
}

dist_t PathExtractor::walk_length(const std::vector<vidx_t>& path) const {
  if (path.empty()) return kInf;
  dist_t total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto nbr = g_.neighbors(path[i]);
    const auto wts = g_.weights(path[i]);
    dist_t best = kInf;
    for (std::size_t e = 0; e < nbr.size(); ++e) {
      if (nbr[e] == path[i + 1]) best = std::min(best, wts[e]);
    }
    if (best >= kInf) return kInf;  // not an edge
    total = sat_add(total, best);
  }
  return total;
}

}  // namespace gapsp::core
