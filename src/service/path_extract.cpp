#include "service/path_extract.h"

#include <algorithm>

namespace gapsp::service {

PathExtractor::PathExtractor(const graph::CsrGraph& g,
                             const QueryEngine& engine)
    : g_(g), reverse_(g.transpose()), engine_(engine) {
  GAPSP_CHECK(engine.n() == g.num_vertices(), "store does not match graph");
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

}  // namespace gapsp::service
