#include "sssp/near_far.h"

#include <algorithm>

#include "sssp/delta_stepping.h"

namespace gapsp::sssp {

NearFarStats near_far_sssp(const graph::CsrGraph& g, vidx_t source,
                           std::span<dist_t> dist_out,
                           const NearFarConfig& cfg) {
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(source >= 0 && source < n, "source out of range");
  GAPSP_CHECK(dist_out.size() == static_cast<std::size_t>(n),
              "output span has wrong length");
  const dist_t delta = resolve_delta(g, cfg.delta);

  std::fill(dist_out.begin(), dist_out.end(), kInf);
  dist_out[source] = 0;

  NearFarStats stats;
  std::vector<vidx_t> near{source};
  std::vector<vidx_t> far;
  std::vector<vidx_t> next_near;
  dist_t threshold = delta;

  auto relax_vertex = [&](vidx_t u) {
    const dist_t du = dist_out[u];
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    const bool heavy = cfg.heavy_degree_threshold > 0 &&
                       static_cast<int>(nbr.size()) >= cfg.heavy_degree_threshold;
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      ++stats.relaxations;
      if (heavy) ++stats.heavy_relaxations;
      const dist_t nd = sat_add(du, wts[i]);
      if (nd < dist_out[nbr[i]]) {
        dist_out[nbr[i]] = nd;
        if (nd < threshold) {
          next_near.push_back(nbr[i]);
        } else {
          far.push_back(nbr[i]);
        }
      }
    }
  };

  while (true) {
    // Drain the Near queue for the current band.
    while (!near.empty()) {
      for (vidx_t u : near) {
        ++stats.vertices_processed;
        // Lazy-deletion: skip entries whose vertex was re-binned below the
        // band start by a later relaxation (already reprocessed).
        if (dist_out[u] >= threshold) {
          far.push_back(u);
          continue;
        }
        relax_vertex(u);
      }
      near.clear();
      near.swap(next_near);
    }
    if (far.empty()) break;
    // Swap: advance the threshold, split the Far queue.
    ++stats.phases;
    // Advance the band far enough to capture the closest pending vertex —
    // skipping empty bands (standard Near-Far refinement).
    dist_t closest = kInf;
    for (vidx_t v : far) closest = std::min(closest, dist_out[v]);
    if (closest >= kInf) break;  // only stale entries left
    const dist_t bands =
        std::max<dist_t>(1, (closest - threshold) / delta + 1);
    threshold = sat_add(threshold, static_cast<dist_t>(bands * delta));
    for (vidx_t v : far) {
      if (dist_out[v] < threshold) near.push_back(v);
      else next_near.push_back(v);  // reuse as the residual-far scratch
    }
    far.clear();
    far.swap(next_near);
  }
  return stats;
}

}  // namespace gapsp::sssp
