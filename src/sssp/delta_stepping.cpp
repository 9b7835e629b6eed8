#include "sssp/delta_stepping.h"

#include <algorithm>
#include <cmath>

namespace gapsp::sssp {

dist_t resolve_delta(const graph::CsrGraph& g, dist_t delta) {
  if (delta > 0) return delta;
  return std::max<dist_t>(1, static_cast<dist_t>(std::lround(g.mean_weight())));
}

DeltaSteppingResult delta_stepping(const graph::CsrGraph& g, vidx_t source,
                                   dist_t delta) {
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(source >= 0 && source < n, "source out of range");
  delta = resolve_delta(g, delta);
  DeltaSteppingResult r;
  r.dist.assign(static_cast<std::size_t>(n), kInf);
  r.dist[source] = 0;

  // Cyclic bucket array sized to cover the heaviest edge's bucket span.
  const std::size_t num_buckets =
      static_cast<std::size_t>(g.max_weight() / delta) + 2;
  std::vector<std::vector<vidx_t>> buckets(num_buckets);
  buckets[0].push_back(source);
  long long remaining = 1;
  std::size_t base = 0;  // bucket index of the current band

  std::vector<vidx_t> current;
  while (remaining > 0) {
    std::size_t slot = base % num_buckets;
    while (buckets[slot].empty()) {
      ++base;
      slot = base % num_buckets;
    }
    ++r.buckets_processed;
    const dist_t band_hi =
        static_cast<dist_t>(std::min<long long>(
            static_cast<long long>(base + 1) * delta, kInf));
    // Process the band to fixpoint: light-edge reinsertions land back in it.
    while (!buckets[slot].empty()) {
      current.swap(buckets[slot]);
      buckets[slot].clear();
      for (vidx_t u : current) {
        --remaining;
        if (r.dist[u] >= band_hi) {
          // Stale or re-binned entry: re-file it where it now belongs.
          if (r.dist[u] < kInf) {
            buckets[(r.dist[u] / delta) % num_buckets].push_back(u);
            ++remaining;
          }
          continue;
        }
        const auto nbr = g.neighbors(u);
        const auto wts = g.weights(u);
        for (std::size_t i = 0; i < nbr.size(); ++i) {
          ++r.relaxations;
          const dist_t nd = sat_add(r.dist[u], wts[i]);
          if (nd < r.dist[nbr[i]]) {
            r.dist[nbr[i]] = nd;
            buckets[(nd / delta) % num_buckets].push_back(nbr[i]);
            ++remaining;
          }
        }
      }
      current.clear();
    }
    ++base;
  }
  return r;
}

}  // namespace gapsp::sssp
