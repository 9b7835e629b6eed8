#include "sssp/near_far.h"

#include <algorithm>
#include <vector>

#include "sssp/delta_stepping.h"

namespace gapsp::sssp {
namespace {

/// The worklists of one thread, reused by every source it runs. Each is kept
/// sized, not merely reserved, so the loops below write through raw
/// pointers; the live length of each list is a local count.
struct Queues {
  std::vector<vidx_t> near;
  std::vector<vidx_t> next;  ///< next Near queue, then residual-Far scratch
  std::vector<vidx_t> far;
};

/// Grows `q` to hold at least `need` entries, doubling so that growth is
/// amortized over the thread's sources, and returns its storage.
vidx_t* fit(std::vector<vidx_t>& q, std::size_t need) {
  if (q.size() < need) q.resize(std::max(need, 2 * q.size()));
  return q.data();
}

}  // namespace

NearFarStats near_far_sssp(const graph::CsrGraph& g, vidx_t source,
                           std::span<dist_t> dist_out,
                           const NearFarConfig& cfg) {
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(source >= 0 && source < n, "source out of range");
  GAPSP_CHECK(dist_out.size() == static_cast<std::size_t>(n),
              "output span has wrong length");
  const dist_t delta = resolve_delta(g, cfg.delta);
  // Out-degree from which a vertex counts as heavy; none does when the
  // split is off.
  const std::size_t heavy_degree =
      cfg.heavy_degree_threshold > 0
          ? static_cast<std::size_t>(cfg.heavy_degree_threshold)
          : static_cast<std::size_t>(-1);
  const eidx_t* const offsets = g.offsets().data();
  const vidx_t* const targets = g.targets().data();
  const dist_t* const weights = g.edge_weights().data();

  dist_t* const dist = dist_out.data();
  std::fill(dist_out.begin(), dist_out.end(), kInf);
  dist[source] = 0;

  thread_local Queues q;
  fit(q.near, 1)[0] = source;
  std::size_t n_near = 1, n_next = 0, n_far = 0;

  long long relaxations = 0, heavy_relaxations = 0, processed = 0;
  int phases = 0;
  dist_t threshold = delta;
  while (true) {
    // Drain the Near queue for the current band. Every Near entry holds a
    // distance below the threshold: it was binned below it, distances only
    // fall, and the threshold holds still while the band drains.
    while (n_near > 0) {
      processed += static_cast<long long>(n_near);
      const vidx_t* const near = q.near.data();
      vidx_t* next = q.next.data();
      vidx_t* far = q.far.data();
      for (std::size_t k = 0; k < n_near; ++k) {
        const vidx_t u = near[k];
        const eidx_t first = offsets[u];
        const auto deg = static_cast<std::size_t>(offsets[u + 1] - first);
        relaxations += static_cast<long long>(deg);
        if (deg >= heavy_degree) {
          heavy_relaxations += static_cast<long long>(deg);
        }
        // At most `deg` improvements: room for all of them at both tails.
        if (n_next + deg > q.next.size()) next = fit(q.next, n_next + deg);
        if (n_far + deg > q.far.size()) far = fit(q.far, n_far + deg);
        const vidx_t* const nbr = targets + first;
        const dist_t* const wts = weights + first;
        // No saturation: CsrGraph::from_edges rejects weights >= kInf, and
        // a processed vertex holds a distance below kInf (the source's 0,
        // or an improvement on a distance of at most kInf). So du + w <
        // 2·kInf fits a dist_t and equals sat_add(du, w); a sum at or past
        // kInf never improves a distance, which is at most kInf.
        const dist_t du = dist[u];
        for (std::size_t i = 0; i < deg; ++i) {
          const vidx_t v = nbr[i];
          const dist_t nd = du + wts[i];
          if (nd < dist[v]) {
            dist[v] = nd;
            // Written at both tails; only the chosen bin's tail advances.
            next[n_next] = v;
            far[n_far] = v;
            const bool is_near = nd < threshold;
            n_next += is_near;
            n_far += !is_near;
          }
        }
      }
      std::swap(q.near, q.next);
      n_near = n_next;
      n_next = 0;
    }
    if (n_far == 0) break;
    // Swap: advance the threshold, split the Far queue.
    ++phases;
    // Advance the band far enough to capture the closest pending vertex —
    // skipping empty bands (standard Near-Far refinement).
    const vidx_t* const far = q.far.data();
    dist_t closest = kInf;
    for (std::size_t k = 0; k < n_far; ++k) {
      closest = std::min(closest, dist[far[k]]);
    }
    if (closest >= kInf) break;  // only stale entries left
    const dist_t bands =
        std::max<dist_t>(1, (closest - threshold) / delta + 1);
    threshold = sat_add(threshold, static_cast<dist_t>(bands * delta));
    // Each entry is written to both lists; only its side's count advances.
    vidx_t* const near = fit(q.near, n_far);
    vidx_t* const rest = fit(q.next, n_far);
    std::size_t n_rest = 0;
    for (std::size_t k = 0; k < n_far; ++k) {
      const vidx_t v = far[k];
      near[n_near] = v;
      rest[n_rest] = v;
      const bool is_near = dist[v] < threshold;
      n_near += is_near;
      n_rest += !is_near;
    }
    std::swap(q.far, q.next);
    n_far = n_rest;
  }
  return {.relaxations = relaxations,
          .vertices_processed = processed,
          .phases = phases,
          .heavy_relaxations = heavy_relaxations};
}

}  // namespace gapsp::sssp
