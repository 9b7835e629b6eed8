// Reference Near-Far SSSP for the equivalence tests: the straightforward
// loop (per-source vectors, per-edge counters, a branch on the bin choice,
// saturating adds) that defines the visiting order. The library keeps one
// implementation, sssp::near_far_sssp; this copy lives only in the tests,
// which require the library to reproduce its distances and all four work
// counters exactly, because the counters are the MSSP's modeled charge.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sssp/delta_stepping.h"
#include "sssp/near_far.h"

namespace gapsp::test {

inline sssp::NearFarStats reference_near_far(const graph::CsrGraph& g,
                                             vidx_t source,
                                             std::span<dist_t> dist_out,
                                             const sssp::NearFarConfig& cfg) {
  const dist_t delta = sssp::resolve_delta(g, cfg.delta);

  std::fill(dist_out.begin(), dist_out.end(), kInf);
  dist_out[source] = 0;

  sssp::NearFarStats stats;
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
    while (!near.empty()) {
      for (vidx_t u : near) {
        ++stats.vertices_processed;
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
    ++stats.phases;
    dist_t closest = kInf;
    for (vidx_t v : far) closest = std::min(closest, dist_out[v]);
    if (closest >= kInf) break;
    const dist_t bands =
        std::max<dist_t>(1, (closest - threshold) / delta + 1);
    threshold = sat_add(threshold, static_cast<dist_t>(bands * delta));
    for (vidx_t v : far) {
      if (dist_out[v] < threshold) near.push_back(v);
      else next_near.push_back(v);
    }
    far.clear();
    far.swap(next_near);
  }
  return stats;
}

/// Runs the library and the reference from `source` under `cfg` and
/// asserts equal rows and equal counters.
inline void expect_near_far_matches_reference(const graph::CsrGraph& g,
                                              vidx_t source,
                                              const sssp::NearFarConfig& cfg) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<dist_t> want(n), got(n);
  const auto ref = reference_near_far(g, source, want, cfg);
  const auto st = sssp::near_far_sssp(g, source, got, cfg);
  ASSERT_EQ(got, want) << "row of source " << source << ", delta "
                       << cfg.delta << ", heavy "
                       << cfg.heavy_degree_threshold;
  ASSERT_EQ(st.relaxations, ref.relaxations) << "source " << source;
  ASSERT_EQ(st.heavy_relaxations, ref.heavy_relaxations) << "source " << source;
  ASSERT_EQ(st.vertices_processed, ref.vertices_processed)
      << "source " << source;
  ASSERT_EQ(st.phases, ref.phases) << "source " << source;
}

}  // namespace gapsp::test
