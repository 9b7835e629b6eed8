// Delta-stepping (Meyer & Sanders) — the SSSP variant used by the Galois
// comparison point in Fig. 4, and the generalization the paper's Near-Far
// implementation simplifies.
#pragma once

#include <vector>

#include "graph/csr_graph.h"

namespace gapsp::sssp {

struct DeltaSteppingResult {
  std::vector<dist_t> dist;
  int buckets_processed = 0;
  long long relaxations = 0;
};

/// The bucket width Δ of a bucketed SSSP over `g`: `delta` when positive,
/// else the mean edge weight rounded, at least 1 (common practice). The
/// mean is an O(m) pass, so a caller running many sources resolves Δ once
/// and passes it on.
dist_t resolve_delta(const graph::CsrGraph& g, dist_t delta);

/// Bucketed SSSP. `delta` <= 0 selects the heuristic bucket width of
/// resolve_delta.
DeltaSteppingResult delta_stepping(const graph::CsrGraph& g, vidx_t source,
                                   dist_t delta = 0);

}  // namespace gapsp::sssp
