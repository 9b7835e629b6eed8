// Near-Far SSSP (Davidson et al.) — the simplification of delta-stepping the
// paper adopts for its GPU Johnson implementation (Sec. II-B): a two-level
// worklist where vertices below the current threshold i·Δ go to the Near
// queue and are processed now, everything else waits in the Far queue.
//
// This is the *functional* form shared by the device kernel (one instance
// per simulated thread block inside the MSSP launch) and by host-side tests.
// Its work counters are the MSSP kernel's modeled work: ooc_johnson charges
// the simulated timeline from them, so the visiting order they count is
// part of the contract, not an implementation detail.
//
// Host cost: the Near, next-Near and Far worklists are per-thread buffers
// reused across sources and grown once per vertex to hold its degree, so
// the edge loop neither allocates nor checks capacity. An improved vertex
// is written at both the next-Near and the Far tail and one tail advances,
// so binning takes no branch. The counters advance once per vertex (by its
// out-degree), not once per edge. The edge loop adds without saturating:
// weights are below kInf (CsrGraph::from_edges rejects the rest) and a
// processed vertex's distance is below kInf, so a sum stays below 2·kInf,
// inside a dist_t, and a sum at or past kInf never improves a distance.
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace gapsp::sssp {

struct NearFarStats {
  long long relaxations = 0;      ///< edges examined
  long long vertices_processed = 0;  ///< Near-queue pops (incl. duplicates)
  int phases = 0;                 ///< Near/Far swaps (threshold bumps)
  /// Edges examined at vertices whose out-degree is >= the dynamic-
  /// parallelism threshold — work that the paper offloads to child kernels.
  long long heavy_relaxations = 0;
};

struct NearFarConfig {
  /// Bucket width Δ; <= 0 picks the mean edge weight (resolve_delta in
  /// sssp/delta_stepping.h), an O(m) pass per call — a caller running many
  /// sources resolves it once.
  dist_t delta = 0;
  /// Vertices with out-degree >= this are counted as "heavy" for the
  /// dynamic-parallelism optimization; <= 0 disables the split.
  int heavy_degree_threshold = 0;
};

/// Runs one Near-Far SSSP from `source`, writing distances of all n vertices
/// into `dist_out` (length n, preinitialized by this function).
NearFarStats near_far_sssp(const graph::CsrGraph& g, vidx_t source,
                           std::span<dist_t> dist_out,
                           const NearFarConfig& cfg = {});

}  // namespace gapsp::sssp
