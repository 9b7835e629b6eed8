// Shortest-path reconstruction from a served distance matrix.
//
// The out-of-core solvers produce distances only (like the paper); storing a
// predecessor matrix would double the already output-dominated footprint.
// Instead, paths are reconstructed on demand by distance backtracking: a
// vertex w is the predecessor of v on a shortest u→v path iff
// dist(u,w) + weight(w,v) == dist(u,v). Each query costs
// O(path_length · max_in_degree) distance lookups, each one a
// QueryEngine::point: backtracking hammers row u of the store, and the
// engine's tile cache turns that into a few tile reads instead of one
// seek (or one whole-tile decompression) per element.
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "service/query_engine.h"

namespace gapsp::service {

class PathExtractor {
 public:
  /// `engine` must serve a completed solve's store over `g` and outlive
  /// the extractor. The graph is transposed once at construction. Every
  /// distance reads through the engine, so its cache, checked reader,
  /// update overlay and repair source apply; an unserveable, unrepaired
  /// tile surfaces as core::TileError from distance()/path().
  PathExtractor(const graph::CsrGraph& g, const QueryEngine& engine);

  /// Shortest distance u → v (kInf when unreachable).
  dist_t distance(vidx_t u, vidx_t v) const { return engine_.point(u, v); }

  /// Vertex sequence of one shortest u → v path, inclusive of both
  /// endpoints. Returns {u} when u == v and {} when v is unreachable.
  std::vector<vidx_t> path(vidx_t u, vidx_t v) const;

  /// Sum of edge weights along `path` as stored in the graph; kInf if the
  /// sequence is not a valid walk. Exposed for verification.
  dist_t walk_length(const std::vector<vidx_t>& path) const;

 private:
  const graph::CsrGraph& g_;
  graph::CsrGraph reverse_;
  const QueryEngine& engine_;
};

}  // namespace gapsp::service
