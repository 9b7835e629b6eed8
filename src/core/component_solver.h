// Connected-component pre-decomposition.
//
// APSP distances across connected components are kInf by definition, so on
// a disconnected graph every all-pairs algorithm wastes the cross-component
// share of its O(n²)+ work and output traffic. This wrapper splits the
// graph into components and solves them independently, each group through
// a window of the store in a group-contiguous vertex order, then lands every
// row at its original row and columns with kInf outside its group.
//
// Tiny components are *batched*: each device solve carries fixed costs
// (graph upload, kernel launches), so solving hundreds of fragments one by
// one is slower than the monolithic run even though it moves less data.
// Components below `small_threshold` are packed into solve groups of up to
// `group_target` vertices and solved together; the cross-fragment entries
// inside one group are computed (and correctly come out kInf) but the
// group totals stay near Σnᵢ² instead of n².
#pragma once

#include "core/apsp.h"

namespace gapsp::core {

struct ComponentSolverOptions {
  /// Components with fewer vertices than this are packed into groups.
  vidx_t small_threshold = 64;
  /// Target vertex count per packed group.
  vidx_t group_target = 512;
};

struct ComponentResult {
  ApspResult result;  ///< aggregated metrics
  int num_components = 0;
  int num_groups = 0;
  vidx_t largest_component = 0;
  /// Algorithm used per solve group, in solve order.
  std::vector<Algorithm> per_group;
};

/// Solves APSP per connected component (small ones batched) into `store`,
/// in original vertex order. Every entry is written, so the store's prior
/// contents do not matter.
ComponentResult solve_apsp_per_component(
    const graph::CsrGraph& g, const ApspOptions& opts, DistStore& store,
    const SelectorOptions& sel = {}, const ComponentSolverOptions& cs = {});

}  // namespace gapsp::core
