// Unified public entry point of the gapsp library.
//
//   auto store = gapsp::core::make_ram_store(g.num_vertices());
//   gapsp::core::ApspOptions opts;                 // simulated V100, kAuto
//   auto result = gapsp::core::solve_apsp(g, opts, *store);
//   dist_t d = store->at(u, v);                    // original vertex ids
//
// With Algorithm::kAuto the Sec. IV selector (density filter + cost models)
// picks among the three out-of-core implementations.
#pragma once

#include "core/apsp_options.h"
#include "core/dist_store.h"
#include "core/selector.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

/// Solves APSP into `store` using opts.algorithm, running the selector when
/// it is kAuto. When `report` is non-null and the selector ran, the full
/// selection report is copied there.
ApspResult solve_apsp(const graph::CsrGraph& g, const ApspOptions& opts,
                      DistStore& store, SelectorReport* report = nullptr,
                      const SelectorOptions& sel = {});

}  // namespace gapsp::core
