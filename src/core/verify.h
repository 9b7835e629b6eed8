// Result verification: spot-checks a solved distance store against
// independently computed Dijkstra rows plus structural invariants. Cheap
// enough to run after every production solve (O(samples · m log n) —
// nothing like the solve itself), and exposed in the CLI as --verify.
#pragma once

#include <string>

#include "core/apsp_options.h"
#include "core/dist_store.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

struct VerifyReport {
  bool ok = true;
  int rows_checked = 0;
  long long entries_checked = 0;
  int mismatches = 0;
  /// First few mismatches, human-readable (empty when ok).
  std::string detail;
};

/// Verifies `samples` uniformly random rows (always including row 0 and the
/// last row) of the store against Dijkstra, plus the zero diagonal. The
/// ApspResult is not read: every solver writes original vertex order, and
/// the parameter stays only so the benchmark harness (perf/) compiles.
VerifyReport verify_result(const graph::CsrGraph& g, const DistStore& store,
                           const ApspResult& result, int samples = 8,
                           std::uint64_t seed = 1);

}  // namespace gapsp::core
