#include "core/verify.h"

#include <set>
#include <sstream>
#include <vector>

#include "sssp/dijkstra.h"
#include "util/rng.h"

namespace gapsp::core {

VerifyReport verify_result(const graph::CsrGraph& g, const DistStore& store,
                           const ApspResult& /*result*/, int samples,
                           std::uint64_t seed) {
  VerifyReport rep;
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(store.n() == n, "store does not match graph");
  if (n == 0) return rep;

  std::set<vidx_t> rows{0, n - 1};
  Rng rng(seed);
  while (static_cast<int>(rows.size()) < std::min<int>(samples, n)) {
    rows.insert(static_cast<vidx_t>(rng.next_below(n)));
  }

  std::ostringstream detail;
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t u : rows) {
    const auto ref = sssp::dijkstra(g, u);
    store.read_block(u, 0, 1, n, row.data(), row.size());
    ++rep.rows_checked;
    for (vidx_t v = 0; v < n; ++v) {
      ++rep.entries_checked;
      if (row[v] != ref[v]) {
        if (++rep.mismatches <= 5) {
          detail << "dist(" << u << "," << v << ") stored " << row[v]
                 << " expected " << ref[v] << "\n";
        }
      }
    }
    // Zero diagonal, independently of the reference row.
    if (row[u] != 0) {
      ++rep.mismatches;
      detail << "dist(" << u << "," << u << ") != 0\n";
    }
  }
  rep.ok = rep.mismatches == 0;
  rep.detail = detail.str();
  return rep;
}

}  // namespace gapsp::core
