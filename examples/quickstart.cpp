// Quickstart: build a graph, let the selector pick an out-of-core APSP
// implementation, solve, and query a few distances.
//
//   ./quickstart            — run on a generated road network
//   ./quickstart graph.mtx  — run on a Matrix Market file
#include <iostream>

#include "core/apsp.h"
#include "graph/generators.h"
#include "graph/matrix_market.h"

int main(int argc, char** argv) {
  using namespace gapsp;

  // 1. Get a graph: a road-like network (or a user-supplied .mtx file).
  graph::CsrGraph g = argc > 1
                          ? graph::read_matrix_market_file(argv[1])
                          : graph::make_road(40, 40, /*seed=*/7);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " density=" << g.density_percent() << "%\n";

  // 2. Configure the (simulated) device and let the selector choose.
  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  core::SelectorOptions sel;
  sel.dense_percent = 4.0;   // thresholds scaled to laptop-sized graphs
  sel.sparse_percent = 0.8;  // (see DESIGN.md §2)

  // 3. Solve into a RAM-backed distance store.
  auto store = core::make_ram_store(g.num_vertices());
  core::SelectorReport report;
  const core::ApspResult r = core::solve_apsp(g, opts, *store, &report, sel);

  std::cout << "selector chose: " << core::algorithm_name(r.used)
            << "  (density " << report.density_percent << "%)\n";
  std::cout << "simulated time: " << r.metrics.sim_seconds * 1e3 << " ms, "
            << "kernels " << r.metrics.kernels << ", D2H "
            << r.metrics.bytes_d2h / (1 << 20) << " MiB in "
            << r.metrics.transfers_d2h << " transfers\n";

  // 4. Query distances: the store is in original vertex order.
  const vidx_t n = g.num_vertices();
  for (vidx_t v : {n / 4, n / 2, n - 1}) {
    const dist_t d = store->at(0, v);
    std::cout << "dist(0, " << v << ") = ";
    if (d >= kInf) {
      std::cout << "unreachable\n";
    } else {
      std::cout << d << "\n";
    }
  }
  return 0;
}
