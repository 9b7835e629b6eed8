// Domain example: city-to-city distance tables on a road network.
//
// Road networks are the paper's flagship small-separator workload: the
// boundary algorithm partitions the map into regions, solves each region on
// the GPU, stitches them through the (small) boundary graph, and streams the
// full distance table out-of-core. This example builds a synthetic road
// network, runs the boundary algorithm explicitly, compares its simulated
// time against the multicore BGL-plus baseline, and prints a distance table
// between a handful of "cities" (random junctions).
#include <cmath>
#include <iostream>

#include "baseline/baselines.h"
#include "core/apsp.h"
#include "core/ooc_boundary.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace gapsp;

  const graph::CsrGraph map = graph::make_road(46, 46, /*seed=*/2026);
  std::cout << "road network: " << map.num_vertices() << " junctions, "
            << map.num_edges() / 2 << " road segments\n\n";

  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  opts.algorithm = core::Algorithm::kBoundary;

  const core::BoundaryPlan plan = core::plan_boundary(map, opts);
  std::cout << "partition: k=" << plan.k << " components, max size "
            << plan.max_comp << ", " << plan.nb << " boundary junctions "
            << "(√(k·n) ideal ≈ "
            << static_cast<int>(std::sqrt(static_cast<double>(plan.k) *
                                          map.num_vertices()))
            << ")\n";

  auto store = core::make_ram_store(map.num_vertices());
  const core::ApspResult r = core::ooc_boundary(map, opts, plan, *store);
  const auto bgl =
      baseline::bgl_plus_apsp(map, baseline::CpuSpec::e5_2680_v2());

  std::cout << "boundary algorithm (simulated V100): "
            << r.metrics.sim_seconds * 1e3 << " ms\n"
            << "BGL-plus 28-thread baseline (modeled): "
            << bgl.sim_seconds * 1e3 << " ms\n"
            << "speedup: " << bgl.sim_seconds / r.metrics.sim_seconds
            << "x\n\n";

  // Distance table between a few random "cities".
  Rng rng(99);
  std::vector<vidx_t> cities;
  for (int i = 0; i < 6; ++i) {
    cities.push_back(static_cast<vidx_t>(rng.next_below(map.num_vertices())));
  }
  Table table([&] {
    std::vector<std::string> h{"from\\to"};
    for (vidx_t c : cities) h.push_back("j" + std::to_string(c));
    return h;
  }());
  for (vidx_t from : cities) {
    std::vector<std::string> row{"j" + std::to_string(from)};
    for (vidx_t to : cities) {
      const dist_t d = store->at(from, to);
      row.push_back(d >= kInf ? "-" : std::to_string(d));
    }
    table.add_row(row);
  }
  std::cout << "pairwise driving distances:\n";
  table.print(std::cout);
  return 0;
}
