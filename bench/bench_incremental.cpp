// Incremental delta-repair vs full re-solve (DESIGN.md §16, ISSUE 10).
//
// For each (graph × churn % × update mix) cell this solves the pristine road
// graph into a kept RAM store, perturbs churn·m arcs (decrease-only /
// increase-only / mixed), then measures wall-clock of (a) the
// IncrementalEngine repair of the kept store and (b) a from-scratch
// solve_apsp of the updated graph — the cost the repair path avoids. Every
// cell asserts bit-parity between the repaired store and the fresh solve.
// Writes BENCH_incremental.json.
//
// Acceptance guards (ISSUE 10), checked when the flag is given:
//   --assert-min-speedup S   decrease-only road cells at ≤1% churn must
//                            reach max(10, S)×; mixed cells the ISSUE's own
//                            fixed 3× floor (S guards the headline
//                            decrease-only number — mixed batches pay for
//                            exact SWSF raise repair and legitimately sit
//                            near break-even on the smallest graph at the
//                            highest churn, the regime where the engine's
//                            cost model would pick the full re-solve).
// Bit-parity is asserted unconditionally. Flags accept `--flag=V`/`--flag V`.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gapsp;

struct Row {
  std::string graph;
  vidx_t n = 0;
  long long arcs = 0;
  double churn_pct = 0.0;
  std::string mix;
  long long batch = 0;
  long long damaged_rows = 0;
  long long tiles_touched = 0;
  long long tiles_total = 0;
  bool full_solve = false;  ///< damage threshold tripped inside the engine
  double repair_s = 0.0;
  double probe_s = 0.0;
  double sssp_s = 0.0;
  double panel_s = 0.0;
  double tile_s = 0.0;
  double full_s = 0.0;
  double speedup = 0.0;
  double modeled_repair_s = 0.0;
  double modeled_full_s = 0.0;
  bool bit_identical = false;
};

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"graph\": \"" << r.graph << "\", \"n\": " << r.n
        << ", \"arcs\": " << r.arcs << ", \"churn_pct\": " << r.churn_pct
        << ", \"mix\": \"" << r.mix << "\", \"batch\": " << r.batch
        << ", \"damaged_rows\": " << r.damaged_rows
        << ", \"tiles_touched\": " << r.tiles_touched
        << ", \"tiles_total\": " << r.tiles_total
        << ", \"full_solve_fallback\": " << (r.full_solve ? "true" : "false")
        << ", \"repair_s\": " << r.repair_s << ", \"probe_s\": " << r.probe_s
        << ", \"sssp_s\": " << r.sssp_s << ", \"panel_s\": " << r.panel_s
        << ", \"tile_s\": " << r.tile_s << ", \"full_s\": " << r.full_s
        << ", \"speedup\": " << r.speedup
        << ", \"modeled_repair_s\": " << r.modeled_repair_s
        << ", \"modeled_full_s\": " << r.modeled_full_s
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

/// churn·arcs updates of the requested mix over existing arcs, mirroring the
/// batches a live-traffic feed would produce (last-wins dedup is the
/// engine's job, not ours).
std::vector<core::EdgeUpdate> make_batch(const graph::CsrGraph& g,
                                         const std::string& mix,
                                         std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const vidx_t n = g.num_vertices();
  std::vector<core::EdgeUpdate> batch;
  while (batch.size() < count) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    if (nbrs.empty()) continue;
    const auto e = rng.next_below(nbrs.size());
    const dist_t w = ws[e];
    const bool decrease =
        mix == "decrease" || (mix == "mixed" && rng.next_below(2) == 0);
    if (decrease) {
      if (w <= 1) continue;
      batch.push_back({u, nbrs[e],
                       static_cast<dist_t>(rng.next_below(
                           static_cast<std::uint64_t>(w)))});  // [0, w)
    } else {
      batch.push_back(
          {u, nbrs[e], static_cast<dist_t>(w + 1 + rng.next_below(60))});
    }
  }
  return batch;
}

/// Row-by-row byte comparison of two stores of one dimension.
bool stores_bit_identical(const core::DistStore& got,
                          const core::DistStore& want) {
  const vidx_t n = got.n();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t u = 0; u < n; ++u) {
    got.read_block(u, 0, 1, n, a.data(), a.size());
    want.read_block(u, 0, 1, n, b.data(), b.size());
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(dist_t)) != 0) {
      return false;
    }
  }
  return true;
}

core::ApspOptions solve_opts() {
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled();
  o.algorithm = core::Algorithm::kBlockedFloydWarshall;
  return o;
}

Row run_cell(const std::string& name, const graph::CsrGraph& g,
             double churn_pct, const std::string& mix, std::uint64_t seed) {
  Row row;
  row.graph = name;
  row.n = g.num_vertices();
  row.arcs = static_cast<long long>(g.num_edges());
  row.churn_pct = churn_pct;
  row.mix = mix;

  const auto count = static_cast<std::size_t>(
      std::max(2.0, churn_pct / 100.0 * static_cast<double>(row.arcs)));
  const auto batch = make_batch(g, mix, count, seed);
  row.batch = static_cast<long long>(batch.size());

  // The kept artifact the repair path protects: one full pristine solve.
  auto kept = core::make_ram_store(row.n);
  core::solve_apsp(g, solve_opts(), *kept);

  core::IncrementalOptions iopt;
  iopt.tile = 64;
  iopt.solve_opts = solve_opts();
  core::IncrementalEngine engine(g, iopt);
  Timer t_repair;
  const auto out = engine.apply_in_place(*kept, batch);
  row.repair_s = t_repair.seconds();

  const auto updated = core::apply_edge_updates(g, batch);
  auto fresh = core::make_ram_store(row.n);
  Timer t_full;
  core::solve_apsp(updated, solve_opts(), *fresh);
  row.full_s = t_full.seconds();

  row.speedup = row.full_s / std::max(row.repair_s, 1e-12);
  row.probe_s = out.probe_seconds;
  row.sssp_s = out.sssp_seconds;
  row.panel_s = out.panel_seconds;
  row.tile_s = out.tile_seconds;
  row.damaged_rows = out.damaged_rows;
  row.tiles_touched = out.tiles_touched;
  row.tiles_total = out.tiles_total;
  row.full_solve = out.full_solve;
  row.modeled_repair_s = out.modeled_repair_seconds;
  row.modeled_full_s = out.modeled_full_seconds;
  row.bit_identical = stores_bit_identical(*kept, *fresh);
  return row;
}

double flag_value(int argc, char** argv, int& i, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return -1.0;
  if (argv[i][len] == '=') return std::stod(argv[i] + len + 1);
  if (argv[i][len] == '\0' && i + 1 < argc) return std::stod(argv[++i]);
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    double v;
    if ((v = flag_value(argc, argv, i, "--assert-min-speedup")) >= 0.0) {
      min_speedup = v;
    }
  }

  struct GraphCell {
    std::string name;
    graph::CsrGraph g;
  };
  std::vector<GraphCell> graphs;
  graphs.push_back({"road32", graph::make_road(32, 32, 11)});
  graphs.push_back({"road48", graph::make_road(48, 48, 12)});

  std::vector<Row> rows;
  Table table({"graph", "n", "churn %", "mix", "batch", "tiles", "repair (ms)",
               "full (ms)", "speedup", "parity"});
  for (const auto& gc : graphs) {
    for (const double churn : {0.1, 1.0}) {
      for (const std::string mix : {"decrease", "increase", "mixed"}) {
        const Row r = run_cell(gc.name, gc.g, churn, mix, 29);
        rows.push_back(r);
        table.add_row({r.graph, Table::count(r.n), Table::num(r.churn_pct, 1),
                       r.mix, Table::count(r.batch),
                       Table::count(r.tiles_touched) + "/" +
                           Table::count(r.tiles_total),
                       Table::num(r.repair_s * 1e3, 2),
                       Table::num(r.full_s * 1e3, 2),
                       Table::num(r.speedup, 1) + "x",
                       r.bit_identical ? "ok" : "MISMATCH"});
      }
    }
  }
  table.print(std::cout);
  write_json(rows, "BENCH_incremental.json");

  bool ok = true;
  for (const Row& r : rows) {
    if (!r.bit_identical) {
      std::cerr << "FAIL: " << r.graph << " churn " << r.churn_pct << "% "
                << r.mix << " repair is not bit-identical to a fresh solve\n";
      ok = false;
    }
  }
  if (min_speedup > 0.0) {
    for (const Row& r : rows) {
      double floor = 0.0;
      if (r.mix == "decrease" && r.churn_pct <= 1.0) {
        floor = std::max(10.0, min_speedup);
      } else if (r.mix == "mixed") {
        floor = 3.0;
      }
      if (floor > 0.0 && r.speedup < floor) {
        std::cerr << "FAIL: " << r.graph << " churn " << r.churn_pct << "% "
                  << r.mix << " speedup " << r.speedup << " < " << floor
                  << "\n";
        ok = false;
      }
    }
  }
  if (!ok) return 1;
  if (min_speedup > 0.0) {
    std::cout << "asserts passed (min-speedup " << min_speedup << ")\n";
  }
  return 0;
}
