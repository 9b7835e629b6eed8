#include <gtest/gtest.h>

#include <vector>

#include "core/component_solver.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions opts() {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = Algorithm::kJohnson;
  return o;
}

SelectorOptions sel() {
  SelectorOptions s;
  s.dense_percent = 4.0;
  s.sparse_percent = 0.8;
  return s;
}

graph::CsrGraph two_islands() {
  // Two disjoint chains: {0..59} and {60..139}.
  std::vector<graph::Edge> edges;
  for (vidx_t v = 1; v < 60; ++v) edges.push_back({v - 1, v, 1});
  for (vidx_t v = 61; v < 140; ++v) edges.push_back({v - 1, v, 2});
  return graph::CsrGraph::from_edges(140, std::move(edges), true);
}

TEST(ComponentSolver, SingleComponentDegradesToPlainSolve) {
  const auto g = graph::make_road(12, 12, 701);
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  EXPECT_EQ(r.num_components, 1);
  EXPECT_EQ(r.largest_component, g.num_vertices());
  test::expect_store_matches_reference(g, *store, r.result);
}

TEST(ComponentSolver, TwoIslandsSolvedIndependently) {
  const auto g = two_islands();
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.largest_component, 80);
  test::expect_store_matches_reference(g, *store, r.result);
  // Cross-island entries stayed at the store's kInf initialization.
  EXPECT_EQ(store->at(r.result.stored_id(0), r.result.stored_id(100)), kInf);
}

TEST(ComponentSolver, IsolatedVerticesHandled) {
  auto g = graph::CsrGraph::from_edges(7, {{0, 1, 3}, {1, 2, 4}}, true);
  // vertices 3..6 are isolated singletons
  auto store = make_ram_store(7);
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  EXPECT_EQ(r.num_components, 5);
  test::expect_store_matches_reference(g, *store, r.result);
  for (vidx_t v : {3, 4, 5, 6}) {
    EXPECT_EQ(store->at(r.result.stored_id(v), r.result.stored_id(v)), 0);
  }
}

TEST(ComponentSolver, ManyRandomComponents) {
  const auto g = graph::make_erdos_renyi(300, 260, 702, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  EXPECT_GT(r.num_components, 1);
  EXPECT_EQ(static_cast<int>(r.per_group.size()), r.num_groups);
  EXPECT_LE(r.num_groups, r.num_components);  // small fragments were packed
  test::expect_store_matches_reference(g, *store, r.result);
}

TEST(ComponentSolver, LessOutputTrafficThanMonolithicSolve) {
  const auto g = two_islands();
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto split = solve_apsp_per_component(g, opts(), *s1, sel());
  const auto mono = solve_apsp(g, opts(), *s2);
  // Σnᵢ² = 60² + 80² = 10000 < 140² = 19600 — the whole point.
  EXPECT_LT(split.result.metrics.bytes_d2h, mono.metrics.bytes_d2h);
}

TEST(ComponentSolver, AutoSelectionPerComponent) {
  const auto g = two_islands();
  auto o = opts();
  o.algorithm = Algorithm::kAuto;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, o, *store, sel());
  ASSERT_EQ(r.per_group.size(), 2u);  // 80 and 60 both exceed the pack size
  for (const Algorithm a : r.per_group) {
    EXPECT_NE(a, Algorithm::kAuto);
  }
  test::expect_store_matches_reference(g, *store, r.result);
}

TEST(ComponentSolver, PermutationIsBijection) {
  const auto g = graph::make_erdos_renyi(200, 150, 703, false);
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  std::vector<bool> seen(static_cast<std::size_t>(g.num_vertices()), false);
  for (vidx_t p : r.result.perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, g.num_vertices());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(ComponentSolver, DirectedIslandsUseWeakComponents) {
  // Regression: island B is a *reverse* chain (every arc v -> v-1), which an
  // out-edge-only labelling shreds into singletons — the packed-group solve
  // then produced wrong group shapes. Weak labelling keeps each island whole.
  std::vector<graph::Edge> edges;
  for (vidx_t v = 1; v < 50; ++v) edges.push_back({v - 1, v, 1});    // A: fwd
  for (vidx_t v = 51; v < 120; ++v) edges.push_back({v, v - 1, 2});  // B: rev
  const auto g = graph::CsrGraph::from_edges(120, std::move(edges),
                                             /*symmetrize=*/false);
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, opts(), *store, sel());
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.largest_component, 70);
  test::expect_store_matches_reference(g, *store, r.result);
  // Directedness survives the decomposition: B flows only downwards.
  EXPECT_EQ(store->at(r.result.stored_id(119), r.result.stored_id(51)), 136);
  EXPECT_EQ(store->at(r.result.stored_id(51), r.result.stored_id(119)), kInf);
}

TEST(ComponentSolver, MetricsCarryEveryAdditiveCounter) {
  // Regression: the per-group sum kept 10 counters by hand and dropped the
  // overlap split, the codec's wire bytes and its decodes.
  const auto g = graph::make_erdos_renyi(300, 260, 704, /*connect=*/false);
  auto o = opts();
  o.transfer_compression = TransferCompression::kOn;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp_per_component(g, o, *store, sel());
  ASSERT_GT(r.num_groups, 1);
  const ApspMetrics& m = r.result.metrics;
  EXPECT_GT(m.transfer_seconds, 0.0);
  EXPECT_NEAR(m.hidden_transfer_seconds + m.exposed_transfer_seconds,
              m.transfer_seconds, m.transfer_seconds * 1e-9);
  EXPECT_GT(m.bytes_d2h_wire, 0u);
  EXPECT_GT(m.bytes_d2h_raw, m.bytes_d2h_wire);
  EXPECT_GT(m.decodes, 0);
  test::expect_store_matches_reference(g, *store, r.result);
}

}  // namespace
}  // namespace gapsp::core
