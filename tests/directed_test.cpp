// Directed / asymmetric-weight coverage. The zoo is undirected (SuiteSparse
// matrices are symmetric), but nothing in the algorithms requires symmetry:
// Floyd-Warshall is inherently directed, Johnson runs directed SSSP, and the
// boundary algorithm's cross-edge and C2B/B2C constructions are directional.
// These tests pin that property.
#include <gtest/gtest.h>

#include <vector>

#include "core/apsp.h"
#include "core/component_solver.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "service/path_extract.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

/// Random directed graph: distinct weights per direction, some one-way arcs.
graph::CsrGraph random_directed(vidx_t n, eidx_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (eidx_t e = 0; e < m; ++e) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    if (u == v) continue;
    edges.push_back({u, v, static_cast<dist_t>(rng.next_in(1, 50))});
    if (rng.next_bool(0.5)) {
      // Two-way street with a *different* return weight.
      edges.push_back({v, u, static_cast<dist_t>(rng.next_in(1, 50))});
    }
  }
  // A directed cycle keeps everything reachable without symmetrizing.
  for (vidx_t v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n, static_cast<dist_t>(rng.next_in(1, 50))});
  }
  return graph::CsrGraph::from_edges(n, std::move(edges),
                                     /*symmetrize=*/false);
}

class DirectedApsp : public ::testing::TestWithParam<int> {
 protected:
  static ApspOptions opts() {
    ApspOptions o;
    o.device = sim::DeviceSpec::v100_scaled(2u << 20);
    o.fw_tile = 32;
    return o;
  }
};

TEST_P(DirectedApsp, MatchesDijkstraOnAsymmetricGraph) {
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  const auto g = random_directed(180, 700, 901);
  auto o = opts();
  o.algorithm = algos[GetParam()];
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, o, *store);
  test::expect_store_matches_reference(g, *store, r);
}

TEST_P(DirectedApsp, AsymmetryIsPreserved) {
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  // 0 -> 1 cheap, 1 -> 0 expensive (and no shortcut back).
  auto g = graph::CsrGraph::from_edges(
      3, {{0, 1, 1}, {1, 0, 40}, {1, 2, 1}, {2, 0, 50}}, false);
  auto o = opts();
  o.algorithm = algos[GetParam()];
  auto store = make_ram_store(3);
  const auto r = solve_apsp(g, o, *store);
  EXPECT_EQ(store->at(r.stored_id(0), r.stored_id(1)), 1);
  EXPECT_EQ(store->at(r.stored_id(1), r.stored_id(0)), 40);
  EXPECT_EQ(store->at(r.stored_id(0), r.stored_id(2)), 2);
  EXPECT_EQ(store->at(r.stored_id(2), r.stored_id(0)), 50);
}

TEST_P(DirectedApsp, OneWayUnreachability) {
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  // Strict DAG: nothing flows backwards.
  auto g = graph::CsrGraph::from_edges(
      4, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}, false);
  auto o = opts();
  o.algorithm = algos[GetParam()];
  auto store = make_ram_store(4);
  const auto r = solve_apsp(g, o, *store);
  EXPECT_EQ(store->at(r.stored_id(0), r.stored_id(3)), 9);
  EXPECT_EQ(store->at(r.stored_id(3), r.stored_id(0)), kInf);
  EXPECT_EQ(store->at(r.stored_id(2), r.stored_id(1)), kInf);
}

std::string directed_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"fw", "johnson", "boundary"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DirectedApsp, ::testing::Range(0, 3),
                         directed_name);

TEST(DirectedPath, BacktrackingFollowsArcDirections) {
  const auto g = random_directed(60, 200, 902);
  ApspOptions o;
  o.device = test::tiny_device(1u << 20);
  o.algorithm = Algorithm::kJohnson;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, o, *store);
  const service::QueryEngine engine(*store, {}, r.perm);
  const service::PathExtractor px(g, engine);
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const auto u = static_cast<vidx_t>(rng.next_below(60));
    const auto v = static_cast<vidx_t>(rng.next_below(60));
    const dist_t d = px.distance(u, v);
    const auto p = px.path(u, v);
    if (d >= kInf) {
      EXPECT_TRUE(p.empty());
    } else {
      ASSERT_FALSE(p.empty());
      // walk_length validates every hop as a real *directed* arc.
      EXPECT_EQ(px.walk_length(p), d);
    }
  }
}

TEST(DirectedComponents, BackwardArcStillOneWeakComponent) {
  // Regression: component_labels used to follow out-edges only, so the sole
  // arc 1 -> 0 left vertex 0 labelled before its in-neighbour was reached
  // and the graph split into two bogus components.
  const auto g = graph::CsrGraph::from_edges(2, {{1, 0, 5}}, false);
  const auto labels = graph::component_labels(g);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(graph::count_components(g), 1);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(DirectedComponents, ReverseChainIsOneWeakComponent) {
  // Every arc points "backwards" (v -> v-1): an out-edge-only BFS from any
  // start reaches only lower-numbered vertices, fragmenting the chain.
  std::vector<graph::Edge> edges;
  for (vidx_t v = 1; v < 50; ++v) edges.push_back({v, v - 1, 1});
  const auto g = graph::CsrGraph::from_edges(50, std::move(edges), false);
  EXPECT_EQ(graph::count_components(g), 1);
  const auto labels = graph::component_labels(g);
  for (vidx_t v = 1; v < 50; ++v) EXPECT_EQ(labels[v], labels[0]);
}

TEST(DirectedComponents, PerComponentSolveKeepsOneWayDistances) {
  // Weak components group 1 -> 0 together, and the per-component solve must
  // still report the directed truth: 1 reaches 0, 0 never reaches 1.
  const auto g = graph::CsrGraph::from_edges(2, {{1, 0, 5}}, false);
  ApspOptions o;
  o.device = test::tiny_device(1u << 20);
  o.algorithm = Algorithm::kJohnson;
  auto store = make_ram_store(2);
  const auto r = solve_apsp_per_component(g, o, *store, {});
  EXPECT_EQ(r.num_components, 1);
  EXPECT_EQ(store->at(r.result.stored_id(1), r.result.stored_id(0)), 5);
  EXPECT_EQ(store->at(r.result.stored_id(0), r.result.stored_id(1)), kInf);
}

}  // namespace
}  // namespace gapsp::core
