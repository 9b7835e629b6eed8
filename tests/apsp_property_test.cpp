// Cross-implementation property sweep: every algorithm × every graph family
// must agree exactly with the Dijkstra oracle, and the outputs must satisfy
// metric-space invariants (symmetry for undirected inputs, triangle
// inequality, zero diagonal).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/apsp.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

struct FamilyCase {
  const char* name;
  graph::CsrGraph (*make)();
};

graph::CsrGraph family_road() { return graph::make_road(13, 14, 201); }
graph::CsrGraph family_mesh() { return graph::make_mesh(200, 10, 202); }
graph::CsrGraph family_rmat() { return graph::make_rmat(7, 900, 203); }
graph::CsrGraph family_er() { return graph::make_erdos_renyi(180, 700, 204); }
graph::CsrGraph family_disconnected() {
  return graph::make_erdos_renyi(150, 120, 205, /*connect=*/false);
}

const FamilyCase kFamilies[] = {
    {"road", family_road},
    {"mesh", family_mesh},
    {"rmat", family_rmat},
    {"erdos", family_er},
    {"disconnected", family_disconnected},
};

const Algorithm kAlgorithms[] = {
    Algorithm::kBlockedFloydWarshall,
    Algorithm::kJohnson,
    Algorithm::kBoundary,
};

class ApspProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static ApspOptions opts() {
    ApspOptions o;
    o.device = test::tiny_device(2u << 20);
    o.fw_tile = 32;
    return o;
  }
};

TEST_P(ApspProperty, MatchesDijkstraOracle) {
  const auto& family = kFamilies[std::get<0>(GetParam())];
  const Algorithm algo = kAlgorithms[std::get<1>(GetParam())];
  const auto g = family.make();
  auto o = opts();
  o.algorithm = algo;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, o, *store);
  EXPECT_EQ(r.used, algo);
  test::expect_store_matches_reference(g, *store);
}

TEST_P(ApspProperty, MetricSpaceInvariants) {
  const auto& family = kFamilies[std::get<0>(GetParam())];
  const Algorithm algo = kAlgorithms[std::get<1>(GetParam())];
  const auto g = family.make();
  auto o = opts();
  o.algorithm = algo;
  auto store = make_ram_store(g.num_vertices());
  solve_apsp(g, o, *store);

  const vidx_t n = g.num_vertices();
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const vidx_t u = static_cast<vidx_t>(rng.next_below(n));
    const vidx_t v = static_cast<vidx_t>(rng.next_below(n));
    const vidx_t w = static_cast<vidx_t>(rng.next_below(n));
    const dist_t duv = store->at(u, v);
    const dist_t dvu = store->at(v, u);
    const dist_t duw = store->at(u, w);
    const dist_t dwv = store->at(w, v);
    // Zero diagonal.
    ASSERT_EQ(store->at(u, u), 0);
    // Symmetry (all generators emit undirected graphs).
    ASSERT_EQ(duv, dvu);
    // Triangle inequality (with saturating infinity).
    ASSERT_LE(duv, sat_add(duw, dwv));
    // Distances bounded below by any single edge... non-negative.
    ASSERT_GE(duv, 0);
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const char* algo_names[] = {"fw", "johnson", "boundary"};
  return std::string(kFamilies[std::get<0>(info.param)].name) + "_" +
         algo_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApspProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 3)),
    param_name);

// ---- targeted edge cases across all algorithms ----

class ApspEdgeCase : public ::testing::TestWithParam<int> {};

TEST_P(ApspEdgeCase, TwoVertexGraph) {
  const auto g =
      graph::CsrGraph::from_edges(2, {{0, 1, 9}}, /*symmetrize=*/true);
  ApspOptions o;
  o.device = test::tiny_device(1u << 20);
  o.algorithm = kAlgorithms[GetParam()];
  auto store = make_ram_store(2);
  solve_apsp(g, o, *store);
  EXPECT_EQ(store->at(0, 1), 9);
  EXPECT_EQ(store->at(0, 0), 0);
}

TEST_P(ApspEdgeCase, ZeroWeightEdges) {
  const auto g = graph::CsrGraph::from_edges(
      4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 5}}, true);
  ApspOptions o;
  o.device = test::tiny_device(1u << 20);
  o.algorithm = kAlgorithms[GetParam()];
  auto store = make_ram_store(4);
  solve_apsp(g, o, *store);
  EXPECT_EQ(store->at(0, 2), 0);
  EXPECT_EQ(store->at(0, 3), 5);
}

TEST_P(ApspEdgeCase, StarGraphHighDegreeHub) {
  std::vector<graph::Edge> edges;
  for (vidx_t leaf = 1; leaf < 40; ++leaf) {
    edges.push_back({0, leaf, static_cast<dist_t>(leaf)});
  }
  const auto g = graph::CsrGraph::from_edges(40, std::move(edges), true);
  ApspOptions o;
  o.device = test::tiny_device(1u << 20);
  o.algorithm = kAlgorithms[GetParam()];
  o.heavy_degree_threshold = 8;  // hub goes through the DP path for Johnson
  auto store = make_ram_store(40);
  solve_apsp(g, o, *store);
  test::expect_store_matches_reference(g, *store);
}

std::string algo_param_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"fw", "johnson", "boundary"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ApspEdgeCase, ::testing::Range(0, 3),
                         algo_param_name);

}  // namespace
}  // namespace gapsp::core
