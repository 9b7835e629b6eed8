#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "sssp/bellman_ford.h"
#include "sssp/delta_stepping.h"
#include "sssp/dijkstra.h"
#include "sssp/near_far.h"

namespace gapsp::sssp {
namespace {

graph::CsrGraph line_graph() {
  // 0 -5- 1 -3- 2 -1- 3
  return graph::CsrGraph::from_edges(
      4, {{0, 1, 5}, {1, 2, 3}, {2, 3, 1}}, /*symmetrize=*/true);
}

TEST(Dijkstra, LineGraphExactDistances) {
  const auto d = dijkstra(line_graph(), 0);
  EXPECT_EQ(d, (std::vector<dist_t>{0, 5, 8, 9}));
}

TEST(Dijkstra, FromLastVertex) {
  const auto d = dijkstra(line_graph(), 3);
  EXPECT_EQ(d, (std::vector<dist_t>{9, 4, 1, 0}));
}

TEST(Dijkstra, UnreachableVerticesStayInfinite) {
  auto g = graph::CsrGraph::from_edges(4, {{0, 1, 2}}, true);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[1], 2);
  EXPECT_EQ(d[2], kInf);
  EXPECT_EQ(d[3], kInf);
}

TEST(Dijkstra, SingleVertexGraph) {
  auto g = graph::CsrGraph::from_edges(1, {}, false);
  EXPECT_EQ(dijkstra(g, 0), (std::vector<dist_t>{0}));
}

TEST(Dijkstra, ZeroWeightEdges) {
  auto g = graph::CsrGraph::from_edges(3, {{0, 1, 0}, {1, 2, 0}}, true);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d, (std::vector<dist_t>{0, 0, 0}));
}

TEST(Dijkstra, CountersArePopulated) {
  SsspCounters c;
  dijkstra(graph::make_road(10, 10, 1), 0, &c);
  EXPECT_GT(c.relaxations, 0);
  EXPECT_GT(c.heap_pops, 0);
  EXPECT_GE(c.heap_pops, 100);  // at least one pop per reachable vertex
}

TEST(Dijkstra, RejectsBadSource) {
  EXPECT_THROW(dijkstra(line_graph(), 7), Error);
  EXPECT_THROW(dijkstra(line_graph(), -1), Error);
}

TEST(BellmanFord, MatchesDijkstraOnLine) {
  const auto bf = bellman_ford(line_graph(), 1);
  EXPECT_EQ(bf.dist, dijkstra(line_graph(), 1));
  EXPECT_GE(bf.rounds, 1);
}

TEST(DeltaStepping, MatchesDijkstraOnLine) {
  EXPECT_EQ(delta_stepping(line_graph(), 0).dist, dijkstra(line_graph(), 0));
}

TEST(DeltaStepping, ExplicitDeltaValuesAgree) {
  const auto g = graph::make_mesh(300, 8, 4);
  const auto ref = dijkstra(g, 7);
  for (dist_t delta : {1, 5, 50, 500}) {
    EXPECT_EQ(delta_stepping(g, 7, delta).dist, ref) << "delta=" << delta;
  }
}

TEST(NearFar, MatchesDijkstraOnLine) {
  std::vector<dist_t> out(4);
  near_far_sssp(line_graph(), 0, out);
  EXPECT_EQ(out, dijkstra(line_graph(), 0));
}

TEST(NearFar, DisconnectedStaysInfinite) {
  auto g = graph::CsrGraph::from_edges(5, {{0, 1, 2}, {3, 4, 1}}, true);
  std::vector<dist_t> out(5);
  near_far_sssp(g, 0, out);
  EXPECT_EQ(out[3], kInf);
  EXPECT_EQ(out[4], kInf);
}

TEST(NearFar, HeavySplitDoesNotChangeResults) {
  const auto g = graph::make_rmat(8, 2000, 5);
  std::vector<dist_t> plain(g.num_vertices()), split(g.num_vertices());
  NearFarConfig cfg_plain;
  NearFarConfig cfg_split;
  cfg_split.heavy_degree_threshold = 8;
  const auto s1 = near_far_sssp(g, 3, plain, cfg_plain);
  const auto s2 = near_far_sssp(g, 3, split, cfg_split);
  EXPECT_EQ(plain, split);
  EXPECT_EQ(s1.relaxations, s2.relaxations);
  EXPECT_EQ(s1.heavy_relaxations, 0);
  EXPECT_GT(s2.heavy_relaxations, 0);
  EXPECT_LE(s2.heavy_relaxations, s2.relaxations);
}

TEST(NearFar, ResolvedDeltaMatchesTheFallback) {
  // Johnson resolves Δ once per solve and passes it on; the distances and
  // the work counts must equal those of the per-call mean-weight fallback.
  const auto g = graph::make_mesh(400, 8, 31);
  const dist_t delta = resolve_delta(g, 0);
  EXPECT_EQ(delta, std::max<dist_t>(1, static_cast<dist_t>(
                                          std::lround(g.mean_weight()))));
  EXPECT_EQ(resolve_delta(g, 17), 17);
  std::vector<dist_t> fallback(g.num_vertices()), resolved(g.num_vertices());
  NearFarConfig cfg;
  cfg.heavy_degree_threshold = 8;
  const auto a = near_far_sssp(g, 5, fallback, cfg);
  cfg.delta = delta;
  const auto b = near_far_sssp(g, 5, resolved, cfg);
  EXPECT_EQ(resolved, fallback);
  EXPECT_EQ(b.relaxations, a.relaxations);
  EXPECT_EQ(b.heavy_relaxations, a.heavy_relaxations);
  EXPECT_EQ(b.vertices_processed, a.vertices_processed);
  EXPECT_EQ(b.phases, a.phases);
  const auto ds = delta_stepping(g, 5, delta);
  const auto ds0 = delta_stepping(g, 5);
  EXPECT_EQ(ds.dist, ds0.dist);
  EXPECT_EQ(ds.relaxations, ds0.relaxations);
  EXPECT_EQ(ds.buckets_processed, ds0.buckets_processed);
}

TEST(NearFar, StatsAreConsistent) {
  const auto g = graph::make_road(12, 12, 9);
  std::vector<dist_t> out(g.num_vertices());
  const auto st = near_far_sssp(g, 0, out);
  EXPECT_GT(st.relaxations, 0);
  EXPECT_GT(st.vertices_processed, 0);
  EXPECT_GT(st.phases, 0);  // a road graph needs several threshold bumps
}

// ---- cross-algorithm agreement sweep (the SSSP family property) ----

struct SsspCase {
  const char* name;
  graph::CsrGraph graph;
};

class SsspAgreement : public ::testing::TestWithParam<int> {};

std::vector<SsspCase> sssp_cases() {
  std::vector<SsspCase> cases;
  cases.push_back({"road", graph::make_road(15, 14, 21)});
  cases.push_back({"mesh", graph::make_mesh(250, 10, 22)});
  cases.push_back({"rmat", graph::make_rmat(8, 1500, 23)});
  cases.push_back({"erdos", graph::make_erdos_renyi(220, 900, 24)});
  cases.push_back({"disconnected",
                   graph::make_erdos_renyi(200, 150, 25, /*connect=*/false)});
  cases.push_back({"wideweights",
                   graph::make_erdos_renyi(150, 600, 26, true, {1, 10000})});
  return cases;
}

TEST_P(SsspAgreement, AllAlgorithmsAgreeWithDijkstra) {
  const auto cases = sssp_cases();
  const auto& tc = cases[GetParam()];
  const auto& g = tc.graph;
  for (vidx_t src : {vidx_t{0}, g.num_vertices() / 2, g.num_vertices() - 1}) {
    const auto ref = dijkstra(g, src);
    EXPECT_EQ(bellman_ford(g, src).dist, ref) << tc.name << " bellman-ford";
    EXPECT_EQ(delta_stepping(g, src).dist, ref) << tc.name << " delta";
    std::vector<dist_t> nf(g.num_vertices());
    near_far_sssp(g, src, nf);
    EXPECT_EQ(nf, ref) << tc.name << " near-far";
  }
}

INSTANTIATE_TEST_SUITE_P(Families, SsspAgreement,
                         ::testing::Range(0, 6),
                         [](const auto& info) {
                           return sssp_cases()[info.param].name;
                         });

}  // namespace
}  // namespace gapsp::sssp
