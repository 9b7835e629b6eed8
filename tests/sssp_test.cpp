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
#include "near_far_reference.h"
#include "util/common.h"

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

// ---- Near-Far equivalence: the MSSP's modeled work is pinned ----

struct NearFarAnswer {
  vidx_t source;
  long long relaxations;
  long long heavy_relaxations;
  long long vertices_processed;
  int phases;
  std::uint64_t row_hash;  ///< util::word_hash of the distance row
};

// The benchmark's Johnson graphs (seed 1) under the Johnson configuration:
// Δ from resolve_delta and the default heavy-degree threshold of 16. The
// counters are what ooc_johnson charges the simulated timeline with, so a
// change to the host loop must leave every one of them where it is.
TEST(NearFar, KnownAnswersOnTheBenchmarkGraphs) {
  struct Case {
    const char* name;
    graph::CsrGraph graph;
    std::vector<NearFarAnswer> answers;
  };
  const Case cases[] = {
      {"mesh2000",
       graph::make_mesh(2000, 10, 1),
       {{0, 44707, 884, 4529, 3, 0x53e58103333337deULL},
        {1000, 46254, 791, 4687, 2, 0x0f6842d098adc910ULL},
        {1999, 45662, 662, 4629, 3, 0xa01dbb1fe9724874ULL}}},
      {"road48",
       graph::make_road(48, 48, 1),
       {{0, 10050, 0, 2921, 52, 0x9544284f1af358deULL},
        {1152, 10298, 0, 2989, 45, 0xea78d4326aa1283dULL},
        {2303, 10180, 0, 2952, 51, 0x0da5ce836d8a626cULL}}},
      {"dense1500",
       graph::make_dense(1500, 8.0, 1),
       {{0, 1135119, 1135119, 9685, 1, 0x69db35d9f736ac33ULL},
        {750, 1111181, 1111181, 9475, 1, 0x368ecba271f4fbbcULL},
        {1499, 1131376, 1131376, 9672, 1, 0x1200200deb5fc705ULL}}},
  };
  for (const auto& c : cases) {
    NearFarConfig cfg;
    cfg.delta = resolve_delta(c.graph, 0);
    cfg.heavy_degree_threshold = 16;
    std::vector<dist_t> row(static_cast<std::size_t>(c.graph.num_vertices()));
    for (const auto& want : c.answers) {
      const auto st = near_far_sssp(c.graph, want.source, row, cfg);
      EXPECT_EQ(st.relaxations, want.relaxations) << c.name << " " << want.source;
      EXPECT_EQ(st.heavy_relaxations, want.heavy_relaxations)
          << c.name << " " << want.source;
      EXPECT_EQ(st.vertices_processed, want.vertices_processed)
          << c.name << " " << want.source;
      EXPECT_EQ(st.phases, want.phases) << c.name << " " << want.source;
      EXPECT_EQ(util::word_hash(row.data(), row.size() * sizeof(dist_t)),
                want.row_hash)
          << c.name << " " << want.source;
    }
  }
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

// ---- Near-Far against the reference loop (tests/near_far_reference.h) ----

// Weights near kInf/2: two hops reach just below kInf, and every longer sum
// passes kInf, which must leave the vertex unreachable as sat_add does —
// including across the shortcut 0 -> 4.
constexpr dist_t kBig = kInf / 2 - 1;

graph::CsrGraph near_inf_graph() {
  return graph::CsrGraph::from_edges(
      6,
      {{0, 1, kBig}, {1, 2, kBig}, {2, 3, kBig}, {3, 4, 1}, {0, 4, kBig},
       {4, 5, kBig}, {5, 0, 3}},
      /*symmetrize=*/false);
}

std::vector<SsspCase> oracle_cases() {
  auto cases = sssp_cases();
  cases.push_back({"zeroweights",
                   graph::make_erdos_renyi(180, 700, 27, true, {0, 2})});
  cases.push_back({"single", graph::CsrGraph::from_edges(1, {}, false)});
  cases.push_back({"nearinf", near_inf_graph()});
  return cases;
}

class NearFarOracle : public ::testing::TestWithParam<int> {};

// Every source, Δ ∈ {1, resolved, 10 × resolved} and heavy threshold ∈ {0,
// 8}: the library's rows and all four counters equal the reference loop's.
TEST_P(NearFarOracle, EverySourceMatchesTheReferenceLoop) {
  const auto cases = oracle_cases();
  const auto& tc = cases[GetParam()];
  const auto& g = tc.graph;
  const dist_t resolved = resolve_delta(g, 0);
  const dist_t wide = static_cast<dist_t>(
      std::min<std::int64_t>(10 * static_cast<std::int64_t>(resolved), kInf));
  for (const dist_t delta : {dist_t{1}, resolved, wide}) {
    for (const int heavy : {0, 8}) {
      NearFarConfig cfg;
      cfg.delta = delta;
      cfg.heavy_degree_threshold = heavy;
      for (vidx_t src = 0; src < g.num_vertices(); ++src) {
        ASSERT_NO_FATAL_FAILURE(
            test::expect_near_far_matches_reference(g, src, cfg))
            << tc.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, NearFarOracle,
                         ::testing::Range(0, 9),
                         [](const auto& info) {
                           return oracle_cases()[info.param].name;
                         });

TEST(NearFar, SumsPastInfinityStayUnreachable) {
  const auto g = near_inf_graph();
  std::vector<dist_t> row(6);
  near_far_sssp(g, 0, row, {});
  EXPECT_EQ(row,
            (std::vector<dist_t>{0, kBig, 2 * kBig, kInf, kBig, 2 * kBig}));
  EXPECT_EQ(row, dijkstra(g, 0));
}

}  // namespace
}  // namespace gapsp::sssp
