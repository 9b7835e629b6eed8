#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/compressed_store.h"
#include "core/scrub.h"
#include "core/store_integrity.h"
#include "graph/generators.h"
#include "service/path_extract.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

using service::PathExtractor;
using service::QueryEngine;
using service::QueryEngineOptions;

ApspOptions opts() {
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.fw_tile = 32;
  return o;
}

struct Solved {
  graph::CsrGraph g;
  std::unique_ptr<DistStore> store;
};

Solved solve(graph::CsrGraph g, Algorithm algo) {
  Solved s;
  s.g = std::move(g);
  s.store = make_ram_store(s.g.num_vertices());
  auto o = opts();
  o.algorithm = algo;
  solve_apsp(s.g, o, *s.store);
  return s;
}

TEST(PathExtract, LineGraphPath) {
  auto s = solve(graph::CsrGraph::from_edges(
                     4, {{0, 1, 5}, {1, 2, 3}, {2, 3, 1}}, true),
                 Algorithm::kJohnson);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  EXPECT_EQ(px.path(0, 3), (std::vector<vidx_t>{0, 1, 2, 3}));
  EXPECT_EQ(px.path(3, 0), (std::vector<vidx_t>{3, 2, 1, 0}));
  EXPECT_EQ(px.distance(0, 3), 9);
}

TEST(PathExtract, TrivialAndUnreachable) {
  auto s = solve(graph::CsrGraph::from_edges(3, {{0, 1, 2}}, true),
                 Algorithm::kJohnson);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  EXPECT_EQ(px.path(1, 1), (std::vector<vidx_t>{1}));
  EXPECT_TRUE(px.path(0, 2).empty());
  EXPECT_EQ(px.distance(0, 2), kInf);
}

TEST(PathExtract, ShortcutBeatsMoreHops) {
  // 0-1-2 costs 2+2=4; direct 0-2 costs 7 -> path must take the hops.
  auto s = solve(graph::CsrGraph::from_edges(
                     3, {{0, 1, 2}, {1, 2, 2}, {0, 2, 7}}, true),
                 Algorithm::kBlockedFloydWarshall);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  EXPECT_EQ(px.path(0, 2), (std::vector<vidx_t>{0, 1, 2}));
}

TEST(PathExtract, ZeroWeightEdgesTerminate) {
  auto s = solve(graph::CsrGraph::from_edges(
                     4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 3, 0}}, true),
                 Algorithm::kJohnson);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  const auto p = px.path(0, 3);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 3);
  EXPECT_EQ(px.walk_length(p), 0);
}

TEST(PathExtract, WalkLengthValidatesEdges) {
  auto s = solve(graph::CsrGraph::from_edges(3, {{0, 1, 4}, {1, 2, 6}}, true),
                 Algorithm::kJohnson);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  EXPECT_EQ(px.walk_length({0, 1, 2}), 10);
  EXPECT_EQ(px.walk_length({0, 2}), kInf);  // not an edge
  EXPECT_EQ(px.walk_length({}), kInf);
  EXPECT_EQ(px.walk_length({1}), 0);
}

TEST(PathExtract, RejectsOutOfRange) {
  auto s = solve(graph::CsrGraph::from_edges(2, {{0, 1, 1}}, true),
                 Algorithm::kJohnson);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  EXPECT_THROW(px.path(0, 5), Error);
  EXPECT_THROW(px.path(-1, 0), Error);
}

class PathExtractSweep : public ::testing::TestWithParam<int> {};

TEST_P(PathExtractSweep, EveryPathIsAValidShortestWalk) {
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  const Algorithm algo = algos[GetParam()];
  auto s = solve(graph::make_road(14, 15, 321), algo);
  const QueryEngine engine(*s.store);
  const PathExtractor px(s.g, engine);
  Rng rng(11);
  const vidx_t n = s.g.num_vertices();
  for (int trial = 0; trial < 60; ++trial) {
    const vidx_t u = static_cast<vidx_t>(rng.next_below(n));
    const vidx_t v = static_cast<vidx_t>(rng.next_below(n));
    const dist_t d = px.distance(u, v);
    const auto p = px.path(u, v);
    if (d >= kInf) {
      EXPECT_TRUE(p.empty());
      continue;
    }
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), u);
    EXPECT_EQ(p.back(), v);
    // The walk exists in the graph and its length equals the distance —
    // which also proves the distance matrix is achievable, not just a bound.
    EXPECT_EQ(px.walk_length(p), d);
    // No vertex repeats (positive expected weights here).
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
    for (vidx_t w : p) {
      EXPECT_FALSE(seen[w]);
      seen[w] = 1;
    }
  }
}

std::string sweep_name(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"fw", "johnson", "boundary"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PathExtractSweep, ::testing::Range(0, 3),
                         sweep_name);

// ---------------------------------------------------------------------------
// Regression against the store oracle: distance() reads through a
// QueryEngine's tile cache instead of one DistStore::at() per element, and
// the answers must not move — for boundary-solved stores, under a cache
// too small to hold the working set, over a GAPSPZ1 compressed store, and
// through a corrupt tile the engine's repair source recomputes.
// ---------------------------------------------------------------------------

TEST(PathExtract, CachedDistancesMatchElementwiseOracle) {
  // Boundary renumbers vertices on the device only: its store reads at
  // original ids through the engine exactly as through at().
  auto s = solve(graph::make_road(12, 12, 99), Algorithm::kBoundary);
  const vidx_t n = s.g.num_vertices();
  // A one-tile cache budget forces constant eviction; answers must hold.
  QueryEngineOptions opt;
  opt.cache_bytes = std::size_t{kStoreTile} * kStoreTile * sizeof(dist_t);
  const QueryEngine engine(*s.store, opt);
  const PathExtractor px(s.g, engine);
  for (vidx_t u = 0; u < n; u += 7) {
    for (vidx_t v = 0; v < n; v += 5) {
      ASSERT_EQ(px.distance(u, v), s.store->at(u, v))
          << "(" << u << ", " << v << ")";
    }
  }
}

TEST(PathExtract, CompressedStoreServesIdenticalPaths) {
  auto s = solve(graph::make_road(11, 13, 41), Algorithm::kJohnson);
  const std::string zpath =
      ::testing::TempDir() + "gapsp_path_extract_z.bin";
  write_compressed_store(*s.store, zpath, /*tile=*/48);
  const auto z = open_store(zpath);
  ASSERT_EQ(z->tile_size(), 48);  // extractor snaps its grid to this
  const QueryEngine raw_engine(*s.store);
  const QueryEngine z_engine(*z);
  const PathExtractor raw(s.g, raw_engine);
  const PathExtractor zx(s.g, z_engine);
  Rng rng(4242);
  const vidx_t n = s.g.num_vertices();
  for (int trial = 0; trial < 80; ++trial) {
    const vidx_t u = static_cast<vidx_t>(rng.next_below(n));
    const vidx_t v = static_cast<vidx_t>(rng.next_below(n));
    ASSERT_EQ(zx.distance(u, v), raw.distance(u, v));
    ASSERT_EQ(zx.path(u, v), raw.path(u, v));
  }
  std::remove(zpath.c_str());
}

TEST(PathExtract, DisconnectedPairsServeFromSharedInfTile) {
  // Two components: cross-component tiles resolve to the shared all-kInf
  // tile, so even a zero-byte cache budget serves them (negative entries
  // charge nothing) and path() correctly returns empty.
  auto s = solve(graph::CsrGraph::from_edges(
                     6, {{0, 1, 2}, {1, 2, 2}, {3, 4, 1}, {4, 5, 1}}, true),
                 Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.cache_bytes = 0;
  const QueryEngine engine(*s.store, opt);
  const PathExtractor px(s.g, engine);
  EXPECT_EQ(px.distance(0, 5), kInf);
  EXPECT_EQ(px.distance(4, 2), kInf);
  EXPECT_TRUE(px.path(0, 5).empty());
  EXPECT_EQ(px.distance(0, 2), 4);
  EXPECT_EQ(px.path(3, 5), (std::vector<vidx_t>{3, 4, 5}));
}

TEST(PathExtract, RepairSourceServesPathsThroughACorruptTile) {
  // dist(0, 5) is element 5 of the raw file, inside sidecar tile (0, 0):
  // every path from 0 reads it.
  const auto g = graph::make_road(12, 12, 77);
  const vidx_t n = g.num_vertices();
  const std::string path =
      ::testing::TempDir() + "gapsp_path_extract_repair.bin";
  ApspOptions o = opts();
  o.algorithm = Algorithm::kJohnson;
  {
    auto store = make_file_store(n, path, /*keep_file=*/true);
    solve_apsp(g, o, *store);
  }
  StoreChecksums sums;
  std::vector<std::vector<vidx_t>> want;
  {
    const auto pristine = open_file_store(path);
    sums = compute_store_checksums(*pristine, /*tile=*/48);
    const QueryEngine engine(*pristine);
    const PathExtractor px(g, engine);
    for (vidx_t v = 0; v < n; v += 7) want.push_back(px.path(0, v));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 5 * sizeof(dist_t), SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 5 * sizeof(dist_t), SEEK_SET), 0);
    ASSERT_EQ(std::fputc(byte ^ 0xff, f), byte ^ 0xff);
    std::fclose(f);
  }
  const auto raw = open_file_store(path);
  const CheckedStore damaged(*raw, sums, path);

  // The sidecar catches the damage: without a repair source the tile is
  // unserveable.
  const QueryEngine strict(damaged);
  EXPECT_THROW(PathExtractor(g, strict).path(0, n - 1), TileError);

  QueryEngineOptions opt;
  opt.repair = make_sssp_repair(g);
  const QueryEngine engine(damaged, opt);
  const PathExtractor px(g, engine);
  for (vidx_t v = 0, k = 0; v < n; v += 7, ++k) {
    ASSERT_EQ(px.path(0, v), want[static_cast<std::size_t>(k)]) << "v " << v;
  }
  EXPECT_GE(engine.service_stats().repaired, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::core
