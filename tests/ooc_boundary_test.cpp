#include <gtest/gtest.h>

#include <vector>

#include "core/ooc_boundary.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

ApspOptions boundary_opts(std::size_t mem = 2u << 20) {
  ApspOptions o;
  o.device = tiny_device(mem);
  o.fw_tile = 32;
  return o;
}

TEST(OocBoundary, PlanUsesPaperDefaultK) {
  const auto g = graph::make_road(20, 20, 61);  // n = 400, √n/4 = 5
  const auto plan = plan_boundary(g, boundary_opts());
  EXPECT_EQ(plan.k, 5);
  EXPECT_EQ(plan.nb, plan.layout.num_boundary);
  EXPECT_GT(plan.staging_rows, 0);
}

TEST(OocBoundary, PlanHonoursExplicitK) {
  const auto g = graph::make_road(20, 20, 61);
  auto opts = boundary_opts();
  opts.num_components = 7;
  EXPECT_EQ(plan_boundary(g, opts).k, 7);
}

TEST(OocBoundary, PlanReducesKWhenMemoryTight) {
  // Many components inflate the boundary matrix; with a small device the
  // requested k cannot fit and the plan must fall back to fewer components.
  const auto g = graph::make_road(24, 24, 69);
  auto opts = boundary_opts(640u << 10);
  opts.num_components = 64;
  const auto plan = plan_boundary(g, opts);
  EXPECT_LT(plan.k, 64);
  EXPECT_GE(plan.k, 2);
  // ... and the reduced plan must actually run correctly.
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary(g, opts, plan, *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocBoundary, PlanThrowsWhenNothingFits) {
  const auto g = graph::make_mesh(600, 14, 63, 0.3);
  auto opts = boundary_opts(64u << 10);
  EXPECT_THROW(plan_boundary(g, opts), Error);
}

TEST(OocBoundary, MatchesDijkstraOnRoad) {
  const auto g = graph::make_road(16, 15, 64);
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary(g, boundary_opts(), *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocBoundary, MatchesDijkstraOnMesh) {
  const auto g = graph::make_mesh(350, 10, 65, 0.1);
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary(g, boundary_opts(4u << 20), *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocBoundary, MatchesWithManyComponents) {
  const auto g = graph::make_road(18, 18, 66);
  auto opts = boundary_opts(4u << 20);
  opts.num_components = 12;
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary(g, opts, *store);
  EXPECT_EQ(r.metrics.boundary_k, 12);
  expect_store_matches_reference(g, *store);
}

TEST(OocBoundary, NaiveBatchedOverlapAllAgree) {
  const auto g = graph::make_road(15, 16, 67);
  const vidx_t n = g.num_vertices();
  std::vector<std::unique_ptr<DistStore>> stores;
  for (const auto& [batch, overlap] :
       std::vector<std::pair<bool, bool>>{{false, false}, {true, false},
                                          {true, true}}) {
    auto opts = boundary_opts();
    opts.batch_transfers = batch;
    opts.overlap_transfers = overlap;
    stores.push_back(make_ram_store(n));
    ooc_boundary(g, opts, *stores.back());
  }
  std::vector<dist_t> a(n), b(n);
  for (std::size_t variant = 1; variant < stores.size(); ++variant) {
    for (vidx_t u = 0; u < n; ++u) {
      stores[0]->read_block(u, 0, 1, n, a.data(), n);
      stores[variant]->read_block(u, 0, 1, n, b.data(), n);
      ASSERT_EQ(a, b) << "variant " << variant << " row " << u;
    }
  }
}

TEST(OocBoundary, BatchingReducesTransferCount) {
  const auto g = graph::make_road(16, 16, 68);
  auto naive_opts = boundary_opts();
  naive_opts.batch_transfers = false;
  naive_opts.overlap_transfers = false;
  auto batched_opts = boundary_opts();
  batched_opts.overlap_transfers = false;
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto naive = ooc_boundary(g, naive_opts, *s1);
  const auto batched = ooc_boundary(g, batched_opts, *s2);
  EXPECT_GT(naive.metrics.transfers_d2h, batched.metrics.transfers_d2h);
  EXPECT_LT(batched.metrics.transfer_seconds, naive.metrics.transfer_seconds);
}

TEST(OocBoundary, OverlapShortensMakespan) {
  // Device sized so the staging buffer holds only part of the output —
  // several flushes happen and the async ones can hide behind compute.
  const auto g = graph::make_road(24, 24, 69);
  auto no_overlap = boundary_opts(1u << 20);
  no_overlap.overlap_transfers = false;
  auto with_overlap = boundary_opts(1u << 20);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto serial = ooc_boundary(g, no_overlap, *s1);
  const auto overlapped = ooc_boundary(g, with_overlap, *s2);
  EXPECT_LT(overlapped.metrics.sim_seconds, serial.metrics.sim_seconds);
}

TEST(OocBoundary, StoreIsInOriginalVertexOrder) {
  // The plan renumbers vertices boundary-first; the store does not: every
  // entry reads at original ids, as Dijkstra over the original graph says.
  const auto g = graph::make_road(12, 12, 70);
  const auto plan = plan_boundary(g, boundary_opts());
  bool moved = false;
  for (vidx_t v = 0; v < g.num_vertices(); ++v) {
    moved = moved || plan.layout.perm[v] != v;
  }
  ASSERT_TRUE(moved) << "the plan's layout is the identity";
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary(g, boundary_opts(), plan, *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocBoundary, DisconnectedGraphHandled) {
  // Two islands: distances across must stay kInf; components with zero
  // boundary nodes exercise the b_i == 0 paths.
  auto g = graph::CsrGraph::from_edges(
      60,
      [] {
        std::vector<graph::Edge> e;
        for (vidx_t v = 1; v < 30; ++v)
          e.push_back({v - 1, v, 1});
        for (vidx_t v = 31; v < 60; ++v)
          e.push_back({v - 1, v, 2});
        return e;
      }(),
      /*symmetrize=*/true);
  auto opts = boundary_opts();
  opts.num_components = 2;
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary(g, opts, *store);
  expect_store_matches_reference(g, *store);
  EXPECT_EQ(store->at(0, 59), kInf);
}

TEST(OocBoundary, DeviceCapacityRespected) {
  const auto g = graph::make_road(16, 16, 71);
  const auto opts = boundary_opts(1u << 20);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary(g, opts, *store);
  EXPECT_LE(r.metrics.device_peak_bytes, opts.device.memory_bytes);
  expect_store_matches_reference(g, *store);
}

}  // namespace
}  // namespace gapsp::core
