#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/component_solver.h"
#include "core/multi_device.h"
#include "graph/generators.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions opts(std::size_t mem = 4u << 20) {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(mem);
  o.fw_tile = 32;
  return o;
}

TEST(MultiDevice, SingleDeviceMatchesReference) {
  const auto g = graph::make_road(16, 16, 401);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary_multi(g, opts(), 1, *store);
  EXPECT_EQ(r.multi.num_devices, 1);
  test::expect_store_matches_reference(g, *store);
}

class MultiDeviceCount : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceCount, MatchesReferenceForAnyDeviceCount) {
  const auto g = graph::make_road(18, 17, 402);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary_multi(g, opts(), GetParam(), *store);
  EXPECT_EQ(r.multi.num_devices, GetParam());
  EXPECT_EQ(static_cast<int>(r.multi.device_seconds.size()), GetParam());
  test::expect_store_matches_reference(g, *store);
}

INSTANTIATE_TEST_SUITE_P(Counts, MultiDeviceCount, ::testing::Values(1, 2, 3, 4));

TEST(MultiDevice, MatchesSingleDeviceDistances) {
  const auto g = graph::make_road(20, 19, 403);
  const vidx_t n = g.num_vertices();
  auto s1 = make_ram_store(n);
  auto s2 = make_ram_store(n);
  ooc_boundary(g, opts(), *s1);
  ooc_boundary_multi(g, opts(), 3, *s2);
  std::vector<dist_t> a(n), b(n);
  for (vidx_t u = 0; u < n; u += 7) {
    s1->read_block(u, 0, 1, n, a.data(), n);
    s2->read_block(u, 0, 1, n, b.data(), n);
    ASSERT_EQ(a, b) << "row " << u;
  }
}

TEST(MultiDevice, TwoDevicesFasterThanOne) {
  const auto g = graph::make_road(40, 40, 404);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto one = ooc_boundary_multi(g, opts(8u << 20), 1, *s1);
  const auto two = ooc_boundary_multi(g, opts(8u << 20), 2, *s2);
  EXPECT_LT(two.result.metrics.sim_seconds, one.result.metrics.sim_seconds);
}

TEST(MultiDevice, BarriersAreMonotonic) {
  const auto g = graph::make_road(20, 20, 405);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary_multi(g, opts(), 2, *store);
  EXPECT_GT(r.multi.barrier2_s, 0.0);
  EXPECT_GT(r.multi.barrier3_s, r.multi.barrier2_s);
  for (double t : r.multi.device_seconds) {
    EXPECT_GE(t, r.multi.barrier3_s);
    EXPECT_LE(t, r.result.metrics.sim_seconds + 1e-12);
  }
}

TEST(MultiDevice, MoreDevicesThanComponents) {
  // k = sqrt(n)/4 is small here; extra devices must idle harmlessly.
  const auto g = graph::make_road(10, 10, 406);
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary_multi(g, opts(), 8, *store);
  test::expect_store_matches_reference(g, *store);
}

TEST(MultiDevice, DisconnectedGraph) {
  auto g = graph::make_erdos_renyi(240, 200, 407, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  ooc_boundary_multi(g, opts(), 2, *store);
  test::expect_store_matches_reference(g, *store);
}

TEST(MultiDevice, RejectsZeroDevices) {
  const auto g = graph::make_road(8, 8, 408);
  auto store = make_ram_store(g.num_vertices());
  auto o = opts();
  EXPECT_THROW(ooc_boundary_multi(g, o, 0, *store), Error);
}

TEST(MultiDevice, AggregatedMetricsSumAcrossDevices) {
  const auto g = graph::make_road(24, 24, 409);
  const vidx_t n = g.num_vertices();
  auto s2 = make_ram_store(n);
  const auto two = ooc_boundary_multi(g, opts(), 2, *s2);
  // Output still moves exactly once in total (plus dist2 gather).
  EXPECT_GE(two.result.metrics.bytes_d2h,
            static_cast<std::size_t>(n) * n * sizeof(dist_t));
  EXPECT_GT(two.result.metrics.kernels, 0);
  EXPECT_EQ(two.result.metrics.boundary_k, two.result.metrics.boundary_k);
  EXPECT_LE(two.result.metrics.device_peak_bytes,
            opts().device.memory_bytes);
}

// Bit-identity gate for the two boundary drivers, which share Algorithm 3's
// step code: every traced event of fixed runs, plus the multi-GPU driver's
// per-device finish times, barriers and failover accounting, pinned in hex.
// Every run's store must equal the blocked-FW store of the same graph.
TEST(BoundaryDrivers, TimelinesAndStoresArePinned) {
  const auto g = graph::make_road(20, 19, 403);
  auto fw_store = make_ram_store(g.num_vertices());
  ApspOptions fw = opts();
  fw.algorithm = Algorithm::kBlockedFloydWarshall;
  solve_apsp(g, fw, *fw_store);
  const std::vector<dist_t> want = test::store_rows(*fw_store);
  struct SingleRun {
    bool overlap;
    bool batch;
    const char* expected;
  };
  for (const SingleRun& c : {
           SingleRun{true, true,
                     "0xf8d09b518a2a2847 (109 events)"},
           SingleRun{false, true,
                     "0x7cbf6206c5db254c (109 events)"},
           SingleRun{true, false,
                     "0xcc484fce78bdddab (167 events)"},
           SingleRun{false, false,
                     "0x285cac342673a125 (167 events)"},
       }) {
    sim::TraceRecorder trace;
    auto o = opts();
    o.overlap_transfers = c.overlap;
    o.batch_transfers = c.batch;
    o.trace = &trace;
    auto store = make_ram_store(g.num_vertices());
    ooc_boundary(g, o, *store);
    EXPECT_EQ(test::trace_digest(trace), c.expected)
        << "overlap " << c.overlap << ", batching " << c.batch;
    EXPECT_EQ(test::store_rows(*store), want)
        << "overlap " << c.overlap << ", batching " << c.batch;
  }

  struct MultiRun {
    int devices;
    long long kill_at_op;  ///< device 1 dies at this op; 0 = no fault
    const char* expected;
  };
  for (const MultiRun& c : {
           MultiRun{1, 0,
                    "0x3ba0ce8428536678 (117 events) devices "
                    "0x3f5037550c1fd871 barriers "
                    "0x3f3f08f2e71ae0fa 0x3f42db7e4e5e317c failover "
                    "0 0x0000000000000000"},
           MultiRun{2, 0,
                    "0xad5efe4e7e5a3a5f (135 events) devices "
                    "0x3f436936d77af65f 0x3f45b188a19d8f3d barriers "
                    "0x3f31ceeb5a4ce035 0x3f387cf50fee622d failover "
                    "0 0x0000000000000000"},
           MultiRun{3, 0,
                    "0x7e5ef8cfe0dc62ae (149 events) devices "
                    "0x3f40afac4a9e978c 0x3f3d57957137c29a 0x3f41564f3c65ef0f "
                    "barriers "
                    "0x3f2a3ad26ff64a69 0x3f33cb72ed9ca72d failover "
                    "0 0x0000000000000000"},
           // Device 1 dies in step 4: its component re-runs on a survivor.
           MultiRun{3, 22,
                    "0x94c11bc9c9925445 (144 events) devices "
                    "0x3f4312fe8d462150 0x3f369224eb19ef2e 0x3f41564f3c65ef0f "
                    "barriers "
                    "0x3f2a3ad26ff64a69 0x3f33cb72ed9ca72d failover "
                    "1 0x3f1185e91ddcf8b4"},
       }) {
    sim::TraceRecorder trace;
    sim::FaultPlan plan;
    auto o = opts();
    o.trace = &trace;
    if (c.kill_at_op > 0) {
      plan.kill_device = 1;
      plan.kill_at_op = c.kill_at_op;
      o.faults = &plan;
    }
    auto store = make_ram_store(g.num_vertices());
    const auto r = ooc_boundary_multi(g, o, c.devices, *store);
    std::ostringstream got;
    got << test::trace_digest(trace) << " devices";
    for (double t : r.multi.device_seconds) got << " " << test::hex(t);
    got << " barriers " << test::hex(r.multi.barrier2_s) << " "
        << test::hex(r.multi.barrier3_s) << " failover "
        << r.multi.failover_components << " "
        << test::hex(r.multi.failover_cost_s);
    EXPECT_EQ(got.str(), c.expected)
        << c.devices << " devices, kill at " << c.kill_at_op;
    EXPECT_EQ(test::store_rows(*store), want)
        << c.devices << " devices, kill at " << c.kill_at_op;
  }
}

// Every solver that renumbers vertices (boundary in all its modes, the
// multi-GPU driver with and without a lost device, the per-component
// split) keeps its store in original vertex order: byte for byte the
// blocked-FW store, on a road graph and on a fragmented one.
class StoreOrder : public ::testing::TestWithParam<int> {};

TEST_P(StoreOrder, EveryModeWritesTheBlockedFwStore) {
  const graph::CsrGraph g = GetParam() == 0
                                ? graph::make_road(20, 19, 403)
                                : graph::make_erdos_renyi(300, 240, 407,
                                                          /*connect=*/false);
  const vidx_t n = g.num_vertices();
  auto fw_store = make_ram_store(n);
  ApspOptions fw = opts();
  fw.algorithm = Algorithm::kBlockedFloydWarshall;
  solve_apsp(g, fw, *fw_store);
  const std::vector<dist_t> want = test::store_rows(*fw_store);

  for (const bool batch : {true, false}) {
    for (const bool overlap : {true, false}) {
      auto o = opts();
      o.batch_transfers = batch;
      o.overlap_transfers = overlap;
      auto store = make_ram_store(n);
      ooc_boundary(g, o, *store);
      EXPECT_EQ(test::store_rows(*store), want)
          << "batching " << batch << ", overlap " << overlap;
    }
  }
  for (const int devices : {1, 2, 3}) {
    for (const long long kill_at_op : {0LL, 22LL}) {
      if (kill_at_op > 0 && devices < 2) continue;
      sim::FaultPlan plan;
      auto o = opts();
      if (kill_at_op > 0) {
        plan.kill_device = 1;
        plan.kill_at_op = kill_at_op;
        o.faults = &plan;
      }
      auto store = make_ram_store(n);
      ooc_boundary_multi(g, o, devices, *store);
      EXPECT_EQ(test::store_rows(*store), want)
          << devices << " devices, kill at " << kill_at_op;
    }
  }
  for (const Algorithm a : {Algorithm::kBoundary, Algorithm::kJohnson}) {
    auto o = opts();
    o.algorithm = a;
    auto store = make_ram_store(n);
    ComponentSolverOptions cs;
    cs.small_threshold = 8;  // the ER graph packs its fragments
    solve_apsp_per_component(g, o, *store, {}, cs);
    EXPECT_EQ(test::store_rows(*store), want)
        << "per-component " << algorithm_name(a);
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, StoreOrder, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "Road" : "FragmentedEr";
                         });

}  // namespace
}  // namespace gapsp::core
