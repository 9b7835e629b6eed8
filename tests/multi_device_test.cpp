#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

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
  test::expect_store_matches_reference(g, *store, r.result);
}

class MultiDeviceCount : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceCount, MatchesReferenceForAnyDeviceCount) {
  const auto g = graph::make_road(18, 17, 402);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary_multi(g, opts(), GetParam(), *store);
  EXPECT_EQ(r.multi.num_devices, GetParam());
  EXPECT_EQ(static_cast<int>(r.multi.device_seconds.size()), GetParam());
  test::expect_store_matches_reference(g, *store, r.result);
}

INSTANTIATE_TEST_SUITE_P(Counts, MultiDeviceCount, ::testing::Values(1, 2, 3, 4));

TEST(MultiDevice, MatchesSingleDeviceDistances) {
  const auto g = graph::make_road(20, 19, 403);
  const vidx_t n = g.num_vertices();
  auto s1 = make_ram_store(n);
  auto s2 = make_ram_store(n);
  const auto single = ooc_boundary(g, opts(), *s1);
  const auto multi = ooc_boundary_multi(g, opts(), 3, *s2);
  std::vector<dist_t> a(n), b(n);
  for (vidx_t u = 0; u < n; u += 7) {
    s1->read_block(single.stored_id(u), 0, 1, n, a.data(), n);
    s2->read_block(multi.result.stored_id(u), 0, 1, n, b.data(), n);
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
  const auto r = ooc_boundary_multi(g, opts(), 8, *store);
  test::expect_store_matches_reference(g, *store, r.result);
}

TEST(MultiDevice, DisconnectedGraph) {
  auto g = graph::make_erdos_renyi(240, 200, 407, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary_multi(g, opts(), 2, *store);
  test::expect_store_matches_reference(g, *store, r.result);
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
// step code: every traced event and every stored distance of fixed runs,
// plus the multi-GPU driver's per-device finish times, barriers and
// failover accounting, pinned in hex.
TEST(BoundaryDrivers, TimelinesAndStoresArePinned) {
  const auto g = graph::make_road(20, 19, 403);
  struct SingleRun {
    bool overlap;
    bool batch;
    const char* expected;
  };
  for (const SingleRun& c : {
           SingleRun{true, true,
                     "0x4f27dacd45a65487 (109 events)"},
           SingleRun{false, true,
                     "0xde29e3a0e14509d4 (109 events)"},
           SingleRun{true, false,
                     "0x9b4847453d0806cb (167 events)"},
           SingleRun{false, false,
                     "0x110b8b1104591bd5 (167 events)"},
       }) {
    sim::TraceRecorder trace;
    auto o = opts();
    o.overlap_transfers = c.overlap;
    o.batch_transfers = c.batch;
    o.trace = &trace;
    auto store = make_ram_store(g.num_vertices());
    ooc_boundary(g, o, *store);
    EXPECT_EQ(test::run_digest(trace, *store), c.expected)
        << "overlap " << c.overlap << ", batching " << c.batch;
  }

  struct MultiRun {
    int devices;
    long long kill_at_op;  ///< device 1 dies at this op; 0 = no fault
    const char* expected;
  };
  for (const MultiRun& c : {
           MultiRun{1, 0,
                    "0xdec09189cda13e90 (117 events) devices "
                    "0x3f5037550c1fd871 barriers "
                    "0x3f3f08f2e71ae0fa 0x3f42db7e4e5e317c failover "
                    "0 0x0000000000000000"},
           MultiRun{2, 0,
                    "0xecfd6b292424b1df (135 events) devices "
                    "0x3f436936d77af65f 0x3f45b188a19d8f3d barriers "
                    "0x3f31ceeb5a4ce035 0x3f387cf50fee622d failover "
                    "0 0x0000000000000000"},
           MultiRun{3, 0,
                    "0xf20d3b6850c60056 (149 events) devices "
                    "0x3f40afac4a9e978c 0x3f3d57957137c29a 0x3f41564f3c65ef0f "
                    "barriers "
                    "0x3f2a3ad26ff64a69 0x3f33cb72ed9ca72d failover "
                    "0 0x0000000000000000"},
           // Device 1 dies in step 4: its component re-runs on a survivor.
           MultiRun{3, 22,
                    "0xf59d7a950f273475 (144 events) devices "
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
    got << test::run_digest(trace, *store) << " devices";
    for (double t : r.multi.device_seconds) got << " " << test::hex(t);
    got << " barriers " << test::hex(r.multi.barrier2_s) << " "
        << test::hex(r.multi.barrier3_s) << " failover "
        << r.multi.failover_components << " "
        << test::hex(r.multi.failover_cost_s);
    EXPECT_EQ(got.str(), c.expected)
        << c.devices << " devices, kill at " << c.kill_at_op;
  }
}

}  // namespace
}  // namespace gapsp::core
