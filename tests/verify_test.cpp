#include <gtest/gtest.h>

#include "core/ooc_boundary.h"
#include "core/ooc_johnson.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions opts() {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  return o;
}

TEST(Verify, PassesOnCorrectJohnsonResult) {
  const auto g = graph::make_erdos_renyi(150, 600, 911);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, opts(), *store);
  const auto rep = verify_result(g, *store, r);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_GE(rep.rows_checked, 2);
  EXPECT_EQ(rep.entries_checked,
            static_cast<long long>(rep.rows_checked) * g.num_vertices());
  EXPECT_TRUE(rep.detail.empty());
}

TEST(Verify, PassesOnBoundaryResult) {
  // The boundary solve renumbers vertices on the device; its store is in
  // original order, which verify reads directly.
  const auto g = graph::make_road(14, 14, 912);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_boundary(g, opts(), *store);
  EXPECT_TRUE(verify_result(g, *store, r).ok);
}

TEST(Verify, DetectsCorruptedEntry) {
  const auto g = graph::make_erdos_renyi(120, 500, 913);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, opts(), *store);
  // Corrupt one entry in row 0 (always sampled).
  const dist_t bogus = 123456;
  store->write_block(0, 5, 1, 1, &bogus, 1);
  const auto rep = verify_result(g, *store, r);
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(rep.mismatches, 1);
  EXPECT_NE(rep.detail.find("dist(0,5)"), std::string::npos);
}

TEST(Verify, DetectsNonZeroDiagonal) {
  const auto g = graph::make_erdos_renyi(80, 300, 914);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, opts(), *store);
  const dist_t bogus = 7;
  store->write_block(0, 0, 1, 1, &bogus, 1);
  EXPECT_FALSE(verify_result(g, *store, r).ok);
}

TEST(Verify, SampleCountBounded) {
  const auto g = graph::make_erdos_renyi(50, 200, 915);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, opts(), *store);
  const auto rep = verify_result(g, *store, r, /*samples=*/1000);
  EXPECT_EQ(rep.rows_checked, 50);  // clamped at n
  EXPECT_TRUE(rep.ok);
}

}  // namespace
}  // namespace gapsp::core
