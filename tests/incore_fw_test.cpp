#include <gtest/gtest.h>

#include "core/incore_fw.h"
#include "core/ooc_fw.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions opts(std::size_t mem = 1u << 20) {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(mem);
  o.fw_tile = 32;
  return o;
}

TEST(IncoreFw, FitsPredicate) {
  const auto spec = sim::DeviceSpec::v100_scaled(1u << 20);
  EXPECT_TRUE(incore_fw_fits(spec, 400));   // 640 KB
  EXPECT_FALSE(incore_fw_fits(spec, 600));  // 1.44 MB
}

TEST(IncoreFw, MatchesDijkstra) {
  const auto g = graph::make_erdos_renyi(200, 900, 501);
  auto store = make_ram_store(g.num_vertices());
  incore_fw_apsp(g, opts(), *store);
  test::expect_store_matches_reference(g, *store);
}

TEST(IncoreFw, ThrowsWhenMatrixDoesNotFit) {
  const auto g = graph::make_erdos_renyi(600, 2000, 502);
  auto store = make_ram_store(g.num_vertices());
  auto o = opts();
  ASSERT_FALSE(incore_fw_fits(o.device, g.num_vertices()));
  EXPECT_THROW(incore_fw_apsp(g, o, *store), Error);
}

TEST(IncoreFw, ExactlyOneRoundTripOfTraffic) {
  const auto g = graph::make_erdos_renyi(180, 700, 503);
  auto store = make_ram_store(g.num_vertices());
  const auto r = incore_fw_apsp(g, opts(), *store);
  const std::size_t n2 = static_cast<std::size_t>(180) * 180 * sizeof(dist_t);
  EXPECT_EQ(r.metrics.bytes_h2d, n2);
  EXPECT_EQ(r.metrics.bytes_d2h, n2);
  EXPECT_EQ(r.metrics.transfers_h2d, 1);
  EXPECT_EQ(r.metrics.transfers_d2h, 1);
}

TEST(IncoreFw, LessTrafficThanOutOfCore) {
  // Same graph, same device: in-core moves the matrix once; the OOC version
  // moves it n_d times per round.
  const auto g = graph::make_erdos_renyi(400, 1600, 504);
  auto o_small = opts(256u << 10);  // forces OOC into several blocks
  auto o_large = opts(1u << 20);    // in-core fits
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto ooc = ooc_floyd_warshall(g, o_small, *s1);
  const auto inc = incore_fw_apsp(g, o_large, *s2);
  EXPECT_GT(ooc.metrics.bytes_d2h, inc.metrics.bytes_d2h);
  // Identical results either way.
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> a(n), b(n);
  for (vidx_t u = 0; u < n; u += 37) {
    s1->read_block(u, 0, 1, n, a.data(), n);
    s2->read_block(u, 0, 1, n, b.data(), n);
    ASSERT_EQ(a, b);
  }
}

TEST(IncoreFw, DisconnectedGraph) {
  const auto g = graph::make_erdos_renyi(150, 100, 505, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  incore_fw_apsp(g, opts(), *store);
  test::expect_store_matches_reference(g, *store);
}

}  // namespace
}  // namespace gapsp::core
