#include <gtest/gtest.h>

#include <vector>

#include "core/apsp_common.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

graph::CsrGraph triangle() {
  return graph::CsrGraph::from_edges(
      3, {{0, 1, 5}, {1, 2, 7}, {0, 2, 9}}, /*symmetrize=*/false);
}

TEST(WeightBlock, FullMatrix) {
  std::vector<dist_t> m(9, -1);
  weight_block(triangle(), 0, 0, 3, 3, m.data(), 3);
  const std::vector<dist_t> expect{0, 5, 9, kInf, 0, 7, kInf, kInf, 0};
  EXPECT_EQ(m, expect);
}

TEST(WeightBlock, OffDiagonalSubBlock) {
  std::vector<dist_t> m(4, -1);
  weight_block(triangle(), 0, 1, 2, 2, m.data(), 2);
  // rows {0,1} x cols {1,2}: [5 9; 0 7]
  EXPECT_EQ(m, (std::vector<dist_t>{5, 9, 0, 7}));
}

TEST(WeightBlock, StrideRespected) {
  std::vector<dist_t> m(8, -1);
  weight_block(triangle(), 1, 1, 2, 2, m.data(), 4);  // ld = 4
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], 7);
  EXPECT_EQ(m[2], -1);  // padding untouched
  EXPECT_EQ(m[4], kInf);
  EXPECT_EQ(m[5], 0);
}

TEST(WeightBlock, ParallelEdgesKeepMinimum) {
  // from_edges already dedupes; verify the block sees the min.
  auto g = graph::CsrGraph::from_edges(2, {{0, 1, 9}, {0, 1, 2}}, false);
  std::vector<dist_t> m(4);
  weight_block(g, 0, 0, 2, 2, m.data(), 2);
  EXPECT_EQ(m[1], 2);
}

TEST(UploadGraph, ChargesCsrBytes) {
  const auto g = graph::make_erdos_renyi(100, 400, 603);
  sim::Device dev(test::tiny_device(1u << 20));
  const DeviceGraph dg = upload_graph(dev, sim::kDefaultStream, g);
  EXPECT_EQ(dg.bytes(), g.bytes());
  EXPECT_EQ(dev.metrics().bytes_h2d, g.bytes());
  EXPECT_EQ(dev.metrics().transfers_h2d, 3);  // offsets, targets, weights
  // Contents really arrived.
  EXPECT_TRUE(std::equal(g.offsets().begin(), g.offsets().end(),
                         dg.offsets.data()));
  EXPECT_TRUE(std::equal(g.targets().begin(), g.targets().end(),
                         dg.targets.data()));
}

TEST(UploadGraph, EmptyEdgeSet) {
  auto g = graph::CsrGraph::from_edges(5, {}, false);
  sim::Device dev(test::tiny_device(1u << 20));
  const DeviceGraph dg = upload_graph(dev, sim::kDefaultStream, g);
  EXPECT_EQ(dg.targets.size(), 0u);
  EXPECT_EQ(dev.metrics().transfers_h2d, 1);  // only the offsets move
}

TEST(MetricsFromDevice, CopiesCounters) {
  sim::Device dev(test::tiny_device(1u << 20));
  auto buf = dev.alloc<dist_t>(64);
  std::vector<dist_t> host(64);
  dev.memcpy_h2d(sim::kDefaultStream, buf.data(), host.data(), 256);
  dev.launch(sim::kDefaultStream, "k", [&](sim::LaunchCtx&) {
    sim::KernelProfile p;
    p.ops = 1000;
    return p;
  });
  dev.synchronize();
  const ApspMetrics m = metrics_from_device(dev, 1.5);
  EXPECT_EQ(m.wall_seconds, 1.5);
  EXPECT_EQ(m.bytes_h2d, 256u);
  EXPECT_EQ(m.kernels, 1);
  EXPECT_GT(m.sim_seconds, 0.0);
  EXPECT_EQ(m.total_ops, 1000.0);
}

}  // namespace
}  // namespace gapsp::core
