// Property tests of the compute/transfer overlap engine: pipelining is a
// pure timeline optimization, so distances must be bit-identical with
// overlap on and off on any graph, the overlapped makespan may never exceed
// the serialized one on transfer-bound devices, and the pipeline must
// actually hide a substantial share of the transfer time (the paper's §IV
// claim that double buffering pays for itself).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ooc_boundary.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

/// Host link slowed well below what the scaled device's kernels need: every
/// algorithm becomes transfer-bound, the regime where overlap matters.
ApspOptions transfer_bound_opts(bool overlap) {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled();
  o.device.link_bandwidth /= 40.0;
  o.overlap_transfers = overlap;
  return o;
}

ApspOptions compute_bound_opts(bool overlap) {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled();
  o.overlap_transfers = overlap;
  return o;
}

std::vector<dist_t> store_contents(const DistStore& store) {
  const vidx_t n = store.n();
  std::vector<dist_t> out(static_cast<std::size_t>(n) * n);
  store.read_block(0, 0, n, n, out.data(), static_cast<std::size_t>(n));
  return out;
}

using Runner = ApspResult (*)(const graph::CsrGraph&, const ApspOptions&,
                              DistStore&);

/// Runs `algo` with overlap on and off and asserts the stores match bit for
/// bit (dist_t is int32, so equality is exact, no tolerance).
void expect_bit_identical(Runner algo, const graph::CsrGraph& g,
                          const ApspOptions& base) {
  ApspOptions on = base;
  on.overlap_transfers = true;
  ApspOptions off = base;
  off.overlap_transfers = false;
  auto s_on = make_ram_store(g.num_vertices());
  auto s_off = make_ram_store(g.num_vertices());
  algo(g, on, *s_on);
  algo(g, off, *s_off);
  EXPECT_EQ(store_contents(*s_on), store_contents(*s_off));
}

TEST(OverlapBitIdentical, FloydWarshallAcrossGraphFamilies) {
  ApspOptions base;
  base.device = test::tiny_device();  // many blocks even at these sizes
  // Sparse, dense, and disconnected random graphs.
  expect_bit_identical(ooc_floyd_warshall,
                       graph::make_erdos_renyi(300, 1200, 11), base);
  expect_bit_identical(ooc_floyd_warshall, graph::make_dense(150, 40.0, 12),
                       base);
  expect_bit_identical(ooc_floyd_warshall,
                       graph::make_erdos_renyi(300, 150, 13), base);
}

TEST(OverlapBitIdentical, JohnsonAcrossGraphFamilies) {
  ApspOptions base;
  base.device = test::tiny_device();
  expect_bit_identical(ooc_johnson, graph::make_erdos_renyi(300, 1200, 21),
                       base);
  expect_bit_identical(ooc_johnson, graph::make_dense(150, 40.0, 22), base);
  expect_bit_identical(ooc_johnson, graph::make_erdos_renyi(300, 150, 23),
                       base);
}

TEST(OverlapBitIdentical, BoundaryOnSmallSeparatorGraph) {
  ApspOptions base;
  base.device = test::tiny_device(1u << 20);
  expect_bit_identical(
      [](const graph::CsrGraph& g, const ApspOptions& o, DistStore& s) {
        return ooc_boundary(g, o, s);
      },
      graph::make_road(18, 18, 31), base);
}

TEST(OverlapBitIdentical, OverlappedRunStillMatchesDijkstra) {
  // Belt and braces: the pipelined FW also agrees with the external oracle.
  const auto g = graph::make_erdos_renyi(200, 900, 41);
  ApspOptions opts;
  opts.device = test::tiny_device();
  opts.overlap_transfers = true;
  auto store = make_ram_store(g.num_vertices());
  ooc_floyd_warshall(g, opts, *store);
  test::expect_store_matches_reference(g, *store);
}

TEST(OverlapNeverSlower, FwOnTransferBoundDevice) {
  const auto g = graph::make_erdos_renyi(1200, 6000, 51);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto on = ooc_floyd_warshall(g, transfer_bound_opts(true), *s1);
  const auto off = ooc_floyd_warshall(g, transfer_bound_opts(false), *s2);
  EXPECT_LE(on.metrics.sim_seconds, off.metrics.sim_seconds);
}

TEST(OverlapNeverSlower, JohnsonOnTransferBoundDevice) {
  const auto g = graph::make_mesh(1500, 10, 52);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto on = ooc_johnson(g, transfer_bound_opts(true), *s1);
  const auto off = ooc_johnson(g, transfer_bound_opts(false), *s2);
  EXPECT_LE(on.metrics.sim_seconds, off.metrics.sim_seconds);
}

TEST(OverlapSpeedup, FwGainsAtLeastTenPercentWhenTransferBound) {
  // The acceptance bar of the pipeline: on a transfer-bound device the
  // prefetching schedule must cut the OOC FW makespan by >= 10% while the
  // distances stay bit-identical. The win comes from the duplex lanes (H2D
  // and D2H proceed concurrently) plus prefetch under the min-plus kernels.
  // n is chosen so the five-resident-block volume tax does not change n_d;
  // when it does (e.g. n = 1500 on this spec), overlap can lose — which is
  // exactly what the overlapped cost model is for.
  const auto g = graph::make_erdos_renyi(1200, 7200, 61);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto on = ooc_floyd_warshall(g, transfer_bound_opts(true), *s1);
  const auto off = ooc_floyd_warshall(g, transfer_bound_opts(false), *s2);
  const double gain = (off.metrics.sim_seconds - on.metrics.sim_seconds) /
                      off.metrics.sim_seconds;
  EXPECT_GE(gain, 0.10) << "overlapped " << on.metrics.sim_seconds
                        << "s vs serial " << off.metrics.sim_seconds << "s";
  EXPECT_EQ(store_contents(*s1), store_contents(*s2));
}

TEST(OverlapHides, FwHidesHalfOfMinComputeTransfer) {
  // Per the paper's overlap argument, a double-buffered pipeline should hide
  // on the order of min(T_compute, T_transfer); require at least half of it
  // to leave slack for the pipeline's fill/drain ends.
  const auto g = graph::make_erdos_renyi(1500, 9000, 62);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_floyd_warshall(g, transfer_bound_opts(true), *store);
  const auto& m = r.metrics;
  EXPECT_NEAR(m.hidden_transfer_seconds + m.exposed_transfer_seconds,
              m.transfer_seconds, m.transfer_seconds * 1e-9);
  EXPECT_GE(m.hidden_transfer_seconds,
            0.5 * std::min(m.kernel_seconds, m.transfer_seconds));
}

TEST(OverlapHides, SerialRunExposesEverything) {
  const auto g = graph::make_erdos_renyi(800, 4000, 63);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_floyd_warshall(g, transfer_bound_opts(false), *store);
  EXPECT_EQ(r.metrics.hidden_transfer_seconds, 0.0);
  EXPECT_NEAR(r.metrics.exposed_transfer_seconds,
              r.metrics.transfer_seconds,
              r.metrics.transfer_seconds * 1e-9);
}

TEST(OverlapHides, JohnsonHidesTransferUnderNextBatch) {
  // Compute-bound regime: every batch D2H except the last should vanish
  // under the next batch's MSSP kernel.
  const auto g = graph::make_mesh(1500, 10, 64);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, compute_bound_opts(true), *store);
  ASSERT_GT(r.metrics.johnson_num_batches, 2);
  EXPECT_GT(r.metrics.hidden_transfer_seconds, 0.0);
  EXPECT_GE(r.metrics.hidden_transfer_seconds,
            0.5 * std::min(r.metrics.kernel_seconds,
                           r.metrics.transfer_seconds));
}

TEST(OverlapAccounting, PinnedPeakReportedThroughApspMetrics) {
  const auto g = graph::make_erdos_renyi(600, 3000, 71);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_floyd_warshall(g, compute_bound_opts(true), *store);
  // Five resident blocks' worth of staging: col (1) + row (2) + tile (2).
  EXPECT_GT(r.metrics.pinned_peak_bytes, 0u);
  EXPECT_GT(r.metrics.device_peak_bytes, 0u);
}

}  // namespace
}  // namespace gapsp::core
