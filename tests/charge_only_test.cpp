// Charge-only device mode (sim/device.h): a charge-only run charges the
// modeled timeline of an executing run without running kernels, copies or
// the codec. The cost model's calibration probes rely on it, so every
// charged metric of a blocked-FW and a boundary solve must be identical in
// both modes, on both scaled devices, with overlap and batching on and off.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/apsp.h"
#include "core/ooc_boundary.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "sim/device.h"
#include "test_util.h"

namespace gapsp {
namespace {

using core::Algorithm;
using core::ApspMetrics;
using core::ApspOptions;

TEST(ChargeOnlyDevice, GridLaunchChargesWithoutRunningBlocks) {
  sim::Device run(sim::DeviceSpec::v100_scaled());
  sim::Device charge(sim::DeviceSpec::v100_scaled());
  charge.set_charge_only(true);
  int blocks_run = 0;
  const auto body = [&](int) { ++blocks_run; };
  const auto profile = [] {
    sim::KernelProfile p;
    p.ops = 3e6;
    p.bytes = 1e6;
    p.blocks = 12;
    return p;
  };
  const double executed = run.launch_grid(sim::kDefaultStream, "k", 12, body,
                                          profile);
  EXPECT_EQ(blocks_run, 12);
  const double charged = charge.launch_grid(sim::kDefaultStream, "k", 12,
                                            body, profile);
  EXPECT_EQ(blocks_run, 12);  // no block ran on the charge-only device
  EXPECT_EQ(charged, executed);
  EXPECT_EQ(charge.metrics().kernels, 1);
  EXPECT_EQ(charge.metrics().total_ops, run.metrics().total_ops);
}

TEST(ChargeOnlyDevice, CopiesChargeWithoutMovingBytes) {
  sim::Device run(sim::DeviceSpec::v100_scaled());
  sim::Device charge(sim::DeviceSpec::v100_scaled());
  charge.set_charge_only(true);
  const std::vector<dist_t> src(64, 5);
  std::vector<dist_t> moved(64, 0), untouched(64, 0);
  const std::size_t bytes = src.size() * sizeof(dist_t);
  for (sim::Device* dev : {&run, &charge}) {
    dist_t* dst = dev == &run ? moved.data() : untouched.data();
    dev->memcpy_h2d(sim::kDefaultStream, dst, src.data(), bytes);
    dev->memcpy_d2h(sim::kDefaultStream, dst, src.data(), bytes,
                    /*async=*/true, /*pinned=*/true);
    dev->synchronize();
  }
  EXPECT_EQ(moved, src);
  for (dist_t v : untouched) EXPECT_EQ(v, 0);
  const auto a = run.metrics();
  const auto b = charge.metrics();
  EXPECT_EQ(b.sim_seconds, a.sim_seconds);
  EXPECT_EQ(b.transfer_seconds, a.transfer_seconds);
  EXPECT_EQ(b.bytes_h2d, a.bytes_h2d);
  EXPECT_EQ(b.bytes_d2h, a.bytes_d2h);
  EXPECT_EQ(b.transfers_h2d, 1);
  EXPECT_EQ(b.transfers_d2h, 1);
}

TEST(ChargeOnlyDevice, CombinedLaunchIsRejected) {
  // launch() learns its profile by running the body, which a charge-only
  // device cannot do: it throws before running anything or charging.
  sim::Device dev(sim::DeviceSpec::v100_scaled());
  dev.set_charge_only(true);
  bool ran = false;
  EXPECT_THROW(dev.launch(sim::kDefaultStream, "MSSP",
                          [&](sim::LaunchCtx&) {
                            ran = true;
                            return sim::KernelProfile{};
                          }),
               Error);
  EXPECT_FALSE(ran);
  EXPECT_EQ(dev.metrics().kernels, 0);

  // Johnson's MSSP is such a kernel, so its driver refuses the mode.
  const auto g = graph::make_road(8, 8, 3);
  ApspOptions opts;
  opts.charge_only = true;
  opts.transfer_compression = core::TransferCompression::kOff;
  auto store = core::make_ram_store(g.num_vertices());
  EXPECT_THROW(core::ooc_johnson(g, opts, *store), Error);
}

TEST(ChargeOnlyDevice, EngagedCodecIsRejected) {
  // The wire size of a compressed tile is the encoded size of a payload a
  // charge-only device never writes.
  sim::Device dev(sim::DeviceSpec::v100_scaled());
  dev.set_charge_only(true);
  EXPECT_THROW({ core::TransferCodec on(dev, core::TransferCompression::kOn); },
               Error);
  EXPECT_NO_THROW(
      { core::TransferCodec off(dev, core::TransferCompression::kOff); });

  const auto g = graph::make_road(8, 8, 3);
  ApspOptions opts;
  opts.charge_only = true;
  opts.transfer_compression = core::TransferCompression::kOn;
  auto store = core::make_ram_store(g.num_vertices());
  EXPECT_THROW(core::ooc_floyd_warshall(g, opts, *store), Error);
  EXPECT_THROW(core::ooc_boundary(g, opts, *store), Error);
}

TEST(ChargeOnlyDevice, SolveApspRejectsTheFlag) {
  const auto g = graph::make_road(8, 8, 3);
  ApspOptions opts;
  opts.charge_only = true;
  opts.transfer_compression = core::TransferCompression::kOff;
  auto store = core::make_ram_store(g.num_vertices());
  for (const Algorithm a : {Algorithm::kAuto, Algorithm::kBlockedFloydWarshall,
                            Algorithm::kJohnson, Algorithm::kBoundary}) {
    opts.algorithm = a;
    EXPECT_THROW(core::solve_apsp(g, opts, *store), Error)
        << core::algorithm_name(a);
  }
}

// ---- executing vs charge-only solves --------------------------------------

struct GraphCase {
  const char* name;
  std::function<graph::CsrGraph()> make;
};

// Sizes put blocked FW past its block side on some configurations, so the
// last block row is ragged (v100 overlap: b = 631; k80 overlap: b = 546),
// and every in-core FW leaves a ragged 64-wide sub-tile.
const GraphCase kGraphs[] = {
    {"er", [] { return graph::make_erdos_renyi(700, 2800, 5101); }},
    {"road", [] { return graph::make_road(26, 27, 5102); }},
    {"mesh", [] { return graph::make_mesh(650, 8, 5103, 0.2); }},
    {"dense", [] { return graph::make_dense(420, 10.0, 5104); }},
};

ApspMetrics solve(const graph::CsrGraph& g, const ApspOptions& opts,
                  Algorithm algo) {
  auto store = core::make_ram_store(g.num_vertices());
  return algo == Algorithm::kBlockedFloydWarshall
             ? core::ooc_floyd_warshall(g, opts, *store).metrics
             : core::ooc_boundary(g, opts, *store).metrics;
}

using EquivalenceParam = std::tuple<bool /*k80*/, bool /*overlap*/,
                                    bool /*batch*/, Algorithm, int /*graph*/>;

class ChargeOnlyEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(ChargeOnlyEquivalence, EveryChargedMetricMatchesTheExecutingRun) {
  const auto [k80, overlap, batch, algo, graph_index] = GetParam();
  const GraphCase& gc = kGraphs[graph_index];
  const auto g = gc.make();
  ApspOptions opts;
  opts.device = k80 ? sim::DeviceSpec::k80_scaled()
                    : sim::DeviceSpec::v100_scaled();
  opts.overlap_transfers = overlap;
  opts.batch_transfers = batch;
  opts.transfer_compression = core::TransferCompression::kOff;
  const ApspMetrics run = solve(g, opts, algo);
  opts.charge_only = true;
  const ApspMetrics charged = solve(g, opts, algo);

  EXPECT_GT(run.kernels, 0);
  EXPECT_EQ(charged.sim_seconds, run.sim_seconds);
  EXPECT_EQ(charged.kernel_seconds, run.kernel_seconds);
  EXPECT_EQ(charged.transfer_seconds, run.transfer_seconds);
  EXPECT_EQ(charged.hidden_transfer_seconds, run.hidden_transfer_seconds);
  EXPECT_EQ(charged.exposed_transfer_seconds, run.exposed_transfer_seconds);
  EXPECT_EQ(charged.bytes_h2d, run.bytes_h2d);
  EXPECT_EQ(charged.bytes_d2h, run.bytes_d2h);
  EXPECT_EQ(charged.transfers_h2d, run.transfers_h2d);
  EXPECT_EQ(charged.transfers_d2h, run.transfers_d2h);
  EXPECT_EQ(charged.bytes_h2d_raw, run.bytes_h2d_raw);
  EXPECT_EQ(charged.bytes_h2d_wire, run.bytes_h2d_wire);
  EXPECT_EQ(charged.bytes_d2h_raw, run.bytes_d2h_raw);
  EXPECT_EQ(charged.bytes_d2h_wire, run.bytes_d2h_wire);
  EXPECT_EQ(charged.decode_seconds, run.decode_seconds);
  EXPECT_EQ(charged.kernels, run.kernels);
  EXPECT_EQ(charged.child_kernels, run.child_kernels);
  EXPECT_EQ(charged.total_ops, run.total_ops);
  EXPECT_EQ(charged.device_peak_bytes, run.device_peak_bytes);
  EXPECT_EQ(charged.pinned_peak_bytes, run.pinned_peak_bytes);
  EXPECT_EQ(charged.fw_num_blocks, run.fw_num_blocks);
  EXPECT_EQ(charged.boundary_k, run.boundary_k);
  EXPECT_EQ(charged.boundary_nodes, run.boundary_nodes);
}

std::string equivalence_name(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  const auto [k80, overlap, batch, algo, graph_index] = info.param;
  return std::string(k80 ? "k80" : "v100") + (overlap ? "_ov" : "_serial") +
         (batch ? "_batch" : "_nobatch") +
         (algo == Algorithm::kBlockedFloydWarshall ? "_fw_" : "_boundary_") +
         kGraphs[graph_index].name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChargeOnlyEquivalence,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool(),
                       ::testing::Values(Algorithm::kBlockedFloydWarshall,
                                         Algorithm::kBoundary),
                       ::testing::Range(0, 4)),
    equivalence_name);

}  // namespace
}  // namespace gapsp
