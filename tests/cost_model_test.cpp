#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/cost_model.h"
#include "core/kernel_engine.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions model_opts() {
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.fw_tile = 32;
  return o;
}

TEST(TransferModels, FwMatchesClosedForm) {
  const auto spec = test::tiny_device(1u << 20);
  const vidx_t n = 5000;
  const vidx_t b = fw_block_size(spec, n);
  const double nd = std::ceil(static_cast<double>(n) / b);
  const double expect = nd * sizeof(dist_t) *
                        (3.0 * b * b + static_cast<double>(n) * n) /
                        spec.link_bandwidth;
  EXPECT_NEAR(fw_transfer_model(n, spec), expect, expect * 1e-12);
}

TEST(TransferModels, JohnsonIsN2OverThroughput) {
  const auto spec = test::tiny_device();
  EXPECT_NEAR(johnson_transfer_model(1000, spec),
              4.0 * 1e6 / spec.link_bandwidth, 1e-12);
}

TEST(TransferModels, JohnsonBelowFwForManyBlocks) {
  // FW moves n_d times the matrix; Johnson moves it once.
  const auto spec = test::tiny_device(1u << 20);
  EXPECT_GT(fw_transfer_model(4000, spec), johnson_transfer_model(4000, spec));
}

TEST(TransferModels, BoundaryCountsBatchedTransfers) {
  const auto g = graph::make_road(16, 16, 81);
  const auto opts = model_opts();
  const auto plan = plan_boundary(g, opts);
  const double t = boundary_transfer_model(plan, g.num_vertices(), opts.device);
  const double bytes = sizeof(dist_t) *
                       static_cast<double>(g.num_vertices()) *
                       g.num_vertices();
  EXPECT_GT(t, bytes / opts.device.link_bandwidth);  // latency included
  EXPECT_LT(t, bytes / opts.device.link_bandwidth +
                   1000 * opts.device.transfer_latency_s);
}

TEST(BoundaryNop, FormulaTerms) {
  // N_op = n³/k² + (kB)³ + nkB² + n²B
  const double nop = boundary_nop(100, 4, 2.0);
  EXPECT_DOUBLE_EQ(nop, 1e6 / 16 + 512.0 + 100.0 * 4 * 4 + 1e4 * 2);
}

TEST(BoundaryBucket, RangesDoubleFromIdeal) {
  const vidx_t n = 10000;  // n^(3/4) = 1000
  EXPECT_EQ(boundary_bucket(n, 500, 6), 0);   // below ideal clamps to 0
  EXPECT_EQ(boundary_bucket(n, 1500, 6), 0);  // [1, 2)·ideal
  EXPECT_EQ(boundary_bucket(n, 2500, 6), 1);  // [2, 4)·ideal
  EXPECT_EQ(boundary_bucket(n, 5000, 6), 2);  // [4, 8)·ideal
  EXPECT_EQ(boundary_bucket(n, 900000, 6), 5);  // clamps at the top
}

TEST(Calibration, ProducesPositiveReferencePoints) {
  const auto& cal = calibrate(model_opts());
  EXPECT_GT(cal.fw_t0, 0.0);
  EXPECT_GT(cal.fw_n0, 0);
  EXPECT_GT(cal.bnd_t0, 0.0);
  EXPECT_GT(cal.bnd_n0, 0);
  for (double c : cal.c_unit) EXPECT_GT(c, 0.0);
}

TEST(Calibration, CachedPerDeviceConfig) {
  const auto opts = model_opts();
  const Calibration& a = calibrate(opts);
  const Calibration& b = calibrate(opts);
  EXPECT_EQ(&a, &b);
  auto other = opts;
  other.device = test::tiny_device(3u << 20);
  EXPECT_NE(&calibrate(other), &a);
}

TEST(Calibration, KeyedOnCostRelevantOptions) {
  // Regression: the cache key was device name + memory only, so flipping
  // overlap_transfers or the Johnson queue factor returned a calibration
  // measured under the *other* configuration.
  const auto base = model_opts();
  const Calibration& a = calibrate(base);

  auto overlap = base;
  overlap.overlap_transfers = !base.overlap_transfers;
  EXPECT_NE(&calibrate(overlap), &a);

  auto qf = base;
  qf.johnson_queue_factor = base.johnson_queue_factor * 2.0;
  EXPECT_NE(&calibrate(qf), &a);

  // Same cost-relevant options still share one entry.
  auto same = base;
  EXPECT_EQ(&calibrate(same), &a);
}

TEST(TransferModels, CompressedSinkScalesOnlyTheOutputTerm) {
  // A store sink at ratio R shrinks the n² output stream R-fold but leaves
  // the device-bound working tiles (FW's 3b² term) at the raw element size.
  const auto spec = test::tiny_device(1u << 20);
  const vidx_t n = 5000;
  const double w = sizeof(dist_t) / 4.0;  // measured ratio 4
  const vidx_t b = fw_block_size(spec, n);
  const double nd = std::ceil(static_cast<double>(n) / b);
  const double expect = nd *
                        (3.0 * sizeof(dist_t) * b * b +
                         w * static_cast<double>(n) * n) /
                        spec.link_bandwidth;
  EXPECT_NEAR(fw_transfer_model(n, spec, false, w), expect, expect * 1e-12);
  // Johnson and boundary outputs are pure n² streams: exactly R× cheaper.
  EXPECT_NEAR(johnson_transfer_model(n, spec, w),
              johnson_transfer_model(n, spec) / 4.0, 1e-12);
  const auto g = graph::make_road(16, 16, 81);
  const auto opts = model_opts();
  const auto plan = plan_boundary(g, opts);
  EXPECT_LT(boundary_transfer_model(plan, g.num_vertices(), opts.device, w),
            boundary_transfer_model(plan, g.num_vertices(), opts.device));
  // End to end: a cheaper sink must lower the estimates' transfer share.
  auto zopts = opts;
  zopts.store_bytes_per_element = w;
  EXPECT_LT(estimate_fw(g, zopts).transfer_s,
            estimate_fw(g, opts).transfer_s);
  EXPECT_LT(estimate_johnson(g, zopts).transfer_s,
            estimate_johnson(g, opts).transfer_s);
}

TEST(Calibration, PersistsNextToTheStoreAndSkipsWarmup) {
  const std::string path =
      ::testing::TempDir() + "gapsp_cal_roundtrip.cal";
  auto opts = model_opts();
  // A device name no other test calibrates, so this entry is ours alone.
  opts.device.name = "cal-persist-test";

  // Nothing cached for this configuration yet: nothing to save.
  EXPECT_FALSE(save_calibration(opts, path));

  const Calibration before = calibrate(opts);  // pays the probe runs
  ASSERT_TRUE(save_calibration(opts, path));

  // Drop the in-process cache and reload from the sidecar: calibrate()
  // must be a pure cache hit (no new probe runs) with identical numbers.
  clear_calibration_cache();
  const long long runs = calibration_runs();
  ASSERT_TRUE(load_calibration(opts, path));
  const Calibration& after = calibrate(opts);
  EXPECT_EQ(calibration_runs(), runs);
  EXPECT_EQ(after.fw_t0, before.fw_t0);
  EXPECT_EQ(after.fw_n0, before.fw_n0);
  EXPECT_EQ(after.fw_exponent, before.fw_exponent);
  EXPECT_EQ(after.bnd_t0, before.bnd_t0);
  EXPECT_EQ(after.bnd_n0, before.bnd_n0);
  EXPECT_EQ(after.bnd_exponent, before.bnd_exponent);
  EXPECT_EQ(after.c_unit, before.c_unit);
  std::remove(path.c_str());
}

TEST(Calibration, SharedAcrossKernelVariants) {
  // The probes record modeled kernel seconds, which no variant changes, so
  // `--kernel-variant naive` must reuse the calibration (and the sidecar) an
  // auto run paid for instead of re-running the probes.
  auto opts = model_opts();
  opts.device.name = "cal-variant-test";
  auto naive = opts;
  naive.kernel_variant = KernelVariant::kNaive;
  const long long runs = calibration_runs();
  calibrate(opts);
  calibrate(naive);
  EXPECT_EQ(calibration_runs(), runs + 1);

  // A sidecar saved by an auto run seeds a naive run.
  const std::string path = ::testing::TempDir() + "gapsp_cal_variant.cal";
  ASSERT_TRUE(save_calibration(opts, path));
  clear_calibration_cache();
  EXPECT_TRUE(load_calibration(naive, path));
  std::remove(path.c_str());

  // Estimates do not depend on the variant either.
  const auto g = graph::make_erdos_renyi(200, 800, 88);
  const auto auto_est = estimate_fw(g, opts);
  const auto naive_est = estimate_fw(g, naive);
  EXPECT_EQ(naive_est.compute_s, auto_est.compute_s);
  EXPECT_EQ(naive_est.transfer_s, auto_est.transfer_s);
  EXPECT_EQ(naive_est.total(), auto_est.total());
}

TEST(Calibration, SidecarForOtherConfigurationIsIgnored) {
  const std::string path = ::testing::TempDir() + "gapsp_cal_mismatch.cal";
  auto opts = model_opts();
  opts.device.name = "cal-mismatch-test";
  calibrate(opts);
  ASSERT_TRUE(save_calibration(opts, path));

  // Same sidecar, different cost-relevant option: keyed out, not reused —
  // loading a table measured under another configuration would silently
  // mis-rank the algorithms.
  auto other = opts;
  other.overlap_transfers = !opts.overlap_transfers;
  EXPECT_FALSE(load_calibration(other, path));

  // Damage the file: checksum rejects it, the cache stays untouched.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24, SEEK_SET);
    const char x = 0x5a;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_calibration(opts, path));
  EXPECT_FALSE(load_calibration(opts, path + ".does_not_exist"));
  std::remove(path.c_str());
}

TEST(JohnsonBatches, CountIsComputedIn64Bit) {
  // Regression: ⌈n/bat⌉ was computed as (n + bat - 1) in int, which wraps
  // negative for n near INT32_MAX and small bat.
  const vidx_t big = std::numeric_limits<vidx_t>::max();
  EXPECT_EQ(johnson_num_batches(big, 1), static_cast<std::int64_t>(big));
  EXPECT_EQ(johnson_num_batches(big, 2), (static_cast<std::int64_t>(big) + 1) / 2);
  EXPECT_GT(johnson_num_batches(big, 7), 0);
  EXPECT_EQ(johnson_num_batches(10, 3), 4);
  EXPECT_EQ(johnson_num_batches(9, 3), 3);
}

TEST(Estimates, JohnsonInfeasibleWhenNoInstanceFits) {
  // Regression: estimate_johnson let the batch planner's exception escape;
  // it must report an infeasible (infinite) estimate like estimate_boundary.
  const auto g = graph::make_dense(300, 12.0, 88);
  auto opts = model_opts();
  opts.device = test::tiny_device(64u << 10);  // CSR alone exceeds the device
  CostBreakdown est;
  EXPECT_NO_THROW(est = estimate_johnson(g, opts));
  EXPECT_FALSE(est.feasible);
  EXPECT_TRUE(std::isinf(est.total()));
}

TEST(Estimates, FwPowerLawScaling) {
  const auto opts = model_opts();
  const auto& cal = calibrate(opts);
  EXPECT_GE(cal.fw_exponent, 1.0);
  EXPECT_LE(cal.fw_exponent, 3.0);
  const auto g1 = graph::make_erdos_renyi(200, 800, 82);
  const auto g2 = graph::make_erdos_renyi(400, 1600, 82);
  const auto e1 = estimate_fw(g1, opts);
  const auto e2 = estimate_fw(g2, opts);
  EXPECT_NEAR(e2.compute_s / e1.compute_s, std::pow(2.0, cal.fw_exponent),
              0.01);
}

TEST(Estimates, FwPredictsActualWithinFactor) {
  const auto opts = model_opts();
  const auto g = graph::make_erdos_renyi(300, 2000, 83);
  const auto est = estimate_fw(g, opts);
  auto store = make_ram_store(g.num_vertices());
  const auto actual = ooc_floyd_warshall(g, opts, *store);
  EXPECT_GT(est.total(), actual.metrics.sim_seconds / 3.0);
  EXPECT_LT(est.total(), actual.metrics.sim_seconds * 3.0);
}

TEST(Estimates, JohnsonPredictsActualWithinFactor) {
  const auto opts = model_opts();
  const auto g = graph::make_mesh(500, 12, 84);
  const auto est = estimate_johnson(g, opts, 5);
  auto store = make_ram_store(g.num_vertices());
  const auto actual = ooc_johnson(g, opts, *store);
  EXPECT_GT(est.total(), actual.metrics.sim_seconds / 2.0);
  EXPECT_LT(est.total(), actual.metrics.sim_seconds * 2.0);
}

TEST(Estimates, BoundaryPredictsActualOnSmallSeparator) {
  const auto opts = model_opts();
  const auto g = graph::make_road(22, 22, 85);
  const auto est = estimate_boundary(g, opts);
  ASSERT_TRUE(est.feasible);
  auto store = make_ram_store(g.num_vertices());
  const auto actual = ooc_boundary(g, opts, *store);
  EXPECT_GT(est.total(), actual.metrics.sim_seconds / 3.0);
  EXPECT_LT(est.total(), actual.metrics.sim_seconds * 3.0);
}

TEST(Estimates, BoundaryInfeasibleReported) {
  const auto g = graph::make_mesh(600, 14, 86, 0.3);
  auto opts = model_opts();
  opts.device = test::tiny_device(64u << 10);
  const auto est = estimate_boundary(g, opts);
  EXPECT_FALSE(est.feasible);
  EXPECT_TRUE(std::isinf(est.total()));
}

TEST(Estimates, JohnsonSamplingUsesFewBatches) {
  // Sampling must be much cheaper than the full run: it runs <= 5 batches.
  const auto opts = model_opts();
  const auto g = graph::make_erdos_renyi(600, 2400, 87);
  const int bat = johnson_batch_size(opts.device, g, opts.johnson_queue_factor);
  const int nb = (g.num_vertices() + bat - 1) / bat;
  ASSERT_GT(nb, 5);
  const auto est = estimate_johnson(g, opts, 5);
  EXPECT_GT(est.compute_s, 0.0);
}

}  // namespace
}  // namespace gapsp::core
