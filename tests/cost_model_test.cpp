#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/cost_model.h"
#include "core/kernel_engine.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/file_io.h"

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
  // overlap_transfers returned a calibration measured under the *other*
  // configuration.
  const auto base = model_opts();
  const Calibration& a = calibrate(base);

  auto overlap = base;
  overlap.overlap_transfers = !base.overlap_transfers;
  EXPECT_NE(&calibrate(overlap), &a);

  // The Johnson queue factor reaches no probe, so it shares the entry.
  auto qf = base;
  qf.johnson_queue_factor = base.johnson_queue_factor * 2.0;
  EXPECT_EQ(&calibrate(qf), &a);

  // Same cost-relevant options still share one entry.
  auto same = base;
  EXPECT_EQ(&calibrate(same), &a);
}

TEST(Calibration, QueueFactorAndCodecModeShareOneEntry) {
  // Regression: the key carried the queue factor and the codec mode, which
  // no probe reads, so each of these configurations re-ran the probes to
  // an identical table and could not share a `.cal` sidecar.
  auto base = model_opts();
  base.device.name = "cal-shared-entry-test";
  const long long runs = calibration_runs();
  const Calibration& a = calibrate(base);
  auto qf = base;
  qf.johnson_queue_factor = base.johnson_queue_factor * 2.0;
  EXPECT_EQ(&calibrate(qf), &a);
  for (const auto mode : {TransferCompression::kAuto, TransferCompression::kOn,
                          TransferCompression::kOff}) {
    auto opts = base;
    opts.transfer_compression = mode;
    EXPECT_EQ(&calibrate(opts), &a) << transfer_compression_name(mode);
    EXPECT_EQ(calibration_cache_key(opts), calibration_cache_key(base));
  }
  EXPECT_EQ(calibration_runs(), runs + 1);
}

/// A GAPSCAL1 sidecar built byte by byte: the magic "GAPSCAL1", the key,
/// the table, and the FNV-1a of everything before the sum.
std::vector<std::uint8_t> cal_sidecar(const std::string& key,
                                      const Calibration& cal) {
  std::vector<std::uint8_t> buf;
  const auto put = [&buf](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + bytes);
  };
  put("GAPSCAL1", 8);
  const std::uint64_t key_len = key.size();
  put(&key_len, sizeof(key_len));
  put(key.data(), key.size());
  const std::int64_t fw_n0 = cal.fw_n0, bnd_n0 = cal.bnd_n0;
  put(&cal.fw_t0, sizeof(cal.fw_t0));
  put(&fw_n0, sizeof(fw_n0));
  put(&cal.fw_exponent, sizeof(cal.fw_exponent));
  put(&cal.bnd_t0, sizeof(cal.bnd_t0));
  put(&bnd_n0, sizeof(bnd_n0));
  put(&cal.bnd_exponent, sizeof(cal.bnd_exponent));
  const std::uint64_t buckets = cal.c_unit.size();
  put(&buckets, sizeof(buckets));
  put(cal.c_unit.data(), cal.c_unit.size() * sizeof(double));
  const std::uint64_t sum = util::fnv1a(buf.data(), buf.size());
  put(&sum, sizeof(sum));
  return buf;
}

TEST(Calibration, SidecarUnderTheOldKeyFormatIsIgnored) {
  // Keys used to end in "/qf<queue factor>/ft<tile>/tc<codec mode>". A
  // sidecar written under such a key matches no key built now: the load
  // fails and the probes re-run once, never a table under the wrong key.
  auto opts = model_opts();
  opts.device.name = "cal-old-key-test";
  const Calibration table = calibrate(opts);
  const std::string old_key =
      opts.device.name + "/" + std::to_string(opts.device.memory_bytes) +
      "/ov" + std::to_string(opts.overlap_transfers ? 1 : 0) + "/bt" +
      std::to_string(opts.batch_transfers ? 1 : 0) + "/qf" +
      std::to_string(opts.johnson_queue_factor) + "/ft" +
      std::to_string(opts.fw_tile) + "/tc" +
      std::to_string(static_cast<int>(opts.transfer_compression));
  ASSERT_NE(old_key, calibration_cache_key(opts));

  const std::string path = ::testing::TempDir() + "gapsp_cal_old_key.cal";
  const auto write = [&path](const std::vector<std::uint8_t>& bytes) {
    util::atomic_replace(path, [&bytes](util::File& f) {
      f.pwrite_exact(bytes.data(), bytes.size(), 0);
    });
  };
  clear_calibration_cache();
  write(cal_sidecar(old_key, table));
  EXPECT_FALSE(load_calibration(opts, path));
  const long long runs = calibration_runs();
  calibrate(opts);
  EXPECT_EQ(calibration_runs(), runs + 1);

  // The same bytes under the current key load: only the key kept the old
  // sidecar out.
  clear_calibration_cache();
  write(cal_sidecar(calibration_cache_key(opts), table));
  EXPECT_TRUE(load_calibration(opts, path));
  EXPECT_EQ(calibrate(opts).fw_t0, table.fw_t0);
  EXPECT_EQ(calibration_runs(), runs + 1);
  std::remove(path.c_str());
}

void expect_same_table(const Calibration& got, const Calibration& want,
                       const char* what) {
  EXPECT_EQ(got.fw_t0, want.fw_t0) << what;
  EXPECT_EQ(got.fw_n0, want.fw_n0) << what;
  EXPECT_EQ(got.fw_exponent, want.fw_exponent) << what;
  EXPECT_EQ(got.bnd_t0, want.bnd_t0) << what;
  EXPECT_EQ(got.bnd_n0, want.bnd_n0) << what;
  EXPECT_EQ(got.bnd_exponent, want.bnd_exponent) << what;
  EXPECT_EQ(got.c_unit, want.c_unit) << what;
}

TEST(Calibration, TableDependsOnlyOnTheKey) {
  // Regression: the probes ran on the caller's options, so a seed, k or
  // partitioner the key does not carry changed the table (bnd_t0 moved by
  // up to 13 %), and the cache and the .cal sidecars then served whichever
  // table came first. The caller's fault plan and checkpoint reached the
  // probes too: a probe fault failed the calibration, and the FW probe
  // rewrote and removed the caller's checkpoint.
  const ApspOptions base;
  clear_calibration_cache();
  const Calibration want = calibrate(base);

  const std::string ck = ::testing::TempDir() + "gapsp_cal_probe.ck";
  const sim::FaultPlan plan = [] {
    sim::FaultPlan p;
    p.p_kernel = 0.2;
    p.p_h2d = 0.05;
    return p;
  }();
  const std::pair<const char*, std::function<void(ApspOptions&)>> variants[] =
      {
          {"seed 2", [](ApspOptions& o) { o.seed = 2; }},
          {"4 components", [](ApspOptions& o) { o.num_components = 4; }},
          {"recursive bisection",
           [](ApspOptions& o) {
             o.partition_method = part::Method::kRecursiveBisection;
           }},
          {"fault plan, no retries",
           [&plan](ApspOptions& o) {
             o.faults = &plan;
             o.retry.max_retries = 0;
           }},
          {"checkpoint", [&ck](ApspOptions& o) { o.checkpoint_path = ck; }},
      };
  for (const auto& [what, apply] : variants) {
    ApspOptions opts = base;
    apply(opts);
    ASSERT_EQ(calibration_cache_key(opts), calibration_cache_key(base))
        << what;
    clear_calibration_cache();
    expect_same_table(calibrate(opts), want, what);
  }
  EXPECT_FALSE(util::File::open_if_present(ck));

  // The probes run codec-off: every mode gets the same table.
  for (const auto mode :
       {TransferCompression::kOn, TransferCompression::kOff}) {
    ApspOptions opts = base;
    opts.transfer_compression = mode;
    clear_calibration_cache();
    expect_same_table(calibrate(opts), want, transfer_compression_name(mode));
  }
}

TEST(Calibration, ChargeOnlyProbesChargeWhatExecutingProbesCharged) {
  // The default table's two reference times, as the probes charged them
  // when they still executed every kernel, copy and codec frame (hex
  // floats: the charge is exact). Charge-only probes must not move them.
  clear_calibration_cache();
  const Calibration& cal = calibrate(ApspOptions{});
  EXPECT_EQ(cal.fw_t0, 0x1.05a112094d64cp-10);
  EXPECT_EQ(cal.bnd_t0, 0x1.be36a01ed2cep-10);
  EXPECT_EQ(cal.fw_n0, 768);
  EXPECT_EQ(cal.bnd_n0, 1296);
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

TEST(Estimates, JohnsonSampledComputeIsPinned) {
  // The sampled batches' MSSP charge on the benchmark's Johnson graphs
  // (seed 1, default options), as charged when every sampled batch still
  // staged its rows out through the codec and Near-Far counted its work
  // per edge (hex floats: the charge is exact). Neither how the host runs
  // the SSSP instances nor what the sampler skips may move it.
  const std::pair<graph::CsrGraph, double> cases[] = {
      {graph::make_road(48, 48, 1), 0x1.227753bf89dfp-7},
      {graph::make_mesh(2000, 10, 1), 0x1.1834264f3efefp-5},
      {graph::make_dense(1500, 8.0, 1), 0x1.187b7df12153p-2},
  };
  for (const auto& [g, compute_s] : cases) {
    EXPECT_EQ(estimate_johnson(g, ApspOptions{}, 5).compute_s, compute_s)
        << "n = " << g.num_vertices();
  }
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
