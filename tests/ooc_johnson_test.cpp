#include <gtest/gtest.h>
#include <sys/resource.h>

#include <thread>
#include <vector>

#include "core/ooc_johnson.h"
#include "graph/generators.h"
#include "sim/trace.h"
#include "test_util.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

ApspOptions tiny_opts(std::size_t mem = 256u << 10) {
  ApspOptions o;
  o.device = tiny_device(mem);
  return o;
}

TEST(OocJohnson, BatchSizeFormula) {
  const auto g = graph::make_erdos_renyi(500, 3000, 41);
  const auto spec = tiny_device(1 << 20);
  const int bat = johnson_batch_size(spec, g, 2.0);
  // Recompute the paper formula by hand.
  const double L = 0.95 * static_cast<double>(spec.memory_bytes);
  const double S = static_cast<double>(g.bytes());
  const double per =
      sizeof(dist_t) * (500.0 + 2.0 * static_cast<double>(g.num_edges()));
  EXPECT_EQ(bat, static_cast<int>((L - S) / per));
  EXPECT_GE(bat, 1);
}

TEST(OocJohnson, BatchSizeShrinksWithEdges) {
  const auto sparse = graph::make_erdos_renyi(400, 1000, 42);
  const auto dense = graph::make_erdos_renyi(400, 8000, 42);
  const auto spec = tiny_device(1 << 20);
  EXPECT_GT(johnson_batch_size(spec, sparse, 2.0),
            johnson_batch_size(spec, dense, 2.0));
}

TEST(OocJohnson, BatchSizeCappedAtN) {
  const auto g = graph::make_erdos_renyi(50, 120, 43);
  EXPECT_EQ(johnson_batch_size(tiny_device(512u << 20), g, 2.0), 50);
}

TEST(OocJohnson, TooSmallDeviceThrows) {
  const auto g = graph::make_erdos_renyi(400, 5000, 44);
  EXPECT_THROW(johnson_batch_size(tiny_device(40 << 10), g, 2.0), Error);
}

TEST(OocJohnson, MatchesDijkstraMultiBatch) {
  const auto g = graph::make_erdos_renyi(220, 900, 45);
  auto store = make_ram_store(g.num_vertices());
  const auto opts = tiny_opts(96u << 10);
  const auto r = ooc_johnson(g, opts, *store);
  EXPECT_GT(r.metrics.johnson_num_batches, 1);
  EXPECT_EQ(r.metrics.johnson_batch_size *
                    (r.metrics.johnson_num_batches - 1) <
                g.num_vertices(),
            true);
  expect_store_matches_reference(g, *store, r);
}

TEST(OocJohnson, MatchesDijkstraOnScaleFree) {
  const auto g = graph::make_rmat(8, 1800, 46);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, tiny_opts(128u << 10), *store);
  expect_store_matches_reference(g, *store, r);
}

TEST(OocJohnson, DynamicParallelismDoesNotChangeResults) {
  const auto g = graph::make_rmat(8, 2000, 47);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  auto opts = tiny_opts(128u << 10);
  opts.dynamic_parallelism = false;
  const auto r1 = ooc_johnson(g, opts, *s1);
  opts.dynamic_parallelism = true;
  opts.heavy_degree_threshold = 8;
  const auto r2 = ooc_johnson(g, opts, *s2);
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> a(n), b(n);
  for (vidx_t u = 0; u < n; ++u) {
    s1->read_block(u, 0, 1, n, a.data(), n);
    s2->read_block(u, 0, 1, n, b.data(), n);
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(r1.metrics.child_kernels, 0);
  EXPECT_GT(r2.metrics.child_kernels, 0);
}

TEST(OocJohnson, DynamicParallelismHelpsWhenBatchSmall) {
  // Dense-ish scale-free graph, small memory -> few blocks; child kernels at
  // full occupancy must reduce the simulated kernel time.
  const auto g = graph::make_rmat(9, 12000, 48);
  auto opts = tiny_opts(600u << 10);
  const int bat = johnson_batch_size(opts.device, g, opts.johnson_queue_factor);
  ASSERT_LT(bat, opts.device.max_active_blocks);  // precondition of the claim
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  opts.dynamic_parallelism = false;
  const auto r_plain = ooc_johnson(g, opts, *s1);
  opts.dynamic_parallelism = true;
  opts.heavy_degree_threshold = 16;
  const auto r_dp = ooc_johnson(g, opts, *s2);
  EXPECT_LT(r_dp.metrics.kernel_seconds, r_plain.metrics.kernel_seconds);
}

TEST(OocJohnson, AllSsspKernelsAgree) {
  const auto g = graph::make_mesh(260, 10, 54);
  const vidx_t n = g.num_vertices();
  std::vector<std::unique_ptr<DistStore>> stores;
  for (const auto kernel :
       {SsspKernel::kNearFar, SsspKernel::kDeltaStepping,
        SsspKernel::kBellmanFord}) {
    auto opts = tiny_opts(512u << 10);
    opts.sssp_kernel = kernel;
    stores.push_back(make_ram_store(n));
    ooc_johnson(g, opts, *stores.back());
  }
  std::vector<dist_t> a(n), b(n);
  for (std::size_t variant = 1; variant < stores.size(); ++variant) {
    for (vidx_t u = 0; u < n; u += 17) {
      stores[0]->read_block(u, 0, 1, n, a.data(), n);
      stores[variant]->read_block(u, 0, 1, n, b.data(), n);
      ASSERT_EQ(a, b) << "kernel variant " << variant << " row " << u;
    }
  }
}

TEST(OocJohnson, BellmanFordDoesMoreWorkThanNearFar) {
  // The measured redundancy behind the Sec. II-B argument.
  const auto g = graph::make_road(14, 14, 55);
  auto nf_opts = tiny_opts(512u << 10);
  auto bf_opts = tiny_opts(512u << 10);
  bf_opts.sssp_kernel = SsspKernel::kBellmanFord;
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto nf = ooc_johnson(g, nf_opts, *s1);
  const auto bf = ooc_johnson(g, bf_opts, *s2);
  EXPECT_GT(bf.metrics.total_ops, 3.0 * nf.metrics.total_ops);
}

TEST(OocJohnson, KernelNames) {
  EXPECT_STREQ(sssp_kernel_name(SsspKernel::kNearFar), "near-far");
  EXPECT_STREQ(sssp_kernel_name(SsspKernel::kDeltaStepping),
               "delta-stepping");
  EXPECT_STREQ(sssp_kernel_name(SsspKernel::kBellmanFord), "bellman-ford");
}

TEST(OocJohnson, HandlesDisconnected) {
  const auto g = graph::make_erdos_renyi(150, 120, 49, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, tiny_opts(), *store);
  expect_store_matches_reference(g, *store, r);
}

TEST(OocJohnson, TransfersTotalN2) {
  const auto g = graph::make_erdos_renyi(200, 800, 50);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_johnson(g, tiny_opts(96u << 10), *store);
  const std::size_t n2 = static_cast<std::size_t>(g.num_vertices()) *
                         g.num_vertices() * sizeof(dist_t);
  EXPECT_EQ(r.metrics.bytes_d2h, n2);  // the O(n²) movement of Table I
}

TEST(OocJohnson, SampleBatchesSubsetTiming) {
  const auto g = graph::make_erdos_renyi(300, 1200, 51);
  const auto opts = tiny_opts(96u << 10);
  const std::vector<int> pick{0, 1};
  const JohnsonSample s = johnson_sample_batches(g, opts, pick);
  EXPECT_EQ(s.sampled, 2);
  EXPECT_GT(s.kernel_seconds, 0.0);
  EXPECT_GT(s.num_batches, 2);
}

TEST(OocJohnson, SampledBatchesStageNothingOut) {
  // The cost model reads only the sampled kernel seconds and prices the
  // result transfer by formula, so a sampled batch's rows never leave the
  // device. Its kernel charge is the launch's own duration: the same
  // batches charge the same MSSP seconds inside a full solve, where every
  // batch's rows drain.
  const auto g = graph::make_erdos_renyi(300, 1200, 51);
  for (const bool overlap : {true, false}) {
    auto opts = tiny_opts(96u << 10);
    opts.overlap_transfers = overlap;
    sim::TraceRecorder sampled;
    opts.trace = &sampled;
    const std::vector<int> pick{1, 3};
    const JohnsonSample s = johnson_sample_batches(g, opts, pick);
    EXPECT_EQ(sampled.total(sim::TraceEvent::Kind::kD2H), 0.0);
    EXPECT_EQ(sampled.total(sim::TraceEvent::Kind::kDecode), 0.0);

    sim::TraceRecorder full;
    opts.trace = &full;
    auto store = make_ram_store(g.num_vertices());
    ooc_johnson(g, opts, *store);
    std::vector<double> mssp;
    for (const auto& e : full.events()) {
      if (e.kind == sim::TraceEvent::Kind::kKernel && e.name == "MSSP") {
        mssp.push_back(e.duration_s());
      }
    }
    ASSERT_GT(mssp.size(), 3u);
    EXPECT_GT(full.total(sim::TraceEvent::Kind::kD2H), 0.0);
    EXPECT_NEAR(s.kernel_seconds, mssp[1] + mssp[3], s.kernel_seconds * 1e-9)
        << "overlap " << overlap;
  }
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

TEST(OocJohnson, OneKernelThreadRunsTheMsspOnTheCallingThread) {
  // Regression: the MSSP launch spread its SSSP instances over the whole
  // pool whatever kernel_threads said, so `--kernel-threads 1` was not
  // serial on Johnson. With one kernel thread nearly all of the solve's
  // CPU time is the calling thread's.
  if (std::thread::hardware_concurrency() == 1) {
    GTEST_SKIP() << "one hardware thread: the pool cannot differ";
  }
  const auto g = graph::make_mesh(2000, 10, 1);
  ApspOptions opts;
  opts.kernel_threads = 1;
  auto store = make_ram_store(g.num_vertices());
  ThreadPool::global();  // the workers exist before the clocks start
  const double process0 = cpu_seconds(RUSAGE_SELF);
  const double thread0 = cpu_seconds(RUSAGE_THREAD);
  ooc_johnson(g, opts, *store);
  const double process = cpu_seconds(RUSAGE_SELF) - process0;
  const double thread = cpu_seconds(RUSAGE_THREAD) - thread0;
  EXPECT_GE(thread, 0.9 * process)
      << "calling thread " << thread << " s of " << process << " s";
}

TEST(OocJohnson, SampleRejectsBadIndex) {
  const auto g = graph::make_erdos_renyi(100, 400, 52);
  const std::vector<int> bad{999};
  EXPECT_THROW(johnson_sample_batches(g, tiny_opts(), bad), Error);
}

TEST(OocJohnson, BatchTimesAreStable) {
  // The Sec. IV-B2 premise: batch execution times are similar (the paper
  // measured 1.67%-13.4% CV). Verify the simulated batches stay regular.
  const auto g = graph::make_erdos_renyi(400, 1600, 53);
  const auto opts = tiny_opts(128u << 10);
  const int bat = johnson_batch_size(opts.device, g, opts.johnson_queue_factor);
  const int nb = (g.num_vertices() + bat - 1) / bat;
  RunningStats st;
  for (int i = 0; i + 1 < nb; ++i) {  // skip the ragged final batch
    const std::vector<int> one{i};
    st.add(johnson_sample_batches(g, opts, one).kernel_seconds);
  }
  ASSERT_GT(st.count(), 2u);
  EXPECT_LT(st.cv_percent(), 25.0);
}

}  // namespace
}  // namespace gapsp::core
