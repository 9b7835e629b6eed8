// Kernel-engine equivalence suite (DESIGN.md §9).
//
// The contract under test: both microkernel variants (naive, simd) and every
// grid-execution thread setting produce bit-identical distances AND an
// identical simulated timeline. The kernel engine is a host wall-clock
// optimization only — nothing observable through the simulator may move.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/device_kernels.h"
#include "core/kernel_engine.h"
#include "core/minplus.h"
#include "graph/generators.h"
#include "sim/trace.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

// The test container may expose a single hardware thread; force a real pool
// so the parallel grid path is actually exercised. Must run before the
// first ThreadPool::global() — a file-scope initializer precedes main().
[[maybe_unused]] const bool g_pool_env = [] {
  ::setenv("GAPSP_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// Every test leaves the process-wide engine variant at its default.
class KernelEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { set_kernel_variant(KernelVariant::kAuto); }
};

std::vector<dist_t> random_matrix(vidx_t rows, vidx_t cols,
                                  std::uint64_t seed, double p_inf) {
  Rng rng(seed);
  std::vector<dist_t> m(static_cast<std::size_t>(rows) * cols);
  for (auto& x : m) {
    x = rng.next_bool(p_inf) ? kInf
                             : static_cast<dist_t>(rng.next_in(1, 1000));
  }
  return m;
}

TEST_F(KernelEngineTest, VariantNamesRoundTrip) {
  for (const KernelVariant v :
       {KernelVariant::kAuto, KernelVariant::kNaive, KernelVariant::kSimd}) {
    EXPECT_EQ(parse_kernel_variant(kernel_variant_name(v)), v);
  }
  // The deleted microkernels are unknown names like any other.
  EXPECT_THROW(parse_kernel_variant("tiled"), Error);
  EXPECT_THROW(parse_kernel_variant("tiled-reg"), Error);
  EXPECT_THROW(parse_kernel_variant("tensor"), Error);
  EXPECT_THROW(parse_kernel_variant("simd8"), Error);
  EXPECT_THROW(parse_kernel_variant("SIMD"), Error);
  EXPECT_THROW(parse_kernel_variant(""), Error);
}

TEST_F(KernelEngineTest, AutotunePicksConcreteVariant) {
  const KernelVariant v = autotune_kernel_variant();
  EXPECT_NE(v, KernelVariant::kAuto);
  // With the default (auto) config, dispatch must resolve to a concrete
  // variant as well, the same one every time.
  EXPECT_NE(resolved_kernel_variant(), KernelVariant::kAuto);
  EXPECT_EQ(resolved_kernel_variant(), resolved_kernel_variant());
}

/// The engine's CPU gate, restated: the vector TU runs unless it was built
/// for AVX2 and this x86 CPU lacks it.
bool host_passes_cpu_gate() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return !simd_kernels_built_avx2() || __builtin_cpu_supports("avx2");
#else
  return true;
#endif
}

TEST_F(KernelEngineTest, AutoResolvesToSimdWithoutARace) {
  // kAuto is a fixed pick, not a timing race: simd wherever the vector TU
  // can run, and re-measuring never moves it.
  const KernelVariant want =
      host_passes_cpu_gate() ? KernelVariant::kSimd : KernelVariant::kNaive;
  EXPECT_EQ(resolved_kernel_variant(), want);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(autotune_kernel_variant(), want);
    EXPECT_EQ(resolved_kernel_variant(), want);
  }

  // An explicit naive setting is what minplus_accum dispatches on, and the
  // rel-speed report follows it.
  set_kernel_variant(KernelVariant::kNaive);
  EXPECT_EQ(resolved_kernel_variant(), KernelVariant::kNaive);
  EXPECT_DOUBLE_EQ(kernel_variant_rel_speed(KernelVariant::kAuto), 1.0);
  const vidx_t n = 70;
  const auto a = random_matrix(n, n, 61, 0.2);
  const auto b = random_matrix(n, n, 62, 0.2);
  auto want_c = random_matrix(n, n, 63, 0.1);
  auto got_c = want_c;
  minplus_accum_naive(want_c.data(), n, a.data(), n, b.data(), n, n, n, n);
  minplus_accum(got_c.data(), n, a.data(), n, b.data(), n, n, n, n);
  EXPECT_EQ(got_c, want_c);
}

TEST_F(KernelEngineTest, AllVariantsBitIdenticalToNaive) {
  // Sizes straddle every blocking boundary: below one register block, below
  // one tile, exact tiles, one past, and ragged multiples. kInf density
  // exercises the hoisted dead-row skip.
  const vidx_t sizes[] = {1, 3, 17, 64, 65, 128, 193};
  for (const vidx_t nr : sizes) {
    for (const vidx_t nk : {sizes[1], sizes[3], sizes[6]}) {
      for (const vidx_t nc : sizes) {
        for (const double p_inf : {0.0, 0.3, 1.0}) {
          const std::uint64_t seed =
              static_cast<std::uint64_t>(nr) * 1000003 + nk * 1009 + nc;
          const auto a = random_matrix(nr, nk, seed, p_inf);
          const auto b = random_matrix(nk, nc, seed + 1, p_inf);
          const auto c0 = random_matrix(nr, nc, seed + 2, p_inf / 2);
          auto want = c0;
          minplus_accum_naive(want.data(), nc, a.data(), nk, b.data(), nc,
                              nr, nk, nc);
          auto got = c0;
          minplus_accum_variant(KernelVariant::kSimd, got.data(), nc,
                                a.data(), nk, b.data(), nc, nr, nk, nc);
          ASSERT_EQ(got, want) << "simd diverges at " << nr << "x" << nk
                               << "x" << nc << " p_inf=" << p_inf;
        }
      }
    }
  }
}

TEST_F(KernelEngineTest, LaunchGridMatchesSerialLaunch) {
  // A grid launch must be indistinguishable from a serial launch on the
  // simulated timeline: same duration, same metrics, one trace event.
  auto run = [](bool grid, int threads, std::vector<int>* out,
                sim::TraceRecorder* trace) {
    sim::Device dev(tiny_device());
    dev.set_kernel_threads(threads);
    if (trace != nullptr) dev.set_trace(trace);
    sim::KernelProfile prof;
    prof.ops = 1e6;
    prof.bytes = 1e5;
    prof.blocks = 7;
    double dur;
    if (grid) {
      dur = dev.launch_grid(
          sim::kDefaultStream, "k", 7,
          [&](int b) { (*out)[static_cast<std::size_t>(b)] = b + 1; },
          [&] { return prof; });
    } else {
      dur = dev.launch(sim::kDefaultStream, "k", [&](sim::LaunchCtx&) {
        for (int b = 0; b < 7; ++b) (*out)[static_cast<std::size_t>(b)] = b + 1;
        return prof;
      });
    }
    dev.synchronize();
    return std::pair<double, sim::DeviceMetrics>(dur, dev.metrics());
  };
  std::vector<int> serial(7), grid1(7), gridN(7);
  sim::TraceRecorder trace;
  const auto [d_serial, m_serial] = run(false, 0, &serial, nullptr);
  const auto [d_grid1, m_grid1] = run(true, 1, &grid1, nullptr);
  const auto [d_gridN, m_gridN] = run(true, 0, &gridN, &trace);
  EXPECT_EQ(grid1, serial);
  EXPECT_EQ(gridN, serial);
  EXPECT_DOUBLE_EQ(d_grid1, d_serial);
  EXPECT_DOUBLE_EQ(d_gridN, d_serial);
  EXPECT_DOUBLE_EQ(m_grid1.sim_seconds, m_serial.sim_seconds);
  EXPECT_DOUBLE_EQ(m_gridN.sim_seconds, m_serial.sim_seconds);
  EXPECT_EQ(m_gridN.kernels, 1);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, sim::TraceEvent::Kind::kKernel);
}

struct DevRun {
  std::vector<dist_t> result;
  double duration = 0.0;
  sim::DeviceMetrics metrics;
};

DevRun run_dev_minplus(KernelVariant v, int threads, int alias) {
  set_kernel_variant(v);
  const vidx_t n = 150;  // ragged against the 64-wide device tile
  sim::Device dev(tiny_device(8u << 20));
  dev.set_kernel_threads(threads);
  auto c = dev.alloc<dist_t>(static_cast<std::size_t>(n) * n, "c");
  auto o = dev.alloc<dist_t>(static_cast<std::size_t>(n) * n, "o");
  auto init_c = random_matrix(n, n, 11, 0.1);
  auto init_o = random_matrix(n, n, 12, 0.1);
  // The bit-exactness contract for the aliased (panel) forms requires the
  // non-aliased operand to be transitively closed — exactly what the FW
  // call sites guarantee (the diagonal block is closed before the panel
  // update). With a closed operand the result is the entry-wise min over a
  // fixed candidate set for every read interleaving. The fully self-aliased
  // form C = min(C, C⊗C) is only order-independent when C is closed (then
  // it is a fixed point), so close C too in that case.
  if (alias != 0) fw_inplace(init_o.data(), n, n);
  if (alias == 3) fw_inplace(init_c.data(), n, n);
  std::copy(init_c.begin(), init_c.end(), c.data());
  std::copy(init_o.begin(), init_o.end(), o.data());
  DevRun out;
  // alias: 0 = none (C = C ⊕ O⊗O), 1 = C==A (col-panel form),
  // 2 = C==B (row-panel form), 3 = both.
  const dist_t* a = alias == 1 || alias == 3 ? c.data() : o.data();
  const dist_t* b = alias == 2 || alias == 3 ? c.data() : o.data();
  out.duration = dev_minplus(dev, sim::kDefaultStream, c.data(), n, a, n, b,
                             n, n, n, n);
  dev.synchronize();
  out.result.assign(c.data(), c.data() + c.size());
  out.metrics = dev.metrics();
  return out;
}

TEST_F(KernelEngineTest, DevMinplusIdenticalAcrossVariantsAndThreads) {
  for (int alias = 0; alias < 4; ++alias) {
    const DevRun base = run_dev_minplus(KernelVariant::kNaive, 1, alias);
    for (const KernelVariant v :
         {KernelVariant::kNaive, KernelVariant::kSimd}) {
      for (const int threads : {1, 2, 0}) {
        const DevRun r = run_dev_minplus(v, threads, alias);
        ASSERT_EQ(r.result, base.result)
            << "alias=" << alias << " variant=" << kernel_variant_name(v)
            << " threads=" << threads;
        EXPECT_DOUBLE_EQ(r.duration, base.duration);
        EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
        EXPECT_EQ(r.metrics.total_ops, base.metrics.total_ops);
      }
    }
  }
}

DevRun run_blocked_fw(KernelVariant v, int threads) {
  set_kernel_variant(v);
  const vidx_t n = 200;  // 4 ragged tiles per side at tile 64
  sim::Device dev(tiny_device(8u << 20));
  dev.set_kernel_threads(threads);
  auto m = dev.alloc<dist_t>(static_cast<std::size_t>(n) * n, "m");
  const auto init = random_matrix(n, n, 21, 0.4);
  std::copy(init.begin(), init.end(), m.data());
  DevRun out;
  out.duration = dev_blocked_fw(dev, sim::kDefaultStream, m.data(), n, n);
  dev.synchronize();
  out.result.assign(m.data(), m.data() + m.size());
  out.metrics = dev.metrics();
  return out;
}

TEST_F(KernelEngineTest, BlockedFwIdenticalAcrossVariantsAndThreads) {
  const DevRun base = run_blocked_fw(KernelVariant::kNaive, 1);
  for (const KernelVariant v : {KernelVariant::kNaive, KernelVariant::kSimd}) {
    for (const int threads : {1, 2, 0}) {
      const DevRun r = run_blocked_fw(v, threads);
      ASSERT_EQ(r.result, base.result)
          << "variant=" << kernel_variant_name(v) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(r.duration, base.duration);
      EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
      EXPECT_DOUBLE_EQ(r.metrics.kernel_seconds, base.metrics.kernel_seconds);
      EXPECT_EQ(r.metrics.kernels, base.metrics.kernels);
      EXPECT_EQ(r.metrics.total_ops, base.metrics.total_ops);
    }
  }
}

void expect_stores_identical(const DistStore& sa, const DistStore& sb) {
  ASSERT_EQ(sa.n(), sb.n());
  const vidx_t n = sa.n();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    sa.read_block(r, 0, 1, n, a.data(), a.size());
    sb.read_block(r, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << "row " << r;
  }
}

class SolveParity : public ::testing::TestWithParam<Algorithm> {
 protected:
  void TearDown() override { set_kernel_variant(KernelVariant::kAuto); }
};

TEST_P(SolveParity, FullSolveIdenticalAcrossEngineSettings) {
  const auto road = graph::make_road(12, 12, 31);
  const auto rmat = graph::make_erdos_renyi(150, 900, 32);
  for (const auto* g : {&road, &rmat}) {
    ApspOptions opts;
    opts.device = tiny_device(512u << 10);
    opts.fw_tile = 32;
    opts.algorithm = GetParam();
    opts.kernel_variant = KernelVariant::kNaive;
    opts.kernel_threads = 1;
    auto s_base = make_ram_store(g->num_vertices());
    const auto base = solve_apsp(*g, opts, *s_base);
    EXPECT_EQ(base.metrics.kernel_variant, "naive");
    expect_store_matches_reference(*g, *s_base);

    for (const int threads : {1, 0}) {
      ApspOptions alt = opts;
      alt.kernel_variant = KernelVariant::kSimd;
      alt.kernel_threads = threads;
      auto s_alt = make_ram_store(g->num_vertices());
      const auto r = solve_apsp(*g, alt, *s_alt);
      EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
      EXPECT_EQ(r.metrics.kernels, base.metrics.kernels);
      EXPECT_EQ(r.metrics.kernel_variant, "simd");
      expect_stores_identical(*s_base, *s_alt);
    }
  }
}

TEST_P(SolveParity, ChaosScheduleIdenticalAcrossEngineSettings) {
  // Fault gating happens at launch granularity, before the body runs —
  // identical launch sequences mean identical fault schedules, retries and
  // distances no matter how the blocks execute on the host.
  const auto g = graph::make_erdos_renyi(130, 700, 33);
  ApspOptions opts;
  opts.device = tiny_device(256u << 10);
  opts.fw_tile = 32;
  opts.algorithm = GetParam();
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.p_kernel = 0.02;
  plan.p_h2d = 0.02;
  plan.p_d2h = 0.02;
  opts.faults = &plan;
  opts.retry.max_retries = 8;
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);

  ApspOptions alt = opts;
  alt.kernel_variant = KernelVariant::kSimd;
  alt.kernel_threads = 0;
  auto s_alt = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, alt, *s_alt);

  EXPECT_EQ(r.metrics.faults_injected, base.metrics.faults_injected);
  EXPECT_EQ(r.metrics.kernel_retries, base.metrics.kernel_retries);
  EXPECT_EQ(r.metrics.transfer_retries, base.metrics.transfer_retries);
  EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
  expect_stores_identical(*s_base, *s_alt);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SolveParity,
                         ::testing::Values(Algorithm::kBlockedFloydWarshall,
                                           Algorithm::kJohnson,
                                           Algorithm::kBoundary));

}  // namespace
}  // namespace gapsp::core
