// Differential kernel-conformance harness: the simd min-plus microkernel
// must be bit-identical to kNaive — same
// distances for every cell, no tolerance — across a corpus chosen to hit the
// places vector kernels break: ragged tails at every blocking boundary,
// kInf-dense strips (the hoisted liveness skip must not change results),
// aliased closed-operand panel forms (the FW call sites), and plain directed
// asymmetry. The contract closes end-to-end with full solve_apsp parity,
// including under a chaos fault schedule: the variant may only move host
// wall-clock, never distances, the simulated timeline, or the fault/retry
// sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/kernel_engine.h"
#include "core/minplus.h"
#include "core/ooc_fw.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

// Exercise the parallel grid path even on single-hardware-thread containers
// (must precede the first ThreadPool::global(); see kernel_engine_test.cpp).
[[maybe_unused]] const bool g_pool_env = [] {
  ::setenv("GAPSP_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// Every concrete variant that is not the oracle.
const std::vector<KernelVariant>& non_naive_variants() {
  static const std::vector<KernelVariant> v{KernelVariant::kSimd};
  return v;
}

class KernelConformance : public ::testing::Test {
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

/// Runs every non-naive variant against the naive oracle on one operand set
/// and asserts bit-identical output.
void expect_all_variants_match(const std::vector<dist_t>& a,
                               const std::vector<dist_t>& b,
                               const std::vector<dist_t>& c0, vidx_t nr,
                               vidx_t nk, vidx_t nc,
                               const std::string& what) {
  auto want = c0;
  minplus_accum_naive(want.data(), nc, a.data(), nk, b.data(), nc, nr, nk,
                      nc);
  for (const KernelVariant v : non_naive_variants()) {
    auto got = c0;
    minplus_accum_variant(v, got.data(), nc, a.data(), nk, b.data(), nc, nr,
                          nk, nc);
    ASSERT_EQ(got, want) << kernel_variant_name(v) << " diverges on " << what
                         << " (" << nr << "x" << nk << "x" << nc << ")";
  }
}

TEST_F(KernelConformance, RandomizedRaggedCorpus) {
  // Shapes straddle every blocking boundary in play: the vector register
  // tile (simd_tile_rows() × simd_tile_cols(), so the corpus follows the
  // backend's tile) and the 64-deep k tile of the liveness skip — plus
  // asymmetric nr/nk/nc so row, column and depth tails all appear,
  // separately and together. Random directed
  // weights are asymmetric by construction (d(i,j) independent of d(j,i)).
  const vidx_t rt = simd_tile_rows();
  const vidx_t ct = simd_tile_cols();
  constexpr vidx_t kt = 64;
  std::vector<vidx_t> sizes = {1,      rt - 1, rt,     rt + 1, 2 * rt + 1,
                               ct - 1, ct,     ct + 1, kt - 1, kt + 1};
  std::erase_if(sizes, [](vidx_t s) { return s < 1; });
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  int case_no = 0;
  for (const vidx_t nr : sizes) {
    for (const vidx_t nk : {rt + 1, kt - 1, kt, kt + 1}) {
      for (const vidx_t nc : sizes) {
        for (const double p_inf : {0.0, 0.4, 0.95}) {
          const std::uint64_t seed = 0xC0FFEEu + 7919u * ++case_no;
          expect_all_variants_match(
              random_matrix(nr, nk, seed, p_inf),
              random_matrix(nk, nc, seed + 1, p_inf),
              random_matrix(nr, nc, seed + 2, p_inf / 3), nr, nk, nc,
              "random corpus p_inf=" + std::to_string(p_inf));
        }
      }
    }
  }
}

TEST_F(KernelConformance, KInfDenseStrips) {
  // Whole (row-block × k-tile) strips of A dead, in several patterns: the
  // hoisted liveness skip must fire without ever changing a cell, including
  // when a strip is dead except for a single lane at its edge.
  const vidx_t nr = 80, nk = 192, nc = 80;
  for (const int pattern : {0, 1, 2, 3}) {
    auto a = random_matrix(nr, nk, 0xDEAD + pattern, 0.0);
    for (vidx_t r = 0; r < nr; ++r) {
      for (vidx_t k = 0; k < nk; ++k) {
        const vidx_t tile = k / 64;
        const bool dead =
            pattern == 0 ||                         // all strips dead
            (pattern == 1 && tile % 2 == 0) ||      // alternating tiles
            (pattern == 2 && r >= 32) ||            // dead row blocks
            (pattern == 3 && !(tile == 1 && r == 33 && k == 127));
        if (dead) a[static_cast<std::size_t>(r) * nk + k] = kInf;
      }
    }
    expect_all_variants_match(a, random_matrix(nk, nc, 0xBEEF, 0.2),
                              random_matrix(nr, nc, 0xF00D, 0.5), nr, nk, nc,
                              "kInf strips pattern " + std::to_string(pattern));
  }
}

TEST_F(KernelConformance, AliasedClosedOperandForms) {
  // The FW panel forms run the product in place: row-panel P = min(P, D⊗P)
  // (C aliases B) and col-panel P = min(P, P⊗D) (C aliases A), with D the
  // transitively closed diagonal block. Closure makes every read
  // interleaving — including the register tile's deferred stores and the
  // padded column tail — converge to the same entrywise min (DESIGN.md §9), so
  // bit-identicality must hold here exactly as in the unaliased case.
  const vidx_t n = 150;  // ragged against every tile width in play
  auto d = random_matrix(n, n, 41, 0.3);
  fw_inplace(d.data(), n, n);
  const auto p0 = random_matrix(n, n, 42, 0.3);
  auto closed_p0 = p0;
  fw_inplace(closed_p0.data(), n, n);

  struct Form {
    const char* name;
    bool c_is_a, c_is_b, close_c;
  };
  for (const Form f : {Form{"row-panel", false, true, false},
                       Form{"col-panel", true, false, false},
                       Form{"self", true, true, true}}) {
    const auto& init = f.close_c ? closed_p0 : p0;
    auto want = init;
    {
      const dist_t* a = f.c_is_a ? want.data() : d.data();
      const dist_t* b = f.c_is_b ? want.data() : d.data();
      minplus_accum_naive(want.data(), n, a, n, b, n, n, n, n);
    }
    for (const KernelVariant v : non_naive_variants()) {
      auto got = init;
      const dist_t* a = f.c_is_a ? got.data() : d.data();
      const dist_t* b = f.c_is_b ? got.data() : d.data();
      minplus_accum_variant(v, got.data(), n, a, n, b, n, n, n, n);
      ASSERT_EQ(got, want)
          << kernel_variant_name(v) << " diverges on aliased " << f.name;
    }
  }
}

/// A dk×dk closed operand without an O(dk³) closure: L1 distances between
/// random grid points are a metric (zero diagonal, triangle inequality), and
/// kInf between points of different components keeps it closed.
std::vector<dist_t> closed_metric(vidx_t dk, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dist_t> x(dk), y(dk), comp(dk);
  for (vidx_t i = 0; i < dk; ++i) {
    x[i] = static_cast<dist_t>(rng.next_in(0, 500));
    y[i] = static_cast<dist_t>(rng.next_in(0, 500));
    comp[i] = static_cast<dist_t>(rng.next_below(3));
  }
  std::vector<dist_t> d(static_cast<std::size_t>(dk) * dk);
  for (vidx_t i = 0; i < dk; ++i) {
    for (vidx_t j = 0; j < dk; ++j) {
      d[static_cast<std::size_t>(i) * dk + j] =
          comp[i] != comp[j] ? kInf
                             : std::abs(x[i] - x[j]) + std::abs(y[i] - y[j]);
    }
  }
  return d;
}

TEST_F(KernelConformance, OocFwGridShapes) {
  // The calls dense1500's FW makes on the default scaled V100: b = 631, so
  // blocks of 631, 631 and 238, each cut into 64-wide grid tiles with 55-
  // and 46-wide edges. Stage 3 runs C's tile (r0, c0) of a bi × bj block
  // against its rows of the bi × dk column block and its columns of the
  // dk × bj row block, all at the blocks' own leading dimensions.
  struct Call {
    vidx_t bi, dk, bj, r0, c0;
  };
  const Call calls[] = {
      {631, 631, 631, 0, 0},      {631, 631, 631, 576, 0},
      {631, 631, 631, 0, 576},    {631, 631, 631, 576, 576},
      {238, 631, 631, 192, 0},    {631, 631, 238, 0, 192},
      {238, 631, 238, 192, 192},  {631, 238, 631, 0, 0},
      {631, 238, 631, 576, 576},  {238, 238, 238, 192, 192},
  };
  int case_no = 0;
  for (const Call& t : calls) {
    const vidx_t nr = std::min<vidx_t>(64, t.bi - t.r0);
    const vidx_t nc = std::min<vidx_t>(64, t.bj - t.c0);
    for (const double p_inf : {0.05, 0.6}) {
      const std::uint64_t seed = 0xF00Du + 31u * ++case_no;
      const auto a = random_matrix(t.bi, t.dk, seed, p_inf);
      const auto b = random_matrix(t.dk, t.bj, seed + 1, p_inf);
      const auto c0 = random_matrix(t.bi, t.bj, seed + 2, p_inf / 3);
      const dist_t* ap = a.data() + static_cast<std::size_t>(t.r0) * t.dk;
      const dist_t* bp = b.data() + t.c0;
      const std::size_t at = static_cast<std::size_t>(t.r0) * t.bj + t.c0;
      auto want = c0;
      minplus_accum_naive(want.data() + at, t.bj, ap, t.dk, bp, t.bj, nr,
                          t.dk, nc);
      for (const KernelVariant v : non_naive_variants()) {
        auto got = c0;
        minplus_accum_variant(v, got.data() + at, t.bj, ap, t.dk, bp, t.bj,
                              nr, t.dk, nc);
        ASSERT_EQ(got, want) << kernel_variant_name(v) << " diverges on the "
                             << nr << "x" << t.dk << "x" << nc
                             << " stage-3 tile, p_inf=" << p_inf;
      }
    }
  }

  // Stage 2 runs the aliased panel forms against the closed diagonal block
  // D, one grid block per 64-wide strip: the row panel A(k,j) = min(A(k,j),
  // D ⊗ A(k,j)) in column strips (C==B), the column panel A(i,k) =
  // min(A(i,k), A(i,k) ⊗ D) in row strips (C==A).
  for (const vidx_t dk : {vidx_t{631}, vidx_t{238}}) {
    const auto d = closed_metric(dk, 0xD1A6u + dk);
    for (const vidx_t width : {vidx_t{631}, vidx_t{238}}) {
      for (vidx_t s0 = 0; s0 < width; s0 += 64) {
        const vidx_t w = std::min<vidx_t>(64, width - s0);
        if (s0 != 0 && w == 64) continue;  // one interior strip per width
        const auto p0 = random_matrix(dk, width, 0xA11Au + s0 + dk, 0.3);
        auto want = p0;
        minplus_accum_naive(want.data() + s0, width, d.data(), dk,
                            want.data() + s0, width, dk, dk, w);
        const auto q0 = random_matrix(width, dk, 0xB22Bu + s0 + dk, 0.3);
        auto want_col = q0;
        dist_t* qw = want_col.data() + static_cast<std::size_t>(s0) * dk;
        minplus_accum_naive(qw, dk, qw, dk, d.data(), dk, w, dk, dk);
        for (const KernelVariant v : non_naive_variants()) {
          auto got = p0;
          minplus_accum_variant(v, got.data() + s0, width, d.data(), dk,
                                got.data() + s0, width, dk, dk, w);
          ASSERT_EQ(got, want) << kernel_variant_name(v)
                               << " diverges on the row panel " << dk << "x"
                               << dk << "x" << w;
          auto got_col = q0;
          dist_t* qg = got_col.data() + static_cast<std::size_t>(s0) * dk;
          minplus_accum_variant(v, qg, dk, qg, dk, d.data(), dk, w, dk, dk);
          ASSERT_EQ(got_col, want_col) << kernel_variant_name(v)
                                       << " diverges on the column panel "
                                       << w << "x" << dk << "x" << dk;
        }
      }
    }
  }
}

TEST_F(KernelConformance, TuningTableCoversEveryVariant) {
  EXPECT_DOUBLE_EQ(kernel_variant_rel_speed(KernelVariant::kNaive), 1.0);
  EXPECT_GT(kernel_variant_rel_speed(KernelVariant::kSimd), 0.0);
  // kAuto reports the variant it resolves to.
  EXPECT_DOUBLE_EQ(kernel_variant_rel_speed(KernelVariant::kAuto),
                   kernel_variant_rel_speed(resolved_kernel_variant()));
}

TEST_F(KernelConformance, LaneBackendReportsSanely) {
  const std::string isa = simd_lane_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "autovec") << isa;
  EXPECT_TRUE(simd_lane_width() == 4 || simd_lane_width() == 8);
  EXPECT_GE(simd_tile_rows(), 1);
  EXPECT_EQ(simd_tile_cols() % simd_lane_width(), 0);
  if (isa == "avx2" || isa == "neon") {
    // 12 + 2 + 1 of 16 ymm registers; 24 + 4 + 1 of 32 q registers.
    EXPECT_EQ(simd_tile_rows(), 6);
    EXPECT_EQ(simd_tile_cols(), 16);
  }
  if (simd_kernels_built_avx2()) {
    EXPECT_EQ(isa, "avx2");
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

class SolveConformance : public ::testing::TestWithParam<Algorithm> {
 protected:
  void TearDown() override { set_kernel_variant(KernelVariant::kAuto); }
};

TEST_P(SolveConformance, FullSolveParityForVectorVariants) {
  const auto g = graph::make_erdos_renyi(140, 850, 51);
  ApspOptions opts;
  opts.device = tiny_device(512u << 10);
  opts.fw_tile = 32;
  opts.algorithm = GetParam();
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);
  expect_store_matches_reference(g, *s_base);

  for (const KernelVariant v : non_naive_variants()) {
    for (const int threads : {1, 0}) {
      ApspOptions alt = opts;
      alt.kernel_variant = v;
      alt.kernel_threads = threads;
      auto s_alt = make_ram_store(g.num_vertices());
      const auto r = solve_apsp(g, alt, *s_alt);
      EXPECT_EQ(r.metrics.kernel_variant, kernel_variant_name(v));
      EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
      EXPECT_EQ(r.metrics.kernels, base.metrics.kernels);
      EXPECT_EQ(r.metrics.total_ops, base.metrics.total_ops);
      expect_stores_identical(*s_base, *s_alt);
    }
  }
}

TEST_P(SolveConformance, ChaosScheduleParityForVectorVariants) {
  // Faults gate at launch granularity, before kernel bodies run: an
  // identical launch sequence implies an identical fault/retry schedule, so
  // swapping in the vector microkernel must reproduce the whole chaotic run
  // bit-for-bit.
  const auto g = graph::make_erdos_renyi(130, 700, 52);
  ApspOptions opts;
  opts.device = tiny_device(256u << 10);
  opts.fw_tile = 32;
  opts.algorithm = GetParam();
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.p_kernel = 0.02;
  plan.p_h2d = 0.02;
  plan.p_d2h = 0.02;
  opts.faults = &plan;
  opts.retry.max_retries = 8;
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);

  for (const KernelVariant v : non_naive_variants()) {
    ApspOptions alt = opts;
    alt.kernel_variant = v;
    alt.kernel_threads = 0;
    auto s_alt = make_ram_store(g.num_vertices());
    const auto r = solve_apsp(g, alt, *s_alt);
    EXPECT_EQ(r.metrics.faults_injected, base.metrics.faults_injected);
    EXPECT_EQ(r.metrics.kernel_retries, base.metrics.kernel_retries);
    EXPECT_EQ(r.metrics.transfer_retries, base.metrics.transfer_retries);
    EXPECT_DOUBLE_EQ(r.metrics.sim_seconds, base.metrics.sim_seconds);
    expect_stores_identical(*s_base, *s_alt);
  }
}

/// Every modeled metric of two solves: the kernel variant and the grid
/// thread count may move host wall-clock only.
void expect_same_modeled_metrics(const ApspMetrics& a, const ApspMetrics& b) {
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
  EXPECT_EQ(a.hidden_transfer_seconds, b.hidden_transfer_seconds);
  EXPECT_EQ(a.exposed_transfer_seconds, b.exposed_transfer_seconds);
  EXPECT_EQ(a.bytes_h2d, b.bytes_h2d);
  EXPECT_EQ(a.bytes_d2h, b.bytes_d2h);
  EXPECT_EQ(a.transfers_h2d, b.transfers_h2d);
  EXPECT_EQ(a.transfers_d2h, b.transfers_d2h);
  EXPECT_EQ(a.bytes_h2d_raw, b.bytes_h2d_raw);
  EXPECT_EQ(a.bytes_h2d_wire, b.bytes_h2d_wire);
  EXPECT_EQ(a.bytes_d2h_raw, b.bytes_d2h_raw);
  EXPECT_EQ(a.bytes_d2h_wire, b.bytes_d2h_wire);
  EXPECT_EQ(a.decode_seconds, b.decode_seconds);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.kernels, b.kernels);
  EXPECT_EQ(a.child_kernels, b.child_kernels);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.device_peak_bytes, b.device_peak_bytes);
  EXPECT_EQ(a.pinned_peak_bytes, b.pinned_peak_bytes);
  EXPECT_EQ(a.fw_num_blocks, b.fw_num_blocks);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.kernel_retries, b.kernel_retries);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
}

TEST_F(KernelConformance, RaggedFwPlanSolveParity) {
  // Five resident 152×152 blocks fit this device, so n = 400 plans FW
  // blocks of 152, 152 and 96. Cut into 64-wide tiles they leave 24- and
  // 32-wide edges, in the diagonal blocks' in-core FW and in every stage-3
  // grid, so row tails, the padded column tail and whole strips all run.
  const auto g = graph::make_dense(400, 10.0, 53);
  ApspOptions opts;
  opts.device = tiny_device(480u << 10);
  opts.fw_tile = 64;
  opts.algorithm = Algorithm::kBlockedFloydWarshall;
  ASSERT_EQ(fw_block_size(opts.device, g.num_vertices(),
                          fw_resident_blocks(opts.overlap_transfers)),
            152);
  opts.kernel_variant = KernelVariant::kNaive;
  opts.kernel_threads = 1;
  auto s_base = make_ram_store(g.num_vertices());
  const auto base = solve_apsp(g, opts, *s_base);
  EXPECT_EQ(base.metrics.fw_num_blocks, 3);
  expect_store_matches_reference(g, *s_base);

  for (const KernelVariant v : {KernelVariant::kNaive, KernelVariant::kSimd}) {
    for (const int threads : {1, 0}) {
      if (v == KernelVariant::kNaive && threads == 1) continue;  // the base
      ApspOptions alt = opts;
      alt.kernel_variant = v;
      alt.kernel_threads = threads;
      auto s_alt = make_ram_store(g.num_vertices());
      const auto r = solve_apsp(g, alt, *s_alt);
      SCOPED_TRACE(std::string(kernel_variant_name(v)) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(r.metrics.kernel_variant, kernel_variant_name(v));
      expect_same_modeled_metrics(r.metrics, base.metrics);
      expect_stores_identical(*s_base, *s_alt);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SolveConformance,
                         ::testing::Values(Algorithm::kBlockedFloydWarshall,
                                           Algorithm::kJohnson,
                                           Algorithm::kBoundary));

}  // namespace
}  // namespace gapsp::core
