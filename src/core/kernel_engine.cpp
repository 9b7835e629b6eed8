#include "core/kernel_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <vector>

#include "core/minplus.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

std::atomic<KernelVariant> g_variant{KernelVariant::kAuto};

/// Host timings of the two kernels on the 128³ working set, in best-of-3
/// seconds per minplus_ops() element. Purely host wall-clock: it feeds the
/// rel-speed report and nothing else.
struct KernelTuning {
  bool measured = false;
  double naive_s_per_op = 0.0;
  double simd_s_per_op = 0.0;
};

std::mutex g_tuning_mu;
KernelTuning g_tuning;  // guarded by g_tuning_mu

/// True when the simd entry point may run the vector TU: either it was
/// built without AVX2 codegen (NEON/autovec — always safe), or the CPU we
/// actually landed on supports AVX2. Checked once, outside the AVX2 TU.
bool simd_runtime_ok() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool ok =
      !simd_kernels_built_avx2() || __builtin_cpu_supports("avx2");
#else
  static const bool ok = true;
#endif
  return ok;
}

/// The vector register-tile kernel behind the runtime CPU gate.
void minplus_accum_simd(dist_t* c, std::size_t ldc, const dist_t* a,
                        std::size_t lda, const dist_t* b, std::size_t ldb,
                        vidx_t nr, vidx_t nk, vidx_t nc) {
  // Bit-identical fallback when the binary's vector TU outruns this CPU:
  // both kernels compute the same entrywise min, so swapping them here
  // changes host wall-clock only.
  if (!simd_runtime_ok()) {
    minplus_accum_naive(c, ldc, a, lda, b, ldb, nr, nk, nc);
    return;
  }
  detail::minplus_accum_simd_impl(c, ldc, a, lda, b, ldb, nr, nk, nc);
}

KernelTuning measure_kernels() {
  // FW-shaped working set: 128³ takes well under a millisecond per kernel,
  // small enough to pay once per process.
  constexpr vidx_t n = 128;
  const std::size_t elems = static_cast<std::size_t>(n) * n;
  std::vector<dist_t> a(elems), b(elems), c0(elems), c(elems);
  Rng rng(0x9e3779b9u);
  for (auto& x : a) x = static_cast<dist_t>(rng.next_in(1, 1000));
  for (auto& x : b) x = static_cast<dist_t>(rng.next_in(1, 1000));
  for (auto& x : c0) x = static_cast<dist_t>(rng.next_in(500, 2000));

  const double ops = minplus_ops(n, n, n);
  const auto seconds_per_op = [&](KernelVariant v) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      c = c0;
      const auto t0 = std::chrono::steady_clock::now();
      minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(), n, n, n,
                            n);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best / ops;
  };
  KernelTuning tuning;
  tuning.naive_s_per_op = seconds_per_op(KernelVariant::kNaive);
  tuning.simd_s_per_op = seconds_per_op(KernelVariant::kSimd);
  tuning.measured = true;
  return tuning;
}

}  // namespace

namespace detail {

void minplus_scalar_block(dist_t* c, std::size_t ldc, const dist_t* a,
                          std::size_t lda, const dist_t* b, std::size_t ldb,
                          vidx_t r_lo, vidx_t r_hi, vidx_t nk, vidx_t c_lo,
                          vidx_t c_hi) {
  if (c_lo >= c_hi) return;
  for (vidx_t r = r_lo; r < r_hi; ++r) {
    dist_t* __restrict crow = c + static_cast<std::size_t>(r) * ldc;
    const dist_t* __restrict arow = a + static_cast<std::size_t>(r) * lda;
    for (vidx_t k = 0; k < nk; ++k) {
      const dist_t aval = arow[k];
      if (aval >= kInf) continue;
      const dist_t* __restrict brow = b + static_cast<std::size_t>(k) * ldb;
      for (vidx_t col = c_lo; col < c_hi; ++col) {
        crow[col] = std::min(crow[col], aval + brow[col]);
      }
    }
  }
}

}  // namespace detail

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kAuto:
      return "auto";
    case KernelVariant::kNaive:
      return "naive";
    case KernelVariant::kSimd:
      return "simd";
  }
  return "?";
}

KernelVariant parse_kernel_variant(const std::string& name) {
  if (name == "auto") return KernelVariant::kAuto;
  if (name == "naive") return KernelVariant::kNaive;
  if (name == "simd") return KernelVariant::kSimd;
  throw Error("unknown kernel variant: " + name +
              " (want auto | naive | simd)");
}

void set_kernel_variant(KernelVariant v) {
  g_variant.store(v, std::memory_order_relaxed);
}

KernelVariant resolved_kernel_variant() {
  const KernelVariant v = g_variant.load(std::memory_order_relaxed);
  if (v != KernelVariant::kAuto) return v;
  return simd_runtime_ok() ? KernelVariant::kSimd : KernelVariant::kNaive;
}

KernelVariant autotune_kernel_variant() {
  const KernelTuning tuning = measure_kernels();
  {
    std::lock_guard<std::mutex> lk(g_tuning_mu);
    g_tuning = tuning;
  }
  return resolved_kernel_variant();
}

double kernel_variant_rel_speed(KernelVariant v) {
  if (v == KernelVariant::kAuto) v = resolved_kernel_variant();
  if (v != KernelVariant::kSimd) return 1.0;  // kNaive is the reference
  KernelTuning tuning;
  {
    std::lock_guard<std::mutex> lk(g_tuning_mu);
    if (!g_tuning.measured) g_tuning = measure_kernels();
    tuning = g_tuning;
  }
  if (!(tuning.naive_s_per_op > 0.0) || !(tuning.simd_s_per_op > 0.0)) {
    return 1.0;
  }
  return tuning.naive_s_per_op / tuning.simd_s_per_op;
}

void minplus_accum_naive(dist_t* c, std::size_t ldc, const dist_t* a,
                         std::size_t lda, const dist_t* b, std::size_t ldb,
                         vidx_t nr, vidx_t nk, vidx_t nc) {
  // r-k-c loop order: A[r][k] is hoisted, B row k and C row r stream
  // sequentially — cache-friendly and auto-vectorizable.
  for (vidx_t r = 0; r < nr; ++r) {
    dist_t* __restrict crow = c + static_cast<std::size_t>(r) * ldc;
    const dist_t* __restrict arow = a + static_cast<std::size_t>(r) * lda;
    for (vidx_t k = 0; k < nk; ++k) {
      const dist_t aval = arow[k];
      if (aval >= kInf) continue;
      const dist_t* __restrict brow = b + static_cast<std::size_t>(k) * ldb;
      for (vidx_t col = 0; col < nc; ++col) {
        // brow[col] may be kInf: aval + kInf stays >= kInf and the min is a
        // no-op because crow is never above kInf. Guarded by the sentinel
        // headroom of kInf (max/4), so no overflow check is needed here.
        const dist_t cand = aval + brow[col];
        crow[col] = std::min(crow[col], cand);
      }
    }
  }
}

void minplus_accum_variant(KernelVariant v, dist_t* c, std::size_t ldc,
                           const dist_t* a, std::size_t lda, const dist_t* b,
                           std::size_t ldb, vidx_t nr, vidx_t nk, vidx_t nc) {
  if (nr <= 0 || nk <= 0 || nc <= 0) return;
  if (v == KernelVariant::kAuto) v = resolved_kernel_variant();
  if (v == KernelVariant::kSimd) {
    minplus_accum_simd(c, ldc, a, lda, b, ldb, nr, nk, nc);
  } else {
    minplus_accum_naive(c, ldc, a, lda, b, ldb, nr, nk, nc);
  }
}

}  // namespace gapsp::core
