// Vectorized min-plus microkernel (DESIGN.md §12): the `simd` register-tile
// kernel, written against the portable lane API in simd_lane.h.
// src/core/CMakeLists.txt compiles this translation unit with -mavx2 when
// the compiler supports it, so the lane backend here may be AVX2 even though
// the rest of the library is baseline; kernel_engine.cpp gates every call
// behind a runtime CPU check and falls back to the naive kernel
// (bit-identical by contract) on hosts the build outruns. Keep this TU free
// of global initializers — nothing in it may execute before the gate.
//
// The kernel requires operands in [0, kInf] (every distance matrix in this
// system satisfies that: weights are non-negative and sat_add clamps at
// kInf). Under that precondition kInf needs no per-lane branch: a candidate
// through an unreachable entry sums to >= kInf without wrapping (kInf is
// INT32_MAX/4, so a+b <= 2·kInf fits comfortably), and the lane-wise min
// against an accumulator that never exceeds kInf discards it — exactly what
// the scalar kernels' `aval >= kInf` skip does, computed branch-free.
#include <algorithm>
#include <vector>

#include "core/kernel_engine.h"
#include "core/simd_lane.h"

namespace gapsp::core {
namespace {

/// k-strip granularity of the hoisted liveness skip: an all-kInf strip
/// costs one scan instead of a pass over every output column.
constexpr vidx_t kSimdKTile = 64;
/// Register tile: 8 output rows × 16 output columns held in lane vectors
/// across the whole k loop (C read and written once per tile).
constexpr int kSimdRows = 8;
constexpr int kSimdCols = 16;
constexpr int kColVecs = kSimdCols / lanes::kWidth;
static_assert(kSimdCols % lanes::kWidth == 0,
              "register tile must be a whole number of lanes");

/// True when any entry of the rows×(k1-k0) strip of A is reachable; an
/// all-kInf strip contributes no candidate below kInf, so the caller skips
/// the whole (row-block, k-tile) at O(strip) cost instead of O(strip · nc).
bool strip_live(const dist_t* a, std::size_t lda, vidx_t r0, int rows,
                vidx_t k0, vidx_t k1) {
  for (int i = 0; i < rows; ++i) {
    const dist_t* arow = a + static_cast<std::size_t>(r0 + i) * lda;
    for (vidx_t k = k0; k < k1; ++k) {
      if (arow[k] < kInf) return true;
    }
  }
  return false;
}

}  // namespace

bool simd_kernels_built_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

const char* simd_lane_isa() { return lanes::kIsa; }
int simd_lane_width() { return lanes::kWidth; }

namespace detail {

void minplus_accum_simd_impl(dist_t* c, std::size_t ldc, const dist_t* a,
                             std::size_t lda, const dist_t* b,
                             std::size_t ldb, vidx_t nr, vidx_t nk,
                             vidx_t nc) {
  using lanes::VI32;
  const vidx_t c_main = nc - nc % kSimdCols;
  const vidx_t r_main = nr - nr % kSimdRows;
  const vidx_t num_ktiles = (nk + kSimdKTile - 1) / kSimdKTile;

  // Per (row-block, k-tile) liveness, scanned once per row block and reused
  // by every column tile of that row block.
  thread_local std::vector<unsigned char> live;
  live.assign(static_cast<std::size_t>(num_ktiles), 0);

  for (vidx_t r = 0; r < r_main; r += kSimdRows) {
    bool any_live = false;
    for (vidx_t t = 0; t < num_ktiles; ++t) {
      const vidx_t k0 = t * kSimdKTile;
      const vidx_t k1 = std::min<vidx_t>(nk, k0 + kSimdKTile);
      live[static_cast<std::size_t>(t)] =
          strip_live(a, lda, r, kSimdRows, k0, k1) ? 1 : 0;
      any_live |= live[static_cast<std::size_t>(t)] != 0;
    }
    if (any_live) {
      for (vidx_t cc = 0; cc < c_main; cc += kSimdCols) {
        VI32 acc[kSimdRows][kColVecs];
        for (int i = 0; i < kSimdRows; ++i) {
          dist_t* crow = c + static_cast<std::size_t>(r + i) * ldc + cc;
          for (int j = 0; j < kColVecs; ++j) {
            acc[i][j] = lanes::load(crow + j * lanes::kWidth);
          }
        }
        for (vidx_t t = 0; t < num_ktiles; ++t) {
          if (live[static_cast<std::size_t>(t)] == 0) continue;
          const vidx_t k0 = t * kSimdKTile;
          const vidx_t k1 = std::min<vidx_t>(nk, k0 + kSimdKTile);
          for (vidx_t k = k0; k < k1; ++k) {
            const dist_t* brow =
                b + static_cast<std::size_t>(k) * ldb + cc;
            for (int j = 0; j < kColVecs; ++j) {
              const VI32 bv = lanes::load(brow + j * lanes::kWidth);
              for (int i = 0; i < kSimdRows; ++i) {
                const VI32 av = lanes::splat(
                    a[static_cast<std::size_t>(r + i) * lda + k]);
                acc[i][j] = lanes::vmin(acc[i][j], lanes::add(av, bv));
              }
            }
          }
        }
        for (int i = 0; i < kSimdRows; ++i) {
          dist_t* crow = c + static_cast<std::size_t>(r + i) * ldc + cc;
          for (int j = 0; j < kColVecs; ++j) {
            lanes::store(crow + j * lanes::kWidth, acc[i][j]);
          }
        }
      }
    }
    // Columns that do not fill a register tile (the scalar path re-derives
    // its own per-k skip, so a dead row block costs only the scan above).
    detail::minplus_scalar_block(c, ldc, a, lda, b, ldb, r, r + kSimdRows,
                                 nk, c_main, nc);
  }
  // Rows that do not fill a register tile.
  detail::minplus_scalar_block(c, ldc, a, lda, b, ldb, r_main, nr, nk, 0,
                               nc);
}

}  // namespace detail

}  // namespace gapsp::core
