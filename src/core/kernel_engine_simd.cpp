// Vectorized min-plus microkernel (DESIGN.md §12): the `simd` register-tile
// kernel, written against the portable lane API in simd_lane.h.
// src/core/CMakeLists.txt compiles this translation unit with -mavx2 when
// the compiler supports it, so the lane backend here may be AVX2 even though
// the rest of the library is baseline; kernel_engine.cpp gates every call
// behind a runtime CPU check and falls back to the naive kernel
// (bit-identical by contract) on hosts the build outruns. Keep this TU free
// of global initializers — nothing in it may execute before the gate.
//
// The register tile is kTileRows × kTileCols cells of C (6×16 on AVX2 and
// NEON), sized so that its accumulators, one k row of B and one broadcast
// fit the backend's vector registers: C is loaded and stored once per tile
// and no accumulator touches the stack inside the k loop. Every cell runs on
// vector lanes. Row tails run the same tile instantiated for fewer rows; the
// ragged last column strip runs it against B's strip packed with kInf
// padding and a kInf-padded copy of the strip's C columns, which is copied
// back. Column strips are the outer loop, so one nk × kTileCols panel of B
// serves every row tile.
//
// The kernel requires operands in [0, kInf] (every distance matrix in this
// system satisfies that: weights are non-negative and sat_add clamps at
// kInf). Under that precondition kInf needs no per-lane branch: a candidate
// through an unreachable entry sums to >= kInf without wrapping (kInf is
// INT32_MAX/4, so a+b <= 2·kInf fits comfortably), and the lane-wise min
// against an accumulator that never exceeds kInf discards it — exactly what
// the scalar kernel's `aval >= kInf` skip does, computed branch-free. The
// same argument makes the kInf padding lanes inert.
#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/kernel_engine.h"
#include "core/simd_lane.h"

namespace gapsp::core {
namespace {

/// k-strip granularity of the hoisted liveness skip: an all-kInf strip
/// costs one scan instead of a pass over every output column.
constexpr vidx_t kKTile = 64;
/// Register tile: kTileRows output rows × kTileCols output columns held in
/// lane vectors across the whole k loop. The row count is what the register
/// file leaves after one k row of B (kColVecs vectors) and one broadcast.
constexpr int kTileCols = 16;
constexpr int kColVecs = kTileCols / lanes::kWidth;
constexpr int kTileRows = (lanes::kRegisters - kColVecs - 1) / kColVecs;
static_assert(kTileCols % lanes::kWidth == 0,
              "register tile must be a whole number of lanes");
static_assert(kTileRows >= 1 &&
                  kTileRows * kColVecs + kColVecs + 1 <= lanes::kRegisters,
              "accumulators, one B row and a broadcast must fit the vector "
              "registers");

/// True when any entry of the rows×(k1-k0) strip of A is reachable; an
/// all-kInf strip contributes no candidate below kInf, so the caller skips
/// the whole (row tile, k tile) at O(strip) cost instead of O(strip · nc).
bool strip_live(const dist_t* a, std::size_t lda, int rows, vidx_t k0,
                vidx_t k1) {
  for (int i = 0; i < rows; ++i) {
    const dist_t* arow = a + static_cast<std::size_t>(i) * lda;
    for (vidx_t k = k0; k < k1; ++k) {
      if (arow[k] < kInf) return true;
    }
  }
  return false;
}

/// C[0,Rows) × [0,kTileCols) = min(C, A ⊗ B) over the k tiles marked live.
/// Every i and j loop has a compile-time trip count, so the compiler unrolls
/// them and the Rows × kColVecs accumulators stay in registers.
template <int Rows>
void register_tile(dist_t* c, std::size_t ldc, const dist_t* a,
                   std::size_t lda, const dist_t* b, std::size_t ldb,
                   vidx_t nk, const unsigned char* live) {
  using lanes::VI32;
  VI32 acc[Rows][kColVecs];
  for (int i = 0; i < Rows; ++i) {
    for (int j = 0; j < kColVecs; ++j) {
      acc[i][j] = lanes::load(c + static_cast<std::size_t>(i) * ldc +
                              j * lanes::kWidth);
    }
  }
  for (vidx_t k0 = 0; k0 < nk; k0 += kKTile) {
    if (*live++ == 0) continue;
    const vidx_t k1 = std::min<vidx_t>(nk, k0 + kKTile);
    for (vidx_t k = k0; k < k1; ++k) {
      const dist_t* brow = b + static_cast<std::size_t>(k) * ldb;
      VI32 bv[kColVecs];
      for (int j = 0; j < kColVecs; ++j) {
        bv[j] = lanes::load(brow + j * lanes::kWidth);
      }
      for (int i = 0; i < Rows; ++i) {
        const VI32 av =
            lanes::splat(a[static_cast<std::size_t>(i) * lda + k]);
        for (int j = 0; j < kColVecs; ++j) {
          acc[i][j] = lanes::vmin(acc[i][j], lanes::add(av, bv[j]));
        }
      }
    }
  }
  for (int i = 0; i < Rows; ++i) {
    for (int j = 0; j < kColVecs; ++j) {
      lanes::store(c + static_cast<std::size_t>(i) * ldc + j * lanes::kWidth,
                   acc[i][j]);
    }
  }
}

/// dst[0, kTileCols) = src[0, w), then kInf: one row of a ragged strip,
/// padded. A fixed trip count keeps it a short inline loop, not a library
/// copy per row.
inline void copy_padded(dist_t* dst, const dist_t* src, int w) {
  for (int j = 0; j < kTileCols; ++j) dst[j] = j < w ? src[j] : kInf;
}

using TileFn = void (*)(dist_t*, std::size_t, const dist_t*, std::size_t,
                        const dist_t*, std::size_t, vidx_t,
                        const unsigned char*);

/// kTiles[rows - 1] is the register tile for `rows` rows (1…kTileRows).
template <int... I>
constexpr std::array<TileFn, sizeof...(I)> make_tiles(
    std::integer_sequence<int, I...>) {
  return {&register_tile<I + 1>...};
}
constexpr auto kTiles =
    make_tiles(std::make_integer_sequence<int, kTileRows>{});

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
int simd_tile_rows() { return kTileRows; }
int simd_tile_cols() { return kTileCols; }

namespace detail {

void minplus_accum_simd_impl(dist_t* c, std::size_t ldc, const dist_t* a,
                             std::size_t lda, const dist_t* b,
                             std::size_t ldb, vidx_t nr, vidx_t nk,
                             vidx_t nc) {
  const vidx_t num_rtiles = (nr + kTileRows - 1) / kTileRows;
  const vidx_t num_ktiles = (nk + kKTile - 1) / kKTile;
  const auto ktiles = static_cast<std::size_t>(num_ktiles);

  // Per (row tile, k tile) liveness, scanned once before any write and
  // reused by every column strip; row_live marks row tiles with any live
  // k tile.
  thread_local std::vector<unsigned char> live;
  thread_local std::vector<unsigned char> row_live;
  live.resize(static_cast<std::size_t>(num_rtiles) * ktiles);
  row_live.resize(static_cast<std::size_t>(num_rtiles));
  bool any_live = false;
  for (vidx_t rt = 0; rt < num_rtiles; ++rt) {
    const vidx_t r = rt * kTileRows;
    const int rows = static_cast<int>(std::min<vidx_t>(kTileRows, nr - r));
    unsigned char* flags = live.data() + static_cast<std::size_t>(rt) * ktiles;
    bool row_any = false;
    for (vidx_t t = 0; t < num_ktiles; ++t) {
      const vidx_t k0 = t * kKTile;
      flags[t] = strip_live(a + static_cast<std::size_t>(r) * lda, lda, rows,
                            k0, std::min<vidx_t>(nk, k0 + kKTile))
                     ? 1
                     : 0;
      row_any |= flags[t] != 0;
    }
    row_live[static_cast<std::size_t>(rt)] = row_any ? 1 : 0;
    any_live |= row_any;
  }
  if (!any_live) return;

  // Column strips outermost, each copied into a contiguous nk × kTileCols
  // panel (kInf-padded past nc) when more than one row tile reuses it or it
  // is the ragged last strip: the tiles then stream B sequentially whatever
  // ldb is. Strips are packed in column order, before any row tile writes
  // them, so under the C==B panel form every B value read is the original.
  // The ragged last strip of C goes through an nr × kTileCols copy whose
  // padding lanes stay kInf (every candidate there sums a kInf B lane), so
  // every row tile runs the same full-width register tile.
  thread_local std::vector<dist_t> panel;
  thread_local std::vector<dist_t> c_tail;
  const bool pack_all = num_rtiles > 1;
  for (vidx_t cc = 0; cc < nc; cc += kTileCols) {
    const int w = static_cast<int>(std::min<vidx_t>(kTileCols, nc - cc));
    const dist_t* bs = b + cc;
    std::size_t lds = ldb;
    if (pack_all || w < kTileCols) {
      panel.resize(static_cast<std::size_t>(nk) * kTileCols);
      for (vidx_t k = 0; k < nk; ++k) {
        const dist_t* src = b + static_cast<std::size_t>(k) * ldb + cc;
        dist_t* dst = panel.data() + static_cast<std::size_t>(k) * kTileCols;
        if (w == kTileCols) {
          for (int j = 0; j < kColVecs; ++j) {
            lanes::store(dst + j * lanes::kWidth,
                         lanes::load(src + j * lanes::kWidth));
          }
        } else {
          copy_padded(dst, src, w);
        }
      }
      bs = panel.data();
      lds = kTileCols;
    }
    dist_t* cs = c + cc;
    std::size_t ldcs = ldc;
    if (w < kTileCols) {
      c_tail.resize(static_cast<std::size_t>(nr) * kTileCols);
      for (vidx_t r = 0; r < nr; ++r) {
        copy_padded(c_tail.data() + static_cast<std::size_t>(r) * kTileCols,
                    c + static_cast<std::size_t>(r) * ldc + cc, w);
      }
      cs = c_tail.data();
      ldcs = kTileCols;
    }
    for (vidx_t rt = 0; rt < num_rtiles; ++rt) {
      if (row_live[static_cast<std::size_t>(rt)] == 0) continue;
      const vidx_t r = rt * kTileRows;
      const int rows = static_cast<int>(std::min<vidx_t>(kTileRows, nr - r));
      kTiles[static_cast<std::size_t>(rows - 1)](
          cs + static_cast<std::size_t>(r) * ldcs, ldcs,
          a + static_cast<std::size_t>(r) * lda, lda, bs, lds, nk,
          live.data() + static_cast<std::size_t>(rt) * ktiles);
    }
    if (w < kTileCols) {
      for (vidx_t r = 0; r < nr; ++r) {
        const dist_t* src =
            c_tail.data() + static_cast<std::size_t>(r) * kTileCols;
        dist_t* dst = c + static_cast<std::size_t>(r) * ldc + cc;
        for (int j = 0; j < w; ++j) dst[j] = src[j];
      }
    }
  }
}

}  // namespace detail

}  // namespace gapsp::core
