#include "core/device_kernels.h"

#include <algorithm>

namespace gapsp::core {

double dev_minplus(sim::Device& dev, sim::StreamId stream, dist_t* c,
                   std::size_t ldc, const dist_t* a, std::size_t lda,
                   const dist_t* b, std::size_t ldb, vidx_t nr, vidx_t nk,
                   vidx_t nc, int tile) {
  if (nr == 0 || nc == 0 || nk == 0) return 0.0;
  const vidx_t rt = (nr + tile - 1) / tile;
  const vidx_t ct = (nc + tile - 1) / tile;
  // Blocks must own disjoint outputs AND disjoint reads of any aliased
  // operand, so parallel execution is race-free and bit-identical to serial.
  // Panel updates alias C with one operand (P = min(P, D⊗P) or P ⊗ D
  // against a transitively closed diagonal D), so the grid decomposes along
  // the non-aliased axis: column strips when C==B (each strip reads/writes
  // only its own columns of P), row strips when C==A. The profile always
  // declares the full 2D tile grid — that is what the CUDA kernel this
  // stands for would launch, and it feeds the occupancy model.
  const bool alias_a = (c == a);
  const bool alias_b = (c == b);
  auto profile = [&] {
    sim::KernelProfile p;
    p.ops = minplus_ops(nr, nk, nc);
    p.bytes = minplus_bytes(nr, nk, nc, tile);
    p.blocks = static_cast<int>(rt * ct);
    return p;
  };
  if (alias_a && alias_b) {
    // Fully self-referential (C = min(C, C⊗C)): no disjoint decomposition;
    // run as a single block.
    return dev.launch_grid(stream, "minplus", 1,
                           [&](int) {
                             minplus_accum(c, ldc, a, lda, b, ldb, nr, nk, nc);
                           },
                           profile);
  }
  if (alias_b) {
    return dev.launch_grid(stream, "minplus", static_cast<int>(ct),
                           [&](int blk) {
                             const vidx_t c0 = static_cast<vidx_t>(blk) * tile;
                             const vidx_t cols = std::min<vidx_t>(tile, nc - c0);
                             minplus_accum(c + c0, ldc, a, lda, b + c0, ldb,
                                           nr, nk, cols);
                           },
                           profile);
  }
  if (alias_a) {
    return dev.launch_grid(
        stream, "minplus", static_cast<int>(rt),
        [&](int blk) {
          const vidx_t r0 = static_cast<vidx_t>(blk) * tile;
          const vidx_t rows = std::min<vidx_t>(tile, nr - r0);
          minplus_accum(c + static_cast<std::size_t>(r0) * ldc, ldc,
                        a + static_cast<std::size_t>(r0) * lda, lda, b, ldb,
                        rows, nk, nc);
        },
        profile);
  }
  return dev.launch_grid(
      stream, "minplus", static_cast<int>(rt * ct),
      [&](int blk) {
        const vidx_t tr = static_cast<vidx_t>(blk) / ct;
        const vidx_t tc = static_cast<vidx_t>(blk) % ct;
        const vidx_t r0 = tr * tile;
        const vidx_t c0 = tc * tile;
        const vidx_t rows = std::min<vidx_t>(tile, nr - r0);
        const vidx_t cols = std::min<vidx_t>(tile, nc - c0);
        minplus_accum(c + static_cast<std::size_t>(r0) * ldc + c0, ldc,
                      a + static_cast<std::size_t>(r0) * lda, lda, b + c0,
                      ldb, rows, nk, cols);
      },
      profile);
}

double dev_fill_inf(sim::Device& dev, sim::StreamId stream, const char* name,
                    dist_t* dst, std::size_t count, int blocks) {
  return dev.launch_grid(
      stream, name, 1, [&](int) { std::fill_n(dst, count, kInf); },
      [&] {
        sim::KernelProfile p;
        p.bytes = static_cast<double>(count) * sizeof(dist_t);
        p.ops = static_cast<double>(count);
        p.blocks = blocks;
        return p;
      });
}

double dev_blocked_fw(sim::Device& dev, sim::StreamId stream, dist_t* m,
                      std::size_t ld, vidx_t n, int tile) {
  if (n == 0) return 0.0;
  double total = 0.0;
  const vidx_t nt = (n + tile - 1) / tile;
  auto dim = [&](vidx_t t) { return std::min<vidx_t>(tile, n - t * tile); };
  auto at = [&](vidx_t tr, vidx_t tc) {
    return m + static_cast<std::size_t>(tr) * tile * ld +
           static_cast<std::size_t>(tc) * tile;
  };
  for (vidx_t kk = 0; kk < nt; ++kk) {
    const vidx_t dk = dim(kk);
    // Maps a dense block index in [0, nt-1) to a tile index skipping kk.
    auto other = [&](vidx_t t) { return t >= kk ? t + 1 : t; };
    // Phase 1: diagonal tile, classic FW, one thread block.
    total += dev.launch_grid(
        stream, "fw_diag", 1, [&](int) { fw_inplace(at(kk, kk), ld, dk); },
        [&] {
          sim::KernelProfile p;
          p.ops = minplus_ops(dk, dk, dk);
          // Resident in shared memory.
          p.bytes = 2.0 * sizeof(dist_t) * dk * dk;
          p.blocks = 1;
          return p;
        });
    if (nt == 1) break;
    // Phase 2: row panel A(kk, j) and column panel A(i, kk), one launch,
    // one block per panel tile. Each block owns one off-diagonal tile and
    // reads only it plus the (already closed, read-only) diagonal — blocks
    // are disjoint, so parallel execution is bit-identical to serial.
    total += dev.launch_grid(
        stream, "fw_panels", static_cast<int>(2 * (nt - 1)),
        [&](int pb) {
          const vidx_t row_panels = nt - 1;
          if (pb < static_cast<int>(row_panels)) {
            const vidx_t j = other(static_cast<vidx_t>(pb));
            fw_row_panel(at(kk, j), ld, at(kk, kk), ld, dk, dim(j));
          } else {
            const vidx_t i = other(static_cast<vidx_t>(pb) - row_panels);
            fw_col_panel(at(i, kk), ld, at(kk, kk), ld, dim(i), dk);
          }
        },
        [&] {
          double ops = 0.0, bytes = 0.0;
          for (vidx_t j = 0; j < nt; ++j) {
            if (j == kk) continue;
            ops += minplus_ops(dk, dk, dim(j));
            bytes += minplus_bytes(dk, dk, dim(j), tile);
          }
          for (vidx_t i = 0; i < nt; ++i) {
            if (i == kk) continue;
            ops += minplus_ops(dim(i), dk, dk);
            bytes += minplus_bytes(dim(i), dk, dk, tile);
          }
          sim::KernelProfile p;
          p.ops = ops;
          p.bytes = bytes;
          p.blocks = static_cast<int>(2 * (nt - 1));
          return p;
        });
    // Phase 3: all remaining tiles, one launch, one block per output tile.
    // Block (i, j) writes tile (i, j) and reads the frozen panels — outputs
    // are disjoint from every input of this phase.
    total += dev.launch_grid(
        stream, "fw_update", static_cast<int>((nt - 1) * (nt - 1)),
        [&](int tb) {
          const vidx_t i = other(static_cast<vidx_t>(tb) / (nt - 1));
          const vidx_t j = other(static_cast<vidx_t>(tb) % (nt - 1));
          minplus_accum(at(i, j), ld, at(i, kk), ld, at(kk, j), ld, dim(i),
                        dk, dim(j));
        },
        [&] {
          double ops = 0.0, bytes = 0.0;
          for (vidx_t i = 0; i < nt; ++i) {
            if (i == kk) continue;
            for (vidx_t j = 0; j < nt; ++j) {
              if (j == kk) continue;
              ops += minplus_ops(dim(i), dk, dim(j));
              bytes += minplus_bytes(dim(i), dk, dim(j), tile);
            }
          }
          sim::KernelProfile p;
          p.ops = ops;
          p.bytes = bytes;
          p.blocks = static_cast<int>((nt - 1) * (nt - 1));
          return p;
        });
  }
  return total;
}

}  // namespace gapsp::core
