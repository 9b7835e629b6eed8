// Device-simulator launch wrappers around the dense kernels: the tiled
// min-plus product and the in-core blocked Floyd–Warshall used for diagonal
// blocks (Sec. III-A) and for the component/boundary solves of the boundary
// algorithm (Sec. III-C). Each wrapper performs the real computation and
// charges a kernel profile mirroring the CUDA implementation it stands for
// (shared-memory tiling, one thread block per output tile).
#pragma once

#include "core/minplus.h"
#include "sim/device.h"

namespace gapsp::core {

/// Default shared-memory tile side used by the simulated kernels (the paper
/// follows the classic 32×32 / 64×64 tiling of [14],[20]).
inline constexpr int kDeviceTile = 64;

/// C = min(C, A ⊗ B) as one tiled kernel launch on `stream`. Pointers are
/// into device buffers. Executes its tile grid through Device::launch_grid
/// (aliasing-aware decomposition, so C==A / C==B panel forms stay race-free);
/// results and the simulated duration are independent of the host thread
/// count. Returns the simulated kernel duration.
double dev_minplus(sim::Device& dev, sim::StreamId stream, dist_t* c,
                   std::size_t ldc, const dist_t* a, std::size_t lda,
                   const dist_t* b, std::size_t ldb, vidx_t nr, vidx_t nk,
                   vidx_t nc, int tile = kDeviceTile);

/// Fills `count` elements at device pointer `dst` with kInf as one kernel
/// of `blocks` thread blocks, charged as `count` element writes. Returns
/// the simulated kernel duration.
double dev_fill_inf(sim::Device& dev, sim::StreamId stream, const char* name,
                    dist_t* dst, std::size_t count, int blocks);

/// In-core blocked Floyd–Warshall over an n×n on-device matrix: per round,
/// a single-block diagonal kernel, one grid launch for the 2(nt-1) row and
/// column panels, and one grid launch for the (nt-1)² remaining-tile min-plus
/// updates. Independent blocks run over the host thread pool; results and
/// the simulated timeline are bit-identical to serial execution. Returns
/// total simulated duration.
double dev_blocked_fw(sim::Device& dev, sim::StreamId stream, dist_t* m,
                      std::size_t ld, vidx_t n, int tile = kDeviceTile);

}  // namespace gapsp::core
