// Out-of-core blocked Floyd–Warshall (Algorithm 1 of the paper).
//
// The n×n distance matrix is tiled into n_d×n_d blocks of side b, where b is
// the largest block size whose working set (three resident blocks) fits the
// device. Each round k runs the classic three stages — diagonal block FW,
// row/column panel updates against the closed diagonal, then the min-plus
// update of every remaining block — streaming every block between the host
// store and the device. Data movement is O(n_d · n²); compute is O(n³).
//
// With opts.overlap_transfers the block traffic is pipelined through
// sim::StreamPipeline: the next row-panel and remainder tiles prefetch on an
// H2D stream and finished tiles drain on a D2H stream while the current
// min-plus kernel runs, at the price of two extra resident blocks (the
// ping-pong halves of the row and tile buffers).
//
// Under the compressed transfer path, round k keeps the z1 frames the
// stage-outs of blocks in block row and column k and k+1 shipped, and
// stages those blocks back in from them, not from the store (stage 3's
// panel reads and the next round's stage 1–2 loads): at most four block
// rows and columns of compressed host memory, O(n·b). The wire charge,
// decode and modeled timeline are exactly those of reading and encoding
// the block again (DESIGN.md §14).
#pragma once

#include "core/apsp_common.h"

namespace gapsp::core {

/// Number of resident b×b blocks the FW schedule keeps on device: three in
/// the serialized schedule (A(i,j), A(i,k), A(k,j)); five when transfers
/// overlap, because the row-panel and remainder-tile buffers double up for
/// the prefetch ping-pong.
int fw_resident_blocks(bool overlap_transfers);

/// Largest block side b such that `resident_blocks` b×b dist_t blocks (plus
/// slack) fit in the device memory of `spec`. Exposed for the Sec. IV cost
/// models.
vidx_t fw_block_size(const sim::DeviceSpec& spec, vidx_t n,
                     int resident_blocks = 3);

/// Runs Algorithm 1. `store` receives the final distances (original vertex
/// order). The graph's weight matrix is written into `store` first.
ApspResult ooc_floyd_warshall(const graph::CsrGraph& g,
                              const ApspOptions& opts, DistStore& store);

}  // namespace gapsp::core
