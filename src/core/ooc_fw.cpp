#include "core/ooc_fw.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/device_kernels.h"
#include "core/transfer_codec.h"
#include "sim/stream_pipeline.h"
#include "util/timer.h"

namespace gapsp::core {

int fw_resident_blocks(bool overlap_transfers) {
  // Serial: A(i,j), A(i,k), A(k,j). Overlapped: A(i,k) stays single (it is
  // reused across a whole row of updates) while the row-panel and remainder
  // buffers become ping-pong pairs.
  return overlap_transfers ? 5 : 3;
}

vidx_t fw_block_size(const sim::DeviceSpec& spec, vidx_t n,
                     int resident_blocks) {
  // `resident_blocks` resident b×b tiles; keep ~5% slack for the runtime.
  // b is also capped at n (single-block in-core case).
  const double budget = 0.95 * static_cast<double>(spec.memory_bytes);
  const double b =
      std::sqrt(budget / (resident_blocks * static_cast<double>(sizeof(dist_t))));
  GAPSP_CHECK(b >= 32.0, "device too small for blocked Floyd-Warshall");
  return std::min<vidx_t>(n, static_cast<vidx_t>(b));
}

ApspResult ooc_floyd_warshall(const graph::CsrGraph& g,
                              const ApspOptions& opts, DistStore& store) {
  Timer wall;
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(store.n() == n, "store size does not match graph");
  sim::Device dev(opts.device);
  dev.set_trace(opts.trace);
  configure_kernels(dev, opts);
  FaultScope faults(dev, opts);
  const bool overlap = opts.overlap_transfers;
  const vidx_t b =
      fw_block_size(dev.spec(), n, fw_resident_blocks(overlap));
  const vidx_t nd = (n + b - 1) / b;
  auto bdim = [&](vidx_t t) { return std::min<vidx_t>(b, n - t * b); };

  // Round-level checkpointing: the store is the recovery state (it holds
  // every block round k wrote back by the time round k ends), so the
  // sidecar only records how many k-rounds completed under this exact
  // blocking of this exact graph.
  CheckpointRun ck(opts, Algorithm::kBlockedFloydWarshall, g, store, b, nd);
  const auto start_k = static_cast<vidx_t>(ck.resumed(nd));
  // Until round 0 first stores a block, that block is the weight matrix: it
  // is built from the CSR graph where it is loaded, so the store is never
  // pre-filled and read back. A resumed run continues on the
  // partially-relaxed matrix already in the store (round 0 stored every
  // block before any checkpoint).
  std::vector<char> stored(static_cast<std::size_t>(nd) * nd, start_k > 0);

  sim::StreamPipeline pipe(dev, overlap);
  TransferCodec codec(dev, opts.transfer_compression);
  const std::size_t elems = static_cast<std::size_t>(b) * b;
  // col holds A(i,k) for a whole row of stage-3 updates (and A(k,k) through
  // stages 1–2), so it never ping-pongs; row and tile double up when the
  // pipeline overlaps.
  sim::PingPong<dist_t> col(pipe, elems, "A(i,k)", 1);
  sim::PingPong<dist_t> row(pipe, elems, "A(k,j)");
  sim::PingPong<dist_t> tile(pipe, elems, "A(i,j)");

  // Held frames: the frames a block's last stage-out shipped, kept while
  // the block is in block row or column k or k+1 (stage 3's panel reads and
  // the next round's stage 1–2 loads), so loading it again skips the store
  // read and the encode. An empty entry is not held. At most four block
  // rows and columns are held: O(n·b) compressed bytes of host memory,
  // which a real build would copy into the pinned staging area the way a
  // store read fills the pinned slot; the pinned peak stays one tile's
  // frames.
  vidx_t k = start_k;
  std::vector<SlicedFrames> held(static_cast<std::size_t>(nd) * nd);
  auto held_frames = [&](vidx_t ti, vidx_t tj) -> SlicedFrames& {
    return held[static_cast<std::size_t>(ti) * nd + tj];
  };
  auto in_band = [&](vidx_t ti, vidx_t tj) {
    return ti == k || tj == k || ti == k + 1 || tj == k + 1;
  };

  // Prefetch block (ti,tj) into the next slot of `pp`: the H2D lane waits
  // until the slot's previous consumer released it, so in overlap mode the
  // copy runs under whatever kernel the compute stream is executing.
  auto load = [&](sim::PingPong<dist_t>& pp, vidx_t ti, vidx_t tj) {
    const int s = pp.acquire(pipe.in_stream());
    const vidx_t rows = bdim(ti), cols = bdim(tj);
    const std::size_t bytes =
        static_cast<std::size_t>(rows) * cols * sizeof(dist_t);
    const SlicedFrames& frames = held_frames(ti, tj);
    if (!frames.frames.empty()) {
      pp.set_ready(s, codec.stage_in(pipe, pp.device_ptr(s), frames, bytes));
      return s;
    }
    if (stored[static_cast<std::size_t>(ti) * nd + tj]) {
      store.read_block(ti * b, tj * b, rows, cols, pp.host_ptr(s), cols);
    } else {
      weight_block(g, ti * b, tj * b, rows, cols, pp.host_ptr(s), cols);
    }
    pp.set_ready(s,
                 codec.stage_in(pipe, pp.device_ptr(s), pp.host_ptr(s), bytes));
    return s;
  };
  // Drain slot `s` of `pp` to the store on the D2H lane, after everything
  // issued on compute so far, then free the slot for the next prefetch.
  // The block's held frames go stale with it, and are held again only once
  // the new ones are shipped and stored.
  auto save = [&](sim::PingPong<dist_t>& pp, int s, vidx_t ti, vidx_t tj) {
    const vidx_t rows = bdim(ti), cols = bdim(tj);
    SlicedFrames& frames = held_frames(ti, tj);
    frames = {};
    SlicedFrames shipped;
    const sim::Event drained = codec.stage_out(
        pipe, pp.host_ptr(s), pp.device_ptr(s),
        static_cast<std::size_t>(rows) * cols * sizeof(dist_t),
        pipe.computed(), in_band(ti, tj) ? &shipped : nullptr);
    store.write_block(ti * b, tj * b, rows, cols, pp.host_ptr(s), cols);
    stored[static_cast<std::size_t>(ti) * nd + tj] = 1;
    frames = std::move(shipped);
    pp.release(s, drained);
  };

  const sim::StreamId compute = pipe.compute_stream();

  for (; k < nd; ++k) {
    const vidx_t dk = bdim(k);
    // Blocks that left row and column k and k+1 drop their frames.
    for (vidx_t ti = 0; ti < nd; ++ti) {
      for (vidx_t tj = 0; tj < nd; ++tj) {
        if (!in_band(ti, tj)) held_frames(ti, tj) = {};
      }
    }
    // --- Stage 1: close the diagonal block with an in-core blocked FW ---
    // col doubles as the diagonal block A(k,k) through stages 1 and 2.
    const int diag = load(col, k, k);
    pipe.consume(col.ready(diag));
    dev_blocked_fw(dev, compute, col.device_ptr(diag), dk, dk, opts.fw_tile);
    save(col, diag, k, k);

    // --- Stage 2: row panels A(k,j) and column panels A(i,k) ---
    for (vidx_t j = 0; j < nd; ++j) {
      if (j == k) continue;
      const int t = load(tile, k, j);
      pipe.consume(tile.ready(t));
      // A(k,j) = min(A(k,j), A(k,k) ⊗ A(k,j))
      dev_minplus(dev, compute, tile.device_ptr(t), bdim(j),
                  col.device_ptr(diag), dk, tile.device_ptr(t), bdim(j), dk,
                  dk, bdim(j), opts.fw_tile);
      save(tile, t, k, j);
    }
    for (vidx_t i = 0; i < nd; ++i) {
      if (i == k) continue;
      const int t = load(tile, i, k);
      pipe.consume(tile.ready(t));
      // A(i,k) = min(A(i,k), A(i,k) ⊗ A(k,k))
      dev_minplus(dev, compute, tile.device_ptr(t), dk, tile.device_ptr(t),
                  dk, col.device_ptr(diag), dk, bdim(i), dk, dk, opts.fw_tile);
      save(tile, t, i, k);
    }
    // The next col refill (stage 3's first A(i,k)) must also wait for the
    // stage-2 kernels that read the diagonal out of the same buffer.
    col.release(diag, pipe.computed());

    // --- Stage 3: A(i,j) = min(A(i,j), A(i,k) ⊗ A(k,j)) ---
    for (vidx_t i = 0; i < nd; ++i) {
      if (i == k) continue;
      const int ci = load(col, i, k);  // cached for the whole row of updates
      pipe.consume(col.ready(ci));
      for (vidx_t j = 0; j < nd; ++j) {
        if (j == k) continue;
        const int rj = load(row, k, j);
        const int t = load(tile, i, j);
        pipe.consume(row.ready(rj));
        pipe.consume(tile.ready(t));
        dev_minplus(dev, compute, tile.device_ptr(t), bdim(j),
                    col.device_ptr(ci), dk, row.device_ptr(rj), bdim(j),
                    bdim(i), dk, bdim(j), opts.fw_tile);
        row.release(rj, pipe.computed());
        save(tile, t, i, j);
      }
      col.release(ci, pipe.computed());
    }
    // Every store.write_block of round k has executed (the functional copy
    // happens at issue time); ck.save flushes the store, the durability
    // boundary, before the sidecar claims progress = k+1.
    ck.save(k + 1);
  }
  pipe.drain();
  dev.synchronize();
  ck.finish();

  ApspResult result;
  result.used = Algorithm::kBlockedFloydWarshall;
  result.metrics = metrics_from_device(dev, wall.seconds());
  result.metrics.fw_num_blocks = static_cast<int>(nd);
  result.metrics.checkpoints_written = ck.written();
  result.metrics.resumed_progress = start_k;
  return result;
}

}  // namespace gapsp::core
