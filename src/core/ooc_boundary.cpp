#include "core/ooc_boundary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "core/checkpoint.h"
#include "core/device_kernels.h"
#include "core/transfer_codec.h"
#include "sim/stream_pipeline.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

int default_components(vidx_t n) {
  // The paper's experimental setting: k = √n / 4 (Sec. V-F), at least 2.
  return std::max(2, static_cast<int>(std::lround(std::sqrt(
                         static_cast<double>(n)) / 4.0)));
}

/// Fixed (non-staging) device working set of a plan, in bytes. With
/// `overlap` the component block of Step 2 doubles up for its ping-pong.
std::size_t fixed_bytes(const part::BoundaryLayout& layout, bool overlap) {
  const int k = layout.k();
  const std::size_t dmax = layout.max_comp_size();
  const std::size_t nb = layout.num_boundary;
  std::size_t bmax = 0;
  std::size_t b2c_all = 0;
  for (int j = 0; j < k; ++j) {
    bmax = std::max<std::size_t>(bmax, layout.comp_boundary[j]);
    b2c_all += static_cast<std::size_t>(layout.comp_boundary[j]) *
               layout.comp_size(j);
  }
  // component FW tile (ping-pong pair under overlap)
  const std::size_t diag = dmax * dmax * (overlap ? 2 : 1);
  const std::size_t out = dmax * dmax;        // naive-mode output tile
  const std::size_t bound = nb * nb;          // dist3 matrix
  const std::size_t c2b = dmax * bmax;        // per-i upload
  const std::size_t tmp = dmax * nb;          // C2B[i] ⊗ bound(i,:)
  return (diag + out + bound + c2b + b2c_all + tmp) * sizeof(dist_t);
}

/// Global boundary index of a renumbered vertex, or -1 if interior.
vidx_t global_boundary_index(const part::BoundaryLayout& layout, int comp,
                             vidx_t new_id) {
  const vidx_t local = new_id - layout.comp_offset[comp];
  if (local >= layout.comp_boundary[comp]) return -1;
  return layout.boundary_offset[comp] + local;
}

}  // namespace

BoundaryPlan plan_boundary(const graph::CsrGraph& g, const ApspOptions& opts) {
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(n >= 2, "boundary algorithm needs at least two vertices");
  int k = opts.num_components > 0 ? opts.num_components : default_components(n);
  k = std::min<int>(k, n);
  const std::size_t budget =
      static_cast<std::size_t>(0.95 * static_cast<double>(opts.device.memory_bytes));

  while (k >= 2) {
    BoundaryPlan plan;
    plan.layout =
        part::partition_and_analyze(g, k, opts.seed, opts.partition_method);
    plan.k = k;
    plan.max_comp = plan.layout.max_comp_size();
    plan.nb = plan.layout.num_boundary;
    const std::size_t one_row =
        static_cast<std::size_t>(n) * sizeof(dist_t);
    // Batched mode needs at least one component block-row of staging (twice
    // that when overlapping); require it whenever batching is requested.
    std::size_t staging_min = 0;
    if (opts.batch_transfers) {
      staging_min = static_cast<std::size_t>(plan.max_comp) * one_row *
                    (opts.overlap_transfers ? 2 : 1);
    }
    // Prefer the double-buffered Step-2 component block when overlapping,
    // but degrade to a single buffer at the same k before halving k — the
    // second buffer is an optimization, not a feasibility requirement.
    plan.pipeline_comp = opts.overlap_transfers;
    std::size_t fixed = fixed_bytes(plan.layout, plan.pipeline_comp);
    if (plan.pipeline_comp && fixed + staging_min > budget) {
      plan.pipeline_comp = false;
      fixed = fixed_bytes(plan.layout, false);
    }
    if (fixed + staging_min <= budget) {
      plan.s_dia = static_cast<std::size_t>(plan.max_comp) * plan.max_comp *
                   sizeof(dist_t);
      plan.s_bound =
          static_cast<std::size_t>(plan.nb) * plan.nb * sizeof(dist_t);
      plan.s_rem = budget - fixed;
      const std::size_t buffers = opts.overlap_transfers ? 2 : 1;
      plan.staging_rows = opts.batch_transfers
                              ? static_cast<vidx_t>(plan.s_rem /
                                                    (buffers * one_row))
                              : 0;
      return plan;
    }
    // The working set does not fit: fewer, larger components shrink the
    // boundary matrix (the dominant term on large-separator graphs) — the
    // "maximal number of components allowed is small" effect of Sec. I.
    k /= 2;
  }
  throw Error(
      "boundary algorithm infeasible on " + opts.device.name +
      ": boundary matrix does not fit device memory for any k >= 2");
}

ApspResult ooc_boundary(const graph::CsrGraph& g, const ApspOptions& opts,
                        const BoundaryPlan& plan, DistStore& store) {
  Timer wall;
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(store.n() == n, "store size mismatch");
  const part::BoundaryLayout& layout = plan.layout;
  const int k = plan.k;
  const vidx_t nb = plan.nb;
  const vidx_t dmax = plan.max_comp;

  // Work in the boundary-first renumbering (Fig. 1a).
  const graph::CsrGraph gp = g.relabel(layout.perm);
  std::vector<int> comp_of(static_cast<std::size_t>(n));
  for (int c = 0; c < k; ++c) {
    for (vidx_t v = layout.comp_offset[c]; v < layout.comp_offset[c + 1]; ++v) {
      comp_of[v] = c;
    }
  }

  sim::Device dev(opts.device);
  dev.set_trace(opts.trace);
  configure_kernels(dev, opts);
  FaultScope faults(dev, opts);
  sim::StreamPipeline pipe(dev, opts.overlap_transfers);
  TransferCodec codec(dev, opts.transfer_compression);
  const sim::StreamId compute = pipe.compute_stream();

  // Step-level checkpointing. Unlike FW/Johnson the store is not the whole
  // state here: steps 2 and 3 produce host-side intermediates (dist2, dist3)
  // that step 4 consumes, so the sidecar carries them as its payload.
  const bool use_ck = !opts.checkpoint_path.empty();
  std::uint64_t fp = 0;
  int resume_step = 0;  // last completed step restored from the sidecar
  long long ck_written = 0;
  Checkpoint ck_in;
  std::size_t dist2_elems = 0;
  for (int i = 0; i < k; ++i) {
    dist2_elems += static_cast<std::size_t>(layout.comp_size(i)) *
                   layout.comp_size(i);
  }
  const std::size_t bound_elems = static_cast<std::size_t>(nb) * nb;
  if (use_ck) {
    fp = graph_fingerprint(g);
    const std::int64_t shape[5] = {n, k, nb, dmax,
                                   static_cast<std::int64_t>(opts.seed)};
    fp = util::fnv1a(shape, sizeof(shape), fp);
    if (opts.resume && read_checkpoint(opts.checkpoint_path, &ck_in) &&
        ck_in.algorithm == static_cast<std::uint32_t>(Algorithm::kBoundary) &&
        ck_in.fingerprint == fp && ck_in.n == n && ck_in.aux0 == k &&
        ck_in.aux1 == nb) {
      const int step = static_cast<int>(
          std::clamp<std::int64_t>(ck_in.progress, 0, 3));
      const std::size_t need =
          (dist2_elems + (step >= 3 ? bound_elems : 0)) * sizeof(dist_t);
      if (step >= 2 && ck_in.payload.size() == need) resume_step = step;
    }
  }

  // ---- device allocations (accounted against capacity) ----
  // Step-2 component block, ping-ponged so the next component's weight
  // matrix prefetches and the previous dist2 drains while the current
  // in-core FW runs. The plan may have degraded to a single buffer when
  // the second block did not fit at the chosen k.
  sim::PingPong<dist_t> comp_pp(pipe, static_cast<std::size_t>(dmax) * dmax,
                                "component block",
                                plan.pipeline_comp ? 2 : 1);
  auto out_buf = dev.alloc<dist_t>(
      static_cast<std::size_t>(dmax) * dmax, "output tile");
  auto bound_buf = dev.alloc<dist_t>(
      static_cast<std::size_t>(nb) * nb, "boundary matrix");
  std::size_t bmax = 0, b2c_elems = 0;
  std::vector<std::size_t> b2c_off(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    bmax = std::max<std::size_t>(bmax, layout.comp_boundary[j]);
    b2c_off[j] = b2c_elems;
    b2c_elems += static_cast<std::size_t>(layout.comp_boundary[j]) *
                 layout.comp_size(j);
  }
  auto c2b_buf =
      dev.alloc<dist_t>(static_cast<std::size_t>(dmax) * bmax, "C2B[i]");
  auto b2c_buf = dev.alloc<dist_t>(std::max<std::size_t>(b2c_elems, 1),
                                   "B2C (all components)");
  auto tmp_buf = dev.alloc<dist_t>(
      static_cast<std::size_t>(dmax) * nb, "tmp1 = C2B ⊗ bound");

  const bool batching = opts.batch_transfers && plan.staging_rows > 0;
  // Ping-pong staging for the finished block-rows (one buffer when not
  // overlapping, matching plan_boundary's budget split).
  std::optional<sim::PingPong<dist_t>> staging;
  if (batching) {
    staging.emplace(pipe, static_cast<std::size_t>(plan.staging_rows) * n,
                    "staging");
  }

  std::vector<std::vector<dist_t>> dist2(static_cast<std::size_t>(k));
  std::vector<dist_t> hbuf(static_cast<std::size_t>(dmax) *
                           std::max<vidx_t>(n, dmax));

  // Serializes the step intermediates into a sidecar payload: every dist2
  // block, then (after step 3) the solved boundary matrix.
  auto save_step = [&](int step, const dist_t* bound) {
    Checkpoint ck;
    ck.algorithm = static_cast<std::uint32_t>(Algorithm::kBoundary);
    ck.fingerprint = fp;
    ck.n = n;
    ck.progress = step;
    ck.aux0 = k;
    ck.aux1 = nb;
    ck.payload.resize((dist2_elems + (bound != nullptr ? bound_elems : 0)) *
                      sizeof(dist_t));
    std::uint8_t* out = ck.payload.data();
    for (int i = 0; i < k; ++i) {
      const std::size_t bytes = dist2[i].size() * sizeof(dist_t);
      std::memcpy(out, dist2[i].data(), bytes);
      out += bytes;
    }
    if (bound != nullptr) {
      std::memcpy(out, bound, bound_elems * sizeof(dist_t));
    }
    write_checkpoint(opts.checkpoint_path, ck);
    ++ck_written;
  };

  // ---- Step 2: per-component APSP (blocked FW on the device) ----
  // Pipelined: component i+1's weight matrix stages in and component i-1's
  // dist2 drains while component i's in-core FW runs on the compute stream.
  if (resume_step >= 2) {
    const std::uint8_t* in = ck_in.payload.data();
    for (int i = 0; i < k; ++i) {
      const std::size_t elems =
          static_cast<std::size_t>(layout.comp_size(i)) * layout.comp_size(i);
      dist2[i].resize(elems);
      std::memcpy(dist2[i].data(), in, elems * sizeof(dist_t));
      in += elems * sizeof(dist_t);
    }
  } else {
    for (int i = 0; i < k; ++i) {
      const vidx_t off = layout.comp_offset[i];
      const vidx_t ni = layout.comp_size(i);
      const std::size_t bytes =
          static_cast<std::size_t>(ni) * ni * sizeof(dist_t);
      const int s = comp_pp.acquire(pipe.in_stream());
      weight_block(gp, off, off, ni, ni, comp_pp.host_ptr(s), ni);
      comp_pp.set_ready(s, codec.stage_in(pipe, comp_pp.device_ptr(s),
                                          comp_pp.host_ptr(s), bytes));
      pipe.consume(comp_pp.ready(s));
      dev_blocked_fw(dev, compute, comp_pp.device_ptr(s), ni, ni, opts.fw_tile);
      const sim::Event drained =
          codec.stage_out(pipe, comp_pp.host_ptr(s), comp_pp.device_ptr(s),
                          bytes, pipe.computed());
      dist2[i].assign(comp_pp.host_ptr(s),
                      comp_pp.host_ptr(s) + static_cast<std::size_t>(ni) * ni);
      comp_pp.release(s, drained);
    }
    if (use_ck) save_step(2, nullptr);
  }

  // ---- Step 3: boundary graph (virtual + cross edges), FW -> dist3 ----
  std::vector<dist_t> hbound(static_cast<std::size_t>(nb) * nb, kInf);
  if (resume_step >= 3) {
    // The payload holds the *solved* boundary matrix; upload it in place of
    // re-running the boundary FW.
    std::memcpy(hbound.data(),
                ck_in.payload.data() + dist2_elems * sizeof(dist_t),
                bound_elems * sizeof(dist_t));
    dev.memcpy_h2d(compute, bound_buf.data(), hbound.data(),
                   hbound.size() * sizeof(dist_t));
  } else {
    for (vidx_t b = 0; b < nb; ++b) {
      hbound[static_cast<std::size_t>(b) * nb + b] = 0;
    }
    for (int i = 0; i < k; ++i) {
      const vidx_t bi = layout.comp_boundary[i];
      const vidx_t ni = layout.comp_size(i);
      const vidx_t go = layout.boundary_offset[i];
      for (vidx_t r = 0; r < bi; ++r) {
        for (vidx_t c = 0; c < bi; ++c) {
          dist_t& cell = hbound[static_cast<std::size_t>(go + r) * nb + go + c];
          cell = std::min(cell, dist2[i][static_cast<std::size_t>(r) * ni + c]);
        }
      }
    }
    for (vidx_t u = 0; u < n; ++u) {
      const int cu = comp_of[u];
      const auto nbr = gp.neighbors(u);
      const auto wts = gp.weights(u);
      for (std::size_t e = 0; e < nbr.size(); ++e) {
        const int cv = comp_of[nbr[e]];
        if (cu == cv) continue;
        const vidx_t gu = global_boundary_index(layout, cu, u);
        const vidx_t gv = global_boundary_index(layout, cv, nbr[e]);
        GAPSP_CHECK(gu >= 0 && gv >= 0,
                    "cross edge between non-boundary nodes");
        dist_t& cell = hbound[static_cast<std::size_t>(gu) * nb + gv];
        cell = std::min(cell, wts[e]);
      }
    }
    dev.memcpy_h2d(compute, bound_buf.data(), hbound.data(),
                   hbound.size() * sizeof(dist_t));
    dev_blocked_fw(dev, compute, bound_buf.data(), nb, nb, opts.fw_tile);
    // The functional FW result is already in bound_buf host storage; the
    // sidecar serialization reads it directly (host-side bookkeeping, no
    // extra simulated transfer).
    if (use_ck) save_step(3, bound_buf.data());
  }

  // ---- Step 4 prep: upload B2C of every component (first b_j rows of
  // dist2[j], contiguous because boundary vertices come first) ----
  for (int j = 0; j < k; ++j) {
    const vidx_t bj = layout.comp_boundary[j];
    const vidx_t nj = layout.comp_size(j);
    if (bj == 0) continue;
    dev.memcpy_h2d(compute, b2c_buf.data() + b2c_off[j], dist2[j].data(),
                   static_cast<std::size_t>(bj) * nj * sizeof(dist_t));
  }

  // ---- Step 4: A(i,j) = min(direct, C2B[i] ⊗ bound(i,j) ⊗ B2C[j]) ----
  // Batched mode: finished block-rows accumulate in a staging slot that is
  // flushed with one large transfer on the D2H lane while compute fills the
  // other slot.
  int active = -1;               // staging slot being filled
  vidx_t staged_rows = 0;        // rows currently in `active`
  vidx_t staged_row0 = 0;        // matrix row of the first staged row

  auto flush_staging = [&]() {
    if (staged_rows == 0) return;
    const std::size_t bytes = static_cast<std::size_t>(staged_rows) * n *
                              sizeof(dist_t);
    // The D2H lane waits for the kernels that filled this slot; the slot's
    // next acquire (on compute) waits until the drain finished.
    const sim::Event drained =
        codec.stage_out(pipe, staging->host_ptr(active),
                        staging->device_ptr(active), bytes, pipe.computed());
    store.write_block(staged_row0, 0, staged_rows, n,
                      staging->host_ptr(active), static_cast<std::size_t>(n));
    staging->release(active, drained);
    active = -1;
    staged_rows = 0;
  };

  for (int i = 0; i < k; ++i) {
    const vidx_t off = layout.comp_offset[i];
    const vidx_t ni = layout.comp_size(i);
    const vidx_t bi = layout.comp_boundary[i];

    // Upload C2B[i]: columns 0..b_i of dist2[i], packed on the host.
    if (bi > 0) {
      for (vidx_t r = 0; r < ni; ++r) {
        std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, bi,
                    hbuf.data() + static_cast<std::size_t>(r) * bi);
      }
      dev.memcpy_h2d(compute, c2b_buf.data(), hbuf.data(),
                     static_cast<std::size_t>(ni) * bi * sizeof(dist_t));
      // tmp = C2B[i] ⊗ bound(i, :)  (b_i × NB view of dist3), one launch.
      dev.launch(compute, "fill_tmp", [&](sim::LaunchCtx&) {
        std::fill_n(tmp_buf.data(), static_cast<std::size_t>(ni) * nb, kInf);
        sim::KernelProfile p;
        p.bytes = static_cast<double>(ni) * nb * sizeof(dist_t);
        p.ops = static_cast<double>(ni) * nb;
        p.blocks = std::max(1, static_cast<int>(ni * nb / 4096));
        return p;
      });
      dev_minplus(dev, compute, tmp_buf.data(), nb, c2b_buf.data(), bi,
                  bound_buf.data() + static_cast<std::size_t>(
                                         layout.boundary_offset[i]) * nb,
                  nb, ni, bi, nb, opts.fw_tile);
    }

    if (batching) {
      if (staged_rows + ni > plan.staging_rows) flush_staging();
      GAPSP_CHECK(ni <= plan.staging_rows, "staging too small for component");
      if (staged_rows == 0) {
        staged_row0 = off;
        active = staging->acquire(compute);
      }
      dist_t* row_base = staging->device_ptr(active) +
                         static_cast<std::size_t>(staged_rows) * n;
      // Initialize the block-row: kInf everywhere, dist2 on the diagonal.
      dev.launch(compute, "init_block_row", [&](sim::LaunchCtx&) {
        std::fill_n(row_base, static_cast<std::size_t>(ni) * n, kInf);
        sim::KernelProfile p;
        p.bytes = static_cast<double>(ni) * n * sizeof(dist_t);
        p.ops = static_cast<double>(ni) * n;
        p.blocks = std::max(1, static_cast<int>(ni * (n / 4096)));
        return p;
      });
      for (vidx_t r = 0; r < ni; ++r) {
        std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, ni,
                    row_base + static_cast<std::size_t>(r) * n + off);
      }
      // Charge the dist2 upload as one h2d transfer (the scatter above is
      // the functional side of it).
      dev.memcpy_h2d(compute, hbuf.data(), dist2[i].data(),
                     static_cast<std::size_t>(ni) * ni * sizeof(dist_t));
      // One launch computes the whole block-row: for every j,
      // A(i,j) = min(A(i,j), tmp(:, bnd_j) ⊗ B2C[j]).
      if (bi > 0) {
        // Grid over destination components: block j owns the disjoint
        // column range [comp_offset[j], comp_offset[j]+n_j) of the block-row
        // and only reads tmp / B2C, so parallel execution is race-free and
        // bit-identical to serial.
        dev.launch_grid(
            compute, "block_row_minplus", k,
            [&](int j) {
              const vidx_t bj = layout.comp_boundary[j];
              const vidx_t nj = layout.comp_size(j);
              if (bj == 0) return;
              minplus_accum(row_base + layout.comp_offset[j], n,
                            tmp_buf.data() + layout.boundary_offset[j], nb,
                            b2c_buf.data() + b2c_off[j], nj, ni, bj, nj);
            },
            [&] {
              double ops = 0.0, bytes = 0.0;
              int blocks = 0;
              for (int j = 0; j < k; ++j) {
                const vidx_t bj = layout.comp_boundary[j];
                const vidx_t nj = layout.comp_size(j);
                if (bj == 0) continue;
                ops += minplus_ops(ni, bj, nj);
                bytes += minplus_bytes(ni, bj, nj, opts.fw_tile);
                blocks += ((ni + opts.fw_tile - 1) / opts.fw_tile) *
                          ((nj + opts.fw_tile - 1) / opts.fw_tile);
              }
              sim::KernelProfile p;
              p.ops = ops;
              p.bytes = bytes;
              p.blocks = std::max(1, blocks);
              return p;
            });
      }
      staged_rows += ni;
    } else {
      // Naive mode (Fig. 8 baseline): one tile at a time, one synchronous
      // pageable transfer per tile — k² small transfers.
      for (int j = 0; j < k; ++j) {
        const vidx_t nj = layout.comp_size(j);
        const vidx_t bj = layout.comp_boundary[j];
        dev.launch(compute, "init_tile", [&](sim::LaunchCtx&) {
          if (i == j) {
            std::copy_n(dist2[i].data(), static_cast<std::size_t>(ni) * ni,
                        out_buf.data());
          } else {
            std::fill_n(out_buf.data(), static_cast<std::size_t>(ni) * nj,
                        kInf);
          }
          sim::KernelProfile p;
          p.bytes = static_cast<double>(ni) * nj * sizeof(dist_t);
          p.ops = static_cast<double>(ni) * nj;
          return p;
        });
        if (bi > 0 && bj > 0) {
          dev_minplus(dev, compute, out_buf.data(), nj,
                      tmp_buf.data() + layout.boundary_offset[j], nb,
                      b2c_buf.data() + b2c_off[j], nj, ni, bj, nj,
                      opts.fw_tile);
        }
        dev.memcpy_d2h(compute, hbuf.data(), out_buf.data(),
                       static_cast<std::size_t>(ni) * nj * sizeof(dist_t),
                       /*async=*/false, /*pinned=*/false);
        store.write_block(off, layout.comp_offset[j], ni, nj, hbuf.data(),
                          static_cast<std::size_t>(nj));
      }
    }
  }
  if (batching) flush_staging();
  pipe.drain();
  dev.synchronize();
  if (use_ck) remove_checkpoint(opts.checkpoint_path);

  ApspResult result;
  result.used = Algorithm::kBoundary;
  result.metrics = metrics_from_device(dev, wall.seconds());
  result.metrics.boundary_k = k;
  result.metrics.boundary_nodes = nb;
  result.metrics.checkpoints_written = ck_written;
  result.metrics.resumed_progress = resume_step;
  result.perm = layout.perm;
  return result;
}

ApspResult ooc_boundary(const graph::CsrGraph& g, const ApspOptions& opts,
                        DistStore& store) {
  return ooc_boundary(g, opts, plan_boundary(g, opts), store);
}

}  // namespace gapsp::core
