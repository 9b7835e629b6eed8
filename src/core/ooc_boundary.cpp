#include "core/ooc_boundary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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
std::size_t fixed_bytes(const BoundaryPlan& plan, bool overlap) {
  const std::size_t dmax = plan.max_comp;
  const std::size_t nb = plan.nb;
  // component FW tile (ping-pong pair under overlap)
  const std::size_t diag = dmax * dmax * (overlap ? 2 : 1);
  const std::size_t out = dmax * dmax;           // naive-mode output tile
  const std::size_t bound = nb * nb;             // dist3 matrix
  const std::size_t c2b = dmax * plan.b2c.bmax;  // per-i upload
  const std::size_t tmp = dmax * nb;             // C2B[i] ⊗ bound(i,:)
  return (diag + out + bound + c2b + plan.b2c.elems + tmp) * sizeof(dist_t);
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
    plan.b2c.offset.resize(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const vidx_t bj = plan.layout.comp_boundary[j];
      plan.b2c.bmax = std::max<std::size_t>(plan.b2c.bmax, bj);
      plan.b2c.offset[j] = plan.b2c.elems;
      plan.b2c.elems +=
          static_cast<std::size_t>(bj) * plan.layout.comp_size(j);
    }
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
    std::size_t fixed = fixed_bytes(plan, plan.pipeline_comp);
    if (plan.pipeline_comp && fixed + staging_min > budget) {
      plan.pipeline_comp = false;
      fixed = fixed_bytes(plan, false);
    }
    if (fixed + staging_min <= budget) {
      // What the fixed working set leaves of the budget (S_rem) stages.
      const std::size_t buffers = opts.overlap_transfers ? 2 : 1;
      plan.staging_rows = opts.batch_transfers
                              ? static_cast<vidx_t>((budget - fixed) /
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

BoundarySteps::BoundarySteps(const graph::CsrGraph& g,
                             const BoundaryPlan& plan, int fw_tile)
    : plan(plan),
      fw_tile(fw_tile),
      gp(g.relabel(plan.layout.perm)),
      dist2(static_cast<std::size_t>(plan.k)),
      hbuf(static_cast<std::size_t>(plan.max_comp) * plan.max_comp) {}

BoundaryBuffers BoundarySteps::alloc_buffers(sim::Device& dev) const {
  const std::size_t dmax = plan.max_comp;
  const std::size_t nb = plan.nb;
  BoundaryBuffers buf;
  buf.bound = dev.alloc<dist_t>(nb * nb, "boundary matrix");
  buf.c2b = dev.alloc<dist_t>(dmax * plan.b2c.bmax, "C2B[i]");
  buf.b2c = dev.alloc<dist_t>(std::max<std::size_t>(plan.b2c.elems, 1),
                              "B2C (all components)");
  buf.tmp = dev.alloc<dist_t>(dmax * nb, "tmp1 = C2B ⊗ bound");
  return buf;
}

std::vector<dist_t> BoundarySteps::boundary_graph() const {
  const part::BoundaryLayout& layout = plan.layout;
  const vidx_t n = gp.num_vertices();
  const vidx_t nb = plan.nb;
  std::vector<int> comp_of(static_cast<std::size_t>(n));
  for (int c = 0; c < plan.k; ++c) {
    std::fill(comp_of.begin() + layout.comp_offset[c],
              comp_of.begin() + layout.comp_offset[c + 1], c);
  }
  std::vector<dist_t> hbound(static_cast<std::size_t>(nb) * nb, kInf);
  for (vidx_t b = 0; b < nb; ++b) {
    hbound[static_cast<std::size_t>(b) * nb + b] = 0;
  }
  for (int i = 0; i < plan.k; ++i) {
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
      // Local ids; boundary vertices come first in their component.
      const vidx_t lu = u - layout.comp_offset[cu];
      const vidx_t lv = nbr[e] - layout.comp_offset[cv];
      GAPSP_CHECK(
          lu < layout.comp_boundary[cu] && lv < layout.comp_boundary[cv],
          "cross edge between non-boundary nodes");
      dist_t& cell = hbound[static_cast<std::size_t>(
                                layout.boundary_offset[cu] + lu) * nb +
                            layout.boundary_offset[cv] + lv];
      cell = std::min(cell, wts[e]);
    }
  }
  return hbound;
}

void BoundarySteps::c2b_times_bound(sim::Device& dev, sim::StreamId s,
                                    BoundaryBuffers& buf, int i) {
  const part::BoundaryLayout& layout = plan.layout;
  const vidx_t ni = layout.comp_size(i);
  const vidx_t bi = layout.comp_boundary[i];
  const vidx_t nb = plan.nb;
  if (bi == 0) return;
  for (vidx_t r = 0; r < ni; ++r) {
    std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, bi,
                hbuf.data() + static_cast<std::size_t>(r) * bi);
  }
  dev.memcpy_h2d(s, buf.c2b.data(), hbuf.data(),
                 static_cast<std::size_t>(ni) * bi * sizeof(dist_t));
  // tmp = C2B[i] ⊗ bound(i, :)  (b_i × NB view of dist3), one launch.
  dev_fill_inf(dev, s, "fill_tmp", buf.tmp.data(),
               static_cast<std::size_t>(ni) * nb,
               std::max(1, static_cast<int>(ni * nb / 4096)));
  dev_minplus(dev, s, buf.tmp.data(), nb, buf.c2b.data(), bi,
              buf.bound.data() +
                  static_cast<std::size_t>(layout.boundary_offset[i]) * nb,
              nb, ni, bi, nb, fw_tile);
}

void BoundarySteps::block_row(sim::Device& dev, sim::StreamId s,
                              BoundaryBuffers& buf, int i, dist_t* row_base) {
  const part::BoundaryLayout& layout = plan.layout;
  const vidx_t n = gp.num_vertices();
  const vidx_t off = layout.comp_offset[i];
  const vidx_t ni = layout.comp_size(i);
  const vidx_t bi = layout.comp_boundary[i];
  const vidx_t nb = plan.nb;
  // Initialize the block-row: kInf everywhere, dist2 on the diagonal.
  dev_fill_inf(dev, s, "init_block_row", row_base,
               static_cast<std::size_t>(ni) * n,
               std::max(1, static_cast<int>(ni * (n / 4096))));
  for (vidx_t r = 0; r < ni; ++r) {
    std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, ni,
                row_base + static_cast<std::size_t>(r) * n + off);
  }
  // Charge the dist2 upload as one h2d transfer (the scatter above is the
  // functional side of it).
  dev.memcpy_h2d(s, hbuf.data(), dist2[i].data(),
                 static_cast<std::size_t>(ni) * ni * sizeof(dist_t));
  if (bi == 0) return;
  // One launch computes the whole block-row. Grid over destination
  // components: block j owns the disjoint column range [comp_offset[j],
  // comp_offset[j]+n_j) of the block-row and only reads tmp / B2C, so
  // parallel execution is race-free and bit-identical to serial.
  dev.launch_grid(
      s, "block_row_minplus", plan.k,
      [&](int j) {
        const vidx_t bj = layout.comp_boundary[j];
        const vidx_t nj = layout.comp_size(j);
        if (bj == 0) return;
        minplus_accum(row_base + layout.comp_offset[j], n,
                      buf.tmp.data() + layout.boundary_offset[j], nb,
                      buf.b2c.data() + plan.b2c.offset[j], nj, ni, bj, nj);
      },
      [&] {
        double ops = 0.0, bytes = 0.0;
        int blocks = 0;
        for (int j = 0; j < plan.k; ++j) {
          const vidx_t bj = layout.comp_boundary[j];
          const vidx_t nj = layout.comp_size(j);
          if (bj == 0) continue;
          ops += minplus_ops(ni, bj, nj);
          bytes += minplus_bytes(ni, bj, nj, fw_tile);
          blocks += ((ni + fw_tile - 1) / fw_tile) *
                    ((nj + fw_tile - 1) / fw_tile);
        }
        sim::KernelProfile p;
        p.ops = ops;
        p.bytes = bytes;
        p.blocks = std::max(1, blocks);
        return p;
      });
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
  BoundarySteps steps(g, plan, opts.fw_tile);
  std::vector<std::vector<dist_t>>& dist2 = steps.dist2;

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
  std::size_t dist2_elems = 0;
  for (int i = 0; i < k; ++i) {
    dist2_elems += static_cast<std::size_t>(layout.comp_size(i)) *
                   layout.comp_size(i);
  }
  const std::size_t bound_elems = static_cast<std::size_t>(nb) * nb;
  CheckpointRun ck(opts, Algorithm::kBoundary, g, store, k, nb,
                   {dmax, static_cast<std::int64_t>(opts.seed)});
  int resume_step = 0;  // last completed step restored from the sidecar
  {
    const int step = static_cast<int>(ck.resumed(3));
    const std::size_t need =
        (dist2_elems + (step >= 3 ? bound_elems : 0)) * sizeof(dist_t);
    if (step >= 2 && ck.payload().size() == need) resume_step = step;
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
  BoundaryBuffers buf = steps.alloc_buffers(dev);

  const bool batching = opts.batch_transfers && plan.staging_rows > 0;
  // Ping-pong staging for the finished block-rows (one buffer when not
  // overlapping, matching plan_boundary's budget split).
  std::optional<sim::PingPong<dist_t>> staging;
  if (batching) {
    staging.emplace(pipe, static_cast<std::size_t>(plan.staging_rows) * n,
                    "staging");
  }

  // The sidecar payload holds every dist2 block, then (after step 3) the
  // solved boundary matrix.
  auto save_step = [&](int step, const dist_t* bound) {
    if (!ck.enabled()) return;
    std::vector<std::uint8_t> payload;
    auto put = [&payload](const dist_t* src, std::size_t elems) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(src);
      payload.insert(payload.end(), bytes, bytes + elems * sizeof(dist_t));
    };
    for (const auto& block : dist2) put(block.data(), block.size());
    if (bound != nullptr) put(bound, bound_elems);
    ck.save(step, std::move(payload));
  };
  const std::uint8_t* resumed = ck.payload().data();
  auto take = [&resumed](std::vector<dist_t>& dst, std::size_t elems) {
    dst.resize(elems);
    std::memcpy(dst.data(), resumed, elems * sizeof(dist_t));
    resumed += elems * sizeof(dist_t);
  };

  // ---- Step 2: per-component APSP (blocked FW on the device) ----
  // Pipelined: component i+1's weight matrix stages in and component i-1's
  // dist2 drains while component i's in-core FW runs on the compute stream.
  if (resume_step >= 2) {
    for (int i = 0; i < k; ++i) {
      take(dist2[i],
           static_cast<std::size_t>(layout.comp_size(i)) * layout.comp_size(i));
    }
  } else {
    for (int i = 0; i < k; ++i) {
      const vidx_t off = layout.comp_offset[i];
      const vidx_t ni = layout.comp_size(i);
      const std::size_t bytes =
          static_cast<std::size_t>(ni) * ni * sizeof(dist_t);
      const int s = comp_pp.acquire(pipe.in_stream());
      weight_block(steps.gp, off, off, ni, ni, comp_pp.host_ptr(s), ni);
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
    save_step(2, nullptr);
  }

  // ---- Step 3: boundary graph (virtual + cross edges), FW -> dist3 ----
  // A resumed run uploads the *solved* boundary matrix from the sidecar in
  // place of re-running the boundary FW.
  std::vector<dist_t> hbound;
  if (resume_step >= 3) {
    take(hbound, bound_elems);
  } else {
    hbound = steps.boundary_graph();
  }
  dev.memcpy_h2d(compute, buf.bound.data(), hbound.data(),
                 hbound.size() * sizeof(dist_t));
  if (resume_step < 3) {
    dev_blocked_fw(dev, compute, buf.bound.data(), nb, nb, opts.fw_tile);
    // The functional FW result is already in the buffer's host storage; the
    // sidecar serialization reads it directly (host-side bookkeeping, no
    // extra simulated transfer).
    save_step(3, buf.bound.data());
  }

  // ---- Step 4 prep: upload B2C of every component (first b_j rows of
  // dist2[j], contiguous because boundary vertices come first) ----
  for (int j = 0; j < k; ++j) {
    const vidx_t bj = layout.comp_boundary[j];
    if (bj == 0) continue;
    dev.memcpy_h2d(compute, buf.b2c.data() + plan.b2c.offset[j],
                   dist2[j].data(),
                   static_cast<std::size_t>(bj) * layout.comp_size(j) *
                       sizeof(dist_t));
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
    steps.c2b_times_bound(dev, compute, buf, i);

    if (batching) {
      if (staged_rows + ni > plan.staging_rows) flush_staging();
      GAPSP_CHECK(ni <= plan.staging_rows, "staging too small for component");
      if (staged_rows == 0) {
        staged_row0 = off;
        active = staging->acquire(compute);
      }
      steps.block_row(dev, compute, buf, i,
                      staging->device_ptr(active) +
                          static_cast<std::size_t>(staged_rows) * n);
      staged_rows += ni;
    } else {
      // Naive mode (Fig. 8 baseline): one tile at a time, one synchronous
      // pageable transfer per tile — k² small transfers.
      for (int j = 0; j < k; ++j) {
        const vidx_t nj = layout.comp_size(j);
        const vidx_t bj = layout.comp_boundary[j];
        dev.launch_grid(
            compute, "init_tile", 1,
            [&](int) {
              if (i == j) {
                std::copy_n(dist2[i].data(),
                            static_cast<std::size_t>(ni) * ni, out_buf.data());
              } else {
                std::fill_n(out_buf.data(), static_cast<std::size_t>(ni) * nj,
                            kInf);
              }
            },
            [&] {
              sim::KernelProfile p;
              p.bytes = static_cast<double>(ni) * nj * sizeof(dist_t);
              p.ops = static_cast<double>(ni) * nj;
              return p;
            });
        if (bi > 0 && bj > 0) {
          dev_minplus(dev, compute, out_buf.data(), nj,
                      buf.tmp.data() + layout.boundary_offset[j], nb,
                      buf.b2c.data() + plan.b2c.offset[j], nj, ni, bj, nj,
                      opts.fw_tile);
        }
        dev.memcpy_d2h(compute, steps.hbuf.data(), out_buf.data(),
                       static_cast<std::size_t>(ni) * nj * sizeof(dist_t),
                       /*async=*/false, /*pinned=*/false);
        store.write_block(off, layout.comp_offset[j], ni, nj,
                          steps.hbuf.data(), static_cast<std::size_t>(nj));
      }
    }
  }
  if (batching) flush_staging();
  pipe.drain();
  dev.synchronize();
  ck.finish();

  ApspResult result;
  result.used = Algorithm::kBoundary;
  result.metrics = metrics_from_device(dev, wall.seconds());
  result.metrics.boundary_k = k;
  result.metrics.boundary_nodes = nb;
  result.metrics.checkpoints_written = ck.written();
  result.metrics.resumed_progress = resume_step;
  result.perm = layout.perm;
  return result;
}

ApspResult ooc_boundary(const graph::CsrGraph& g, const ApspOptions& opts,
                        DistStore& store) {
  return ooc_boundary(g, opts, plan_boundary(g, opts), store);
}

}  // namespace gapsp::core
