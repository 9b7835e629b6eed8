#include "core/multi_device.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/device_kernels.h"
#include "core/transfer_codec.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

/// LPT assignment of `comps` to `devices`: largest component first onto the
/// least-loaded device. Writes owner[i] for each i in comps; other entries
/// of `owner` are untouched. Deterministic (ties broken by component id and
/// device position), so the full-set/full-fleet call reproduces the fault-
/// free schedule exactly, and failover re-assignment is reproducible too.
void assign_components(const part::BoundaryLayout& layout,
                       std::vector<int> comps,
                       const std::vector<int>& devices,
                       std::vector<int>& owner) {
  std::sort(comps.begin(), comps.end(), [&](int a, int b) {
    if (layout.comp_size(a) != layout.comp_size(b)) {
      return layout.comp_size(a) > layout.comp_size(b);
    }
    return a < b;
  });
  std::vector<long long> load(devices.size(), 0);
  for (int i : comps) {
    const std::size_t d = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner[i] = devices[d];
    // Step-2 work is cubic in component size; balance on that.
    const long long ni = layout.comp_size(i);
    load[d] += ni * ni * ni;
  }
}

}  // namespace

MultiApspResult ooc_boundary_multi(const graph::CsrGraph& g,
                                   const ApspOptions& opts, int num_devices,
                                   DistStore& store) {
  Timer wall;
  GAPSP_CHECK(num_devices >= 1, "need at least one device");
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(store.n() == n, "store size mismatch");

  // The global single-device plan also proves per-device feasibility: every
  // device allocates the same working set over a subset of the components.
  ApspOptions plan_opts = opts;
  plan_opts.batch_transfers = true;
  plan_opts.overlap_transfers = false;  // one staging buffer per device
  const BoundaryPlan plan = plan_boundary(g, plan_opts);
  const part::BoundaryLayout& layout = plan.layout;
  const int k = plan.k;
  const vidx_t nb = plan.nb;
  const vidx_t dmax = plan.max_comp;

  const graph::CsrGraph gp = g.relabel(layout.perm);
  std::vector<int> comp_of(static_cast<std::size_t>(n));
  for (int c = 0; c < k; ++c) {
    for (vidx_t v = layout.comp_offset[c]; v < layout.comp_offset[c + 1];
         ++v) {
      comp_of[v] = c;
    }
  }
  std::vector<int> all_comps(static_cast<std::size_t>(k));
  std::iota(all_comps.begin(), all_comps.end(), 0);
  std::vector<int> all_devices(static_cast<std::size_t>(num_devices));
  std::iota(all_devices.begin(), all_devices.end(), 0);
  std::vector<int> owner(static_cast<std::size_t>(k), 0);
  assign_components(layout, all_comps, all_devices, owner);

  // ---- per-device state ----
  struct DeviceState {
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<sim::FaultInjector> injector;
    std::unique_ptr<TransferCodec> codec;
    sim::DeviceBuffer<dist_t> diag;
    sim::DeviceBuffer<dist_t> bound;
    sim::DeviceBuffer<dist_t> c2b;
    sim::DeviceBuffer<dist_t> b2c;
    sim::DeviceBuffer<dist_t> tmp;
    sim::DeviceBuffer<dist_t> staging;
    std::vector<dist_t> host_staging;
    vidx_t staging_rows = 0;
    vidx_t staged_rows = 0;
    vidx_t staged_row0 = 0;
    /// Step-4 components resident in `staging` but not yet flushed to the
    /// store — lost (and re-run elsewhere) if this device dies.
    std::vector<int> staged_comps;
    bool alive = true;
  };
  std::size_t bmax = 0, b2c_elems = 0;
  std::vector<std::size_t> b2c_off(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    bmax = std::max<std::size_t>(bmax, layout.comp_boundary[j]);
    b2c_off[j] = b2c_elems;
    b2c_elems += static_cast<std::size_t>(layout.comp_boundary[j]) *
                 layout.comp_size(j);
  }
  std::vector<DeviceState> devs(static_cast<std::size_t>(num_devices));
  for (auto& st : devs) {
    st.dev = std::make_unique<sim::Device>(opts.device);
    st.dev->set_trace(opts.trace);
    configure_kernels(*st.dev, opts);
    st.codec = std::make_unique<TransferCodec>(*st.dev,
                                               opts.transfer_compression);
    st.diag = st.dev->alloc<dist_t>(static_cast<std::size_t>(dmax) * dmax,
                                    "diagonal block");
    st.bound = st.dev->alloc<dist_t>(static_cast<std::size_t>(nb) * nb,
                                     "boundary matrix");
    st.c2b =
        st.dev->alloc<dist_t>(static_cast<std::size_t>(dmax) * bmax, "C2B");
    st.b2c =
        st.dev->alloc<dist_t>(std::max<std::size_t>(b2c_elems, 1), "B2C");
    st.tmp =
        st.dev->alloc<dist_t>(static_cast<std::size_t>(dmax) * nb, "tmp1");
    const std::size_t stage_elems =
        st.dev->free_bytes() / sizeof(dist_t) / 100 * 95;
    st.staging_rows =
        static_cast<vidx_t>(stage_elems / static_cast<std::size_t>(n));
    GAPSP_CHECK(st.staging_rows >= dmax, "staging too small on device");
    st.staging = st.dev->alloc<dist_t>(
        static_cast<std::size_t>(st.staging_rows) * n, "staging");
    st.host_staging.resize(st.staging.size());
  }
  // Injectors attach after the fixed allocations: the fault model targets
  // the steady-state run (step 2 onward), one decorrelated injector per
  // device so "kill device d" schedules are expressible.
  for (int d = 0; d < num_devices; ++d) {
    if (opts.faults != nullptr) {
      devs[d].injector = std::make_unique<sim::FaultInjector>(*opts.faults, d);
      devs[d].dev->set_fault_injector(devs[d].injector.get());
    }
    devs[d].dev->set_retry_policy(opts.retry);
  }

  const sim::StreamId s0 = sim::kDefaultStream;
  std::vector<std::vector<dist_t>> dist2(static_cast<std::size_t>(k));
  std::vector<dist_t> hbuf(static_cast<std::size_t>(dmax) *
                           std::max<vidx_t>(n, dmax));

  // ---- failover bookkeeping ----
  std::vector<int> failed_devices;
  long long failover_components = 0;
  double failover_cost = 0.0;
  std::vector<char> reassigned(static_cast<std::size_t>(k), 0);
  auto alive_devices = [&]() {
    std::vector<int> out;
    for (int d = 0; d < num_devices; ++d) {
      if (devs[d].alive) out.push_back(d);
    }
    return out;
  };
  // Marks newly-dead devices, returns the components (from `done`'s
  // complement, plus any staged-but-unflushed ones) that must be re-run,
  // and re-runs LPT over the survivors. Rethrows `e` when no device is
  // left to fail over to.
  auto handle_death = [&](const sim::FaultError& e,
                          const std::vector<char>& done) {
    bool found = false;
    for (int d = 0; d < num_devices; ++d) {
      DeviceState& st = devs[d];
      if (!st.alive || !st.dev->lost()) continue;
      st.alive = false;
      found = true;
      failed_devices.push_back(d);
      // Anything staged on the dead device never reached the store.
      st.staged_comps.clear();
      st.staged_rows = 0;
    }
    if (!found) throw e;  // a non-device-lost fatal fault escaped retries
    const std::vector<int> survivors = alive_devices();
    if (survivors.empty()) throw e;  // nobody left to fail over to
    std::vector<int> pending;
    for (int i = 0; i < k; ++i) {
      if (!done[i] && !devs[owner[i]].alive) pending.push_back(i);
    }
    failover_components += static_cast<long long>(pending.size());
    for (int i : pending) reassigned[i] = 1;
    assign_components(layout, pending, survivors, owner);
  };

  // ---- Step 2: per-component FW on the owning device ----
  // Failover loop: a device death re-queues its unfinished components onto
  // the survivors (dist2 of completed components is already host-side).
  std::vector<char> s2_done(static_cast<std::size_t>(k), 0);
  for (bool complete = false; !complete;) {
    try {
      for (int i = 0; i < k; ++i) {
        if (s2_done[i]) continue;
        DeviceState& st = devs[owner[i]];
        const double t0 = st.dev->record_event(s0).time;
        const vidx_t off = layout.comp_offset[i];
        const vidx_t ni = layout.comp_size(i);
        weight_block(gp, off, off, ni, ni, hbuf.data(), ni);
        st.codec->h2d(s0, st.diag.data(), hbuf.data(),
                      static_cast<std::size_t>(ni) * ni * sizeof(dist_t),
                      /*pinned=*/false);
        dev_blocked_fw(*st.dev, s0, st.diag.data(), ni, ni, opts.fw_tile);
        dist2[i].resize(static_cast<std::size_t>(ni) * ni);
        st.codec->d2h(s0, dist2[i].data(), st.diag.data(),
                      dist2[i].size() * sizeof(dist_t), /*pinned=*/false);
        s2_done[i] = 1;
        if (reassigned[i]) {
          failover_cost += st.dev->record_event(s0).time - t0;
        }
      }
      complete = true;
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kDeviceLost) throw;
      handle_death(e, s2_done);
    }
  }
  // Barrier: the boundary graph needs every component's dist2.
  double barrier2 = 0.0;
  for (auto& st : devs) {
    if (!st.alive) continue;
    st.dev->synchronize();
    barrier2 = std::max(barrier2, st.dev->now());
  }
  for (auto& st : devs) {
    if (st.alive) st.dev->advance_to(barrier2);
  }

  // ---- Step 3: boundary graph on device 0, then broadcast ----
  std::vector<dist_t> hbound(static_cast<std::size_t>(nb) * nb, kInf);
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
      const vidx_t gu =
          layout.boundary_offset[cu] + (u - layout.comp_offset[cu]);
      const vidx_t gv =
          layout.boundary_offset[cv] + (nbr[e] - layout.comp_offset[cv]);
      dist_t& cell = hbound[static_cast<std::size_t>(gu) * nb + gv];
      cell = std::min(cell, wts[e]);
    }
  }
  // The boundary FW runs on the first alive device; if that one dies too,
  // the next survivor retries from the host-side hbound copy. hbound is
  // only overwritten by the (synchronous, functional) d2h once FW finished,
  // so a retry starts from the same pre-FW matrix.
  int step3_dev = -1;
  double barrier3 = 0.0;
  for (bool complete = false; !complete;) {
    const std::vector<int> survivors = alive_devices();
    if (survivors.empty()) {
      throw sim::FaultError(sim::FaultOp::kDeviceLost, /*transient=*/false,
                            "all devices lost before step 3");
    }
    DeviceState& st = devs[survivors.front()];
    try {
      st.codec->h2d(s0, st.bound.data(), hbound.data(),
                    hbound.size() * sizeof(dist_t), /*pinned=*/false);
      dev_blocked_fw(*st.dev, s0, st.bound.data(), nb, nb, opts.fw_tile);
      // Ship dist3 back so it can be broadcast to the other devices.
      st.codec->d2h(s0, hbound.data(), st.bound.data(),
                    hbound.size() * sizeof(dist_t), /*pinned=*/false);
      st.dev->synchronize();
      step3_dev = survivors.front();
      barrier3 = st.dev->now();
      complete = true;
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kDeviceLost) throw;
      handle_death(e, s2_done);  // step-2 work is all done; just mark deaths
    }
  }
  for (auto& st : devs) {
    if (st.alive) st.dev->advance_to(barrier3);
  }
  // Broadcast dist3 and B2C; a death here surfaces in step 4's failover
  // loop (the dead device's components re-run on survivors, which already
  // hold the broadcast data).
  for (int d = 0; d < num_devices; ++d) {
    if (!devs[d].alive || d == step3_dev) continue;
    try {
      devs[d].codec->h2d(s0, devs[d].bound.data(), hbound.data(),
                         hbound.size() * sizeof(dist_t), /*pinned=*/false);
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kDeviceLost) throw;
      handle_death(e, s2_done);
    }
  }
  // Every device needs B2C of every component for its step-4 rows.
  for (auto& st : devs) {
    if (!st.alive) continue;
    try {
      for (int j = 0; j < k; ++j) {
        const vidx_t bj = layout.comp_boundary[j];
        const vidx_t nj = layout.comp_size(j);
        if (bj == 0) continue;
        st.codec->h2d(s0, st.b2c.data() + b2c_off[j], dist2[j].data(),
                      static_cast<std::size_t>(bj) * nj * sizeof(dist_t),
                      /*pinned=*/false);
      }
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kDeviceLost) throw;
      handle_death(e, s2_done);
    }
  }

  // ---- Step 4: each device streams out its components' block-rows ----
  std::vector<char> s4_done(static_cast<std::size_t>(k), 0);
  auto flush = [&](DeviceState& st) {
    if (st.staged_rows == 0) return;
    const std::size_t bytes =
        static_cast<std::size_t>(st.staged_rows) * n * sizeof(dist_t);
    st.codec->d2h(s0, st.host_staging.data(), st.staging.data(), bytes,
                  /*pinned=*/true);
    store.write_block(st.staged_row0, 0, st.staged_rows, n,
                      st.host_staging.data(), static_cast<std::size_t>(n));
    st.staged_rows = 0;
    // Only now are these components durable; a death before this point
    // re-runs them on a survivor.
    for (int c : st.staged_comps) s4_done[c] = 1;
    st.staged_comps.clear();
  };

  // Components stranded on devices that died after step 2 (during the
  // boundary phase) get new owners before the loop starts.
  {
    std::vector<int> stranded;
    for (int i = 0; i < k; ++i) {
      if (!devs[owner[i]].alive) stranded.push_back(i);
    }
    if (!stranded.empty()) {
      failover_components += static_cast<long long>(stranded.size());
      for (int i : stranded) reassigned[i] = 1;
      assign_components(layout, stranded, alive_devices(), owner);
    }
  }

  // Computes component i's block-row into its owner's staging slot
  // (flushing when full/non-contiguous); durability is deferred to flush().
  auto run_component = [&](int i) {
    DeviceState& st = devs[owner[i]];
    const vidx_t off = layout.comp_offset[i];
    const vidx_t ni = layout.comp_size(i);
    const vidx_t bi = layout.comp_boundary[i];

    if (bi > 0) {
      for (vidx_t r = 0; r < ni; ++r) {
        std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, bi,
                    hbuf.data() + static_cast<std::size_t>(r) * bi);
      }
      st.dev->memcpy_h2d(s0, st.c2b.data(), hbuf.data(),
                         static_cast<std::size_t>(ni) * bi * sizeof(dist_t));
      dev_fill_inf(*st.dev, s0, "fill_tmp", st.tmp.data(),
                   static_cast<std::size_t>(ni) * nb,
                   std::max(1, static_cast<int>(ni * nb / 4096)));
      dev_minplus(*st.dev, s0, st.tmp.data(), nb, st.c2b.data(), bi,
                  st.bound.data() +
                      static_cast<std::size_t>(layout.boundary_offset[i]) * nb,
                  nb, ni, bi, nb, opts.fw_tile);
    }

    // Block-rows of one device are contiguous only per component; flush per
    // staging fill, tracking the first staged row.
    if (st.staged_rows + ni > st.staging_rows ||
        (st.staged_rows > 0 && st.staged_row0 + st.staged_rows != off)) {
      flush(st);
    }
    if (st.staged_rows == 0) st.staged_row0 = off;
    dist_t* row_base =
        st.staging.data() + static_cast<std::size_t>(st.staged_rows) * n;
    dev_fill_inf(*st.dev, s0, "init_block_row", row_base,
                 static_cast<std::size_t>(ni) * n,
                 std::max(1, static_cast<int>(ni * (n / 4096))));
    for (vidx_t r = 0; r < ni; ++r) {
      std::copy_n(dist2[i].data() + static_cast<std::size_t>(r) * ni, ni,
                  row_base + static_cast<std::size_t>(r) * n + off);
    }
    st.dev->memcpy_h2d(s0, hbuf.data(), dist2[i].data(),
                       static_cast<std::size_t>(ni) * ni * sizeof(dist_t));
    if (bi > 0) {
      // Grid over destination components (disjoint column ranges of the
      // block-row), same decomposition as the single-device path.
      st.dev->launch_grid(
          s0, "block_row_minplus", k,
          [&](int j) {
            const vidx_t bj = layout.comp_boundary[j];
            const vidx_t nj = layout.comp_size(j);
            if (bj == 0) return;
            minplus_accum(row_base + layout.comp_offset[j], n,
                          st.tmp.data() + layout.boundary_offset[j], nb,
                          st.b2c.data() + b2c_off[j], nj, ni, bj, nj);
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
    st.staged_rows += ni;
    st.staged_comps.push_back(i);
  };

  for (bool complete = false; !complete;) {
    try {
      for (int i = 0; i < k; ++i) {
        if (s4_done[i]) continue;
        DeviceState& st = devs[owner[i]];
        const double t0 = st.dev->record_event(s0).time;
        run_component(i);
        if (reassigned[i]) {
          failover_cost += st.dev->record_event(s0).time - t0;
        }
      }
      for (auto& st : devs) {
        if (st.alive) flush(st);
      }
      complete = true;
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kDeviceLost) throw;
      handle_death(e, s4_done);
    }
  }

  // ---- makespan + aggregated metrics ----
  MultiApspResult out;
  out.multi.num_devices = num_devices;
  out.multi.barrier2_s = barrier2;
  out.multi.barrier3_s = barrier3;
  out.multi.failed_devices = failed_devices;
  out.multi.failover_components = failover_components;
  out.multi.failover_cost_s = failover_cost;
  double makespan = 0.0;
  ApspMetrics agg;
  for (auto& st : devs) {
    st.dev->synchronize();
    out.multi.device_seconds.push_back(st.dev->now());
    makespan = std::max(makespan, st.dev->now());
    const ApspMetrics m = metrics_from_device(*st.dev, 0.0);
    agg.kernel_seconds += m.kernel_seconds;
    agg.transfer_seconds += m.transfer_seconds;
    agg.hidden_transfer_seconds += m.hidden_transfer_seconds;
    agg.exposed_transfer_seconds += m.exposed_transfer_seconds;
    agg.pinned_peak_bytes += m.pinned_peak_bytes;
    agg.bytes_h2d += m.bytes_h2d;
    agg.bytes_d2h += m.bytes_d2h;
    agg.transfers_h2d += m.transfers_h2d;
    agg.transfers_d2h += m.transfers_d2h;
    agg.bytes_h2d_raw += m.bytes_h2d_raw;
    agg.bytes_h2d_wire += m.bytes_h2d_wire;
    agg.bytes_d2h_raw += m.bytes_d2h_raw;
    agg.bytes_d2h_wire += m.bytes_d2h_wire;
    agg.decode_seconds += m.decode_seconds;
    agg.decodes += m.decodes;
    agg.kernels += m.kernels;
    agg.child_kernels += m.child_kernels;
    agg.total_ops += m.total_ops;
    agg.faults_injected += m.faults_injected;
    agg.transfer_retries += m.transfer_retries;
    agg.kernel_retries += m.kernel_retries;
    agg.decode_retries += m.decode_retries;
    agg.retry_backoff_seconds += m.retry_backoff_seconds;
    if (!m.kernel_variant.empty()) agg.kernel_variant = m.kernel_variant;
    agg.device_peak_bytes = std::max(agg.device_peak_bytes, m.device_peak_bytes);
  }
  agg.sim_seconds = makespan;
  agg.wall_seconds = wall.seconds();
  agg.boundary_k = k;
  agg.boundary_nodes = nb;
  out.result.used = Algorithm::kBoundary;
  out.result.metrics = agg;
  out.result.perm = layout.perm;
  return out;
}

}  // namespace gapsp::core
