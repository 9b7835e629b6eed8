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
  BoundarySteps steps(g, plan, opts.fw_tile);
  std::vector<std::vector<dist_t>>& dist2 = steps.dist2;

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
    BoundaryBuffers buf;
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
  std::vector<DeviceState> devs(static_cast<std::size_t>(num_devices));
  for (auto& st : devs) {
    st.dev = std::make_unique<sim::Device>(opts.device);
    st.dev->set_trace(opts.trace);
    configure_kernels(*st.dev, opts);
    st.codec = std::make_unique<TransferCodec>(*st.dev,
                                               opts.transfer_compression);
    st.diag = st.dev->alloc<dist_t>(static_cast<std::size_t>(dmax) * dmax,
                                    "diagonal block");
    st.buf = steps.alloc_buffers(*st.dev);
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
        weight_block(steps.gp, off, off, ni, ni, steps.hbuf.data(), ni);
        st.codec->h2d(s0, st.diag.data(), steps.hbuf.data(),
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

  // ---- Step 3: boundary graph on the first surviving device, then
  // broadcast ----
  std::vector<dist_t> hbound = steps.boundary_graph();
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
      st.codec->h2d(s0, st.buf.bound.data(), hbound.data(),
                    hbound.size() * sizeof(dist_t), /*pinned=*/false);
      dev_blocked_fw(*st.dev, s0, st.buf.bound.data(), nb, nb, opts.fw_tile);
      // Ship dist3 back so it can be broadcast to the other devices.
      st.codec->d2h(s0, hbound.data(), st.buf.bound.data(),
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
      devs[d].codec->h2d(s0, devs[d].buf.bound.data(), hbound.data(),
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
        st.codec->h2d(s0, st.buf.b2c.data() + plan.b2c.offset[j],
                      dist2[j].data(),
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
    steps.c2b_times_bound(*st.dev, s0, st.buf, i);
    // Block-rows of one device are contiguous only per component; flush per
    // staging fill, tracking the first staged row.
    if (st.staged_rows + ni > st.staging_rows ||
        (st.staged_rows > 0 && st.staged_row0 + st.staged_rows != off)) {
      flush(st);
    }
    if (st.staged_rows == 0) st.staged_row0 = off;
    steps.block_row(*st.dev, s0, st.buf, i,
                    st.staging.data() +
                        static_cast<std::size_t>(st.staged_rows) * n);
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
    // Devices run at once: the run takes the makespan, and each device
    // holds its own pinned staging.
    const ApspMetrics m = metrics_from_device(*st.dev, 0.0);
    add_counters(agg, m);
    agg.pinned_peak_bytes += m.pinned_peak_bytes;
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
