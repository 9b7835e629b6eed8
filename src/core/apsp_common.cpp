#include "core/apsp_common.h"

#include <algorithm>
#include <string>
#include <vector>

namespace gapsp::core {

void weight_block(const graph::CsrGraph& g, vidx_t row0, vidx_t col0,
                  vidx_t rows, vidx_t cols, dist_t* dst, std::size_t ld) {
  for (vidx_t r = 0; r < rows; ++r) {
    dist_t* row = dst + static_cast<std::size_t>(r) * ld;
    std::fill_n(row, cols, kInf);
    const vidx_t u = row0 + r;
    if (u >= col0 && u < col0 + cols) row[u - col0] = 0;
    const auto nbr = g.neighbors(u);
    const auto wts = g.weights(u);
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      const vidx_t v = nbr[i];
      if (v >= col0 && v < col0 + cols) {
        row[v - col0] = std::min(row[v - col0], wts[i]);
      }
    }
  }
}

void land_rows(DistStore& store, std::span<const vidx_t> perm,
               std::span<const vidx_t> inv_perm, vidx_t row0, vidx_t rows,
               const dist_t* src, std::size_t ld, vidx_t col0, vidx_t cols,
               std::vector<dist_t>& scratch) {
  const vidx_t n = store.n();
  GAPSP_CHECK(perm.size() == static_cast<std::size_t>(n) &&
                  inv_perm.size() == perm.size(),
              "permutation length does not match the store");
  scratch.resize(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < rows; ++r) {
    const dist_t* row = src + static_cast<std::size_t>(r) * ld;
    for (vidx_t c = 0; c < n; ++c) {
      // Unsigned compare: a solver id left of the window wraps past `cols`.
      const auto s = static_cast<std::uint32_t>(perm[c] - col0);
      scratch[c] = s < static_cast<std::uint32_t>(cols) ? row[s] : kInf;
    }
    store.write_block(inv_perm[row0 + r], 0, 1, n, scratch.data(),
                      scratch.size());
  }
}

void configure_kernels(sim::Device& dev, const ApspOptions& opts) {
  // Device::launch_grid and the codec's slice fan-out read any value <= 0 as
  // "the whole pool", so a negative count would silently mean 0.
  GAPSP_CHECK(opts.kernel_threads >= 0,
              "kernel threads must be >= 0 (0 = whole pool), got " +
                  std::to_string(opts.kernel_threads));
  // A charge-only run executes no kernel, so it leaves the process-wide
  // variant to the runs that do.
  if (!opts.charge_only) set_kernel_variant(opts.kernel_variant);
  dev.set_kernel_threads(opts.kernel_threads);
  dev.set_charge_only(opts.charge_only);
  dev.note_kernel_variant(kernel_variant_name(resolved_kernel_variant()));
}

ApspMetrics metrics_from_device(const sim::Device& dev, double wall_seconds) {
  const sim::DeviceMetrics dm = dev.metrics();
  ApspMetrics m;
  m.sim_seconds = dm.sim_seconds;
  m.wall_seconds = wall_seconds;
  m.kernel_seconds = dm.kernel_seconds;
  m.transfer_seconds = dm.transfer_seconds;
  m.hidden_transfer_seconds = dm.hidden_transfer_seconds;
  m.exposed_transfer_seconds = dm.exposed_transfer_seconds;
  m.bytes_h2d = dm.bytes_h2d;
  m.bytes_d2h = dm.bytes_d2h;
  m.transfers_h2d = dm.transfers_h2d;
  m.transfers_d2h = dm.transfers_d2h;
  m.bytes_h2d_raw = dm.bytes_h2d_raw;
  m.bytes_h2d_wire = dm.bytes_h2d_wire;
  m.bytes_d2h_raw = dm.bytes_d2h_raw;
  m.bytes_d2h_wire = dm.bytes_d2h_wire;
  m.decode_seconds = dm.decode_seconds;
  m.decodes = dm.decodes;
  m.kernels = dm.kernels;
  m.child_kernels = dm.child_kernels;
  m.total_ops = dm.total_ops;
  m.device_peak_bytes = dm.peak_bytes;
  m.pinned_peak_bytes = dm.pinned_peak_bytes;
  m.faults_injected = dm.faults_injected;
  m.transfer_retries = dm.transfer_retries;
  m.kernel_retries = dm.kernel_retries;
  m.decode_retries = dm.decode_retries;
  m.retry_backoff_seconds = dm.retry_backoff_seconds;
  m.kernel_variant = dm.kernel_variant;
  return m;
}

void add_counters(ApspMetrics& total, const ApspMetrics& part) {
  using M = ApspMetrics;
  for (auto f : {&M::kernel_seconds, &M::transfer_seconds,
                 &M::hidden_transfer_seconds, &M::exposed_transfer_seconds,
                 &M::decode_seconds, &M::total_ops,
                 &M::retry_backoff_seconds}) {
    total.*f += part.*f;
  }
  for (auto f : {&M::bytes_h2d, &M::bytes_d2h, &M::bytes_h2d_raw,
                 &M::bytes_h2d_wire, &M::bytes_d2h_raw, &M::bytes_d2h_wire}) {
    total.*f += part.*f;
  }
  for (auto f : {&M::transfers_h2d, &M::transfers_d2h, &M::decodes,
                 &M::kernels, &M::child_kernels, &M::faults_injected,
                 &M::transfer_retries, &M::kernel_retries, &M::decode_retries,
                 &M::checkpoints_written}) {
    total.*f += part.*f;
  }
  total.degradations += part.degradations;
  if (!part.kernel_variant.empty()) total.kernel_variant = part.kernel_variant;
}

DeviceGraph upload_graph(sim::Device& dev, sim::StreamId stream,
                         const graph::CsrGraph& g) {
  DeviceGraph dg;
  dg.offsets = dev.alloc<eidx_t>(g.offsets().size(), "csr offsets");
  dg.targets = dev.alloc<vidx_t>(
      static_cast<std::size_t>(g.num_edges()), "csr targets");
  dg.weights = dev.alloc<dist_t>(
      static_cast<std::size_t>(g.num_edges()), "csr weights");
  dev.memcpy_h2d(stream, dg.offsets.data(), g.offsets().data(),
                 dg.offsets.bytes());
  if (g.num_edges() > 0) {
    dev.memcpy_h2d(stream, dg.targets.data(), g.targets().data(),
                   dg.targets.bytes());
    dev.memcpy_h2d(stream, dg.weights.data(), g.edge_weights().data(),
                   dg.weights.bytes());
  }
  return dg;
}

}  // namespace gapsp::core
