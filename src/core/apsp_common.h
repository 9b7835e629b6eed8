// Helpers shared by the three out-of-core implementations.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/apsp_options.h"
#include "core/dist_store.h"
#include "graph/csr_graph.h"
#include "sim/device.h"

namespace gapsp::core {

/// Wires a Device to the fault schedule requested in ApspOptions for the
/// lifetime of one algorithm run. Prefers the pre-built injector in
/// opts.fault_injector (shared across degrade attempts so scripted faults
/// stay consumed); otherwise materializes one from opts.faults, seeded for
/// `device_index`. Always applies opts.retry. Detaches on destruction.
class FaultScope {
 public:
  FaultScope(sim::Device& dev, const ApspOptions& opts, int device_index = 0)
      : dev_(dev) {
    if (opts.fault_injector != nullptr) {
      injector_ = opts.fault_injector;
    } else if (opts.faults != nullptr) {
      owned_ = std::make_unique<sim::FaultInjector>(*opts.faults,
                                                    device_index);
      injector_ = owned_.get();
    }
    dev_.set_fault_injector(injector_);
    dev_.set_retry_policy(opts.retry);
  }
  ~FaultScope() { dev_.set_fault_injector(nullptr); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  sim::FaultInjector* injector() const { return injector_; }

 private:
  sim::Device& dev_;
  std::unique_ptr<sim::FaultInjector> owned_;
  sim::FaultInjector* injector_ = nullptr;
};

/// Fills a host row-major buffer with the weight-matrix block whose top-left
/// corner is (row0, col0): 0 on the diagonal, the lightest arc's weight where
/// arcs exist, kInf elsewhere (the Floyd–Warshall starting state).
void weight_block(const graph::CsrGraph& g, vidx_t row0, vidx_t col0,
                  vidx_t rows, vidx_t cols, dist_t* dst, std::size_t ld);

/// Lands rows that a solver holds in its own vertex order at their original
/// rows and columns of `store`. perm[v] is the solver's id of vertex v and
/// inv_perm its inverse. Row r of `src` (leading dimension `ld`) is the
/// solver's row row0 + r, holding the solver's columns [col0, col0 + cols);
/// it lands as row inv_perm[row0 + r] with out[c] = src[perm[c] - col0]
/// where perm[c] falls in that window, and kInf elsewhere. One gather into
/// `scratch` and one full-width write per row.
void land_rows(DistStore& store, std::span<const vidx_t> perm,
               std::span<const vidx_t> inv_perm, vidx_t row0, vidx_t rows,
               const dist_t* src, std::size_t ld, vidx_t col0, vidx_t cols,
               std::vector<dist_t>& scratch);

/// Applies the kernel-engine options to the process-wide engine variant and
/// to `dev` (grid-execution thread count, charge-only mode), and records
/// the resolved variant name in the device metrics. Throws Error on a
/// negative thread count. Call once per Device, right after creation.
void configure_kernels(sim::Device& dev, const ApspOptions& opts);

/// Copies the device metrics counters into an ApspMetrics (the algorithm-
/// specific fields are left for the caller).
ApspMetrics metrics_from_device(const sim::Device& dev, double wall_seconds);

/// Adds every additive counter of `part` (busy and transfer seconds, the
/// overlap split, bytes and transfer counts per lane, the codec's raw and
/// wire bytes and decodes, kernels, ops, faults, retries, degradations and
/// checkpoints) into `total`, and takes its kernel variant. sim_seconds,
/// wall_seconds and the peaks are left to the caller, who knows whether the
/// parts ran one after another or at once.
void add_counters(ApspMetrics& total, const ApspMetrics& part);

/// Uploaded CSR representation of the graph plus the h2d cost of shipping
/// it (the `S` term of the Johnson batch formula lives in `bytes()`).
struct DeviceGraph {
  sim::DeviceBuffer<eidx_t> offsets;
  sim::DeviceBuffer<vidx_t> targets;
  sim::DeviceBuffer<dist_t> weights;

  std::size_t bytes() const {
    return offsets.bytes() + targets.bytes() + weights.bytes();
  }
};

/// Allocates and uploads the CSR arrays (three charged h2d transfers).
DeviceGraph upload_graph(sim::Device& dev, sim::StreamId stream,
                         const graph::CsrGraph& g);

}  // namespace gapsp::core
