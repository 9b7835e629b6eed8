// Multi-GPU out-of-core boundary algorithm — the natural extension of the
// paper's method back toward its ancestry (Djidjev et al. designed the
// boundary algorithm for multi-node clusters; the paper runs it on one GPU).
//
// Work distribution: components are assigned to devices by longest-
// processing-time (LPT) scheduling on component size. Each device runs
// step 2 (per-component FW) for its components; after a barrier the boundary
// graph is assembled on the host, closed on the first surviving device
// (step 3), and broadcast; each device then computes and streams out the
// block-rows of its own components (step 4). Simulated end-to-end time is
// the makespan across devices; every device has its own memory capacity,
// streams and transfer link.
//
// This driver is scheduling and failover only: the step code (Step 3's
// input matrix, Step 4a and 4b, the buffers they use) is the single-device
// driver's BoundarySteps (ooc_boundary.h), run on each device's stream.
#pragma once

#include "core/apsp_common.h"
#include "core/ooc_boundary.h"

namespace gapsp::core {

struct MultiDeviceMetrics {
  int num_devices = 0;
  std::vector<double> device_seconds;  ///< per-device local finish time
  double barrier2_s = 0.0;             ///< barrier after step 2
  double barrier3_s = 0.0;             ///< barrier after the dist3 broadcast
  /// Failover accounting (empty/zero on fault-free runs). When a device
  /// dies mid-run its unfinished components are re-assigned by LPT over the
  /// survivors; the run completes as long as one device stays alive.
  std::vector<int> failed_devices;     ///< indices of devices that died
  long long failover_components = 0;   ///< components re-run on survivors
  /// Device-local busy time survivors spent re-executing reassigned
  /// components (the price of the failure, on top of the lost work).
  double failover_cost_s = 0.0;
};

struct MultiApspResult {
  ApspResult result;           ///< aggregated (sim_seconds = makespan)
  MultiDeviceMetrics multi;
};

/// Runs the boundary algorithm across `num_devices` identical devices of
/// opts.device, always batched, with one staging buffer per device and no
/// checkpoints. num_devices == 1 is the single-device plan with this
/// driver's synchronous Step-2 and broadcast copies, not ooc_boundary's
/// pipeline. Results land in `store` in the permuted order, like
/// ooc_boundary.
MultiApspResult ooc_boundary_multi(const graph::CsrGraph& g,
                                   const ApspOptions& opts, int num_devices,
                                   DistStore& store);

}  // namespace gapsp::core
