// Shared option/metric/result types of the public APSP API.
#pragma once

#include <string>
#include <vector>

#include "core/kernel_engine.h"
#include "core/transfer_codec.h"
#include "partition/kway.h"
#include "sim/device_spec.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "util/common.h"

namespace gapsp::core {

enum class Algorithm {
  kAuto,                  ///< density filter + cost models pick (Sec. IV)
  kBlockedFloydWarshall,  ///< out-of-core blocked FW (Sec. III-A)
  kJohnson,               ///< batched MSSP Johnson (Sec. III-B)
  kBoundary,              ///< out-of-core boundary algorithm (Sec. III-C)
};

const char* algorithm_name(Algorithm a);

/// SSSP kernel run inside the Johnson MSSP launch. The paper adopts
/// Near-Far (Sec. II-B) after arguing Dijkstra exposes too little
/// parallelism, Bellman-Ford does redundant work, and full delta-stepping
/// pays heavy bucket-management overhead; the alternatives are kept so the
/// argument is reproducible (bench_sssp_kernel_ablation).
enum class SsspKernel {
  kNearFar,
  kDeltaStepping,
  kBellmanFord,
};

const char* sssp_kernel_name(SsspKernel k);

struct ApspOptions {
  /// Simulated device. The default scales a V100 down (memory and SM count
  /// together, host link unchanged) so out-of-core behaviour is exercised at
  /// this machine's graph sizes.
  sim::DeviceSpec device = sim::DeviceSpec::v100_scaled();

  Algorithm algorithm = Algorithm::kAuto;
  std::uint64_t seed = 1;

  /// Optional timeline recorder attached to the simulated device (not
  /// owned); export with sim::TraceRecorder::write_chrome_trace.
  sim::TraceRecorder* trace = nullptr;

  // ---- blocked Floyd–Warshall ----
  /// Shared-memory sub-tile of the in-core blocked FW kernels.
  int fw_tile = 64;

  // ---- Johnson ----
  /// Per-instance SSSP kernel (paper: Near-Far).
  SsspKernel sssp_kernel = SsspKernel::kNearFar;
  /// The constant c of bat = (L - S)/(c·m): per-instance worklist storage in
  /// units of m edges.
  double johnson_queue_factor = 2.0;
  /// Near-Far bucket width; <= 0 derives it from the mean edge weight.
  dist_t delta = 0;
  /// Dynamic parallelism: vertices with out-degree >= threshold have their
  /// edge lists traversed by child kernels. <= 0 disables.
  bool dynamic_parallelism = true;
  int heavy_degree_threshold = 16;

  // ---- boundary algorithm ----
  /// Number of components k; 0 selects the paper's experimental default
  /// √n / 4 (Sec. V-F).
  int num_components = 0;
  /// Partitioning strategy (direct k-way vs recursive bisection).
  part::Method partition_method = part::Method::kMultilevelKway;
  /// Transfer batching (accumulate N_row block-rows per D2H transfer).
  bool batch_transfers = true;

  // ---- storage sink ----
  /// Effective bytes per element the output stream moves: sizeof(dist_t)
  /// for a raw store, sizeof(dist_t)/R once a block-compressed sink at
  /// measured ratio R absorbs the stream. Scales the n² output term of the
  /// Sec. IV-B transfer models so the selector sees the cheaper I/O.
  double store_bytes_per_element = sizeof(dist_t);

  // ---- all algorithms ----
  /// Double-buffered compute/transfer overlap on extra streams through
  /// pinned staging (sim::StreamPipeline). Applies to all three algorithms:
  /// blocked FW prefetches the next row/remainder tiles while the current
  /// min-plus kernel runs, Johnson drains each batch's rows while the next
  /// batch's SSSP kernel executes, and the boundary algorithm ping-pongs its
  /// staging buffers. Costs extra device memory for the second buffer of
  /// each pair (FW blocks shrink, Johnson's bat shrinks accordingly).
  bool overlap_transfers = true;

  /// Compressed host↔device transfer path (DESIGN.md §14): staged tiles are
  /// z1-encoded into the pinned lanes and materialized by a modeled
  /// on-device decode at DeviceSpec::decode_gbps, with per-tile raw
  /// fallback. kAuto engages when the device's decode rate beats its host
  /// link. Results are bit-identical in every mode.
  TransferCompression transfer_compression = TransferCompression::kAuto;

  // ---- kernel engine (DESIGN.md §9) ----
  /// Min-plus microkernel variant run inside the simulated kernels. kAuto
  /// micro-benchmarks the candidates once per process and caches the winner.
  /// Every variant produces bit-identical distances; the choice affects host
  /// wall-clock only, never the simulated timeline.
  KernelVariant kernel_variant = KernelVariant::kAuto;
  /// Host threads executing the blocks of a grid launch (Device::
  /// launch_grid) and the transfer codec's slice frames: 0 = the whole
  /// global pool, 1 = serial. Purely a wall-clock knob; results and the
  /// simulated timeline are identical for every setting.
  int kernel_threads = 0;

  // ---- fault injection & recovery ----
  /// Fault schedule injected into the simulated device(s); nullptr disables
  /// injection entirely (not owned). Multi-device runs derive one injector
  /// per device from this plan (seed decorrelated by device index).
  const sim::FaultPlan* faults = nullptr;
  /// Pre-built injector to attach instead of materializing one from
  /// `faults` (not owned). Used internally so scripted faults stay consumed
  /// across degrade-and-retry attempts; most callers leave it null.
  sim::FaultInjector* fault_injector = nullptr;
  /// Bounded retry-with-backoff applied to transient faults on-device.
  sim::RetryPolicy retry;
  /// How many times solve_apsp may degrade the plan (disable overlap, then
  /// shrink device memory) and re-run after a device OOM / alloc fault.
  int max_degradations = 2;
  /// Sidecar path for round-level checkpoints (empty disables). The file is
  /// written atomically after each FW k-round / Johnson batch / boundary
  /// step and removed once apsp() completes.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path` when it holds a compatible checkpoint
  /// (same graph fingerprint, algorithm, and blocking); otherwise start
  /// fresh. The resumed run produces bit-identical distances.
  bool resume = false;
};

struct ApspMetrics {
  double sim_seconds = 0.0;       ///< simulated end-to-end device makespan
  double wall_seconds = 0.0;      ///< host wall-clock of the functional run
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  /// Overlap efficiency: transfer seconds hidden under concurrent kernel
  /// execution vs exposed on the critical path (hidden + exposed equals
  /// transfer_seconds).
  double hidden_transfer_seconds = 0.0;
  double exposed_transfer_seconds = 0.0;
  std::size_t bytes_h2d = 0;
  std::size_t bytes_d2h = 0;
  long long transfers_h2d = 0;
  long long transfers_d2h = 0;
  /// Compressed transfer path, per lane: logical payload bytes routed
  /// through the TransferCodec (raw) vs bytes charged on the link (wire);
  /// raw-fallback tiles count equally on both sides, so raw/wire is the
  /// honest end-to-end wire ratio. All zero when the path is off.
  std::size_t bytes_h2d_raw = 0;
  std::size_t bytes_h2d_wire = 0;
  std::size_t bytes_d2h_raw = 0;
  std::size_t bytes_d2h_wire = 0;
  double decode_seconds = 0.0;  ///< modeled on-device z1 decode/encode busy
  long long decodes = 0;
  long long kernels = 0;
  long long child_kernels = 0;
  double total_ops = 0.0;
  std::size_t device_peak_bytes = 0;
  /// High-water mark of pinned-host staging used by the transfer pipeline.
  std::size_t pinned_peak_bytes = 0;

  /// Microkernel variant the kernel engine actually ran with ("naive" |
  /// "tiled" | "tiled-reg"; the autotuner's pick when configured auto).
  std::string kernel_variant;

  // Algorithm-specific (0 when not applicable).
  int fw_num_blocks = 0;        ///< n_d
  int johnson_batch_size = 0;   ///< bat
  int johnson_num_batches = 0;  ///< n_b
  int boundary_k = 0;           ///< components
  vidx_t boundary_nodes = 0;    ///< NB

  // Fault injection / recovery (0 when no faults fired).
  long long faults_injected = 0;
  long long transfer_retries = 0;
  long long kernel_retries = 0;
  long long decode_retries = 0;
  double retry_backoff_seconds = 0.0;
  /// Times solve_apsp degraded the plan (disabled overlap / shrank memory)
  /// after a device OOM and re-ran.
  int degradations = 0;
  long long checkpoints_written = 0;
  /// Progress units (FW rounds / Johnson batches / boundary steps) skipped
  /// because a checkpoint restored them.
  long long resumed_progress = 0;

  // Store compression (0 when no sink ran). Filled by the --keep-store
  // compaction / `apsp_cli compact` sink, not by the solve loop — blocked
  // FW rewrites every tile O(n_d) times, so compression happens only where
  // bytes leave the hot loop for good (DESIGN.md §11).
  std::size_t store_raw_bytes = 0;
  std::size_t store_compressed_bytes = 0;
  long long store_tiles = 0;
  long long store_inf_tiles = 0;  ///< all-kInf tiles kept as directory entries
  double store_compact_seconds = 0.0;
};

/// Result handle. Distances live in the DistStore the caller supplied; when
/// `perm` is non-empty the store is in the permuted vertex order (boundary
/// algorithm) and perm[old_id] = stored_id.
struct ApspResult {
  Algorithm used = Algorithm::kAuto;
  ApspMetrics metrics;
  std::vector<vidx_t> perm;

  /// Maps an original vertex id to its row/column in the store.
  vidx_t stored_id(vidx_t v) const {
    return perm.empty() ? v : perm[static_cast<std::size_t>(v)];
  }
};

}  // namespace gapsp::core
