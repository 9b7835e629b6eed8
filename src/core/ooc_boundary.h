// Out-of-core boundary algorithm (Algorithm 3 of the paper, after Djidjev
// et al.), with the paper's two optimizations:
//
//  * transfer batching — finished block-rows of the output are accumulated
//    in a device staging buffer of size S_rem = L - S_dia - S_bound and
//    shipped to the host in few large transfers instead of k² small ones;
//  * compute/transfer overlap — two staging buffers and two streams, so the
//    min-plus kernels of the next block-rows run while the previous batch is
//    in flight to pinned host memory.
//
// Steps: (1) k-way partition (our multilevel partitioner standing in for
// METIS) and boundary-first renumbering; (2) per-component blocked FW on the
// device (dist2); (3) boundary-graph FW over virtual + cross edges (dist3);
// (4) A(i,j) = min(direct, C2B[i] ⊗ bound(i,j) ⊗ B2C[j]) streamed to the
// host, where each finished row lands in the store at its original row and
// columns (land_rows): the renumbering is the device's working layout, and
// the kept store is in original vertex order like every other solver's.
//
// The step code that does not depend on how many devices run it lives here
// once, in BoundarySteps: the Step-3 input matrix, Step 4's two halves and
// the device buffers they use. ooc_boundary drives it on one device with
// pipelined Step-2 transfers, checkpoints and the batching-off baseline;
// ooc_boundary_multi (multi_device.h) drives it on several.
#pragma once

#include <vector>

#include "core/apsp_common.h"
#include "partition/boundary.h"

namespace gapsp::core {

/// Where each component's B2C block (the first b_j rows of dist2[j]) sits
/// in the device buffer that holds every component's.
struct B2cLayout {
  std::vector<std::size_t> offset;  ///< per component, in elements
  std::size_t elems = 0;            ///< all components together
  std::size_t bmax = 0;             ///< widest component boundary
};

/// Placement decisions and memory accounting for one run. Exposed for the
/// Sec. IV cost models and the benches.
struct BoundaryPlan {
  part::BoundaryLayout layout;
  int k = 0;                ///< components actually used (may be < requested)
  vidx_t max_comp = 0;      ///< N_max
  vidx_t nb = 0;            ///< total boundary vertices NB
  B2cLayout b2c;
  vidx_t staging_rows = 0;  ///< output rows per staging buffer
  /// Step 2 double-buffers the component block. False when overlap is off
  /// or when memory is too tight for the second block at this k (the plan
  /// then degrades to a single buffer rather than halving k further).
  bool pipeline_comp = false;
};

/// Partitions and sizes the run. Starts from opts.num_components (0 → the
/// paper's √n/4 default) and halves k until the working set fits the
/// device; throws gapsp::Error if no k >= 2 fits.
BoundaryPlan plan_boundary(const graph::CsrGraph& g, const ApspOptions& opts);

/// Device buffers of Steps 3 and 4 on one device.
struct BoundaryBuffers {
  sim::DeviceBuffer<dist_t> bound;  ///< NB × NB boundary matrix (dist3)
  sim::DeviceBuffer<dist_t> c2b;    ///< C2B[i], N_max × b_max
  sim::DeviceBuffer<dist_t> b2c;    ///< B2C of every component
  sim::DeviceBuffer<dist_t> tmp;    ///< C2B[i] ⊗ bound(i, :), N_max × NB
};

/// Algorithm 3's step code on the host state of one run, for whichever
/// device and stream the driver passes.
struct BoundarySteps {
  BoundarySteps(const graph::CsrGraph& g, const BoundaryPlan& plan,
                int fw_tile);

  /// Allocates the boundary matrix, C2B, B2C and tmp, in that order.
  BoundaryBuffers alloc_buffers(sim::Device& dev) const;

  /// Step 3's input: NB × NB, 0 on the diagonal, dist2's boundary blocks
  /// and the cross edges (each must join two boundary vertices).
  std::vector<dist_t> boundary_graph() const;

  /// Step 4a for component i: packs and uploads C2B[i] (its first b_i
  /// columns of dist2), then tmp = C2B[i] ⊗ bound(i, :). Nothing when
  /// b_i = 0.
  void c2b_times_bound(sim::Device& dev, sim::StreamId s,
                       BoundaryBuffers& buf, int i);

  /// Step 4b for component i: fills its block-row at `row_base` (leading
  /// dimension n) with kInf and dist2[i] on the diagonal, charges the
  /// dist2 upload, then A(i,j) = min(A(i,j), tmp(:, bnd_j) ⊗ B2C[j]) for
  /// every j in one launch.
  void block_row(sim::Device& dev, sim::StreamId s, BoundaryBuffers& buf,
                 int i, dist_t* row_base);

  const BoundaryPlan& plan;
  const int fw_tile;
  /// The graph in the boundary-first renumbering (Fig. 1a).
  const graph::CsrGraph gp;
  /// Step 2's output: component i's n_i × n_i APSP block.
  std::vector<std::vector<dist_t>> dist2;
  /// Host packing buffer for one N_max × N_max block.
  std::vector<dist_t> hbuf;
};

/// Runs Algorithm 3 with a precomputed plan.
ApspResult ooc_boundary(const graph::CsrGraph& g, const ApspOptions& opts,
                        const BoundaryPlan& plan, DistStore& store);

/// Plans and runs.
ApspResult ooc_boundary(const graph::CsrGraph& g, const ApspOptions& opts,
                        DistStore& store);

}  // namespace gapsp::core
