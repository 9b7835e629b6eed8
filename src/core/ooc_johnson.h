// Out-of-core Johnson's algorithm (Algorithm 2 of the paper).
//
// APSP as n SSSP instances, executed in batches of `bat` concurrent Near-Far
// instances inside one MSSP kernel — one instance per simulated thread
// block. bat = (L - S)/(c·m) where L is device memory, S the resident CSR
// graph, and c·m the per-instance worklist storage. When bat drops below the
// device's active-block capacity, the launch is under-occupied; the dynamic-
// parallelism optimization moves the edge lists of high-out-degree vertices
// into child kernels that run at full occupancy (Sec. III-B).
//
// Weights in this project are non-negative, so the classic reweighting
// (Bellman-Ford) phase of Johnson's algorithm is unnecessary, exactly as in
// the paper's setting.
#pragma once

#include "core/apsp_common.h"

namespace gapsp::core {

/// The batch size bat for a given device/graph (Sec. III-B formula).
/// `row_buffers` is the number of resident dist-row blocks: 2 when the batch
/// result D2H is double-buffered against the next batch's MSSP kernel
/// (overlap_transfers), 1 otherwise. Throws gapsp::Error when even one
/// instance does not fit.
int johnson_batch_size(const sim::DeviceSpec& spec, const graph::CsrGraph& g,
                       double queue_factor, int row_buffers = 1);

/// Runs Algorithm 2, writing finished rows into `store` batch by batch
/// (original vertex order).
ApspResult ooc_johnson(const graph::CsrGraph& g, const ApspOptions& opts,
                       DistStore& store);

/// Outcome of sampling a few batches (Sec. IV-B2 cost model).
struct JohnsonSample {
  double kernel_seconds = 0.0;  ///< summed simulated MSSP kernel time
  int bat = 0;
  int num_batches = 0;
  int sampled = 0;
};

/// Runs only the batches whose indices are listed in `batches` — the
/// sampling primitive of the Sec. IV-B2 cost model ("randomly choose k
/// batches to run"). Only the MSSP kernels run: the sampled rows are never
/// staged out, and the cost model prices the result transfer by formula.
JohnsonSample johnson_sample_batches(const graph::CsrGraph& g,
                                     const ApspOptions& opts,
                                     std::span<const int> batches);

}  // namespace gapsp::core
