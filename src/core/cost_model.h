// The detailed cost models of Sec. IV-B: data-transfer equations per
// algorithm plus compute estimators — scaling laws calibrated from small
// runs for Floyd–Warshall and the boundary algorithm, and batch sampling for
// Johnson's algorithm.
#pragma once

#include <algorithm>

#include "core/apsp_options.h"
#include "core/ooc_boundary.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

// ---- Transfer models (Sec. IV-B1) ----
//
// Each model takes `out_bytes_per_element`, the effective per-element cost
// of the n² output stream (ApspOptions::store_bytes_per_element): a
// block-compressed sink at ratio R shrinks it to sizeof(dist_t)/R. Working
// tiles that bounce to the device and back (FW's 3b² term) stay at the raw
// element size — only the stream that lands in the store compresses.
//
// `wire_ratio` extends the equations to the compressed transfer path
// (DESIGN.md §14): every byte volume is charged at the effective link
// bandwidth of a tile that shrinks `wire_ratio`× on the wire and pays the
// on-device decode. 1.0 (the default) is the legacy raw link.

/// Effective host-link bandwidth of the compressed transfer path: a raw
/// byte costs 1/(R·TH) on the wire plus 1/decode_rate in the modeled decode
/// kernel, so TH_eff = 1 / (1/(R·TH) + 1/decode). Degenerates to the raw
/// link when the ratio is ≤ 1 or the device has no decode rate.
double compressed_link_bandwidth(const sim::DeviceSpec& spec,
                                 double wire_ratio);

/// Expected wire ratio (raw/wire) of `g`'s weight tiles through the
/// TransferCodec under `opts`: z1-compresses sampled weight blocks and
/// applies the codec's own per-tile fallback threshold. Returns 1.0 when
/// the codec would not engage (mode off, or auto on a device whose decode
/// cannot beat the link).
double estimate_transfer_ratio(const graph::CsrGraph& g,
                               const ApspOptions& opts);

/// Floyd–Warshall: T = n_d · (W·3b² + w·n²) / TH. With `overlap` the block
/// size comes from the five-resident-block pipelined schedule (smaller b,
/// larger n_d — the volume cost of double buffering).
double fw_transfer_model(vidx_t n, const sim::DeviceSpec& spec,
                         bool overlap = false,
                         double out_bytes_per_element = sizeof(dist_t),
                         double wire_ratio = 1.0);

/// Johnson: T = w · n² / TH.
double johnson_transfer_model(vidx_t n, const sim::DeviceSpec& spec,
                              double out_bytes_per_element = sizeof(dist_t),
                              double wire_ratio = 1.0);

/// Boundary: (k / N_row) transfers of S_rem bytes each.
double boundary_transfer_model(const BoundaryPlan& plan, vidx_t n,
                               const sim::DeviceSpec& spec,
                               double out_bytes_per_element = sizeof(dist_t),
                               double wire_ratio = 1.0);

// ---- Compute models (Sec. IV-B2) ----

/// Calibration data for the scaling-law models, obtained by running small
/// training graphs through the simulator once per device configuration.
struct Calibration {
  // Blocked FW: measured compute time fw_t0 on a graph with fw_n0 vertices;
  // estimate T = fw_t0 · (n/fw_n0)^fw_exponent. The paper uses the
  // asymptotic exponent 3; at this reproduction's scaled sizes launch
  // overhead and occupancy make the measured exponent smaller, so it is
  // fitted from two calibration runs (see EXPERIMENTS.md).
  double fw_t0 = 0.0;
  vidx_t fw_n0 = 0;
  double fw_exponent = 3.0;
  // Boundary on a small-separator graph: T = bnd_t0 · (n/bnd_n0)^e, paper
  // exponent 3/2, fitted the same way.
  double bnd_t0 = 0.0;
  vidx_t bnd_n0 = 0;
  double bnd_exponent = 1.5;
  // Large-separator boundary: cost per operation c_unit, bucketed by
  // NB ∈ [n^(3/4)·2^r, n^(3/4)·2^(r+1)). Missing buckets borrow the nearest
  // trained value.
  std::vector<double> c_unit;
};

/// Runs the calibration workloads (cached per calibration_cache_key, so the
/// cost is paid once per process per configuration). The probes are FW and
/// boundary runs on charge-only devices (ApspOptions::charge_only), on
/// options built from the key's fields alone: graph generation and
/// partitioning, but no kernel, copy or codec work.
const Calibration& calibrate(const ApspOptions& opts);

/// The in-process cache key for `opts`: the options the probe runs read
/// (device, overlap, transfer batching, FW sub-tile) and nothing else. Also
/// the key a persisted table is matched against.
std::string calibration_cache_key(const ApspOptions& opts);

/// Serializes the cached calibration for `opts` to `path` (a "GAPSCAL1"
/// sidecar, landed by util::atomic_replace). Returns false without touching
/// the file when calibrate() has not run for this configuration yet. The
/// CLI drops one next to a kept store so a serving process skips the
/// warm-up solves.
bool save_calibration(const ApspOptions& opts, const std::string& path);

/// Seeds the in-process cache from `path`. Returns false (cache untouched)
/// when the file is missing, corrupt, or keyed for a different
/// configuration; true means the next calibrate() is a cache hit. Throws
/// IoError when the file exists but cannot be read.
bool load_calibration(const ApspOptions& opts, const std::string& path);

/// True when the file at `path` starts with the "GAPSCAL1" magic that
/// save_calibration writes (the file may still be keyed for another
/// configuration, or fail its checksum on load). Throws IoError when the
/// file exists but cannot be read.
bool is_calibration_sidecar(const std::string& path);

/// Drops every cached calibration (test hook for the persistence path).
void clear_calibration_cache();

/// Number of full calibration probe runs this process has executed; tests
/// assert a load_calibration() really skips the probes.
long long calibration_runs();

/// Operation count of the boundary algorithm on a large-separator graph:
/// N_op = n³/k² + (kB)³ + nkB² + n²B, B = average boundary nodes/component.
double boundary_nop(vidx_t n, int k, double avg_boundary);

/// c_unit bucket index for a boundary count NB on an n-vertex graph.
int boundary_bucket(vidx_t n, vidx_t nb, int num_buckets);

struct CostBreakdown {
  double compute_s = 0.0;
  double transfer_s = 0.0;
  bool feasible = true;
  /// True when the estimate assumes compute/transfer overlap
  /// (opts.overlap_transfers): the pipeline hides the shorter leg, so the
  /// total is the longer one instead of the sum.
  bool overlapped = false;
  double total() const {
    return overlapped ? std::max(compute_s, transfer_s)
                      : compute_s + transfer_s;
  }
};

/// FW estimate: calibrated cubic scaling + transfer model.
CostBreakdown estimate_fw(const graph::CsrGraph& g, const ApspOptions& opts);

/// Number of Johnson batches ⌈n / bat⌉, computed in 64-bit so large n with
/// a small batch size cannot overflow 32-bit arithmetic.
std::int64_t johnson_num_batches(vidx_t n, int bat);

/// Johnson estimate: run `sample_batches` random batches (paper uses 5) and
/// scale by n_b / sampled; plus the transfer model. Infeasible (infinite
/// cost) when not even one SSSP instance fits the device.
CostBreakdown estimate_johnson(const graph::CsrGraph& g,
                               const ApspOptions& opts,
                               int sample_batches = 5);

/// Boundary estimate: n^(3/2) scaling when the partition shows a small
/// separator, N_op · c_unit otherwise; infeasible when no k fits.
CostBreakdown estimate_boundary(const graph::CsrGraph& g,
                                const ApspOptions& opts);

// ---- Incremental repair (core/incremental.h, DESIGN.md §16) ----

/// Cost-model charge of one delta repair, split by phase. Transfer covers
/// the seed row/column panels, the recomputed damaged rows, and a read +
/// write of every touched tile over the (optionally compressed, see
/// compressed_link_bandwidth) host link; compute covers the SSSP row
/// repairs, the k×k seed closure, the two panel products, and the
/// dirty-tile min-plus relaxations.
struct IncrementalCost {
  double sssp_s = 0.0;     ///< damaged-row SSSP repairs
  double closure_s = 0.0;  ///< k×k Floyd–Warshall on the seed matrix
  double panel_s = 0.0;    ///< L = Cc ⊗ M* and R' = M* ⊗ R products
  double tile_s = 0.0;     ///< min-plus over the touched tiles
  double transfer_s = 0.0;
  double total() const {
    return sssp_s + closure_s + panel_s + tile_s + transfer_s;
  }
};

/// Models a repair with `sources` decrease seeds, `damaged_rows` SSSP row
/// recomputes and `tiles_touched` rewritten tiles of side `tile` on an
/// n-vertex, m-arc graph. `wire_ratio` charges tile traffic at the
/// compressed transfer path's effective bandwidth (1.0 = raw link).
IncrementalCost estimate_incremental(vidx_t n, eidx_t m, std::size_t sources,
                                     std::size_t damaged_rows,
                                     std::size_t tiles_touched, vidx_t tile,
                                     const sim::DeviceSpec& spec,
                                     double wire_ratio = 1.0);

/// The comparison baseline of the delta path: a modeled full blocked-FW
/// re-solve (2n³ min-plus ops at peak throughput plus the Sec. IV-B1
/// transfer model) on the same device.
double incremental_full_solve_model(vidx_t n, const sim::DeviceSpec& spec,
                                    double wire_ratio = 1.0);

}  // namespace gapsp::core
