// Round-level checkpoint sidecar ("GAPSPCK1") for the out-of-core drivers.
//
// The distance store itself is the durable state — all three algorithms
// mutate it monotonically (min-plus relaxations only ever lower entries, and
// Johnson/boundary writes fully overwrite their rows) — so a checkpoint only
// needs to record *how far* a run got plus, for the boundary algorithm, the
// small host-side intermediates (dist2/dist3) that are not in the store yet.
// On resume the driver re-runs from the last completed round/batch/step; the
// re-executed unit is idempotent over the partially-updated store, so the
// final matrix is bit-identical to an uninterrupted run. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/apsp_options.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

struct Checkpoint {
  /// Which algorithm wrote this checkpoint (core::Algorithm).
  std::uint32_t algorithm = 0;
  /// Fingerprint of the input graph plus the structural parameters of the
  /// run (blocking, batch size, component count). A resume with any
  /// mismatch starts fresh — the store contents would not line up.
  std::uint64_t fingerprint = 0;
  std::int64_t n = 0;
  /// Completed progress units: FW k-rounds, Johnson batches, or the last
  /// finished boundary step (2 or 3).
  std::int64_t progress = 0;
  /// Algorithm-specific shape: FW (b, n_d), Johnson (bat, n_b), boundary
  /// (k, NB).
  std::int64_t aux0 = 0;
  std::int64_t aux1 = 0;
  /// Host-side intermediates not yet reflected in the store (boundary
  /// dist2 blobs after step 2, plus dist3 after step 3). Empty elsewhere.
  /// Always uncompressed here: the sidecar stores it as a z1 frame
  /// (compressed_store.h) when that is smaller, transparently to callers.
  std::vector<std::uint8_t> payload;
};

/// Fingerprint of the CSR arrays (offsets, targets, weights) and n/m.
std::uint64_t graph_fingerprint(const graph::CsrGraph& g);

/// Writes `ck` to `path` with a trailing content checksum, landed by
/// util::atomic_replace. Throws IoError when the filesystem misbehaves.
void write_checkpoint(const std::string& path, const Checkpoint& ck);

/// Loads the checkpoint at `path`. Returns false (and leaves *ck untouched)
/// when the file is missing, truncated, corrupt, or not a GAPSPCK1 sidecar —
/// resume then simply starts fresh.
bool read_checkpoint(const std::string& path, Checkpoint* ck);

/// Removes the sidecar (missing file is not an error).
void remove_checkpoint(const std::string& path);

}  // namespace gapsp::core
