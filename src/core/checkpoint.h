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
#include <initializer_list>
#include <string>
#include <vector>

#include "core/apsp_options.h"
#include "graph/csr_graph.h"

namespace gapsp::core {

class DistStore;

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

/// The round-checkpoint protocol of one out-of-core run; the drivers keep
/// only their progress points. The sidecar at opts.checkpoint_path (none
/// when empty) is keyed by the algorithm and fnv1a over the int64 shape
/// {n, aux0, aux1, extra...} seeded with graph_fingerprint(g): FW
/// {n, b, n_d}, Johnson {n, bat, n_b}, boundary {n, k, NB, N_max, seed}.
class CheckpointRun {
 public:
  /// Under opts.resume, loads the sidecar if it matches on the algorithm,
  /// fingerprint, n, aux0 and aux1. `store` is the run's output, flushed
  /// before every sidecar write.
  CheckpointRun(const ApspOptions& opts, Algorithm algorithm,
                const graph::CsrGraph& g, DistStore& store, std::int64_t aux0,
                std::int64_t aux1,
                std::initializer_list<std::int64_t> extra = {});

  bool enabled() const { return !path_.empty(); }
  /// The loaded progress clamped to [0, max_progress]; 0 when none loaded.
  std::int64_t resumed(std::int64_t max_progress) const;
  const std::vector<std::uint8_t>& payload() const { return loaded_.payload; }

  /// Records `progress` completed units (a no-op without a sidecar): flushes
  /// the store, its durability boundary, then writes the sidecar.
  void save(std::int64_t progress, std::vector<std::uint8_t> payload = {});
  /// Removes the sidecar of a finished run.
  void finish() const;
  long long written() const { return written_; }

 private:
  std::string path_;
  DistStore* store_;
  Checkpoint key_;     ///< algorithm, fingerprint, n, aux0 and aux1
  Checkpoint loaded_;  ///< the matching sidecar, if one was loaded
  bool have_loaded_ = false;
  long long written_ = 0;
};

}  // namespace gapsp::core
