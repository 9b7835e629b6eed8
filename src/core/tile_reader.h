// Fault-tolerant tile reads over a DistStore.
//
// The serving tier's single chokepoint for pulling bytes off disk. One
// CheckedTileReader wraps one store and runs the full DESIGN.md §13 read
// ladder per tile:
//
//   1. optional injected fault (sim::FaultInjector, op class kStoreRead) —
//      chaos sweeps exercise this path deterministically;
//   2. the actual DistStore::read_block;
//   3. optional checksum verification against the GAPSPSM1 sidecar
//      (store_integrity.h) — raw stores only; the compressed store verifies
//      its own frame checksums during decode.
//
// read_tile may run concurrently. Store reads are safe to overlap
// (dist_store.h), so a clean miss runs read → decode → verify with no lock;
// the only lock covers the fault injector's gate, and is taken only when an
// injector is attached.
//
// Transient failures (IoError, transient FaultError) are retried under a
// util::RetryPolicy with real exponential-backoff sleeps; exhausting the
// budget raises TileError(kTransient). Persistent damage (CorruptError,
// sidecar mismatch, non-transient FaultError) raises TileError(kCorrupt)
// immediately — retrying a checksum mismatch cannot help. The query
// engine's miss loader (service::QueryEngine::fetch) reads every served
// tile through here, and its BlockCache turns those into quarantine marks.
#pragma once

#include <atomic>
#include <mutex>

#include "core/store_integrity.h"
#include "core/tile_error.h"
#include "util/retry.h"

namespace gapsp::sim {
class FaultInjector;
}  // namespace gapsp::sim

namespace gapsp::core {

struct TileReaderOptions {
  util::RetryPolicy retry;
  /// Verify raw-store tiles against the sidecar when one is loaded. Off =
  /// trust the disk (the pre-fault-tolerance behaviour).
  bool verify_checksums = true;
  /// Optional chaos hook; fires before every physical read attempt.
  sim::FaultInjector* faults = nullptr;
};

/// A snapshot of the reader's counters.
struct TileReaderStats {
  long long reads = 0;       ///< successful tile reads
  long long retries = 0;     ///< physical re-reads after a transient failure
  long long transient_failures = 0;  ///< reads that exhausted the retry budget
  long long corrupt_tiles = 0;       ///< reads that hit persistent damage
};

class CheckedTileReader {
 public:
  /// `sums` may be absent (default StoreChecksums) — verification is then a
  /// no-op regardless of opt.verify_checksums. When present its tile grid
  /// must match the grid the caller reads on (the query engine snaps its
  /// block size to sums.tile for exactly this reason); rectangles that are
  /// not full sidecar tiles are read unverified.
  CheckedTileReader(const DistStore& store, StoreChecksums sums,
                    TileReaderOptions opt);

  /// Reads the rows×cols rectangle at (row0, col0) into dst (row-major,
  /// leading dimension cols), retrying/verifying per the options.
  /// (row_block, col_block) is the caller's grid coordinate for the tile; it
  /// is carried verbatim on any TileError so the caller can map the failure
  /// back to its own cache key.
  void read_tile(vidx_t row_block, vidx_t col_block, vidx_t row0, vidx_t col0,
                 vidx_t rows, vidx_t cols, dist_t* dst);

  const StoreChecksums& checksums() const { return sums_; }
  bool verifying() const;
  TileReaderStats stats() const;

 private:
  const DistStore& store_;
  StoreChecksums sums_;
  TileReaderOptions opt_;
  std::mutex faults_mu_;  ///< guards opt_.faults, which is not thread-safe
  std::atomic<long long> reads_{0};
  std::atomic<long long> retries_{0};
  std::atomic<long long> transient_failures_{0};
  std::atomic<long long> corrupt_tiles_{0};
};

}  // namespace gapsp::core
