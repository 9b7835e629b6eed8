// Shard-aware query routing: N QueryEngines (or worker processes), one per
// row-range shard of the kept store, behind the same batch surface as a
// single engine (DESIGN.md §15).
//
// Shards split rows (core/shard_store.h), so a point or row query belongs
// to exactly one shard: routing is one shard_of_row lookup on the query's
// *stored* row, sub-batches fan out to the owning backends concurrently,
// and the merged BatchReport has results back in input order with latency
// stats recomputed over the union and cache/service counters summed.
//
// Failure semantics extend PR 7's typed degradation across process
// boundaries: a backend that cannot be built (corrupt slice), dies
// mid-batch (killed worker, torn pipe), or times out yields kQuarantined
// results for exactly its queries — sibling shards are unaffected and the
// batch always completes. Router-level admission (max_queue) sheds overflow
// before routing, so process workers run with their own queues unbounded
// and shed counts stay deterministic in one place.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/shard_store.h"
#include "service/query_engine.h"
#include "service/shard_worker.h"

namespace gapsp::service {

/// One shard's serving backend. run_batch must never throw for data or
/// peer faults — a backend that cannot serve returns typed per-query
/// statuses (that is the router's whole contract).
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;
  virtual int shard() const = 0;
  virtual BatchReport run_batch(std::span<const Query> queries) = 0;
  /// False once the backend has permanently given up (spawn failed and
  /// retries exhausted). Purely informational; run_batch still answers.
  virtual bool alive() const { return true; }
};

/// In-process backend: a QueryEngine over one shard slice. Throws
/// IoError/CorruptError when the slice cannot be opened or verified.
std::unique_ptr<ShardBackend> make_local_backend(
    const std::string& store_path, const core::ShardManifest& manifest, int k,
    const QueryEngineOptions& opt);

/// Local backends for every shard. A shard whose slice fails to open or
/// verify becomes a permanently-degraded backend answering kQuarantined —
/// one corrupt shard file must not take down the other N−1 row ranges.
std::vector<std::unique_ptr<ShardBackend>> make_local_backends(
    const std::string& store_path, const core::ShardManifest& manifest,
    const QueryEngineOptions& opt);

// ---- multi-process mode ----

/// A spawned worker as the router sees it: pid + the two pipe ends.
struct WorkerProcess {
  pid_t pid = -1;
  int request_fd = -1;  ///< router writes kBatch/kShutdown frames here
  int reply_fd = -1;    ///< router reads kHello/kBatchReply frames here
};

/// Spawns the worker for a shard. Returns pid −1 on spawn failure (the
/// backend degrades; it never throws out of run_batch).
using WorkerSpawner = std::function<WorkerProcess(int shard)>;

/// fork()-only spawner: the child calls run_shard_worker directly and
/// _exits. No exec, so tests drive real process death without depending on
/// the CLI binary's location. Engines in the children run with
/// max_threads=1 (inline parallel_for — a forked child must not touch the
/// parent's thread-pool state).
WorkerSpawner make_fork_worker_spawner(std::string store_path,
                                       ShardWorkerOptions opt);

/// fork+exec spawner: execs `argv` (argv[0] is the executable; the rest is
/// the worker's whole command line, its shard included) with the wire
/// protocol on the child's stdin/stdout.
WorkerSpawner make_cli_worker_spawner(std::vector<std::string> argv);

struct ProcessBackendOptions {
  /// Resend attempts after a dead or timed-out worker (each preceded by a
  /// respawn when `respawn` is set). 0 = first failure degrades the batch.
  int retries = 1;
  bool respawn = true;
  int timeout_ms = 30000;        ///< per-reply wait
  int hello_timeout_ms = 10000;  ///< startup handshake wait
};

/// Process backend: owns the worker child, speaks wire.h, retries through
/// respawn, reaps on destruction. Validates the kHello handshake against
/// the manifest before the first batch.
std::unique_ptr<ShardBackend> make_process_backend(
    WorkerSpawner spawner, int shard, const core::ShardManifest& manifest,
    const ProcessBackendOptions& opt = {});

struct ShardRouterOptions {
  /// Router-level admission: at most this many queries per batch are
  /// routed, the rest shed with QueryStatus::kShed. 0 = no bound. Workers
  /// behind the router should run with max_queue=0 so shedding happens
  /// exactly once.
  std::size_t max_queue = 0;
};

class ShardRouter {
 public:
  /// `backends` must cover every manifest shard at most once; a shard with
  /// no backend degrades its queries to kQuarantined.
  ShardRouter(core::ShardManifest manifest,
              std::vector<std::unique_ptr<ShardBackend>> backends,
              ShardRouterOptions opt = {});
  ~ShardRouter();

  vidx_t n() const { return manifest_.n; }

  /// Same contract as QueryEngine::run_batch: results in input order, never
  /// throws for data/peer faults, sheds beyond max_queue.
  BatchReport run_batch(std::span<const Query> queries);

 private:
  core::ShardManifest manifest_;
  std::vector<std::unique_ptr<ShardBackend>> backends_;
  std::vector<int> backend_of_shard_;  ///< index into backends_, or -1
  ShardRouterOptions opt_;
  long long shed_total_ = 0;      ///< router-level, across batches
  long long degraded_total_ = 0;  ///< unrouteable queries, across batches
};

}  // namespace gapsp::service
