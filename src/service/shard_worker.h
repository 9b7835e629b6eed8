// One shard's serving loop: a QueryEngine over a shard slice behind the
// wire protocol (wire.h). The router (shard_router.h) runs one worker per
// shard — in-process for tests, or as a child process spawned by
// the `apsp_cli serve` command — so a crash, a corrupt slice, or a kill -9
// takes down one row range's worker, not the batch.
#pragma once

#include <string>

#include "service/query_engine.h"

namespace gapsp::service {

struct ShardWorkerOptions {
  QueryEngineOptions engine;
  /// Checksum the shard file against the manifest before serving.
  bool verify_shard = true;
  /// Chaos hook: _exit(9) while handling the Nth kBatch frame, before the
  /// reply is written — a deterministic mid-batch worker death for the
  /// degradation tests and the CI kill-one-worker sweep. 0 = never.
  int exit_after = 0;
};

/// Serves shard `shard` of the sharded store at `store_path` over
/// [in_fd → requests, out_fd → replies] until kShutdown or EOF. Sends the
/// kHello handshake first, then answers kBatch frames; queries whose row
/// lies outside the shard's range come back QueryStatus::kError (a routing
/// bug is typed, never silently kInf — the slice store would also throw,
/// but pre-filtering keeps it from being miscounted as a data fault).
/// Returns the process exit code: 0 on clean shutdown, nonzero when the
/// setup (manifest, slice, verify) or the pipe failed, with the reason on
/// stderr. Never throws.
int run_shard_worker(const std::string& store_path, int shard,
                     const ShardWorkerOptions& opt, int in_fd, int out_fd);

}  // namespace gapsp::service
