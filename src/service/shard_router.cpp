#include "service/shard_router.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/wire.h"
#include "util/timer.h"

namespace gapsp::service {
namespace {

QueryResult typed_result(const Query& q, QueryStatus status,
                         std::string error) {
  QueryResult r;
  r.query = q;
  r.status = status;
  r.error = std::move(error);
  return r;
}

/// In-process backend: a QueryEngine over one shard slice.
class LocalShardBackend final : public ShardBackend {
 public:
  LocalShardBackend(const std::string& store_path,
                    const core::ShardManifest& manifest, int k,
                    const QueryEngineOptions& opt, std::vector<vidx_t> perm)
      : shard_(k),
        slice_(core::open_shard_slice(store_path, manifest, k)),
        engine_(*slice_, opt, std::move(perm)) {}

  int shard() const override { return shard_; }

  BatchReport run_batch(std::span<const Query> queries) override {
    try {
      return engine_.run_batch(queries);
    } catch (const std::exception& e) {
      // The engine only throws for caller bugs (e.g. a vertex out of
      // range that slipped past router validation); keep the backend
      // contract anyway — typed results, never an escaping exception.
      BatchReport report;
      for (const Query& q : queries) {
        report.results.push_back(
            typed_result(q, QueryStatus::kError, e.what()));
      }
      return report;
    }
  }

 private:
  int shard_;
  std::unique_ptr<core::DistStore> slice_;
  QueryEngine engine_;
};

/// Stand-in for a shard whose backend could not be built (corrupt slice,
/// failed spawn): every query degrades to kQuarantined, counters keep the
/// degradation visible in the merged service line.
class FailedShardBackend final : public ShardBackend {
 public:
  FailedShardBackend(int k, std::string reason)
      : shard_(k), reason_(std::move(reason)) {}

  int shard() const override { return shard_; }
  bool alive() const override { return false; }

  BatchReport run_batch(std::span<const Query> queries) override {
    BatchReport report;
    for (const Query& q : queries) {
      report.results.push_back(typed_result(
          q, QueryStatus::kQuarantined,
          "shard " + std::to_string(shard_) + " unavailable: " + reason_));
    }
    degraded_ += static_cast<long long>(queries.size());
    report.service.degraded = degraded_;
    return report;
  }

 private:
  int shard_;
  std::string reason_;
  long long degraded_ = 0;
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Worker child behind the wire protocol, with respawn-retry. All peer
/// failures (spawn, handshake, torn pipe, timeout) funnel into the typed
/// degraded report; nothing escapes run_batch.
class ProcessShardBackend final : public ShardBackend {
 public:
  ProcessShardBackend(WorkerSpawner spawner, int shard,
                      const core::ShardManifest& manifest,
                      const ProcessBackendOptions& opt)
      : spawner_(std::move(spawner)),
        shard_(shard),
        n_(manifest.n),
        range_(manifest.shards[static_cast<std::size_t>(shard)]),
        opt_(opt) {
    try {
      ensure_worker();
    } catch (const std::exception& e) {
      reap();
      last_error_ = e.what();
    }
  }

  ~ProcessShardBackend() override { shutdown(); }

  int shard() const override { return shard_; }
  bool alive() const override { return proc_.pid > 0; }

  BatchReport run_batch(std::span<const Query> queries) override {
    const std::vector<std::uint8_t> payload = encode_batch(queries);
    for (int attempt = 0; attempt <= opt_.retries; ++attempt) {
      try {
        ensure_worker();
        write_frame(proc_.request_fd, WireType::kBatch, payload);
        WireFrame frame;
        if (!read_frame(proc_.reply_fd, frame, opt_.timeout_ms)) {
          throw IoError("worker closed the pipe mid-batch");
        }
        if (frame.type != WireType::kBatchReply) {
          throw IoError("unexpected frame type from worker");
        }
        WireBatchReply reply = decode_batch_reply(frame.payload);
        if (reply.results.size() != queries.size()) {
          throw IoError("worker answered " +
                        std::to_string(reply.results.size()) + " of " +
                        std::to_string(queries.size()) + " queries");
        }
        BatchReport report;
        report.results = std::move(reply.results);
        report.service = reply.service;
        report.cache = reply.cache;
        report.wall_seconds = reply.wall_seconds;
        return report;
      } catch (const std::exception& e) {
        last_error_ = e.what();
        reap();
        if (!opt_.respawn) break;
      }
    }
    degraded_ += static_cast<long long>(queries.size());
    BatchReport report;
    for (const Query& q : queries) {
      report.results.push_back(typed_result(
          q, QueryStatus::kQuarantined,
          "shard " + std::to_string(shard_) + " worker dead: " + last_error_));
    }
    report.service.degraded = degraded_;
    return report;
  }

 private:
  /// Spawns (when needed) and validates the kHello handshake so a
  /// misconfigured spawner is caught before any query is trusted to it.
  void ensure_worker() {
    if (proc_.pid > 0) return;
    proc_ = spawner_(shard_);
    if (proc_.pid <= 0) {
      throw IoError("spawn failed for shard " + std::to_string(shard_));
    }
    WireFrame frame;
    if (!read_frame(proc_.reply_fd, frame, opt_.hello_timeout_ms) ||
        frame.type != WireType::kHello) {
      throw IoError("worker for shard " + std::to_string(shard_) +
                    " did not complete the handshake");
    }
    const WireHello hello = decode_hello(frame.payload);
    if (hello.shard != shard_ || hello.n != n_ ||
        hello.row_begin != range_.row_begin ||
        hello.row_end != range_.row_end) {
      throw IoError("worker announced shard " + std::to_string(hello.shard) +
                    " rows [" + std::to_string(hello.row_begin) + ", " +
                    std::to_string(hello.row_end) + "), expected shard " +
                    std::to_string(shard_));
    }
  }

  void reap() {
    close_fd(proc_.request_fd);
    close_fd(proc_.reply_fd);
    if (proc_.pid > 0) {
      ::kill(proc_.pid, SIGKILL);
      int status = 0;
      while (::waitpid(proc_.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    proc_.pid = -1;
  }

  void shutdown() {
    if (proc_.pid > 0 && proc_.request_fd >= 0) {
      try {
        write_frame(proc_.request_fd, WireType::kShutdown, {});
      } catch (const std::exception&) {
        // Already gone; reap below.
      }
    }
    reap();
  }

  WorkerSpawner spawner_;
  int shard_;
  vidx_t n_;
  core::ShardRange range_;
  ProcessBackendOptions opt_;
  WorkerProcess proc_;
  std::string last_error_ = "never spawned";
  long long degraded_ = 0;
};

/// Forks a worker wired to two fresh pipes (`pipe_flags` as for pipe2):
/// the child closes the router's ends and runs `child(request_read_fd,
/// reply_write_fd)`, which must not return; the router gets the pid and
/// its own two ends, or pid -1 when a pipe or the fork fails.
template <typename Child>
WorkerProcess fork_worker(int pipe_flags, const Child& child) {
  int req[2];  // router writes → worker reads
  int rep[2];  // worker writes → router reads
  if (::pipe2(req, pipe_flags) != 0) return {};
  if (::pipe2(rep, pipe_flags) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return {};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {req[0], req[1], rep[0], rep[1]}) ::close(fd);
    return {};
  }
  if (pid == 0) {
    ::close(req[1]);
    ::close(rep[0]);
    child(req[0], rep[1]);
  }
  ::close(req[0]);
  ::close(rep[1]);
  return {pid, req[1], rep[0]};
}

}  // namespace

std::unique_ptr<ShardBackend> make_local_backend(
    const std::string& store_path, const core::ShardManifest& manifest, int k,
    const QueryEngineOptions& opt, std::vector<vidx_t> perm) {
  return std::make_unique<LocalShardBackend>(store_path, manifest, k, opt,
                                             std::move(perm));
}

std::vector<std::unique_ptr<ShardBackend>> make_local_backends(
    const std::string& store_path, const core::ShardManifest& manifest,
    const QueryEngineOptions& opt, std::vector<vidx_t> perm) {
  std::vector<std::unique_ptr<ShardBackend>> out;
  for (int k = 0; k < manifest.num_shards(); ++k) {
    try {
      out.push_back(make_local_backend(store_path, manifest, k, opt, perm));
    } catch (const std::exception& e) {
      out.push_back(std::make_unique<FailedShardBackend>(k, e.what()));
    }
  }
  return out;
}

WorkerSpawner make_fork_worker_spawner(std::string store_path,
                                       ShardWorkerOptions opt) {
  // A forked child must not touch the parent's thread pool: inline batch
  // execution only (parallel_for with width 1 never takes the pool locks).
  opt.engine.max_threads = 1;
  // Children inherit every previously-created pipe end; track them so each
  // new child can close the others' — otherwise a dead worker's reply pipe
  // is held open by its siblings and EOF detection degrades to timeouts.
  auto spawned = std::make_shared<std::vector<int>>();
  return [store_path = std::move(store_path), opt,
          spawned](int shard) -> WorkerProcess {
    const WorkerProcess w = fork_worker(0, [&](int in, int out) {
      for (const int fd : *spawned) ::close(fd);
      _exit(run_shard_worker(store_path, shard, opt, in, out));
    });
    if (w.pid > 0) {
      spawned->push_back(w.request_fd);
      spawned->push_back(w.reply_fd);
    }
    return w;
  };
}

WorkerSpawner make_cli_worker_spawner(std::vector<std::string> argv) {
  return [argv = std::move(argv)](int /*shard*/) mutable -> WorkerProcess {
    // Built before fork: the child only dup2s and execs.
    std::vector<char*> cargv;
    for (std::string& s : argv) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    // O_CLOEXEC on every end: the exec'd child keeps only the two ends
    // dup2'd onto its stdin/stdout, so no worker holds a sibling's pipes.
    return fork_worker(O_CLOEXEC, [&](int in, int out) {
      if (::dup2(in, STDIN_FILENO) >= 0 && ::dup2(out, STDOUT_FILENO) >= 0) {
        ::execv(cargv[0], cargv.data());
      }
      _exit(127);
    });
  };
}

std::unique_ptr<ShardBackend> make_process_backend(
    WorkerSpawner spawner, int shard, const core::ShardManifest& manifest,
    const ProcessBackendOptions& opt) {
  GAPSP_CHECK(shard >= 0 && shard < manifest.num_shards(),
              "shard " + std::to_string(shard) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  return std::make_unique<ProcessShardBackend>(std::move(spawner), shard,
                                               manifest, opt);
}

ShardRouter::ShardRouter(core::ShardManifest manifest,
                         std::vector<std::unique_ptr<ShardBackend>> backends,
                         ShardRouterOptions opt, std::vector<vidx_t> perm)
    : manifest_(std::move(manifest)),
      backends_(std::move(backends)),
      opt_(opt),
      perm_(std::move(perm)) {
  GAPSP_CHECK(manifest_.present(), "shard manifest is empty");
  GAPSP_CHECK(perm_.empty() ||
                  perm_.size() == static_cast<std::size_t>(manifest_.n),
              "permutation size does not match the manifest");
  backend_of_shard_.assign(static_cast<std::size_t>(manifest_.num_shards()),
                           -1);
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const int k = backends_[b]->shard();
    GAPSP_CHECK(k >= 0 && k < manifest_.num_shards(),
                "backend serves unknown shard " + std::to_string(k));
    GAPSP_CHECK(backend_of_shard_[static_cast<std::size_t>(k)] < 0,
                "two backends claim shard " + std::to_string(k));
    backend_of_shard_[static_cast<std::size_t>(k)] = static_cast<int>(b);
  }
}

ShardRouter::~ShardRouter() = default;

BatchReport ShardRouter::run_batch(std::span<const Query> queries) {
  Timer wall;
  BatchReport report;
  report.results.resize(queries.size());

  // Router-level admission, mirroring the engine's semantics: the overflow
  // is shed before any routing so workers see bounded sub-batches.
  std::size_t admitted = queries.size();
  if (opt_.max_queue > 0 && queries.size() > opt_.max_queue) {
    admitted = opt_.max_queue;
    for (std::size_t i = admitted; i < queries.size(); ++i) {
      report.results[i] = typed_result(
          queries[i], QueryStatus::kShed,
          "shed: batch exceeds admission queue of " +
              std::to_string(opt_.max_queue));
    }
    shed_total_ += static_cast<long long>(queries.size() - admitted);
  }

  // Route by the stored row: shards split stored rows, so each query has
  // exactly one owner. Unrouteable queries degrade typed right here.
  std::vector<std::vector<std::size_t>> routed(backends_.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    const Query& q = queries[i];
    if (q.u < 0 || q.u >= n() ||
        (q.kind == QueryKind::kPoint && (q.v < 0 || q.v >= n()))) {
      report.results[i] =
          typed_result(q, QueryStatus::kError, "query vertex out of range");
      ++degraded_total_;
      continue;
    }
    const int shard = manifest_.shard_of_row(stored_id(q.u));
    const int b = shard < 0
                      ? -1
                      : backend_of_shard_[static_cast<std::size_t>(shard)];
    if (b < 0) {
      report.results[i] = typed_result(
          q, QueryStatus::kQuarantined,
          "no backend serves shard " + std::to_string(shard) + " (row " +
              std::to_string(stored_id(q.u)) + ")");
      ++degraded_total_;
      continue;
    }
    routed[static_cast<std::size_t>(b)].push_back(i);
  }

  // Fan out one thread per busy backend — process workers answer
  // concurrently, and local engines nest safely in the global pool.
  std::vector<BatchReport> sub(backends_.size());
  std::vector<std::thread> threads;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (routed[b].empty()) continue;
    threads.emplace_back([this, &queries, &routed, &sub, b] {
      std::vector<Query> slice;
      slice.reserve(routed[b].size());
      for (const std::size_t i : routed[b]) slice.push_back(queries[i]);
      sub[b] = backends_[b]->run_batch(slice);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t b = 0; b < backends_.size(); ++b) {
    for (std::size_t j = 0; j < routed[b].size(); ++j) {
      report.results[routed[b][j]] = std::move(sub[b].results[j]);
    }
  }

  report.wall_seconds = wall.seconds();
  report.qps = report.wall_seconds > 0.0
                   ? static_cast<double>(queries.size()) / report.wall_seconds
                   : 0.0;

  std::vector<double> lat;
  lat.reserve(admitted);
  double sum = 0.0;
  for (std::size_t i = 0; i < admitted; ++i) {
    lat.push_back(report.results[i].latency_s);
    sum += report.results[i].latency_s;
  }
  std::sort(lat.begin(), lat.end());
  report.latency.count = lat.size();
  report.latency.mean_s =
      lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
  report.latency.p50_s = latency_percentile(lat, 0.50);
  report.latency.p95_s = latency_percentile(lat, 0.95);
  report.latency.max_s = lat.empty() ? 0.0 : lat.back();

  // Merged counters: the sum of every backend's cumulative snapshot plus
  // the router's own shed/unrouteable tallies.
  report.service.shed = shed_total_;
  report.service.degraded = degraded_total_;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (routed[b].empty()) continue;
    const ServiceStats& s = sub[b].service;
    report.service.served += s.served;
    report.service.degraded += s.degraded;
    report.service.shed += s.shed;
    report.service.repaired += s.repaired;
    report.service.retries += s.retries;
    report.service.transient_failures += s.transient_failures;
    report.service.corrupt_tiles += s.corrupt_tiles;
    const CacheStats& c = sub[b].cache;
    report.cache.hits += c.hits;
    report.cache.misses += c.misses;
    report.cache.evictions += c.evictions;
    report.cache.negative_loads += c.negative_loads;
    report.cache.quarantined_tiles += c.quarantined_tiles;
    report.cache.quarantine_hits += c.quarantine_hits;
    report.cache.bytes_cached += c.bytes_cached;
    report.cache.capacity_bytes += c.capacity_bytes;
  }
  return report;
}

}  // namespace gapsp::service
