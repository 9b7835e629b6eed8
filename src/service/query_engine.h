// Distance-oracle query engine: serves point, row, block, and batched
// queries out of a solved DistStore without re-running the solver.
//
// This is the read side of the system the ROADMAP asks for — the solver
// produces the n×n matrix once (hours of simulated work at production
// scale), and this engine turns it into a servable artifact: a block-
// granular LRU cache (block_cache.h) absorbs the file-backed store's
// per-element seek cost, and batches fan out across ThreadPool::global()
// with a latency sample per query. It is the one distance oracle over a
// kept store: path extraction (path_extract.h) reads through it too.
//
// Fault tolerance (DESIGN.md §13): every miss-path read goes through a
// CheckedTileReader, retried under a RetryPolicy on transient I/O faults,
// and verified by the store itself: core::open_store reads a raw store with
// a `.sum` through a CheckedStore, and GAPSPZ1 frames check on decode. Tiles
// that stay unreadable are quarantined in the cache; queries touching them
// come back with a typed per-query status instead of an exception (batch)
// and never poison sibling queries. With a repair source configured the
// engine recomputes a damaged tile on demand and republishes it. Batches
// admit at most `max_queue` queries; the overflow is shed with
// QueryStatus::kShed so overload degrades predictably instead of queueing
// without bound.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/block_cache.h"
#include "core/dist_store.h"
#include "core/incremental.h"
#include "core/tile_reader.h"

namespace gapsp::service {

// The engine's tile cache lives in core (core/block_cache.h, util-only);
// these aliases name it on the service side.
using core::BlockCache;
using core::BlockData;
using core::CacheStats;

enum class QueryKind {
  kPoint,  ///< dist(u, v)
  kRow,    ///< all of row u
};

struct Query {
  QueryKind kind = QueryKind::kPoint;
  vidx_t u = 0;
  vidx_t v = 0;  ///< unused for row queries
};

/// Per-query outcome. Anything other than kOk leaves dist/row unspecified
/// and `error` set; the batch as a whole always completes.
enum class QueryStatus {
  kOk,
  kQuarantined,  ///< a tile this query needs is unserveable (corrupt or
                 ///< persistently unreadable) and no repair source is set
  kShed,         ///< rejected by admission control before any read
  kError,        ///< a vertex outside [0, n), or an unexpected failure
                 ///< (bug surface, not a data fault)
};

const char* query_status_name(QueryStatus s);

struct QueryResult {
  Query query;
  QueryStatus status = QueryStatus::kOk;
  dist_t dist = kInf;       ///< point queries
  std::vector<dist_t> row;  ///< row queries, indexed by vertex id
  double latency_s = 0.0;
  std::string error;  ///< empty when status == kOk
};

struct LatencyStats {
  std::size_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
};

/// Engine-cumulative serving counters (atomically maintained across
/// batches and threads; reader stats come from the CheckedTileReader).
struct ServiceStats {
  long long served = 0;    ///< queries answered with kOk
  long long degraded = 0;  ///< queries failed kQuarantined/kError
  long long shed = 0;      ///< queries rejected by admission control
  long long repaired = 0;  ///< tiles recomputed and republished on demand
  long long retries = 0;   ///< physical re-reads after transient faults
  long long transient_failures = 0;  ///< reads that exhausted the budget
  long long corrupt_tiles = 0;       ///< reads that hit persistent damage
};

struct BatchReport {
  std::vector<QueryResult> results;  ///< same order as the input span
  double wall_seconds = 0.0;
  double qps = 0.0;
  LatencyStats latency;
  CacheStats cache;      ///< snapshot after the batch (cumulative counters)
  ServiceStats service;  ///< snapshot after the batch (cumulative counters)
};

/// Linear-interpolation percentile over an ascending-sorted sample (the
/// "exclusive max" convention: q lands at rank q·(n−1) and fractional ranks
/// interpolate between neighbors). The earlier nearest-rank rounding made
/// small batches report the max as p95 — with 4 samples, rank llround(0.95·3)
/// = 3 IS the max — and biased even p50 upward. summarize_batch reads p50
/// and p95 through it.
double latency_percentile(const std::vector<double>& sorted, double q);

/// Admission control of a batch, shared by QueryEngine and ShardRouter: the
/// batch IS the queue. Sizes `results` to the batch, sheds every query past
/// `max_queue` (0 = no bound) with QueryStatus::kShed before any read, and
/// returns how many queries were admitted: results [0, admitted).
std::size_t admit_batch(std::span<const Query> queries, std::size_t max_queue,
                        std::vector<QueryResult>& results);

/// Fills a finished batch's summary, shared by QueryEngine and ShardRouter:
/// wall time, qps over every query (shed ones included), and the latency
/// mean/p50/p95/max over the admitted results [0, admitted).
void summarize_batch(BatchReport& report, std::size_t admitted,
                     double wall_seconds);

struct QueryEngineOptions {
  /// Cache tile side length in elements; edge tiles are smaller. The store's
  /// tile_size() wins when it has one (GAPSPZ1, a shard slice, a `.sum`
  /// grid), so one cache miss is one stored or checked tile.
  vidx_t block_size = 256;
  std::size_t cache_bytes = 64u << 20;
  int cache_shards = 8;
  /// Batch fan-out width over ThreadPool::global(): 0 = the whole pool,
  /// 1 = serial.
  int max_threads = 0;

  // ---- fault tolerance ----
  /// Backoff-retry budget for transient miss-path I/O failures.
  util::RetryPolicy retry;
  /// Optional chaos hook applied to every physical store read.
  sim::FaultInjector* faults = nullptr;
  /// Admission bound for run_batch: at most this many queries per batch
  /// are admitted, the rest are shed with QueryStatus::kShed. 0 = no bound.
  std::size_t max_queue = 0;
  /// Optional on-demand repair source (core/scrub.h::make_sssp_repair):
  /// a quarantined tile is recomputed, republished, and the query served.
  core::TileRepairFn repair;
};

class QueryEngine {
 public:
  /// `store` must outlive the engine and must not be written while serving.
  /// Every solver keeps its store in original vertex order, so queries
  /// address it directly. `perm` must be empty (GAPSP_CHECK): it is kept
  /// only so the benchmark harness (perf/) still compiles.
  explicit QueryEngine(const core::DistStore& store,
                       QueryEngineOptions opt = {},
                       const std::vector<vidx_t>& perm = {});

  vidx_t n() const { return store_.n(); }

  /// point/row/block throw core::TileError when a needed tile is
  /// unserveable and unrepaired; run_batch converts that into per-query
  /// statuses instead.
  dist_t point(vidx_t u, vidx_t v) const;

  /// Row of `u` with result[v] = dist(u, v).
  std::vector<dist_t> row(vidx_t u) const;

  /// Copies the tile [row0, row0+rows) × [col0, col0+cols) into dst
  /// (leading dimension dst_ld, elements) through the cache.
  void block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols, dist_t* dst,
             std::size_t dst_ld) const;

  /// Runs `queries` concurrently over ThreadPool::global(), timing each.
  /// Results come back in input order. Every point query runs in a bucket
  /// of points that share a cache tile: the bucket resolves its tile once
  /// (its first query pays it) and reads the pinned tile directly, so cache
  /// counters move per bucket, not per query. When the tile grid is small
  /// next to the batch a counting sort makes one bucket per touched tile;
  /// on a larger grid each point is its own bucket. Row queries are work
  /// items of their own. Never throws for bad input or data faults: a query
  /// with a vertex outside [0, n) comes back kError on its own, one
  /// touching an unserveable tile kQuarantined, overflow beyond max_queue
  /// kShed, and sibling queries are unaffected either way.
  BatchReport run_batch(std::span<const Query> queries) const;

  CacheStats cache_stats() const { return cache_.stats(); }
  ServiceStats service_stats() const;

  /// Applies a batch of edge-weight updates to the served matrix without a
  /// restart: an IncrementalEngine (core/incremental.h) repairs the
  /// distances the engine currently serves — the overlay tiles of earlier
  /// batches, then the read-only store — and every changed tile lands in
  /// the in-memory overlay that the miss path consults before the store, so
  /// an evicted tile can never resurrect stale disk bytes. Each repaired
  /// tile is also republished through BlockCache::publish, which clears its
  /// quarantine mark: a tile that was unserveable before the update serves
  /// again afterwards. `g_before` is the graph the currently served
  /// distances were computed from: the solve's graph for the first batch,
  /// the previous batch's updated graph after that. opt.tile is forced to
  /// the engine's cache grid. Queries may keep running during the call —
  /// store reads are safe to overlap — but repaired tiles become visible
  /// one at a time, not transactionally: a batch that overlaps the call can
  /// mix pre- and post-update tiles, so quiesce queries when answers must
  /// come from one version. Calls to apply_updates must not overlap each
  /// other. A configured repair source still recomputes from the graph it
  /// captured — swap it via set_repair(make_sssp_repair(updated_graph))
  /// after the batch.
  core::UpdateOutcome apply_updates(const graph::CsrGraph& g_before,
                                    std::span<const core::EdgeUpdate> updates,
                                    core::IncrementalOptions opt = {});

  /// Replaces the on-demand repair source (used after apply_updates so
  /// repairs recompute from the updated graph).
  void set_repair(core::TileRepairFn fn) { opt_.repair = std::move(fn); }

 private:
  BlockData fetch(vidx_t block_row, vidx_t block_col) const;
  /// Recomputes tile (bi, bj) from opt_.repair and republishes it.
  BlockData repair_tile(vidx_t block_row, vidx_t block_col) const;

  const core::DistStore& store_;
  QueryEngineOptions opt_;
  vidx_t num_blocks_ = 0;  ///< tiles per side
  /// Misses, overlay tiles and repairs all take their buffers from its free
  /// list (BlockCache::make_tile).
  mutable BlockCache cache_;
  /// fetch's miss loader reads every tile through the checked reader: it
  /// injects chaos faults, retries transients, and types checksum faults.
  /// Misses on different tiles read and decode in parallel; hits never
  /// touch it.
  mutable core::CheckedTileReader reader_;
  mutable std::atomic<long long> served_{0};
  mutable std::atomic<long long> degraded_{0};
  mutable std::atomic<long long> shed_{0};
  mutable std::atomic<long long> repaired_{0};
  /// Tiles rewritten by apply_updates, keyed bi·num_blocks+bj. The truth
  /// for those tiles lives here, not in the (stale) store: the miss path
  /// checks the overlay first, so cache evictions stay correct.
  mutable std::mutex overlay_mu_;
  std::unordered_map<std::uint64_t, BlockData> overlay_;
};

}  // namespace gapsp::service
