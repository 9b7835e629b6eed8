#include "service/query_engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace gapsp::service {

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kQuarantined:
      return "quarantined";
    case QueryStatus::kShed:
      return "shed";
    case QueryStatus::kError:
      return "error";
  }
  return "?";
}

namespace {

/// The served matrix as queries see it: tiles that earlier update batches
/// rewrote come from their overlay copies, every other tile from the store.
/// apply_updates repairs against this view — from the second batch on the
/// store alone is stale.
class OverlaidStore final : public core::DistStore {
 public:
  OverlaidStore(const core::DistStore& store, vidx_t block,
                std::unordered_map<std::uint64_t, BlockData> overlay)
      : core::DistStore(store.n()),
        store_(store),
        block_(block),
        num_blocks_((store.n() + block - 1) / block),
        overlay_(std::move(overlay)) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("the overlaid serving view is read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    const vidx_t b = block_;
    for (vidx_t bi = row0 / b; bi * b < row0 + rows; ++bi) {
      const vidx_t r0 = std::max(row0, bi * b);
      const vidx_t r1 = std::min<vidx_t>(row0 + rows, (bi + 1) * b);
      dist_t* out = dst + static_cast<std::size_t>(r0 - row0) * dst_ld;
      // Consecutive store tiles of this tile row are read as one block.
      vidx_t run0 = -1;
      const auto read_run = [&](vidx_t run1) {
        if (run0 < 0) return;
        store_.read_block(r0, run0, r1 - r0, run1 - run0,
                          out + static_cast<std::size_t>(run0 - col0), dst_ld);
        run0 = -1;
      };
      for (vidx_t bj = col0 / b; bj * b < col0 + cols; ++bj) {
        const vidx_t c0 = std::max(col0, bj * b);
        const vidx_t c1 = std::min<vidx_t>(col0 + cols, (bj + 1) * b);
        const auto it = overlay_.find(key(bi, bj));
        if (it == overlay_.end()) {
          if (run0 < 0) run0 = c0;
          continue;
        }
        read_run(c0);
        const vidx_t tile_cols = std::min<vidx_t>(b, n() - bj * b);
        for (vidx_t r = r0; r < r1; ++r) {
          std::copy_n(it->second->data() +
                          static_cast<std::size_t>(r - bi * b) *
                              static_cast<std::size_t>(tile_cols) +
                          static_cast<std::size_t>(c0 - bj * b),
                      static_cast<std::size_t>(c1 - c0),
                      out + static_cast<std::size_t>(r - r0) * dst_ld +
                          static_cast<std::size_t>(c0 - col0));
        }
      }
      read_run(col0 + cols);
    }
  }

  vidx_t tile_size() const override { return store_.tile_size(); }

 private:
  std::uint64_t key(vidx_t bi, vidx_t bj) const {
    return static_cast<std::uint64_t>(bi) *
               static_cast<std::uint64_t>(num_blocks_) +
           static_cast<std::uint64_t>(bj);
  }

  const core::DistStore& store_;
  vidx_t block_;
  vidx_t num_blocks_;
  std::unordered_map<std::uint64_t, BlockData> overlay_;
};

}  // namespace

QueryEngine::QueryEngine(const core::DistStore& store, QueryEngineOptions opt,
                         const std::vector<vidx_t>& perm)
    : store_(store),
      opt_(std::move(opt)),
      cache_(opt_.cache_bytes, opt_.cache_shards),
      reader_(store, core::TileReaderOptions{opt_.retry, opt_.faults}) {
  GAPSP_CHECK(opt_.block_size > 0, "cache block size must be positive");
  GAPSP_CHECK(perm.empty(),
              "stores are in original vertex order: pass no permutation");
  // The store's tile, else the requested one: a GAPSPZ1 store decodes whole
  // tiles and a checked raw store verifies whole sidecar tiles, so one miss
  // is one stored or checked tile.
  if (store_.tile_size() > 0) opt_.block_size = store_.tile_size();
  opt_.block_size = std::min<vidx_t>(opt_.block_size, std::max<vidx_t>(1, n()));
  num_blocks_ = n() == 0 ? 0 : (n() + opt_.block_size - 1) / opt_.block_size;
  // The one shared all-kInf tile: loaders return it for tiles the store
  // directory marks empty or that read all-kInf, and the cache charges it
  // no bytes. Edge tiles index at most rows×cols ≤ block_size² elements
  // into it, so one full-sized tile serves every negative block.
  cache_.set_negative_tile(std::make_shared<const std::vector<dist_t>>(
      static_cast<std::size_t>(opt_.block_size) *
          static_cast<std::size_t>(opt_.block_size),
      kInf));
}

core::UpdateOutcome QueryEngine::apply_updates(
    const graph::CsrGraph& g_before,
    std::span<const core::EdgeUpdate> updates, core::IncrementalOptions opt) {
  // The engine's dirty-tile granularity must be the cache grid so every
  // emitted tile is exactly one overlay/cache entry. (A tiled store already
  // dictates the same side to both.)
  opt.tile = opt_.block_size;
  core::IncrementalEngine engine(g_before, std::move(opt));
  // The view holds a snapshot of the overlay: this batch's own emits land
  // in overlay_ and never feed back into its reads.
  std::unordered_map<std::uint64_t, BlockData> snapshot;
  {
    std::lock_guard<std::mutex> lock(overlay_mu_);
    snapshot = overlay_;
  }
  const OverlaidStore current(store_, opt_.block_size, std::move(snapshot));
  return engine.apply(
      current, updates, [this](const core::IncrementalEngine::TileRun& run) {
        // Each tile of the run is one overlay/cache entry.
        for (vidx_t t = 0; t < run.tiles; ++t) {
          const vidx_t bj = run.bj + t;
          const vidx_t col0 = bj * opt_.block_size;
          const vidx_t cols = std::min<vidx_t>(opt_.block_size, n() - col0);
          const BlockData fixed = cache_.make_tile(
              static_cast<std::size_t>(run.rows) * cols, [&](dist_t* tile) {
                for (vidx_t r = 0; r < run.rows; ++r) {
                  std::copy_n(run.data + static_cast<std::size_t>(r) * run.ld +
                                  static_cast<std::size_t>(col0 - run.col0),
                              cols, tile + static_cast<std::size_t>(r) * cols);
                }
              });
          // The tile an earlier batch left here is dropped after the
          // overlay lock: its buffer may return to the cache's free list.
          BlockData replaced = fixed;
          {
            std::lock_guard<std::mutex> lock(overlay_mu_);
            std::swap(replaced,
                      overlay_[static_cast<std::uint64_t>(run.bi) *
                                   static_cast<std::uint64_t>(num_blocks_) +
                               static_cast<std::uint64_t>(bj)]);
          }
          // Republish: later misses hit the overlay, current cache readers
          // swap to the new tile, and a quarantine mark — this tile may
          // have been unserveable — is cleared.
          cache_.publish(run.bi, bj, fixed);
        }
      });
}

ServiceStats QueryEngine::service_stats() const {
  ServiceStats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.repaired = repaired_.load(std::memory_order_relaxed);
  const core::TileReaderStats r = reader_.stats();
  out.retries = r.retries;
  out.transient_failures = r.transient_failures;
  out.corrupt_tiles = r.corrupt_tiles;
  return out;
}

BlockData QueryEngine::repair_tile(vidx_t block_row, vidx_t block_col) const {
  const vidx_t b = opt_.block_size;
  const vidx_t row0 = block_row * b;
  const vidx_t col0 = block_col * b;
  const vidx_t rows = std::min<vidx_t>(b, n() - row0);
  const vidx_t cols = std::min<vidx_t>(b, n() - col0);
  const std::vector<dist_t> fresh = opt_.repair(row0, col0, rows, cols);
  GAPSP_CHECK(fresh.size() == static_cast<std::size_t>(rows) * cols,
              "repair source returned a wrong-sized tile");
  BlockData fixed = cache_.make_tile(fresh.size(), [&](dist_t* tile) {
    std::copy(fresh.begin(), fresh.end(), tile);
  });
  // Republish: clears the quarantine mark, so the whole service heals —
  // later queries for this tile are plain cache hits.
  cache_.publish(block_row, block_col, fixed);
  repaired_.fetch_add(1, std::memory_order_relaxed);
  return fixed;
}

BlockData QueryEngine::fetch(vidx_t block_row, vidx_t block_col) const {
  try {
    return cache_.get_or_load(block_row, block_col, [&]() -> BlockData {
      // Tiles rewritten by apply_updates live in the overlay, not the
      // store — an evicted tile must reload the repaired truth.
      {
        std::lock_guard<std::mutex> lock(overlay_mu_);
        const auto it = overlay_.find(
            static_cast<std::uint64_t>(block_row) *
                static_cast<std::uint64_t>(num_blocks_) +
            static_cast<std::uint64_t>(block_col));
        if (it != overlay_.end()) return it->second;
      }
      const vidx_t b = opt_.block_size;
      const vidx_t row0 = block_row * b;
      const vidx_t col0 = block_col * b;
      const vidx_t rows = std::min<vidx_t>(b, n() - row0);
      const vidx_t cols = std::min<vidx_t>(b, n() - col0);
      // Directory-backed stores answer "all kInf" without any I/O; the
      // shared tile is cached at zero byte cost.
      if (store_.block_known_inf(row0, col0, rows, cols)) {
        return cache_.negative_tile();
      }
      // read_tile overwrites the whole rectangle or throws (DistStore::
      // read_block), so a recycled buffer needs no clearing; make_tile also
      // collapses an all-kInf read to the negative tile.
      return cache_.make_tile(
          static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
          [&](dist_t* dst) {
            reader_.read_tile(block_row, block_col, row0, col0, rows, cols,
                              dst);
          });
    });
  } catch (const core::TileError&) {
    // The cache has quarantined the tile (or it already was). With a
    // repair source the engine recomputes it on demand and the query is
    // served; without one the typed error propagates for the caller to
    // turn into a degraded per-query status.
    if (opt_.repair) return repair_tile(block_row, block_col);
    throw;
  }
}

dist_t QueryEngine::point(vidx_t u, vidx_t v) const {
  GAPSP_CHECK(u >= 0 && u < n() && v >= 0 && v < n(),
              "query vertex out of range");
  const vidx_t b = opt_.block_size;
  const vidx_t bi = u / b;
  const vidx_t bj = v / b;
  const BlockData tile = fetch(bi, bj);
  const vidx_t cols = std::min<vidx_t>(b, n() - bj * b);
  return (*tile)[static_cast<std::size_t>(u - bi * b) *
                     static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(v - bj * b)];
}

std::vector<dist_t> QueryEngine::row(vidx_t u) const {
  GAPSP_CHECK(u >= 0 && u < n(), "query vertex out of range");
  const vidx_t b = opt_.block_size;
  const vidx_t bi = u / b;
  const vidx_t local_row = u - bi * b;
  std::vector<dist_t> out(static_cast<std::size_t>(n()));
  for (vidx_t bj = 0; bj < num_blocks_; ++bj) {
    const BlockData tile = fetch(bi, bj);
    const vidx_t col0 = bj * b;
    const vidx_t cols = std::min<vidx_t>(b, n() - col0);
    std::copy_n(tile->data() + static_cast<std::size_t>(local_row) *
                                   static_cast<std::size_t>(cols),
                static_cast<std::size_t>(cols),
                out.data() + static_cast<std::size_t>(col0));
  }
  return out;
}

void QueryEngine::block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                        dist_t* dst, std::size_t dst_ld) const {
  GAPSP_CHECK(row0 >= 0 && col0 >= 0 && rows >= 0 && cols >= 0 &&
                  row0 + rows <= n() && col0 + cols <= n(),
              "block query out of bounds");
  if (rows == 0 || cols == 0) return;
  const vidx_t b = opt_.block_size;
  for (vidx_t bi = row0 / b; bi * b < row0 + rows; ++bi) {
    for (vidx_t bj = col0 / b; bj * b < col0 + cols; ++bj) {
      const BlockData tile = fetch(bi, bj);
      const vidx_t tile_cols = std::min<vidx_t>(b, n() - bj * b);
      // Intersection of the requested rectangle with tile (bi, bj).
      const vidx_t r0 = std::max(row0, bi * b);
      const vidx_t r1 = std::min<vidx_t>(row0 + rows, (bi + 1) * b);
      const vidx_t c0 = std::max(col0, bj * b);
      const vidx_t c1 = std::min<vidx_t>(col0 + cols, (bj + 1) * b);
      for (vidx_t r = r0; r < r1; ++r) {
        std::copy_n(tile->data() +
                        static_cast<std::size_t>(r - bi * b) *
                            static_cast<std::size_t>(tile_cols) +
                        static_cast<std::size_t>(c0 - bj * b),
                    static_cast<std::size_t>(c1 - c0),
                    dst + static_cast<std::size_t>(r - row0) * dst_ld +
                        static_cast<std::size_t>(c0 - col0));
      }
    }
  }
}

double latency_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

std::size_t admit_batch(std::span<const Query> queries, std::size_t max_queue,
                        std::vector<QueryResult>& results) {
  results.resize(queries.size());
  if (max_queue == 0 || queries.size() <= max_queue) return queries.size();
  // Everything past max_queue is shed up front with a typed status —
  // bounded work per batch, and the caller can resubmit or spill to
  // another replica.
  for (std::size_t i = max_queue; i < queries.size(); ++i) {
    QueryResult& r = results[i];
    r.query = queries[i];
    r.status = QueryStatus::kShed;
    r.error = "shed: batch exceeds admission queue of " +
              std::to_string(max_queue);
  }
  return max_queue;
}

void summarize_batch(BatchReport& report, std::size_t admitted,
                     double wall_seconds) {
  report.wall_seconds = wall_seconds;
  report.qps = wall_seconds > 0.0
                   ? static_cast<double>(report.results.size()) / wall_seconds
                   : 0.0;
  std::vector<double> lat(admitted);
  double sum = 0.0;
  for (std::size_t i = 0; i < admitted; ++i) {
    lat[i] = report.results[i].latency_s;
    sum += lat[i];
  }
  std::sort(lat.begin(), lat.end());
  report.latency.count = admitted;
  report.latency.mean_s =
      admitted == 0 ? 0.0 : sum / static_cast<double>(admitted);
  report.latency.p50_s = latency_percentile(lat, 0.50);
  report.latency.p95_s = latency_percentile(lat, 0.95);
  report.latency.max_s = lat.empty() ? 0.0 : lat.back();
}

BatchReport QueryEngine::run_batch(std::span<const Query> queries) const {
  BatchReport report;
  const std::size_t admitted =
      admit_batch(queries, opt_.max_queue, report.results);
  shed_.fetch_add(static_cast<long long>(queries.size() - admitted),
                  std::memory_order_relaxed);
  Timer wall;

  // Every point runs in a bucket whose queries read one cache tile: bucket
  // w is order[bounds[w], bounds[w+1]). A counting sort by tile makes one
  // bucket per touched tile, so each tile goes through the cache once per
  // batch. A batch much smaller than the tile grid would pay more for the
  // counting pass than it saves; there each point is its own bucket.
  const vidx_t b = opt_.block_size;
  const auto nb = static_cast<std::size_t>(num_blocks_);
  const std::size_t tiles = nb * nb;
  const bool by_tile = tiles <= std::max<std::size_t>(1024, 8 * admitted);
  constexpr std::uint32_t kNoTile = ~std::uint32_t{0};
  std::vector<std::uint32_t> tile_of(by_tile ? admitted : 0, kNoTile);
  std::vector<std::uint32_t> start(by_tile ? tiles + 1 : 0, 0);
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> bounds{0};
  std::vector<std::uint32_t> rows;  // row queries: a work item each
  // Queries that come back anything but kOk; shed ones are not admitted.
  std::atomic<long long> failed{0};

  // Vertices are checked here, on the calling thread: a query with one
  // outside [0, n) is typed kError on its own and never reaches a worker.
  for (std::size_t i = 0; i < admitted; ++i) {
    const Query& q = queries[i];
    const bool point = q.kind == QueryKind::kPoint;
    if (q.u < 0 || q.u >= n() || (point && (q.v < 0 || q.v >= n()))) {
      QueryResult& r = report.results[i];
      r.query = q;
      r.status = QueryStatus::kError;
      r.error = "query vertex out of range";
      failed.fetch_add(1, std::memory_order_relaxed);
    } else if (!point) {
      rows.push_back(static_cast<std::uint32_t>(i));
    } else if (by_tile) {
      tile_of[i] = static_cast<std::uint32_t>(
          static_cast<std::size_t>(q.u / b) * nb +
          static_cast<std::size_t>(q.v / b));
      ++start[tile_of[i] + 1];
    } else {
      order.push_back(static_cast<std::uint32_t>(i));
      bounds.push_back(static_cast<std::uint32_t>(order.size()));
    }
  }
  if (by_tile) {
    for (std::size_t t = 0; t < tiles; ++t) {
      start[t + 1] += start[t];
      if (start[t + 1] > start[t]) bounds.push_back(start[t + 1]);
    }
    order.resize(bounds.back());
    for (std::size_t i = 0; i < admitted; ++i) {
      if (tile_of[i] != kNoTile) {
        order[start[tile_of[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  // Workers run on ThreadPool::global(), where an escaping exception is
  // fatal (util/thread_pool.h): every failure must become a per-query
  // status here, never a throw. A bucket's first query pays the (timed)
  // tile resolution; a tile failure degrades exactly its bucket — the
  // typed error is copied to each query that needed the tile.
  const auto run_bucket = [&](const std::uint32_t* first,
                              const std::uint32_t* last) {
    const Query& head = queries[*first];
    const vidx_t bi = head.u / b;
    const vidx_t bj = head.v / b;
    Timer t_fetch;
    BlockData tile;
    QueryStatus status = QueryStatus::kOk;
    std::string error;
    try {
      tile = fetch(bi, bj);
    } catch (const core::TileError& e) {
      status = QueryStatus::kQuarantined;
      error = e.what();
    } catch (const std::exception& e) {
      status = QueryStatus::kError;
      error = e.what();
    }
    const double fetch_s = t_fetch.seconds();
    if (status != QueryStatus::kOk) {
      for (const std::uint32_t* p = first; p != last; ++p) {
        QueryResult& r = report.results[*p];
        r.query = queries[*p];
        r.status = status;
        r.error = error;
        r.latency_s = p == first ? fetch_s : 0.0;
      }
      failed.fetch_add(last - first, std::memory_order_relaxed);
      return;
    }
    // Per-query latency is amortized over the bucket (timing each ~100ns
    // array read individually would cost more than the read).
    const vidx_t cols = std::min<vidx_t>(b, n() - bj * b);
    Timer t_reads;
    for (const std::uint32_t* p = first; p != last; ++p) {
      const Query& q = queries[*p];
      QueryResult& r = report.results[*p];
      r.query = q;
      r.dist = (*tile)[static_cast<std::size_t>(q.u - bi * b) *
                           static_cast<std::size_t>(cols) +
                       static_cast<std::size_t>(q.v - bj * b)];
    }
    const double per_read =
        t_reads.seconds() / static_cast<double>(last - first);
    for (const std::uint32_t* p = first; p != last; ++p) {
      report.results[*p].latency_s = per_read + (p == first ? fetch_s : 0.0);
    }
  };
  const auto run_row = [&](std::uint32_t i) {
    QueryResult& r = report.results[i];
    r.query = queries[i];
    Timer t;
    try {
      r.row = row(r.query.u);
    } catch (const core::TileError& e) {
      r.status = QueryStatus::kQuarantined;
      r.error = e.what();
    } catch (const std::exception& e) {
      r.status = QueryStatus::kError;
      r.error = e.what();
    }
    if (r.status != QueryStatus::kOk) {
      r.row.clear();
      failed.fetch_add(1, std::memory_order_relaxed);
    }
    r.latency_s = t.seconds();
  };

  const std::size_t buckets = bounds.size() - 1;
  ThreadPool::global().parallel_for(
      buckets + rows.size(),
      [&](std::size_t w) {
        if (w < buckets) {
          run_bucket(order.data() + bounds[w], order.data() + bounds[w + 1]);
        } else {
          run_row(rows[w - buckets]);
        }
      },
      /*grain=*/1, static_cast<std::size_t>(std::max(0, opt_.max_threads)));
  summarize_batch(report, admitted, wall.seconds());

  const long long bad = failed.load(std::memory_order_relaxed);
  served_.fetch_add(static_cast<long long>(admitted) - bad,
                    std::memory_order_relaxed);
  degraded_.fetch_add(bad, std::memory_order_relaxed);
  report.cache = cache_.stats();
  report.service = service_stats();
  return report;
}

}  // namespace gapsp::service
