// Query-service coverage: the block cache's LRU/counter semantics, the
// QueryEngine against DistStore::at() as the oracle (including permuted
// boundary solves and file-backed stores opened read-only), and the
// open_file_store entry point's validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::service {
namespace {

using core::DistStore;

BlockData make_block(std::size_t elems, dist_t fill) {
  return std::make_shared<const std::vector<dist_t>>(elems, fill);
}

TEST(BlockCache, HitMissCounters) {
  BlockCache cache(1u << 20, /*shards=*/2);
  int loads = 0;
  auto loader = [&] {
    ++loads;
    return make_block(16, 7);
  };
  const auto a = cache.get_or_load(0, 0, loader);
  const auto b = cache.get_or_load(0, 0, loader);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(a.get(), b.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.bytes_cached, 16 * sizeof(dist_t));
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(BlockCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard, room for exactly two 64-element blocks.
  BlockCache cache(2 * 64 * sizeof(dist_t), /*shards=*/1);
  auto load = [](dist_t v) { return [v] { return make_block(64, v); }; };
  cache.get_or_load(0, 0, load(0));
  cache.get_or_load(0, 1, load(1));
  cache.get_or_load(0, 0, load(0));   // touch (0,0): (0,1) is now LRU
  cache.get_or_load(0, 2, load(2));   // evicts (0,1)
  int reloaded = 0;
  cache.get_or_load(0, 0, [&] { ++reloaded; return make_block(64, 0); });
  cache.get_or_load(0, 2, [&] { ++reloaded; return make_block(64, 2); });
  EXPECT_EQ(reloaded, 0);  // survivors still cached
  cache.get_or_load(0, 1, [&] { ++reloaded; return make_block(64, 1); });
  EXPECT_EQ(reloaded, 1);  // the LRU victim was really gone
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(BlockCache, OversizedSingleBlockStillServed) {
  // A block larger than a whole shard's budget must be served (and counted),
  // not thrashed into an infinite load loop.
  BlockCache cache(32 * sizeof(dist_t), /*shards=*/1);
  const auto big = cache.get_or_load(0, 0, [] { return make_block(4096, 9); });
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->size(), 4096u);
  // The just-inserted entry is kept even though it exceeds the budget.
  int reloaded = 0;
  cache.get_or_load(0, 0, [&] { ++reloaded; return make_block(4096, 9); });
  EXPECT_EQ(reloaded, 0);
}

TEST(BlockCache, EvictionKeepsDataAliveForHolders) {
  BlockCache cache(64 * sizeof(dist_t), /*shards=*/1);
  const auto held = cache.get_or_load(0, 0, [] { return make_block(64, 3); });
  cache.get_or_load(0, 1, [] { return make_block(64, 4); });  // evicts (0,0)
  // The shared_ptr we still hold is untouched by the eviction.
  EXPECT_EQ(held->at(0), 3);
  EXPECT_EQ(held->size(), 64u);
}

TEST(BlockCache, ClearDropsEntriesKeepsCounters) {
  BlockCache cache(1u << 20, 4);
  cache.get_or_load(1, 2, [] { return make_block(8, 1); });
  cache.get_or_load(1, 2, [] { return make_block(8, 1); });
  cache.clear();
  auto s = cache.stats();
  EXPECT_EQ(s.bytes_cached, 0u);
  EXPECT_EQ(s.hits, 1);
  int reloaded = 0;
  cache.get_or_load(1, 2, [&] { ++reloaded; return make_block(8, 1); });
  EXPECT_EQ(reloaded, 1);
}

/// Solves a graph and returns (store, result) for engine tests.
struct Solved {
  std::unique_ptr<DistStore> store;
  core::ApspResult result;
};

Solved solve(const graph::CsrGraph& g, core::Algorithm algo) {
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = algo;
  Solved s;
  s.store = core::make_ram_store(g.num_vertices());
  s.result = core::solve_apsp(g, o, *s.store);
  return s;
}

TEST(QueryEngine, PointAndRowMatchStore) {
  const auto g = graph::make_road(12, 12, 501);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 37;  // force ragged multi-tile coverage
  opt.cache_bytes = 1u << 20;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  Rng rng(11);
  const vidx_t n = g.num_vertices();
  for (int t = 0; t < 200; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    EXPECT_EQ(engine.point(u, v),
              s.store->at(s.result.stored_id(u), s.result.stored_id(v)));
  }
  const vidx_t u = 5;
  const auto row = engine.row(u);
  ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) {
    EXPECT_EQ(row[v],
              s.store->at(s.result.stored_id(u), s.result.stored_id(v)));
  }
}

TEST(QueryEngine, PermutedBoundarySolveAnswersInOriginalIds) {
  // The boundary algorithm relabels vertices; the engine must translate so
  // callers query in the graph's own ids.
  const auto g = graph::make_road(14, 14, 502);
  const auto s = solve(g, core::Algorithm::kBoundary);
  ASSERT_FALSE(s.result.perm.empty());  // the permutation is real here
  QueryEngineOptions opt;
  opt.block_size = 64;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  const vidx_t n = g.num_vertices();
  Rng rng(12);
  for (int t = 0; t < 100; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto ref = test::ref_row(g, u);
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    EXPECT_EQ(engine.point(u, v), ref[v]);
  }
  const auto row = engine.row(3);
  const auto ref = test::ref_row(g, 3);
  for (vidx_t v = 0; v < n; ++v) EXPECT_EQ(row[v], ref[v]);
}

TEST(QueryEngine, BlockReadsStoredTile) {
  const auto g = graph::make_mesh(90, 6, 503);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 32;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  // A tile straddling four cache blocks, ragged at the matrix edge.
  const vidx_t row0 = 25, col0 = 17, rows = 40, cols = 50;
  std::vector<dist_t> got(static_cast<std::size_t>(rows) * cols, -1);
  engine.block(row0, col0, rows, cols, got.data(), cols);
  std::vector<dist_t> want(got.size(), -2);
  s.store->read_block(row0, col0, rows, cols, want.data(), cols);
  EXPECT_EQ(got, want);
}

TEST(QueryEngine, WarmBatchHitsCacheOnly) {
  const auto g = graph::make_road(10, 10, 504);
  const auto s = solve(g, core::Algorithm::kJohnson);
  const QueryEngine engine(*s.store, {}, s.result.perm);
  std::vector<Query> qs;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(100)),
                  static_cast<vidx_t>(rng.next_below(100))});
  }
  qs.push_back({QueryKind::kRow, 7, 0});
  const auto cold = engine.run_batch(qs);
  const auto warm = engine.run_batch(qs);
  EXPECT_EQ(warm.cache.misses, cold.cache.misses);  // nothing new loaded
  EXPECT_GT(warm.cache.hits, cold.cache.hits);
  EXPECT_EQ(warm.results.size(), qs.size());
  EXPECT_GT(warm.qps, 0.0);
  EXPECT_EQ(warm.latency.count, qs.size());
  EXPECT_GE(warm.latency.p95_s, warm.latency.p50_s);
  EXPECT_GE(warm.latency.max_s, warm.latency.p95_s);
  // Batch results equal direct calls, in input order.
  for (std::size_t i = 0; i + 1 < qs.size(); ++i) {
    EXPECT_EQ(warm.results[i].dist, engine.point(qs[i].u, qs[i].v));
  }
  EXPECT_EQ(warm.results.back().row, engine.row(7));
}

TEST(QueryEngine, ConcurrentBatchUnderTinyCacheMatchesStore) {
  // A cache far smaller than the matrix forces constant eviction while the
  // pool fans out; answers must still match the store exactly.
  const auto g = graph::make_mesh(150, 5, 505);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 24;
  opt.cache_bytes = 4 * 24 * 24 * sizeof(dist_t);  // ~4 tiles
  opt.cache_shards = 2;
  const QueryEngine engine(*s.store, opt, s.result.perm);
  std::vector<Query> qs;
  Rng rng(14);
  const vidx_t n = g.num_vertices();
  for (int i = 0; i < 1500; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  const auto rep = engine.run_batch(qs);
  EXPECT_GT(rep.cache.evictions, 0);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(rep.results[i].dist,
              s.store->at(s.result.stored_id(qs[i].u),
                          s.result.stored_id(qs[i].v)))
        << "query " << i;
  }
}

// ---- One point path on both sides of the bucket rule ----
// run_batch counting-sorts points by tile when the grid has at most
// max(1024, 8 · admitted) tiles and makes each point its own bucket above
// that. road12 has n = 144: 16-wide tiles give a 9×9 grid, 4-wide tiles a
// 36×36 grid of 1,296, above 1,024 for this short batch.

std::vector<Query> mixed_batch(vidx_t n) {
  return {{QueryKind::kPoint, 1, 2},      {QueryKind::kPoint, 3, 5},
          {QueryKind::kPoint, 3, 99999},  {QueryKind::kPoint, 2, 1},
          {QueryKind::kRow, 7, 0},        {QueryKind::kPoint, 1, 2},
          {QueryKind::kPoint, -1, 0},     {QueryKind::kPoint, 40, 100},
          {QueryKind::kRow, n, 0},        {QueryKind::kPoint, 100, 40},
          {QueryKind::kPoint, n - 1, n - 1}};
}

bool out_of_range(const Query& q, vidx_t n) {
  return q.u < 0 || q.u >= n ||
         (q.kind == QueryKind::kPoint && (q.v < 0 || q.v >= n));
}

QueryEngineOptions tiles_of(vidx_t block) {
  QueryEngineOptions opt;
  opt.block_size = block;
  return opt;
}

TEST(QueryEngine, OutOfRangeQueriesAreTypedAloneOnBothSidesOfTheBucketRule) {
  // Regression: on the counting-sort side a bad vertex threw out of
  // run_batch and took the batch's valid answers with it.
  const auto g = graph::make_road(12, 12, 511);
  const auto s = solve(g, core::Algorithm::kJohnson);
  const vidx_t n = g.num_vertices();
  const std::vector<Query> qs = mixed_batch(n);
  for (const vidx_t block : {16, 4}) {
    const QueryEngine engine(*s.store, tiles_of(block), s.result.perm);
    BatchReport rep;
    ASSERT_NO_THROW(rep = engine.run_batch(qs)) << "block " << block;
    ASSERT_EQ(rep.results.size(), qs.size());
    long long bad = 0;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const Query& q = qs[i];
      const QueryResult& r = rep.results[i];
      if (out_of_range(q, n)) {
        ++bad;
        EXPECT_EQ(r.status, QueryStatus::kError) << "query " << i;
        continue;
      }
      ASSERT_EQ(r.status, QueryStatus::kOk) << "query " << i << ": " << r.error;
      if (q.kind == QueryKind::kPoint) {
        EXPECT_EQ(r.dist, s.store->at(s.result.stored_id(q.u),
                                      s.result.stored_id(q.v)))
            << "query " << i;
        continue;
      }
      ASSERT_EQ(r.row.size(), static_cast<std::size_t>(n));
      for (vidx_t v = 0; v < n; ++v) {
        ASSERT_EQ(r.row[v], s.store->at(s.result.stored_id(q.u),
                                        s.result.stored_id(v)));
      }
    }
    EXPECT_EQ(bad, 3);
    EXPECT_EQ(rep.service.degraded, bad) << "block " << block;
    EXPECT_EQ(rep.service.served, static_cast<long long>(qs.size()) - bad);
  }
}

TEST(QueryEngine, BothSidesOfTheBucketRuleAnswerAlike) {
  const auto g = graph::make_road(12, 12, 512);
  const auto s = solve(g, core::Algorithm::kBoundary);
  const vidx_t n = g.num_vertices();
  const std::vector<Query> qs = mixed_batch(n);
  const QueryEngine sorted(*s.store, tiles_of(16), s.result.perm);
  const QueryEngine apart(*s.store, tiles_of(4), s.result.perm);
  const BatchReport a = sorted.run_batch(qs);
  const BatchReport b = apart.run_batch(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(a.results[i].status, b.results[i].status) << "query " << i;
    EXPECT_EQ(a.results[i].error, b.results[i].error) << "query " << i;
    EXPECT_EQ(a.results[i].dist, b.results[i].dist) << "query " << i;
    EXPECT_EQ(a.results[i].row, b.results[i].row) << "query " << i;
  }
  // Which side each engine took shows in its cache lookups: a row reads
  // its tile row on either side, and the points add one lookup per touched
  // tile when sorted, one per point apart.
  std::set<std::pair<vidx_t, vidx_t>> touched;
  long long points = 0;
  for (const Query& q : qs) {
    if (q.kind != QueryKind::kPoint || out_of_range(q, n)) continue;
    ++points;
    touched.emplace(s.result.stored_id(q.u) / 16,
                    s.result.stored_id(q.v) / 16);
  }
  const auto lookups = [](const CacheStats& c) { return c.hits + c.misses; };
  EXPECT_EQ(lookups(a.cache),
            (n + 15) / 16 + static_cast<long long>(touched.size()));
  EXPECT_EQ(lookups(b.cache), (n + 3) / 4 + points);
  EXPECT_LT(static_cast<long long>(touched.size()), points);  // repeats
}

// ---- Recycled miss buffers (BlockCache::make_tile) ----
// Each shard holds one full tile, and the matrix side is not a multiple of
// the block, so full and ragged edge tiles cycle through one free list.

constexpr vidx_t kRecycleBlock = 40;
constexpr std::size_t kRecycleTileBytes =
    static_cast<std::size_t>(kRecycleBlock) * kRecycleBlock * sizeof(dist_t);

QueryEngineOptions one_tile_per_shard() {
  QueryEngineOptions opt;
  opt.block_size = kRecycleBlock;
  opt.cache_shards = 4;
  opt.cache_bytes = 4 * kRecycleTileBytes;
  return opt;
}

TEST(BlockCache, HeldTileKeepsItsBytesWhileMissesRecycleOthers) {
  // One shard that holds one 64-element tile: every miss evicts.
  BlockCache cache(64 * sizeof(dist_t), /*shards=*/1);
  const auto load = [&](vidx_t bi, vidx_t bj, dist_t v) {
    return cache.get_or_load(bi, bj, [&] {
      return cache.make_tile(64, [v](dist_t* t) { std::fill_n(t, 64, v); });
    });
  };
  const BlockData held = load(0, 0, 1);
  const dist_t* second = load(0, 1, 2)->data();  // evicts the held tile
  load(0, 2, 3);  // evicts (0,1), which nobody holds: its buffer is listed
  EXPECT_EQ(load(0, 3, 4)->data(), second);  // and the next miss takes it
  EXPECT_EQ(cache.stats().fresh_buffers, 3);

  // Two threads churn misses through the one-tile shard while this one
  // reads the held, evicted tile: no recycled write may land in it.
  std::atomic<bool> wrong{false};
  std::vector<std::thread> churn;
  for (vidx_t t = 1; t <= 2; ++t) {
    churn.emplace_back([&, t] {
      for (vidx_t i = 0; i < 300; ++i) {
        const BlockData tile = load(t, i, static_cast<dist_t>(10 * t + i));
        if (tile->data() == held->data() ||
            std::count(tile->begin(), tile->end(), 10 * t + i) != 64) {
          wrong = true;
        }
      }
    });
  }
  for (int pass = 0; pass < 200; ++pass) {
    ASSERT_EQ(std::count(held->begin(), held->end(), 1), 64);
  }
  for (std::thread& t : churn) t.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(std::count(held->begin(), held->end(), 1), 64);
  const CacheStats cs = cache.stats();
  EXPECT_LT(cs.fresh_buffers, cs.misses);
  EXPECT_LE(cs.free_bytes, 64 * sizeof(dist_t));  // one shard's budget
}

TEST(QueryEngine, RecycledBuffersServeExactAnswersUnderConcurrentBatches) {
  const auto g = graph::make_road(13, 13, 508);
  const auto s = solve(g, core::Algorithm::kJohnson);
  const vidx_t n = g.num_vertices();
  ASSERT_NE(n % kRecycleBlock, 0);
  const QueryEngine engine(*s.store, one_tile_per_shard(), s.result.perm);
  const auto want = [&](vidx_t u, vidx_t v) {
    return s.store->at(s.result.stored_id(u), s.result.stored_id(v));
  };
  // Three clients at once, each batch fanning out over the pool.
  std::vector<std::vector<Query>> batches(3);
  Rng rng(17);
  for (std::vector<Query>& qs : batches) {
    for (int i = 0; i < 600; ++i) {
      qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                    static_cast<vidx_t>(rng.next_below(n))});
    }
    qs.push_back({QueryKind::kRow, static_cast<vidx_t>(rng.next_below(n)), 0});
  }
  std::vector<BatchReport> reps(batches.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < batches.size(); ++c) {
    clients.emplace_back([&, c] { reps[c] = engine.run_batch(batches[c]); });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < batches.size(); ++c) {
    for (const QueryResult& r : reps[c].results) {
      ASSERT_EQ(r.status, QueryStatus::kOk) << r.error;
      if (r.query.kind == QueryKind::kPoint) {
        ASSERT_EQ(r.dist, want(r.query.u, r.query.v));
        continue;
      }
      ASSERT_EQ(r.row.size(), static_cast<std::size_t>(n));
      for (vidx_t v = 0; v < n; ++v) ASSERT_EQ(r.row[v], want(r.query.u, v));
    }
  }
  const CacheStats cs = engine.cache_stats();
  EXPECT_GT(cs.evictions, 0);
  EXPECT_LT(cs.fresh_buffers, cs.misses);  // most misses recycled
  EXPECT_LE(cs.free_bytes, kRecycleTileBytes);
}

/// Forwards to `inner`. While armed, a read at (row0, col0) writes garbage
/// over the first half of the rectangle and then throws, as a read that
/// fails partway does.
class TornReadStore final : public DistStore {
 public:
  explicit TornReadStore(const DistStore& inner)
      : DistStore(inner.n()), inner_(inner) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("read-only");
  }
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    if (armed && row0 == torn_row0 && col0 == torn_col0) {
      for (vidx_t r = 0; r < rows / 2; ++r) {
        std::fill_n(dst + static_cast<std::size_t>(r) * dst_ld, cols, -7);
      }
      throw Error("torn read");
    }
    inner_.read_block(row0, col0, rows, cols, dst, dst_ld);
  }

  std::atomic<bool> armed{false};
  vidx_t torn_row0 = 0;
  vidx_t torn_col0 = 0;

 private:
  const DistStore& inner_;
};

TEST(QueryEngine, TornLoadIsNeverPublishedAndTheNextMissIsExact) {
  const auto g = graph::make_road(13, 13, 509);
  const auto s = solve(g, core::Algorithm::kJohnson);
  TornReadStore store(*s.store);
  const QueryEngine engine(store, one_tile_per_shard());
  const vidx_t b = kRecycleBlock;
  EXPECT_EQ(engine.point(0, 0), s.store->at(0, 0));

  store.torn_row0 = b;
  store.torn_col0 = b;
  store.armed = true;
  const std::vector<Query> qs = {{QueryKind::kPoint, 1, 1},
                                 {QueryKind::kPoint, b + 1, b + 2}};
  const BatchReport rep = engine.run_batch(qs);
  EXPECT_EQ(rep.results[0].status, QueryStatus::kOk);
  EXPECT_EQ(rep.results[0].dist, s.store->at(1, 1));
  EXPECT_EQ(rep.results[1].status, QueryStatus::kError);
  CacheStats cs = engine.cache_stats();
  EXPECT_EQ(cs.bytes_cached, kRecycleTileBytes);  // only tile (0,0)
  EXPECT_EQ(cs.quarantined_tiles, 0);
  const long long fresh = cs.fresh_buffers;

  // The torn buffer went back to the list; the next miss reuses it and
  // must overwrite every element.
  store.armed = false;
  std::vector<dist_t> got(static_cast<std::size_t>(b) * b, -1);
  engine.block(b, b, b, b, got.data(), b);
  std::vector<dist_t> exact(got.size(), -2);
  s.store->read_block(b, b, b, b, exact.data(), b);
  EXPECT_EQ(got, exact);
  cs = engine.cache_stats();
  EXPECT_EQ(cs.fresh_buffers, fresh);
  EXPECT_EQ(cs.bytes_cached, 2 * kRecycleTileBytes);
}

TEST(QueryEngine, WarmCacheMissesAllocateNothing) {
  const auto g = graph::make_road(13, 13, 510);
  const auto s = solve(g, core::Algorithm::kJohnson);
  const QueryEngine engine(*s.store, one_tile_per_shard());
  const vidx_t b = kRecycleBlock;
  const vidx_t full = g.num_vertices() / b;  // full tiles per side
  // Sixteen full tiles through four one-tile shards: nearly every lookup
  // misses and evicts a full tile.
  const auto sweep = [&] {
    for (vidx_t bi = 0; bi < full; ++bi) {
      for (vidx_t bj = 0; bj < full; ++bj) {
        ASSERT_EQ(engine.point(bi * b + bi, bj * b + bj),
                  s.store->at(bi * b + bi, bj * b + bj));
      }
    }
  };
  sweep();
  sweep();
  const CacheStats warm = engine.cache_stats();
  sweep();
  const CacheStats after = engine.cache_stats();
  EXPECT_GE(after.misses - warm.misses, full * full / 2);
  EXPECT_EQ(after.fresh_buffers, warm.fresh_buffers);
  EXPECT_LE(after.free_bytes, kRecycleTileBytes);
}

TEST(QueryService, FileStoreEndToEnd) {
  // Solve into a kept file store, reopen it read-only via open_file_store,
  // and serve queries — the CLI's exact flow.
  const std::string path = "query_service_e2e.bin";
  const auto g = graph::make_road(11, 11, 506);
  const vidx_t n = g.num_vertices();
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = core::Algorithm::kJohnson;
  core::ApspResult result;
  {
    auto store = core::make_file_store(n, path, /*keep_file=*/true);
    result = core::solve_apsp(g, o, *store);
  }  // store closed; file kept
  auto reopened = core::open_file_store(path);
  ASSERT_EQ(reopened->n(), n);
  QueryEngineOptions opt;
  opt.block_size = 48;
  const QueryEngine engine(*reopened, opt, result.perm);
  Rng rng(15);
  for (int t = 0; t < 150; ++t) {
    const auto u = static_cast<vidx_t>(rng.next_below(n));
    const auto ref = test::ref_row(g, u);
    const auto v = static_cast<vidx_t>(rng.next_below(n));
    ASSERT_EQ(engine.point(u, v), ref[v]) << u << "," << v;
  }
  std::remove(path.c_str());
}

TEST(QueryService, OpenFileStoreRejectsMissingAndMisSized) {
  EXPECT_THROW(core::open_file_store("no_such_store_file.bin"), IoError);
  const std::string path = "query_service_badsize.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // 7 dist_t elements: not a square matrix of any integer dimension.
    const dist_t junk[7] = {};
    std::fwrite(junk, sizeof(dist_t), 7, f);
    std::fclose(f);
  }
  EXPECT_THROW(core::open_file_store(path), IoError);
  std::remove(path.c_str());
}

TEST(BlockCache, NegativeTileEntriesChargeNoBytes) {
  // Budget fits exactly one real 16-element block; the shared all-kInf
  // tile is far larger, yet caching it must cost nothing and never evict.
  BlockCache cache(16 * sizeof(dist_t), /*shards=*/1);
  const auto inf = make_block(1024, kInf);
  cache.set_negative_tile(inf);
  int neg_loads = 0;
  auto neg_loader = [&] {
    ++neg_loads;
    return inf;
  };
  const auto a = cache.get_or_load(0, 0, neg_loader);
  EXPECT_EQ(a.get(), inf.get());
  cache.get_or_load(0, 0, neg_loader);  // now a hit
  EXPECT_EQ(neg_loads, 1);
  cache.get_or_load(5, 5, [] { return make_block(16, 3); });
  // A flood of negative tiles must not push the real block out.
  for (vidx_t i = 1; i < 40; ++i) cache.get_or_load(i, 0, neg_loader);
  int reloaded = 0;
  cache.get_or_load(5, 5, [&] {
    ++reloaded;
    return make_block(16, 3);
  });
  EXPECT_EQ(reloaded, 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.negative_loads, 40);
  EXPECT_EQ(s.bytes_cached, 16 * sizeof(dist_t));
  EXPECT_EQ(s.evictions, 0);
}

TEST(QueryEngine, NegativeTilesServeDisconnectedRegionsAtZeroCost) {
  // Two disjoint line components over a raw RAM store: the engine's
  // scan-on-load path must collapse every cross-component tile to the
  // shared all-kInf tile instead of spending cache budget on it.
  std::vector<graph::Edge> edges;
  const vidx_t half = 60;
  for (vidx_t v = 0; v + 1 < half; ++v) {
    edges.push_back({v, v + 1, 2});
    edges.push_back({half + v, half + v + 1, 3});
  }
  const auto g = graph::CsrGraph::from_edges(2 * half, std::move(edges), true);
  const auto s = solve(g, core::Algorithm::kJohnson);
  QueryEngineOptions opt;
  opt.block_size = 30;  // cross-component tiles are pure kInf
  const QueryEngine engine(*s.store, opt, s.result.perm);
  for (vidx_t u = 0; u < half; u += 11) {
    for (vidx_t v = half; v < 2 * half; v += 13) {
      ASSERT_EQ(engine.point(u, v), kInf);
      ASSERT_EQ(engine.point(v, u), kInf);
    }
  }
  const auto cs = engine.cache_stats();
  EXPECT_GT(cs.negative_loads, 0);
  EXPECT_EQ(cs.bytes_cached, 0u);  // only all-kInf tiles were touched
}

TEST(QueryEngine, CompressedStoreServesIdenticalAnswers) {
  // Solve → compress → serve: the engine snaps its grid to the stored
  // tiling and must answer exactly like the raw store, point and row.
  const auto g = graph::make_road(13, 12, 507);
  const auto s = solve(g, core::Algorithm::kBoundary);
  const std::string zpath = ::testing::TempDir() + "gapsp_query_z.bin";
  const auto cstats = core::write_compressed_store(*s.store, zpath,
                                                   /*tile=*/40);
  EXPECT_GT(cstats.ratio(), 1.0);
  const auto z = core::open_store(zpath);
  QueryEngineOptions opt;
  opt.block_size = 64;  // deliberately misaligned: the engine must snap
  const QueryEngine raw(*s.store, {}, s.result.perm);
  const QueryEngine zq(*z, opt, s.result.perm);
  std::vector<Query> qs;
  Rng rng(16);
  const vidx_t n = g.num_vertices();
  for (int i = 0; i < 400; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  qs.push_back({QueryKind::kRow, 9, 0});
  const auto want = raw.run_batch(qs);
  const auto got = zq.run_batch(qs);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
    ASSERT_EQ(got.results[i].row, want.results[i].row) << "query " << i;
  }
  std::remove(zpath.c_str());
}

TEST(BlockCache, ByteBudgetDistributesDivisionRemainder) {
  // Regression: the per-shard budget used to be the truncating
  // capacity/shards, silently dropping capacity%shards bytes — with small
  // budgets and many shards most of the configured capacity vanished.
  // 60 bytes over 8 shards truncated to 7 bytes/shard, so no shard could
  // ever hold two 4-byte tiles: at most 8 × 4 = 32 bytes cached. With the
  // remainder spread to the leading shards (4 shards of 8 bytes, 4 of 7),
  // half the shards hold two tiles and a full sweep settles above 32.
  BlockCache cache(60, /*shards=*/8);
  for (vidx_t i = 0; i < 400; ++i) {
    cache.get_or_load(i, i, [] { return make_block(1, 1); });
  }
  const auto s = cache.stats();
  EXPECT_GT(s.bytes_cached, 32u);   // pre-fix ceiling
  EXPECT_LE(s.bytes_cached, 60u);   // never above the configured budget
}

TEST(BlockCache, TinyBudgetStillServesEveryShard) {
  // capacity < shards: every shard's budget rounds to 0 or 1 byte; each
  // still keeps its most recent (oversized) block instead of thrashing.
  BlockCache cache(3, /*shards=*/8);
  for (vidx_t i = 0; i < 64; ++i) {
    const auto b = cache.get_or_load(i, 0, [] { return make_block(4, 2); });
    ASSERT_NE(b, nullptr);
    int reloaded = 0;
    cache.get_or_load(i, 0, [&] { ++reloaded; return make_block(4, 2); });
    EXPECT_EQ(reloaded, 0) << "block " << i << " not retained";
  }
}

TEST(LatencyStats, PercentileInterpolatesBetweenRanks) {
  // Regression: percentile() used nearest-rank (llround(q·(n−1))), so with
  // few samples p95 collapsed onto the max and p50 onto an arbitrary
  // neighbor. Linear interpolation gives the textbook values.
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.50), 2.5);   // was 3
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.95), 3.85);  // was 4 == max
  EXPECT_DOUBLE_EQ(latency_percentile(four, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_percentile(four, 1.0), 4.0);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(latency_percentile(ten, 0.95), 9.55);
  EXPECT_DOUBLE_EQ(latency_percentile(ten, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({7.0}, 0.95), 7.0);
}

/// Four undirected edge changes on `g`: two increases, two decreases.
std::vector<core::EdgeUpdate> four_edge_batch(const graph::CsrGraph& g,
                                              Rng& rng) {
  std::vector<core::EdgeUpdate> batch;
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (int k = 0; k < 4; ++k) {
    vidx_t u = 0;
    do {
      u = static_cast<vidx_t>(rng.next_below(n));
    } while (g.out_degree(u) == 0);
    const auto e = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(g.out_degree(u))));
    const vidx_t v = g.neighbors(u)[e];
    const dist_t w = g.weights(u)[e];
    const dist_t nw = k < 2 ? w + 1 + static_cast<dist_t>(rng.next_below(30))
                            : std::max<dist_t>(1, w / 2);
    batch.push_back({u, v, nw});
    batch.push_back({v, u, nw});
  }
  return batch;
}

TEST(QueryService, SuccessiveUpdateBatchesServeExactDistances) {
  // Regression: apply_updates repaired every batch against the raw store,
  // which never sees the overlay — from the second batch on it repaired
  // stale distances and served wrong ones. It must repair against what the
  // engine serves: the overlay tiles of earlier batches, then the store.
  const std::string path = ::testing::TempDir() + "gapsp_update_stream.bin";
  graph::CsrGraph g = graph::make_road(48, 48, 1);
  const vidx_t n = g.num_vertices();
  auto store = core::make_file_store(n, path);
  core::ApspOptions o;
  o.algorithm = core::Algorithm::kBlockedFloydWarshall;
  core::solve_apsp(g, o, *store);
  QueryEngine engine(*store, {});

  Rng rng(3);
  for (int batch_no = 1; batch_no <= 3; ++batch_no) {
    const auto batch = four_edge_batch(g, rng);
    engine.apply_updates(g, batch);
    g = core::apply_edge_updates(g, batch);
    for (int k = 0; k < 16; ++k) {
      const auto u = static_cast<vidx_t>(rng.next_below(n));
      ASSERT_EQ(engine.row(u), sssp::dijkstra(g, u))
          << "row " << u << " after batch " << batch_no;
    }
  }
}

TEST(QueryService, ReadOnlyStoreRejectsWrites) {
  const std::string path = "query_service_ro.bin";
  {
    auto store = core::make_file_store(4, path, /*keep_file=*/true);
    std::vector<dist_t> row(4, 1);
    for (vidx_t r = 0; r < 4; ++r) {
      store->write_block(r, 0, 1, 4, row.data(), 4);
    }
  }
  auto ro = core::open_file_store(path);
  EXPECT_EQ(ro->at(2, 3), 1);
  dist_t one = 5;
  EXPECT_THROW(ro->write_block(0, 0, 1, 1, &one, 1), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::service
