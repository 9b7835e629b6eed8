// Concurrent store reads. Four pool threads make random full-tile,
// partial-tile and full-row read_block calls plus CheckedTileReader::
// read_tile calls against every file-backed format — a raw store read
// through the CheckedStore of its GAPSPSM1 sidecar, a GAPSPZ1 store, and
// GAPSPSD1 slices of
// both payloads — and every result must equal, bit for bit, the same read
// made on one thread. A cold-cache ShardRouter batch over local backends
// then runs the serving tier's parallel miss path against one engine. CI
// runs this binary under TSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/shard_store.h"
#include "core/store_integrity.h"
#include "core/tile_reader.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "sim/fault.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gapsp {
namespace {

using core::DistStore;

constexpr vidx_t kTile = 32;
constexpr int kShards = 3;

/// One solved road graph kept as a raw store, its GAPSPZ1 compaction, and
/// row-range shards of both. Built once per process, removed at exit.
struct Stores {
  std::string raw = ::testing::TempDir() + "gapsp_conc_raw.bin";
  std::string z1 = ::testing::TempDir() + "gapsp_conc_z1.bin";
  core::ShardManifest raw_shards;
  core::ShardManifest z1_shards;

  Stores() {
    const auto g = graph::make_road(15, 14, 4242);  // n = 210: ragged tiles
    core::ApspOptions o;
    o.device = sim::DeviceSpec::v100_scaled(2u << 20);
    o.fw_tile = 32;
    o.algorithm = core::Algorithm::kBoundary;  // renumbers on the device
    {
      auto store = core::make_file_store(g.num_vertices(), raw, true);
      core::solve_apsp(g, o, *store);
    }
    core::compact_store(raw, z1, kTile);
    z1_shards = core::shard_store_file(z1, kShards, kTile);
    raw_shards = core::shard_store_file(raw, kShards, kTile);
  }
  ~Stores() {
    remove_all(raw, raw_shards);
    remove_all(z1, z1_shards);
  }
  static void remove_all(const std::string& path,
                         const core::ShardManifest& m) {
    for (int k = 0; k < m.num_shards(); ++k) {
      std::remove(core::shard_file_path(path, k).c_str());
    }
    std::remove(core::shard_manifest_path(path).c_str());
    std::remove(path.c_str());
  }
};

const Stores& stores() {
  static const Stores s;
  return s;
}

struct Read {
  enum Kind { kWholeTile, kPartial, kRows, kCheckedTile } kind;
  vidx_t row0, col0, rows, cols;
};

/// Random reads whose rows stay inside [lo, hi).
std::vector<Read> random_reads(vidx_t n, vidx_t lo, vidx_t hi,
                               std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&](vidx_t a, vidx_t b) {  // uniform in [a, b)
    return a + static_cast<vidx_t>(
                   rng.next_below(static_cast<std::uint64_t>(b - a)));
  };
  std::vector<Read> reads;
  for (int i = 0; i < 400; ++i) {
    Read r{static_cast<Read::Kind>(rng.next_below(4)), 0, 0, 0, 0};
    switch (r.kind) {
      case Read::kWholeTile:
      case Read::kCheckedTile:
        r.row0 = pick(lo / kTile, (hi + kTile - 1) / kTile) * kTile;
        r.col0 = pick(0, (n + kTile - 1) / kTile) * kTile;
        r.rows = std::min<vidx_t>(kTile, n - r.row0);
        r.cols = std::min<vidx_t>(kTile, n - r.col0);
        break;
      case Read::kPartial:
        r.row0 = pick(lo, hi);
        r.col0 = pick(0, n);
        r.rows = pick(1, std::min<vidx_t>(hi - r.row0, 2 * kTile) + 1);
        r.cols = pick(1, std::min<vidx_t>(n - r.col0, 2 * kTile) + 1);
        break;
      case Read::kRows:
        r.row0 = pick(lo, hi);
        r.rows = pick(1, std::min<vidx_t>(hi - r.row0, 3) + 1);
        r.cols = n;
        break;
    }
    reads.push_back(r);
  }
  return reads;
}

std::vector<dist_t> run(const Read& r, const DistStore& store,
                        core::CheckedTileReader& reader) {
  std::vector<dist_t> out(static_cast<std::size_t>(r.rows) * r.cols, -1);
  if (r.kind == Read::kCheckedTile) {
    reader.read_tile(r.row0 / kTile, r.col0 / kTile, r.row0, r.col0, r.rows,
                     r.cols, out.data());
  } else {
    store.read_block(r.row0, r.col0, r.rows, r.cols, out.data(),
                     static_cast<std::size_t>(r.cols));
  }
  return out;
}

/// Runs the reads on one thread, then three times from four pool threads,
/// and requires every concurrent result to match the single-threaded one.
void expect_concurrent_reads_match(const DistStore& store,
                                   core::CheckedTileReader& reader, vidx_t lo,
                                   vidx_t hi, std::uint64_t seed) {
  const auto reads = random_reads(store.n(), lo, hi, seed);
  std::vector<std::vector<dist_t>> want;
  for (const Read& r : reads) want.push_back(run(r, store, reader));

  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<dist_t>> got(reads.size());
    pool.parallel_for(
        reads.size(),
        [&](std::size_t i) { got[i] = run(reads[i], store, reader); },
        /*grain=*/1);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const Read& r = reads[i];
      ASSERT_EQ(got[i], want[i])
          << "round " << round << " read " << i << " kind " << r.kind << " at ("
          << r.row0 << "," << r.col0 << ") " << r.rows << "x" << r.cols;
    }
  }
  EXPECT_EQ(reader.stats().corrupt_tiles, 0);
  EXPECT_EQ(reader.stats().transient_failures, 0);
}

TEST(StoreConcurrency, RawStoreWithSidecar) {
  const auto raw = core::open_file_store(stores().raw);
  const core::CheckedStore store(
      *raw, core::compute_store_checksums(*raw, kTile), stores().raw);
  ASSERT_EQ(store.tile_size(), kTile);
  core::CheckedTileReader reader(store);
  expect_concurrent_reads_match(store, reader, 0, store.n(), 1);
}

TEST(StoreConcurrency, CompressedStore) {
  const auto store = core::open_store(stores().z1);
  ASSERT_EQ(store->tile_size(), kTile);
  core::CheckedTileReader reader(*store);
  expect_concurrent_reads_match(*store, reader, 0, store->n(), 2);
}

TEST(StoreConcurrency, ShardSlicesOfBothPayloads) {
  for (const auto* path : {&stores().z1, &stores().raw}) {
    const core::ShardManifest& m =
        path == &stores().z1 ? stores().z1_shards : stores().raw_shards;
    for (int k = 0; k < m.num_shards(); ++k) {
      SCOPED_TRACE(*path + " shard " + std::to_string(k));
      const auto slice = core::open_shard_slice(*path, m, k);
      core::CheckedTileReader reader(*slice);
      const core::ShardRange& r = m.shards[static_cast<std::size_t>(k)];
      expect_concurrent_reads_match(*slice, reader, r.row_begin, r.row_end,
                                    10 + static_cast<std::uint64_t>(k));
    }
  }
}

TEST(StoreConcurrency, FaultGateStaysExactUnderContention) {
  // With an injector attached every physical attempt passes the locked
  // fault gate; transient faults retry until the read lands, so results
  // still match and every fault shows up as a retry.
  const auto store = core::open_store(stores().z1);
  sim::FaultPlan plan;
  plan.p_store_read = 0.3;
  sim::FaultInjector faults(plan);
  core::TileReaderOptions opt;
  opt.retry.max_retries = 64;
  opt.retry.backoff_s = 0.0;
  opt.faults = &faults;
  core::CheckedTileReader reader(*store, opt);
  expect_concurrent_reads_match(*store, reader, 0, store->n(), 3);
  EXPECT_GT(reader.stats().retries, 0);
}

TEST(StoreConcurrency, ColdShardRouterMatchesOneEngine) {
  const Stores& s = stores();
  service::QueryEngineOptions opt;
  opt.block_size = kTile;
  opt.cache_bytes = 8 * kTile * kTile * sizeof(dist_t);  // mostly misses
  const auto whole = core::open_store(s.z1);
  const service::QueryEngine single(*whole, opt);

  std::vector<service::Query> qs;
  Rng rng(77);
  const vidx_t n = whole->n();
  for (int i = 0; i < 600; ++i) {
    qs.push_back({service::QueryKind::kPoint,
                  static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  for (int i = 0; i < 12; ++i) {
    qs.push_back({service::QueryKind::kRow,
                  static_cast<vidx_t>(rng.next_below(n)), 0});
  }
  const auto want = single.run_batch(qs);
  ASSERT_EQ(want.service.served, static_cast<long long>(qs.size()));

  service::ShardRouter router(
      s.z1_shards, service::make_local_backends(s.z1, s.z1_shards, opt));
  const auto got = router.run_batch(qs);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(got.results[i].status, want.results[i].status) << "query " << i;
    ASSERT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
    ASSERT_EQ(got.results[i].row, want.results[i].row) << "query " << i;
  }
  EXPECT_GT(got.cache.misses, 0);
}

}  // namespace
}  // namespace gapsp
