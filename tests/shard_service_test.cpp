// Sharded-store + router coverage: GAPSPSH1 manifest round-trips (raw and
// GAPSPZ1 sources, ragged last shard), slice stores that refuse rows they
// do not own, the in-process kBatchReply wire round trip, router-vs-single-
// engine bit parity (in-process and forked worker processes), and the
// typed degradation sweep — a killed worker quarantines exactly its row
// range while sibling shards stay bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/shard_store.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "service/wire.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::service {
namespace {

using core::DistStore;
using core::ShardManifest;

/// Solves into a kept raw file store.
void solve_to_file(const graph::CsrGraph& g, const std::string& path,
                   core::Algorithm algo) {
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  o.algorithm = algo;
  auto store = core::make_file_store(g.num_vertices(), path,
                                     /*keep_file=*/true);
  core::solve_apsp(g, o, *store);
}

void remove_shard_files(const std::string& path, const ShardManifest& m) {
  std::remove(core::shard_manifest_path(path).c_str());
  for (int k = 0; k < m.num_shards(); ++k) {
    std::remove(core::shard_file_path(path, k).c_str());
  }
  std::remove(path.c_str());
}

std::vector<Query> random_queries(vidx_t n, int points, int rows,
                                  std::uint64_t seed) {
  std::vector<Query> qs;
  Rng rng(seed);
  for (int i = 0; i < points; ++i) {
    qs.push_back({QueryKind::kPoint, static_cast<vidx_t>(rng.next_below(n)),
                  static_cast<vidx_t>(rng.next_below(n))});
  }
  for (int i = 0; i < rows; ++i) {
    qs.push_back(
        {QueryKind::kRow, static_cast<vidx_t>(rng.next_below(n)), 0});
  }
  return qs;
}

void expect_same_results(const BatchReport& got, const BatchReport& want) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < got.results.size(); ++i) {
    ASSERT_EQ(got.results[i].status, want.results[i].status) << "query " << i;
    ASSERT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
    ASSERT_EQ(got.results[i].row, want.results[i].row) << "query " << i;
  }
}

TEST(ShardStore, RawManifestRoundTripWithRaggedLastShard) {
  const std::string path = ::testing::TempDir() + "gapsp_shard_raw.bin";
  const auto g = graph::make_road(11, 11, 601);  // n=121: ragged vs tile 32
  solve_to_file(g, path, core::Algorithm::kJohnson);

  core::ShardingStats stats;
  const auto m = core::shard_store_file(path, /*num_shards=*/3, /*tile=*/32,
                                        &stats);
  EXPECT_FALSE(m.compressed);
  EXPECT_EQ(m.n, 121);
  EXPECT_EQ(m.tile, 32);
  ASSERT_EQ(m.num_shards(), 3);
  // Contiguous whole-tile ranges covering [0, n), last one ragged.
  EXPECT_EQ(m.shards[0].row_begin, 0);
  for (int k = 0; k + 1 < 3; ++k) {
    EXPECT_EQ(m.shards[static_cast<std::size_t>(k)].row_end,
              m.shards[static_cast<std::size_t>(k) + 1].row_begin);
    EXPECT_EQ(m.shards[static_cast<std::size_t>(k)].row_begin % 32, 0);
  }
  EXPECT_EQ(m.shards[2].row_end, 121);
  EXPECT_NE(m.shards[2].row_end % 32, 0);  // genuinely ragged
  EXPECT_GT(stats.bytes_written, 0u);

  ShardManifest loaded;
  ASSERT_TRUE(core::load_shard_manifest(core::shard_manifest_path(path),
                                        loaded));
  ASSERT_EQ(loaded.num_shards(), 3);
  EXPECT_EQ(loaded.n, m.n);
  EXPECT_EQ(loaded.tile, m.tile);
  EXPECT_EQ(loaded.compressed, m.compressed);
  for (int k = 0; k < 3; ++k) {
    const auto& a = m.shards[static_cast<std::size_t>(k)];
    const auto& b = loaded.shards[static_cast<std::size_t>(k)];
    EXPECT_EQ(a.row_begin, b.row_begin);
    EXPECT_EQ(a.row_end, b.row_end);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.checksum, b.checksum);
  }
  remove_shard_files(path, m);
}

TEST(ShardStore, SlicesReproduceTheStoreAndRejectForeignRows) {
  const std::string path = ::testing::TempDir() + "gapsp_shard_slice.bin";
  const auto g = graph::make_road(11, 11, 602);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 3, 32);
  const auto whole = core::open_file_store(path);

  std::vector<dist_t> want(static_cast<std::size_t>(m.n));
  std::vector<dist_t> got(static_cast<std::size_t>(m.n));
  for (int k = 0; k < m.num_shards(); ++k) {
    const auto slice = core::open_shard_slice(path, m, k);
    EXPECT_EQ(slice->n(), m.n);  // full-n addressing, partial ownership
    const auto& r = m.shards[static_cast<std::size_t>(k)];
    for (vidx_t u = r.row_begin; u < r.row_end; u += 7) {
      whole->read_block(u, 0, 1, m.n, want.data(), want.size());
      slice->read_block(u, 0, 1, m.n, got.data(), got.size());
      ASSERT_EQ(want, got) << "shard " << k << " row " << u;
    }
    // Rows the shard does not own are an IoError, not garbage or kInf.
    const vidx_t foreign = r.row_begin > 0 ? 0 : r.row_end;
    EXPECT_THROW(slice->read_block(foreign, 0, 1, m.n, got.data(),
                                   got.size()),
                 IoError);
  }
  remove_shard_files(path, m);
}

TEST(ShardStore, CompressedManifestRoundTripAndParity) {
  const std::string raw = ::testing::TempDir() + "gapsp_shard_z_src.bin";
  const std::string zpath = ::testing::TempDir() + "gapsp_shard_z.bin";
  const auto g = graph::make_road(11, 11, 603);
  solve_to_file(g, raw, core::Algorithm::kJohnson);
  {
    const auto src = core::open_file_store(raw);
    core::write_compressed_store(*src, zpath, /*tile=*/32);
  }
  const auto m = core::shard_store_file(zpath, 3, /*tile ignored for z1*/ 0);
  EXPECT_TRUE(m.compressed);
  EXPECT_EQ(m.tile, 32);  // inherited from the GAPSPZ1 tiling

  const auto whole = core::open_store(zpath);
  std::vector<dist_t> want(static_cast<std::size_t>(m.n));
  std::vector<dist_t> got(static_cast<std::size_t>(m.n));
  for (int k = 0; k < m.num_shards(); ++k) {
    const auto slice = core::open_shard_slice(zpath, m, k);
    EXPECT_EQ(slice->tile_size(), 32);  // cache grids snap to the tiling
    const auto& r = m.shards[static_cast<std::size_t>(k)];
    for (vidx_t u = r.row_begin; u < r.row_end; u += 5) {
      whole->read_block(u, 0, 1, m.n, want.data(), want.size());
      slice->read_block(u, 0, 1, m.n, got.data(), got.size());
      ASSERT_EQ(want, got) << "z1 shard " << k << " row " << u;
    }
  }
  remove_shard_files(zpath, m);
  std::remove(raw.c_str());
}

TEST(ShardStore, ShardOfRowBinarySearchBoundaries) {
  const std::string path = ::testing::TempDir() + "gapsp_shard_rows.bin";
  const auto g = graph::make_road(11, 11, 604);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 3, 32);
  for (int k = 0; k < m.num_shards(); ++k) {
    const auto& r = m.shards[static_cast<std::size_t>(k)];
    EXPECT_EQ(m.shard_of_row(r.row_begin), k);
    EXPECT_EQ(m.shard_of_row(r.row_end - 1), k);
  }
  EXPECT_EQ(m.shard_of_row(-1), -1);
  EXPECT_EQ(m.shard_of_row(m.n), -1);
  remove_shard_files(path, m);
}

TEST(ShardStore, VerifiedOpenDetectsCorruptShardFile) {
  const std::string path = ::testing::TempDir() + "gapsp_shard_corrupt.bin";
  const auto g = graph::make_road(11, 11, 605);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 2, 32);

  const std::string victim = core::shard_file_path(path, 1);
  {
    std::FILE* f = std::fopen(victim.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 4096, SEEK_SET), 0);
    const unsigned char junk = 0xa5;
    ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_THROW(core::open_shard_slice(path, m, 1), CorruptError);
  // The sibling shard is untouched and still verifies.
  EXPECT_NO_THROW(core::open_shard_slice(path, m, 0));
  remove_shard_files(path, m);
}

TEST(ShardWire, BatchReplyRoundTripsPointRowAndDegradedResults) {
  // A point result carries an empty row and an empty error: the decoder
  // must read those zero-length fields without touching a null buffer.
  BatchReport report;
  QueryResult point;
  point.query = {QueryKind::kPoint, 3, 7};
  point.dist = 42;
  point.latency_s = 1.5e-6;
  report.results.push_back(point);
  QueryResult row;
  row.query = {QueryKind::kRow, 5, 0};
  row.row = {0, 4, kInf, 9};
  report.results.push_back(row);
  QueryResult degraded;
  degraded.query = {QueryKind::kPoint, 1, 2};
  degraded.status = QueryStatus::kQuarantined;
  degraded.error = "tile (0,0) quarantined";
  report.results.push_back(degraded);
  report.service.served = 2;
  report.service.degraded = 1;
  report.cache.hits = 11;
  report.cache.misses = 3;
  report.wall_seconds = 0.25;

  const auto reply = decode_batch_reply(encode_batch_reply(report));
  ASSERT_EQ(reply.results.size(), report.results.size());
  for (std::size_t i = 0; i < reply.results.size(); ++i) {
    const QueryResult& got = reply.results[i];
    const QueryResult& want = report.results[i];
    EXPECT_EQ(got.query.kind, want.query.kind) << "result " << i;
    EXPECT_EQ(got.query.u, want.query.u) << "result " << i;
    EXPECT_EQ(got.query.v, want.query.v) << "result " << i;
    EXPECT_EQ(got.status, want.status) << "result " << i;
    EXPECT_EQ(got.dist, want.dist) << "result " << i;
    EXPECT_EQ(got.row, want.row) << "result " << i;
    EXPECT_EQ(got.error, want.error) << "result " << i;
    EXPECT_EQ(got.latency_s, want.latency_s) << "result " << i;
  }
  EXPECT_EQ(reply.service.served, 2);
  EXPECT_EQ(reply.service.degraded, 1);
  EXPECT_EQ(reply.cache.hits, 11);
  EXPECT_EQ(reply.cache.misses, 3);
  EXPECT_EQ(reply.wall_seconds, 0.25);
}

TEST(ShardRouter, LocalBackendsMatchSingleEngineBitForBit) {
  // Boundary solve: the device renumbers vertices, the store does not, so
  // the router shards and routes by original row like any other store.
  const std::string path = ::testing::TempDir() + "gapsp_router_parity.bin";
  const auto g = graph::make_road(12, 11, 606);
  solve_to_file(g, path, core::Algorithm::kBoundary);
  const auto m = core::shard_store_file(path, 3, 32);

  const auto whole = core::open_file_store(path);
  QueryEngineOptions opt;
  opt.block_size = 32;
  const QueryEngine single(*whole, opt);
  ShardRouter router(m, make_local_backends(path, m, opt));

  const auto qs = random_queries(m.n, 300, 10, 607);
  const auto want = single.run_batch(qs);
  const auto got = router.run_batch(qs);
  expect_same_results(got, want);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got.results[i].dist, test::ref_row(g, qs[i].u)[qs[i].v]);
  }
  EXPECT_EQ(got.service.served,
            static_cast<long long>(qs.size()));
  remove_shard_files(path, m);
}

TEST(ShardRouter, ForkedWorkerProcessesMatchSingleEngine) {
  const std::string path = ::testing::TempDir() + "gapsp_router_fork.bin";
  const auto g = graph::make_road(11, 11, 608);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 3, 32);

  const auto whole = core::open_file_store(path);
  QueryEngineOptions opt;
  opt.block_size = 32;
  const QueryEngine single(*whole, opt);

  ShardWorkerOptions wopt;
  wopt.engine = opt;
  auto spawner = make_fork_worker_spawner(path, wopt);
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int k = 0; k < m.num_shards(); ++k) {
    backends.push_back(make_process_backend(spawner, k, m));
  }
  ShardRouter router(m, std::move(backends));

  const auto qs = random_queries(m.n, 200, 6, 609);
  const auto want = single.run_batch(qs);
  // Two batches through the same workers: results stable across requests.
  for (int round = 0; round < 2; ++round) {
    const auto got = router.run_batch(qs);
    expect_same_results(got, want);
  }
  remove_shard_files(path, m);
}

TEST(ShardRouter, KilledWorkerDegradesExactlyItsRowRange) {
  const std::string path = ::testing::TempDir() + "gapsp_router_kill.bin";
  const auto g = graph::make_road(11, 11, 610);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 3, 32);

  const auto whole = core::open_file_store(path);
  const QueryEngine single(*whole);

  // Worker 1 dies on its first batch; no retries, no respawn: its whole
  // row range must come back kQuarantined while shards 0 and 2 stay
  // bit-identical to the single engine. The batch itself never throws.
  ShardWorkerOptions wopt;
  wopt.exit_after = 1;
  ProcessBackendOptions popt;
  popt.retries = 0;
  popt.respawn = false;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int k = 0; k < m.num_shards(); ++k) {
    ShardWorkerOptions wk;
    wk.exit_after = (k == 1) ? 1 : 0;
    backends.push_back(make_process_backend(
        make_fork_worker_spawner(path, wk), k, m, popt));
  }
  ShardRouter router(m, std::move(backends));

  const auto qs = random_queries(m.n, 250, 8, 611);
  const auto want = single.run_batch(qs);
  const auto got = router.run_batch(qs);
  ASSERT_EQ(got.results.size(), qs.size());
  const auto& dead = m.shards[1];
  long long quarantined = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const bool owned_by_dead =
        qs[i].u >= dead.row_begin && qs[i].u < dead.row_end;
    if (owned_by_dead) {
      ++quarantined;
      ASSERT_EQ(got.results[i].status, QueryStatus::kQuarantined)
          << "query " << i;
      EXPECT_NE(got.results[i].error.find("worker dead"), std::string::npos);
    } else {
      ASSERT_EQ(got.results[i].status, QueryStatus::kOk) << "query " << i;
      ASSERT_EQ(got.results[i].dist, want.results[i].dist) << "query " << i;
      ASSERT_EQ(got.results[i].row, want.results[i].row) << "query " << i;
    }
  }
  EXPECT_GT(quarantined, 0);  // the sweep actually covered the dead range
  EXPECT_EQ(got.service.degraded, quarantined);
  EXPECT_EQ(got.service.served,
            static_cast<long long>(qs.size()) - quarantined);
  remove_shard_files(path, m);
}

TEST(ShardRouter, RespawnRetryHealsAWorkerThatDiesMidBatch) {
  const std::string path = ::testing::TempDir() + "gapsp_router_heal.bin";
  const auto g = graph::make_road(11, 11, 612);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 2, 32);

  const auto whole = core::open_file_store(path);
  const QueryEngine single(*whole);

  // Worker 0 dies on its *second* batch. With respawn+1 retry the replacement
  // serves the resent batch as its own first — the caller never sees the
  // death.
  ProcessBackendOptions popt;
  popt.retries = 1;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (int k = 0; k < m.num_shards(); ++k) {
    ShardWorkerOptions wk;
    wk.exit_after = (k == 0) ? 2 : 0;
    backends.push_back(make_process_backend(
        make_fork_worker_spawner(path, wk), k, m, popt));
  }
  ShardRouter router(m, std::move(backends));

  const auto qs = random_queries(m.n, 120, 4, 613);
  const auto want = single.run_batch(qs);
  for (int round = 0; round < 3; ++round) {
    const auto got = router.run_batch(qs);
    expect_same_results(got, want);  // round 2 rides through the respawn
  }
  remove_shard_files(path, m);
}

TEST(ShardRouter, CorruptSliceDegradesOnlyItsShard) {
  const std::string path = ::testing::TempDir() + "gapsp_router_corrupt.bin";
  const auto g = graph::make_road(11, 11, 614);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 3, 32);
  {
    const std::string victim = core::shard_file_path(path, 2);
    std::FILE* f = std::fopen(victim.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 2048, SEEK_SET), 0);
    const unsigned char junk = 0x5a;
    ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
    std::fclose(f);
  }
  // make_local_backends must absorb the CorruptError into a degraded
  // backend, not throw the router construction away.
  ShardRouter router(m, make_local_backends(path, m, {}));
  const auto qs = random_queries(m.n, 100, 4, 615);
  const auto got = router.run_batch(qs);
  const auto& bad = m.shards[2];
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const bool in_bad = qs[i].u >= bad.row_begin && qs[i].u < bad.row_end;
    ASSERT_EQ(got.results[i].status,
              in_bad ? QueryStatus::kQuarantined : QueryStatus::kOk)
        << "query " << i;
  }
  remove_shard_files(path, m);
}

TEST(ShardRouter, ShedsBeyondAdmissionAndTypesBadVertices) {
  const std::string path = ::testing::TempDir() + "gapsp_router_shed.bin";
  const auto g = graph::make_road(11, 11, 616);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 2, 32);

  ShardRouterOptions ropt;
  ropt.max_queue = 3;
  ShardRouter router(m, make_local_backends(path, m, {}), ropt);
  std::vector<Query> qs = {
      {QueryKind::kPoint, 0, 1},
      {QueryKind::kPoint, 5, static_cast<vidx_t>(m.n)},  // out of range
      {QueryKind::kPoint, -3, 0},                        // out of range
      {QueryKind::kPoint, 1, 2},                         // shed (beyond 3)
      {QueryKind::kRow, 2, 0},                           // shed
  };
  const auto got = router.run_batch(qs);
  ASSERT_EQ(got.results.size(), qs.size());
  EXPECT_EQ(got.results[0].status, QueryStatus::kOk);
  EXPECT_EQ(got.results[1].status, QueryStatus::kError);
  EXPECT_EQ(got.results[2].status, QueryStatus::kError);
  EXPECT_EQ(got.results[3].status, QueryStatus::kShed);
  EXPECT_EQ(got.results[4].status, QueryStatus::kShed);
  EXPECT_EQ(got.service.shed, 2);
  remove_shard_files(path, m);
}

TEST(ShardStore, ManifestValidationRejectsDamage) {
  const std::string path = ::testing::TempDir() + "gapsp_manifest_bad.bin";
  const auto g = graph::make_road(11, 11, 617);
  solve_to_file(g, path, core::Algorithm::kJohnson);
  const auto m = core::shard_store_file(path, 2, 32);
  const std::string mpath = core::shard_manifest_path(path);

  // Missing manifest is a clean false, not a throw.
  ShardManifest out;
  EXPECT_FALSE(core::load_shard_manifest(mpath + ".nope", out));

  // A flipped byte inside the entry table must fail the directory checksum.
  {
    std::FILE* f = std::fopen(mpath.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + 8, SEEK_SET), 0);  // entry 0, row_end
    const unsigned char junk = 0xff;
    ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_THROW(core::load_shard_manifest(mpath, out), CorruptError);
  remove_shard_files(path, m);
}

}  // namespace
}  // namespace gapsp::service
