// Serving-tier fault tolerance (DESIGN.md §13): the GAPSPSM1 checksum
// sidecar and the CheckedStore that verifies against it, the
// CheckedTileReader's retry ladder, BlockCache
// quarantine + racing-publish rescue, QueryEngine degraded serving /
// on-demand repair / overload shedding, and the offline scrubber.
//
// The headline invariant, checked by the corrupt-at-every-tile sweeps:
// whatever single tile rots on disk, every query either returns the correct
// distance or a typed per-query error — the process never dies, sibling
// queries never degrade, and untouched tiles stay bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/scrub.h"
#include "core/shard_store.h"
#include "core/store_integrity.h"
#include "core/tile_reader.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "sim/fault.h"
#include "test_util.h"
#include "util/file_io.h"

namespace gapsp::service {
namespace {

using core::BlockData;
using core::StoreChecksums;
using core::TileError;
using core::TileFailure;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "gapsp_fault_service_" + tag + ".bin";
}

BlockData make_block(std::size_t elems, dist_t fill) {
  return std::make_shared<const std::vector<dist_t>>(elems, fill);
}

util::RetryPolicy fast_retry(int max_retries = 3) {
  util::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff_s = 1e-6;  // keep retry ladders fast in tests
  return p;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// BlockCache: racing-publish rescue (the pre-existing bug) and quarantine.
// ---------------------------------------------------------------------------

// Regression: a loader failure used to propagate even when a racing thread
// had already published a valid copy of the same key — the caller saw an
// error for data the cache could serve. Simulated deterministically: the
// loader itself publishes the key (as the racing winner would) and then
// fails.
TEST(BlockCacheFault, LoaderFailureRescuedByRacingPublish) {
  core::BlockCache cache(1u << 20, /*shards=*/1);
  const auto winner = make_block(16, 7);
  const auto got = cache.get_or_load(3, 4, [&]() -> BlockData {
    cache.get_or_load(3, 4, [&] { return winner; });  // racing thread wins
    throw IoError("loser's read failed after the winner published");
  });
  EXPECT_EQ(got, winner);
  EXPECT_FALSE(cache.is_quarantined(3, 4));
  // The served entry is a real hit for later readers.
  int loads = 0;
  EXPECT_EQ(cache.get_or_load(3, 4, [&] { ++loads; return winner; }), winner);
  EXPECT_EQ(loads, 0);
}

TEST(BlockCacheFault, PlainErrorPropagatesWithoutQuarantine) {
  core::BlockCache cache(1u << 20, 2);
  // A plain IoError is not evidence of persistent damage (the checked
  // reader throws TileError once it *is*): propagate but allow re-tries.
  EXPECT_THROW(cache.get_or_load(0, 0,
                                 []() -> BlockData {
                                   throw IoError("transient hiccup");
                                 }),
               IoError);
  EXPECT_FALSE(cache.is_quarantined(0, 0));
  const auto got = cache.get_or_load(0, 0, [] { return make_block(4, 1); });
  EXPECT_EQ(got->at(0), 1);
}

TEST(BlockCacheFault, TileErrorQuarantinesAndPublishHeals) {
  core::BlockCache cache(1u << 20, 2);
  EXPECT_THROW(cache.get_or_load(1, 2,
                                 []() -> BlockData {
                                   throw TileError(TileFailure::kCorrupt, 1, 2,
                                                   "checksum mismatch");
                                 }),
               TileError);
  EXPECT_TRUE(cache.is_quarantined(1, 2));

  // Later misses fail fast without re-reading the sick byte range.
  int loads = 0;
  try {
    cache.get_or_load(1, 2, [&] { ++loads; return make_block(4, 9); });
    FAIL() << "quarantined tile served";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kQuarantined);
    EXPECT_EQ(e.row_block(), 1);
    EXPECT_EQ(e.col_block(), 2);
  }
  EXPECT_EQ(loads, 0);
  auto s = cache.stats();
  EXPECT_EQ(s.quarantined_tiles, 1);
  EXPECT_EQ(s.quarantine_hits, 1);

  // Repair path: publish() replaces the mark with served data.
  const auto fixed = make_block(4, 5);
  cache.publish(1, 2, fixed);
  EXPECT_FALSE(cache.is_quarantined(1, 2));
  EXPECT_EQ(cache.get_or_load(1, 2, [&] { ++loads; return fixed; }), fixed);
  EXPECT_EQ(loads, 0);
  EXPECT_EQ(cache.stats().quarantined_tiles, 0);
}

TEST(BlockCacheFault, ClearQuarantineDropsAllMarks) {
  core::BlockCache cache(1u << 20, 4);
  for (vidx_t k = 0; k < 3; ++k) {
    EXPECT_THROW(cache.get_or_load(k, k,
                                   [k]() -> BlockData {
                                     throw TileError(TileFailure::kTransient,
                                                     k, k, "dead disk");
                                   }),
                 TileError);
  }
  EXPECT_EQ(cache.stats().quarantined_tiles, 3);
  EXPECT_EQ(cache.clear_quarantine(), 3);
  EXPECT_EQ(cache.stats().quarantined_tiles, 0);
  EXPECT_NE(cache.get_or_load(0, 0, [] { return make_block(4, 2); }), nullptr);
}

// ---------------------------------------------------------------------------
// GAPSPSM1 checksum sidecar.
// ---------------------------------------------------------------------------

TEST(StoreIntegrity, SidecarRoundTripsAndDetectsTampering) {
  const auto store = core::make_ram_store(50);
  std::vector<dist_t> tile(50, 3);
  store->write_block(7, 0, 1, 50, tile.data(), 50);

  const auto sums = core::compute_store_checksums(*store, /*tile=*/16);
  EXPECT_EQ(sums.n, 50);
  EXPECT_EQ(sums.tiles_per_side, 4);
  EXPECT_EQ(sums.sums.size(), 16u);

  const std::string path = temp_path("sidecar");
  core::write_store_checksums(sums, path);
  StoreChecksums back;
  ASSERT_TRUE(core::load_store_checksums(path, back));
  EXPECT_EQ(back.n, sums.n);
  EXPECT_EQ(back.tile, sums.tile);
  EXPECT_EQ(back.sums, sums.sums);

  // Missing file: absent, not an error.
  StoreChecksums none;
  EXPECT_FALSE(core::load_store_checksums(path + ".nope", none));
  EXPECT_FALSE(none.present());

  // A flipped byte in the sums array fails the sidecar's own self-check.
  auto bytes = read_file(path);
  bytes[bytes.size() - 1] ^= 0x40;
  write_file(path, bytes);
  EXPECT_THROW(core::load_store_checksums(path, back), CorruptError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CheckedTileReader: retry ladder, and the checked store's mismatches typed.
// ---------------------------------------------------------------------------

TEST(CheckedTileReader, RetriesTransientFaultsThenSucceeds) {
  const auto store = core::make_ram_store(32);
  sim::FaultPlan plan;
  // Fail the first two physical reads, transiently.
  plan.scripted.push_back({sim::FaultOp::kStoreRead, 1, -1, true});
  plan.scripted.push_back({sim::FaultOp::kStoreRead, 2, -1, true});
  sim::FaultInjector injector(plan);

  core::TileReaderOptions opt;
  opt.retry = fast_retry(3);
  opt.faults = &injector;
  core::CheckedTileReader reader(*store, opt);
  std::vector<dist_t> buf(16 * 16);
  reader.read_tile(0, 0, 0, 0, 16, 16, buf.data());
  EXPECT_EQ(buf[0], kInf);
  const auto s = reader.stats();
  EXPECT_EQ(s.reads, 1);
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.transient_failures, 0);
}

TEST(CheckedTileReader, ExhaustedRetriesThrowTransientTileError) {
  const auto store = core::make_ram_store(32);
  sim::FaultPlan plan;
  plan.p_store_read = 1.0;  // every read faults
  sim::FaultInjector injector(plan);
  core::TileReaderOptions opt;
  opt.retry = fast_retry(2);
  opt.faults = &injector;
  core::CheckedTileReader reader(*store, opt);
  std::vector<dist_t> buf(32 * 32);
  try {
    reader.read_tile(0, 0, 0, 0, 32, 32, buf.data());
    FAIL() << "read succeeded under p=1.0 faults";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kTransient);
  }
  const auto s = reader.stats();
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.transient_failures, 1);
}

TEST(CheckedTileReader, ChecksumMismatchIsCorruptNotRetried) {
  const vidx_t n = 40;
  const std::string path = temp_path("reader_corrupt");
  {
    auto store = core::make_file_store(n, path, /*keep_file=*/true);
    std::vector<dist_t> row(static_cast<std::size_t>(n), 5);
    for (vidx_t r = 0; r < n; ++r) {
      store->write_block(r, 0, 1, n, row.data(), row.size());
    }
  }
  const auto ro = core::open_file_store(path);
  const auto sums = core::compute_store_checksums(*ro, /*tile=*/16);

  // Flip one element inside tile (1, 1): stored row 16, col 16.
  auto bytes = read_file(path);
  bytes[(16 * static_cast<std::size_t>(n) + 16) * sizeof(dist_t)] ^= 0x01;
  write_file(path, bytes);

  const auto damaged = core::open_file_store(path);
  const core::CheckedStore checked(*damaged, sums, path);
  core::TileReaderOptions opt;
  opt.retry = fast_retry(3);
  core::CheckedTileReader reader(checked, opt);
  std::vector<dist_t> buf(16 * 16);
  reader.read_tile(0, 0, 0, 0, 16, 16, buf.data());  // clean tile is fine
  try {
    reader.read_tile(1, 1, 16, 16, 16, 16, buf.data());
    FAIL() << "corrupt tile served";
  } catch (const TileError& e) {
    EXPECT_EQ(e.kind(), TileFailure::kCorrupt);
  }
  const auto s = reader.stats();
  EXPECT_EQ(s.corrupt_tiles, 1);
  EXPECT_EQ(s.retries, 0);  // corruption is persistent: no retry ladder
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CheckedStore: the one verifier of raw bytes, reached through open_store,
// and land_store, the sidecar matrix.
// ---------------------------------------------------------------------------

/// A kept 40×40 raw store whose element (r, c) holds r·40 + c, with a
/// `.sum` on a 16-wide grid (tiles of 16, 16 and 8 per side) beside it.
std::string position_store(const std::string& tag) {
  const vidx_t n = 40;
  const std::string path = temp_path(tag);
  {
    auto store = core::make_file_store(n, path, /*keep_file=*/true);
    std::vector<dist_t> row(static_cast<std::size_t>(n));
    for (vidx_t r = 0; r < n; ++r) {
      for (vidx_t c = 0; c < n; ++c) row[static_cast<std::size_t>(c)] = r * n + c;
      store->write_block(r, 0, 1, n, row.data(), row.size());
    }
  }
  core::land_store(path, /*sum_tile=*/16);
  return path;
}

/// Overwrites element (r, c) of a 40×40 raw store with 7.
void overwrite_element(const std::string& path, vidx_t r, vidx_t c) {
  auto bytes = read_file(path);
  const dist_t seven = 7;
  std::memcpy(&bytes[(static_cast<std::size_t>(r) * 40 + c) * sizeof(dist_t)],
              &seven, sizeof(seven));
  write_file(path, bytes);
}

void remove_store(const std::string& path) {
  for (const std::string& f :
       {path, core::checksum_sidecar_path(path), core::shard_manifest_path(path),
        core::shard_file_path(path, 0), core::shard_file_path(path, 1)}) {
    std::remove(f.c_str());
  }
}

TEST(CheckedStore, StripOverWholeTilesThrowsNamingTheDamagedOne) {
  const std::string path = position_store("checked_strip");
  overwrite_element(path, 20, 36);  // tile (1,2), the ragged 16×8 one
  core::StoreFormat format = core::StoreFormat::kRaw;
  const auto store = core::open_store(path, &format);
  ASSERT_EQ(format, core::StoreFormat::kRawChecked);
  std::vector<dist_t> strip(16 * 40);
  // Tile row 0 is clean, and tiles (1,0) and (1,1) are whole and clean.
  store->read_block(0, 0, 16, 40, strip.data(), 40);
  store->read_block(16, 0, 16, 32, strip.data(), 40);
  EXPECT_EQ(strip[4 * 40 + 3], 20 * 40 + 3);
  try {
    store->read_block(16, 0, 16, 40, strip.data(), 40);
    FAIL() << "a strip over the damaged tile read clean";
  } catch (const CorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tile (1,2)"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  // A strip of two tile rows names the same tile.
  std::vector<dist_t> rows(32 * 40);
  EXPECT_THROW(store->read_block(8, 0, 32, 40, rows.data(), 40),
               CorruptError);
  remove_store(path);
}

TEST(CheckedStore, ReadInsideOneTilePassesUnchecked) {
  const std::string path = position_store("checked_partial");
  overwrite_element(path, 20, 36);
  const auto store = core::open_store(path);
  // No read below covers tile (1,2) whole, so each returns the damaged
  // bytes as they are, as the engine's misaligned reads always did.
  EXPECT_EQ(store->at(20, 36), 7);
  std::vector<dist_t> part(15 * 8);
  store->read_block(17, 32, 15, 8, part.data(), 8);
  EXPECT_EQ(part[3 * 8 + 4], 7);
  std::vector<dist_t> row(40);
  store->read_block(20, 0, 1, 40, row.data(), 40);
  EXPECT_EQ(row[36], 7);
  remove_store(path);
}

TEST(CheckedStore, TileSizeSnapsTheEngineAndCompaction) {
  const std::string path = position_store("checked_snap");
  overwrite_element(path, 20, 20);  // tile (1,1) of the sidecar grid
  const auto store = core::open_store(path);
  EXPECT_EQ(store->tile_size(), 16);
  // Asked for 7-wide blocks, the engine reads the sidecar's 16-wide tiles,
  // so the damaged tile is caught on a miss and the point quarantined.
  QueryEngineOptions opt;
  opt.block_size = 7;
  opt.retry = fast_retry(0);
  const QueryEngine engine(*store, opt);
  const std::vector<Query> queries = {{QueryKind::kPoint, 20, 20},
                                      {QueryKind::kPoint, 3, 30}};
  const auto report = engine.run_batch(queries);
  EXPECT_EQ(report.results[0].status, QueryStatus::kQuarantined);
  EXPECT_NE(report.results[0].error.find("tile (1,1)"), std::string::npos)
      << report.results[0].error;
  EXPECT_EQ(report.results[1].status, QueryStatus::kOk);
  EXPECT_EQ(report.results[1].dist, 3 * 40 + 30);
  // Compaction takes the same grid, so its reads are checked too: the
  // damage stops it and it leaves no output.
  const std::string zpath = temp_path("checked_snap_z");
  EXPECT_THROW(core::compact_store(path, zpath, /*tile=*/7), CorruptError);
  EXPECT_FALSE(util::File::open_if_present(zpath));
  EXPECT_FALSE(util::File::open_if_present(zpath + ".tmp"));
  {
    auto rw = core::make_file_store(40, path, /*keep_file=*/true);
    const dist_t truth = 20 * 40 + 20;
    rw->write_block(20, 20, 1, 1, &truth, 1);
  }
  core::compact_store(path, zpath, /*tile=*/7);
  EXPECT_EQ(core::compressed_store_info(zpath).tile, 16);
  std::remove(zpath.c_str());
  remove_store(path);
}

TEST(CheckedStore, OpenStoreRefusesAShardSlice) {
  const std::string path = position_store("checked_slice");
  core::shard_store_file(path, 2, /*tile=*/16);
  const std::string slice = core::shard_file_path(path, 1);
  EXPECT_TRUE(core::is_shard_slice(slice));
  try {
    core::open_store(slice);
    FAIL() << "a shard slice opened as a kept store";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard slice"), std::string::npos) << what;
    EXPECT_NE(what.find("parent store " + path), std::string::npos) << what;
  }
  remove_store(path);
}

TEST(CheckedStore, LandStoreAppliesTheSidecarMatrix) {
  const std::string path = position_store("checked_land");
  const std::string sums = core::checksum_sidecar_path(path);
  core::shard_store_file(path, 2, /*tile=*/16);
  // New bytes at a raw store: the shards go, and the .sum is rebuilt on the
  // grid the caller names.
  overwrite_element(path, 0, 0);
  core::land_store(path, /*sum_tile=*/16);
  EXPECT_FALSE(util::File::open_if_present(core::shard_manifest_path(path)));
  EXPECT_FALSE(util::File::open_if_present(core::shard_file_path(path, 0)));
  EXPECT_FALSE(util::File::open_if_present(core::shard_file_path(path, 1)));
  std::vector<dist_t> all(40 * 40);
  core::open_store(path)->read_block(0, 0, 40, 40, all.data(), 40);
  EXPECT_EQ(all[0], 7);  // every tile checks clean against the fresh .sum
  // With no grid named a stale .sum is removed; so is a GAPSPZ1 store's.
  core::land_store(path);
  EXPECT_FALSE(util::File::open_if_present(sums));
  core::land_store(path, 16);
  core::compact_store(path, path);
  EXPECT_FALSE(util::File::open_if_present(sums));
  EXPECT_TRUE(core::is_compressed_store(path));
  remove_store(path);
}

// ---------------------------------------------------------------------------
// End-to-end serving under damage. One solved store, every tile corrupted
// in turn; the engine must give a correct answer or a typed error for every
// query, keep siblings untouched, and never crash.
// ---------------------------------------------------------------------------

struct ServedStore {
  graph::CsrGraph g;
  std::string path;
  StoreChecksums sums;
  std::vector<std::uint8_t> pristine;  ///< raw file bytes before damage
  vidx_t n = 0;
  vidx_t tile = 0;
  vidx_t tps = 0;
};

/// Solves er:N (disconnected, kInf-rich) with Johnson into a kept raw file
/// store, plus its sidecar grid.
ServedStore solve_raw(const std::string& tag, vidx_t tile) {
  ServedStore s;
  s.g = graph::make_erdos_renyi(150, 450, 99, /*connect=*/false);
  s.n = s.g.num_vertices();
  s.path = temp_path(tag);
  {
    core::ApspOptions o;
    o.device = sim::DeviceSpec::v100_scaled(2u << 20);
    o.algorithm = core::Algorithm::kJohnson;
    auto store = core::make_file_store(s.n, s.path, /*keep_file=*/true);
    core::solve_apsp(s.g, o, *store);
  }
  const auto ro = core::open_file_store(s.path);
  s.sums = core::compute_store_checksums(*ro, tile);
  s.tile = tile;
  s.tps = s.sums.tiles_per_side;
  s.pristine = read_file(s.path);
  return s;
}

/// One point query per tile, at the tile's top-left corner.
std::vector<Query> tile_corner_queries(const ServedStore& s) {
  std::vector<Query> qs;
  for (vidx_t bi = 0; bi < s.tps; ++bi) {
    for (vidx_t bj = 0; bj < s.tps; ++bj) {
      qs.push_back({QueryKind::kPoint, bi * s.tile, bj * s.tile});
    }
  }
  return qs;
}

TEST(FaultServing, CorruptAtEveryTileSweepRaw) {
  auto s = solve_raw("sweep_raw", /*tile=*/64);
  ASSERT_GE(s.tps, 3);
  const auto queries = tile_corner_queries(s);

  // Reference answers from the pristine bytes.
  std::vector<dist_t> want(queries.size());
  {
    const auto ro = core::open_file_store(s.path);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      want[i] = ro->at(queries[i].u, queries[i].v);
    }
  }

  for (vidx_t bi = 0; bi < s.tps; ++bi) {
    for (vidx_t bj = 0; bj < s.tps; ++bj) {
      auto bytes = s.pristine;
      const std::size_t victim =
          (static_cast<std::size_t>(bi) * s.tile * s.n + bj * s.tile) *
          sizeof(dist_t);
      bytes[victim] ^= 0x5a;
      write_file(s.path, bytes);

      const auto store = core::open_file_store(s.path);
      const core::CheckedStore checked(*store, s.sums, s.path);
      QueryEngineOptions opt;
      opt.retry = fast_retry(1);
      const QueryEngine engine(checked, opt);
      const auto report = engine.run_batch(queries);

      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = report.results[i];
        const bool hit_victim =
            queries[i].u / s.tile == bi && queries[i].v / s.tile == bj;
        if (hit_victim) {
          // The query that needs the damaged tile degrades typed...
          EXPECT_EQ(r.status, QueryStatus::kQuarantined)
              << "tile (" << bi << "," << bj << ") query " << i;
          EXPECT_FALSE(r.error.empty());
        } else {
          // ...and every sibling stays bit-identical to the pristine store.
          ASSERT_EQ(r.status, QueryStatus::kOk)
              << "tile (" << bi << "," << bj << ") poisoned sibling " << i
              << ": " << r.error;
          ASSERT_EQ(r.dist, want[i]);
        }
      }
      const auto cs = report.cache;
      EXPECT_EQ(cs.quarantined_tiles, 1)
          << "tile (" << bi << "," << bj << ")";
      EXPECT_GE(report.service.corrupt_tiles, 1);
    }
  }
  write_file(s.path, s.pristine);
  std::remove(s.path.c_str());
}

TEST(FaultServing, CorruptAtEveryTileSweepCompressed) {
  auto raw = solve_raw("sweep_z1", /*tile=*/64);
  const std::string zpath = temp_path("sweep_z1_store");
  core::compact_store(raw.path, zpath, /*tile=*/64);
  std::remove(raw.path.c_str());

  const auto info = core::compressed_store_info(zpath);
  const vidx_t tps = info.tiles_per_side;
  const auto pristine = read_file(zpath);

  // Reference answers against the clean compressed store.
  std::vector<Query> queries;
  for (vidx_t bi = 0; bi < tps; ++bi) {
    for (vidx_t bj = 0; bj < tps; ++bj) {
      queries.push_back({QueryKind::kPoint, bi * 64, bj * 64});
    }
  }
  std::vector<dist_t> want(queries.size());
  {
    const auto z = core::open_compressed_store(zpath);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      want[i] = z->at(queries[i].u, queries[i].v);
    }
  }

  // Damage a byte in the payload region (past header + directory) in a few
  // spots; whichever frame it lands in, the invariant is the same. All-kInf
  // tiles have no payload, so the victim frame is found by outcome, not
  // chosen by coordinate.
  const std::size_t payload0 =
      64 + static_cast<std::size_t>(tps) * tps * 16;
  ASSERT_LT(payload0, pristine.size());
  for (int probe = 0; probe < 8; ++probe) {
    auto bytes = pristine;
    const std::size_t at =
        payload0 + (probe * (bytes.size() - payload0)) / 8;
    bytes[at] ^= 0x80;
    write_file(zpath, bytes);

    std::unique_ptr<core::DistStore> store;
    try {
      store = core::open_compressed_store(zpath);
    } catch (const IoError&) {
      continue;  // directory-level damage: typed rejection at open is fine
    }
    QueryEngineOptions opt;
    opt.retry = fast_retry(1);
    const QueryEngine engine(*store, opt);
    const auto report = engine.run_batch(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto& r = report.results[i];
      if (r.status == QueryStatus::kOk) {
        ASSERT_EQ(r.dist, want[i]) << "probe " << probe << " query " << i
                                   << " served a wrong answer";
      } else {
        EXPECT_EQ(r.status, QueryStatus::kQuarantined);
        EXPECT_FALSE(r.error.empty());
      }
    }
  }
  std::remove(zpath.c_str());
}

TEST(FaultServing, RepairRecomputeServesThroughDamage) {
  auto s = solve_raw("repair", /*tile=*/64);
  // Corrupt tile (1, 0).
  auto bytes = s.pristine;
  bytes[(static_cast<std::size_t>(64) * s.n + 0) * sizeof(dist_t)] ^= 0xff;
  write_file(s.path, bytes);

  const auto store = core::open_file_store(s.path);
  const core::CheckedStore checked(*store, s.sums, s.path);
  QueryEngineOptions opt;
  opt.retry = fast_retry(1);
  opt.repair = core::make_sssp_repair(s.g);
  const QueryEngine engine(checked, opt);

  const auto queries = tile_corner_queries(s);
  const auto report = engine.run_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(report.results[i].status, QueryStatus::kOk)
        << report.results[i].error;
    const auto ref = test::ref_row(s.g, queries[i].u);
    ASSERT_EQ(report.results[i].dist, ref[queries[i].v]) << "query " << i;
  }
  EXPECT_GE(report.service.repaired, 1);
  EXPECT_EQ(report.cache.quarantined_tiles, 0);  // publish() healed it

  // The repaired tile is a plain cache entry now: a second batch re-serves
  // it without another repair.
  const auto again = engine.run_batch(queries);
  EXPECT_EQ(again.service.repaired, report.service.repaired);
  std::remove(s.path.c_str());
}

TEST(FaultServing, OverloadShedsTypedBeyondMaxQueue) {
  const auto g = graph::make_road(8, 8, 7);
  const auto store = core::make_ram_store(g.num_vertices());
  core::ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.algorithm = core::Algorithm::kJohnson;
  core::solve_apsp(g, o, *store);

  QueryEngineOptions opt;
  opt.max_queue = 4;
  const QueryEngine engine(*store, opt);
  std::vector<Query> queries;
  for (vidx_t i = 0; i < 10; ++i) {
    queries.push_back({QueryKind::kPoint, i, i + 1});
  }
  const auto report = engine.run_batch(queries);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.results[i].status, QueryStatus::kOk);
    const auto ref = test::ref_row(g, queries[i].u);
    EXPECT_EQ(report.results[i].dist, ref[queries[i].v]);
  }
  for (std::size_t i = 4; i < 10; ++i) {
    EXPECT_EQ(report.results[i].status, QueryStatus::kShed);
    EXPECT_FALSE(report.results[i].error.empty());
  }
  EXPECT_EQ(report.service.shed, 6);
  EXPECT_EQ(report.service.served, 4);
}

TEST(FaultServing, NeverDiesUnderInjectedReadFaults) {
  auto s = solve_raw("chaos", /*tile=*/64);
  const auto store = core::open_file_store(s.path);
  const core::CheckedStore checked(*store, s.sums, s.path);

  // p = 0.4 with a retry budget: most reads heal, a few tiles quarantine.
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.p_store_read = 0.4;
  sim::FaultInjector injector(plan);
  QueryEngineOptions opt;
  opt.retry = fast_retry(4);
  opt.faults = &injector;
  const QueryEngine engine(checked, opt);

  std::vector<Query> queries;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    queries.push_back({QueryKind::kPoint,
                       static_cast<vidx_t>(rng.next_below(s.n)),
                       static_cast<vidx_t>(rng.next_below(s.n))});
  }
  queries.push_back({QueryKind::kRow, 3, 0});
  const auto report = engine.run_batch(queries);

  long long ok = 0;
  long long degraded = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& r = report.results[i];
    if (r.status == QueryStatus::kOk) {
      ++ok;
      if (r.query.kind == QueryKind::kPoint) {
        const auto ref = test::ref_row(s.g, r.query.u);
        ASSERT_EQ(r.dist, ref[r.query.v]) << "faulted read served garbage";
      }
    } else {
      ASSERT_EQ(r.status, QueryStatus::kQuarantined);
      EXPECT_FALSE(r.error.empty());
      ++degraded;
    }
  }
  EXPECT_EQ(ok + degraded, static_cast<long long>(queries.size()));
  EXPECT_GT(ok, 0);                            // retries healed most reads
  EXPECT_GT(report.service.retries, 0);
  EXPECT_EQ(report.service.served, ok);
  EXPECT_EQ(report.service.degraded, degraded);

  // p = 1.0: nothing is servable, everything degrades typed, no crash.
  sim::FaultPlan always;
  always.p_store_read = 1.0;
  sim::FaultInjector kill(always);
  QueryEngineOptions dead_opt;
  dead_opt.retry = fast_retry(1);
  dead_opt.faults = &kill;
  const QueryEngine dead(*store, dead_opt);
  const auto dead_report = dead.run_batch(queries);
  for (const auto& r : dead_report.results) {
    EXPECT_EQ(r.status, QueryStatus::kQuarantined);
  }
  std::remove(s.path.c_str());
}

// ---------------------------------------------------------------------------
// Scrub & repair.
// ---------------------------------------------------------------------------

TEST(Scrub, CleanCorruptRepairCycleRaw) {
  auto s = solve_raw("scrub_raw", /*tile=*/64);
  core::write_store_checksums(s.sums, core::checksum_sidecar_path(s.path));

  core::ScrubOptions sopt;
  sopt.retry = fast_retry(1);
  auto report = core::scrub_store(s.path, sopt);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.sums_present);
  EXPECT_EQ(report.tiles,
            static_cast<long long>(s.tps) * static_cast<long long>(s.tps));

  // Corrupt two tiles.
  auto bytes = s.pristine;
  bytes[0] ^= 0x11;  // tile (0, 0)
  bytes[(static_cast<std::size_t>(64) * s.n + 64) * sizeof(dist_t)] ^=
      0x22;  // tile (1, 1)
  write_file(s.path, bytes);

  report = core::scrub_store(s.path, sopt);
  EXPECT_EQ(report.corrupt, 2);
  EXPECT_EQ(report.unrepaired, 2);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.damaged.size(), 2u);

  // Repair from the kept CSR, then verify the file is bit-identical to the
  // pristine solve output.
  sopt.repair = true;
  sopt.repair_fn = core::make_sssp_repair(s.g);
  report = core::scrub_store(s.path, sopt);
  EXPECT_EQ(report.corrupt, 2);
  EXPECT_EQ(report.repaired, 2);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(read_file(s.path), s.pristine);

  report = core::scrub_store(s.path, core::ScrubOptions{});
  EXPECT_TRUE(report.clean());
  std::remove(core::checksum_sidecar_path(s.path).c_str());
  std::remove(s.path.c_str());
}

TEST(Scrub, WriteSumsCreatesSidecarForLegacyStore) {
  auto s = solve_raw("scrub_sums", /*tile=*/64);
  std::remove(core::checksum_sidecar_path(s.path).c_str());  // stale runs
  StoreChecksums probe;
  EXPECT_FALSE(core::load_store_checksums(core::checksum_sidecar_path(s.path),
                                          probe));
  core::ScrubOptions sopt;
  sopt.write_sums = true;
  sopt.tile = 64;
  const auto report = core::scrub_store(s.path, sopt);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.sums_written);

  StoreChecksums sums;
  ASSERT_TRUE(core::load_store_checksums(core::checksum_sidecar_path(s.path),
                                         sums));
  EXPECT_EQ(sums.tile, 64);
  std::remove(core::checksum_sidecar_path(s.path).c_str());
  std::remove(s.path.c_str());
}

TEST(Scrub, RepairsCompressedStoreInPlace) {
  auto raw = solve_raw("scrub_z1", /*tile=*/64);
  const std::string zpath = temp_path("scrub_z1_store");
  core::compact_store(raw.path, zpath, /*tile=*/64);
  std::remove(raw.path.c_str());
  const auto pristine = read_file(zpath);

  // Find a payload byte whose flip the scrubber sees as tile damage (not
  // directory damage, which is store-level and rejected at open).
  const auto info = core::compressed_store_info(zpath);
  const std::size_t payload0 =
      64 + static_cast<std::size_t>(info.tiles_per_side) *
               info.tiles_per_side * 16;
  core::ScrubOptions detect;
  detect.retry = fast_retry(1);
  bool damaged_a_tile = false;
  for (std::size_t at = payload0 + 16; at < pristine.size() && !damaged_a_tile;
       at += 97) {
    auto bytes = pristine;
    bytes[at] ^= 0x40;
    write_file(zpath, bytes);
    try {
      const auto report = core::scrub_store(zpath, detect);
      damaged_a_tile = report.corrupt > 0;
    } catch (const IoError&) {
      // Directory-level damage is a store-level typed rejection, not tile
      // damage; keep probing.
      write_file(zpath, pristine);
    }
  }
  ASSERT_TRUE(damaged_a_tile) << "no payload flip damaged any tile";

  core::ScrubOptions sopt;
  sopt.retry = fast_retry(1);
  sopt.repair = true;
  sopt.repair_fn = core::make_sssp_repair(raw.g);
  const auto report = core::scrub_store(zpath, sopt);
  EXPECT_GE(report.corrupt, 1);
  EXPECT_EQ(report.unrepaired, 0);
  EXPECT_TRUE(report.ok());

  // The rebuilt store serves the true distances again.
  const auto fixed = core::open_compressed_store(zpath);
  const auto clean = core::scrub_store(zpath, detect);
  EXPECT_TRUE(clean.clean());
  const auto ref = test::ref_row(raw.g, 0);
  for (vidx_t v = 0; v < raw.n; v += 37) {
    EXPECT_EQ(fixed->at(0, v), ref[v]);
  }
  std::remove(zpath.c_str());
}

TEST(Scrub, SsspRepairOfABoundaryStoreReturnsItsTiles) {
  // The boundary solve renumbers vertices on the device but keeps its store
  // in original order. The repair source must return the stored tiles
  // themselves, ragged edge tiles included (n = 150 is not a multiple of
  // 32).
  const graph::CsrGraph g = graph::make_road(15, 10, 31);
  const vidx_t n = g.num_vertices();
  core::ApspOptions o;
  o.algorithm = core::Algorithm::kBoundary;
  const auto layout = core::plan_boundary(g, o).layout;
  bool moved = false;
  for (vidx_t v = 0; v < n; ++v) moved = moved || layout.perm[v] != v;
  ASSERT_TRUE(moved) << "the solve's device layout is the identity";
  auto store = core::make_ram_store(n);
  core::solve_apsp(g, o, *store);
  const core::TileRepairFn repair = core::make_sssp_repair(g);
  constexpr vidx_t kTile = 32;
  ASSERT_NE(n % kTile, 0);
  for (vidx_t row0 = 0; row0 < n; row0 += kTile) {
    for (vidx_t col0 = 0; col0 < n; col0 += kTile) {
      const vidx_t rows = std::min(kTile, n - row0);
      const vidx_t cols = std::min(kTile, n - col0);
      std::vector<dist_t> want(static_cast<std::size_t>(rows) * cols);
      store->read_block(row0, col0, rows, cols, want.data(), cols);
      EXPECT_EQ(repair(row0, col0, rows, cols), want)
          << "tile at (" << row0 << ", " << col0 << ")";
    }
  }
}

}  // namespace
}  // namespace gapsp::service
