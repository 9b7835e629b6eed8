// Compressed host↔device transfer path (DESIGN.md §14).
//
// Four contracts under test: (1) the TransferCodec is a bit-exact drop-in
// for the raw staging lanes on any payload — kInf-dense, ragged, or
// incompressible — in both the staged and the synchronous forms; (2) the
// per-lane raw/wire metrics are honest (legacy byte counters stay in
// logical bytes and are invariant under the mode, fallback tiles count on
// both sides); (3) every driver × overlap × mode combination produces
// bit-identical distances, and the compressed timeline never loses to raw
// (the autotuned threshold only takes the wire path when it wins); (4) the
// kDecode fault gate retries whole tiles — a mid-decode fault never
// publishes a partial decode, probability schedules heal bit-identically,
// and a killed run resumes through checkpoints unchanged; (5) tiles travel
// as 64 KiB slice frames — tiles at and around slice boundaries stay
// bit-exact, frames, stores and timelines do not depend on how many host
// threads ran the codec, and a corrupt slice frame surfaces as a typed
// CorruptError on the calling thread, never inside a pool worker.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/apsp.h"
#include "core/transfer_codec.h"
#include "core/z1_codec.h"
#include "graph/generators.h"
#include "sim/stream_pipeline.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

// ---------------------------------------------------------------------------
// Mode parsing: the --kernel-variant convention (typed hard error).
// ---------------------------------------------------------------------------

TEST(TransferCompressionFlag, ParsesKnownModes) {
  EXPECT_EQ(parse_transfer_compression("auto"), TransferCompression::kAuto);
  EXPECT_EQ(parse_transfer_compression("on"), TransferCompression::kOn);
  EXPECT_EQ(parse_transfer_compression("off"), TransferCompression::kOff);
  EXPECT_STREQ(transfer_compression_name(TransferCompression::kAuto), "auto");
  EXPECT_STREQ(transfer_compression_name(TransferCompression::kOn), "on");
  EXPECT_STREQ(transfer_compression_name(TransferCompression::kOff), "off");
}

TEST(TransferCompressionFlag, UnknownModeIsTypedError) {
  EXPECT_THROW(parse_transfer_compression("bogus"), Error);
  EXPECT_THROW(parse_transfer_compression(""), Error);
  EXPECT_THROW(parse_transfer_compression("ON"), Error);
  try {
    parse_transfer_compression("zstd");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("zstd"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("auto|on|off"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Incompressible early-out probe.
// ---------------------------------------------------------------------------

TEST(Z1Probe, AcceptsKinfTilesRejectsRandomBytes) {
  std::vector<dist_t> inf_tile(16 * 1024, kInf);
  EXPECT_TRUE(z1_probe_compressible(inf_tile.data(),
                                    inf_tile.size() * sizeof(dist_t)));

  Rng rng(99);
  std::vector<std::uint8_t> noise(64 * 1024);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  EXPECT_FALSE(z1_probe_compressible(noise.data(), noise.size()));

  // Rejected inputs still roundtrip: the encoder emits a literal-only frame.
  const auto frame = z1_compress(noise.data(), noise.size());
  EXPECT_GE(frame.size(), noise.size());  // no magic, just headered literals
  std::vector<std::uint8_t> back(noise.size());
  z1_decompress(frame.data(), frame.size(), back.data(), back.size());
  EXPECT_EQ(back, noise);
}

// ---------------------------------------------------------------------------
// Codec vs raw oracle on a tile corpus, staged and synchronous.
// ---------------------------------------------------------------------------

/// kInf-dense dist_t payload of `bytes` bytes (a multiple of 4) with a
/// sparse scatter of reachable entries, so every slice compresses.
std::vector<std::uint8_t> sparse_dist_tile(std::size_t bytes,
                                           std::uint64_t seed) {
  std::vector<dist_t> elems(bytes / sizeof(dist_t), kInf);
  Rng rng(seed);
  for (std::size_t i = 0; i < elems.size(); i += 1 + rng.next_below(61)) {
    elems[i] = static_cast<dist_t>(rng.next_below(1u << 20));
  }
  const auto* b = reinterpret_cast<const std::uint8_t*>(elems.data());
  return {b, b + bytes};
}

/// The payload shapes the wire path must carry bit-exactly: kInf-dense
/// (the 11.3× regime), ragged (odd, non-tile-aligned length), incompressible
/// (fallback engages), and tiles at the 64 KiB slice boundaries — a lone
/// element (its frame cannot beat 4 bytes, so it falls back), one slice
/// minus, exactly and plus one element, and a ragged 631×631 dist_t tile
/// (25 slices, the last one 19,780 bytes).
std::vector<std::vector<std::uint8_t>> tile_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;

  std::vector<dist_t> inf_tile(12000, kInf);
  for (std::size_t i = 0; i < inf_tile.size(); i += 97) {
    inf_tile[i] = static_cast<dist_t>(i);  // sparse reachable entries
  }
  corpus.emplace_back(
      reinterpret_cast<const std::uint8_t*>(inf_tile.data()),
      reinterpret_cast<const std::uint8_t*>(inf_tile.data()) +
          inf_tile.size() * sizeof(dist_t));

  Rng rng(7);
  std::vector<std::uint8_t> ragged(4093);  // prime: no 4-byte alignment
  for (std::size_t i = 0; i < ragged.size(); ++i) {
    ragged[i] = static_cast<std::uint8_t>(i % 11 == 0 ? rng.next_below(256)
                                                      : 0x5a);
  }
  corpus.push_back(std::move(ragged));

  std::vector<std::uint8_t> noise(48 * 1024);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  corpus.push_back(std::move(noise));

  std::uint64_t seed = 40;
  for (const std::size_t bytes :
       {std::size_t{4}, kTransferSliceBytes - 4, kTransferSliceBytes,
        kTransferSliceBytes + 4, std::size_t{631} * 631 * sizeof(dist_t)}) {
    corpus.push_back(sparse_dist_tile(bytes, ++seed));
  }
  return corpus;
}

class CodecOracle : public ::testing::TestWithParam<TransferCompression> {};

TEST_P(CodecOracle, StagedRoundTripIsBitExact) {
  sim::Device dev(tiny_device(4u << 20));
  sim::StreamPipeline pipe(dev, /*overlap=*/true);
  TransferCodec codec(dev, GetParam());

  for (const auto& tile : tile_corpus()) {
    auto dbuf = dev.alloc<std::uint8_t>(tile.size(), "tile");
    const auto ready = codec.stage_in(pipe, dbuf.data(), tile.data(),
                                      tile.size());
    pipe.consume(ready);
    ASSERT_EQ(std::memcmp(dbuf.data(), tile.data(), tile.size()), 0);

    std::vector<std::uint8_t> back(tile.size(), 0xee);
    codec.stage_out(pipe, back.data(), dbuf.data(), tile.size(),
                    pipe.computed());
    pipe.drain();
    ASSERT_EQ(back, tile);
  }
  dev.synchronize();
  const auto m = dev.metrics();
  // Logical byte accounting never depends on the mode.
  std::size_t total = 0;
  for (const auto& tile : tile_corpus()) total += tile.size();
  EXPECT_EQ(m.bytes_h2d, total);
  EXPECT_EQ(m.bytes_d2h, total);
  if (GetParam() == TransferCompression::kOff) {
    EXPECT_EQ(m.bytes_h2d_raw + m.bytes_d2h_raw, 0u);
    EXPECT_EQ(m.bytes_h2d_wire + m.bytes_d2h_wire, 0u);
    EXPECT_EQ(m.decodes, 0);
    EXPECT_EQ(m.decode_seconds, 0.0);
  } else {
    // Every routed byte shows up on the raw side (fallback included), and
    // the wire side strictly beats it: the corpus has compressible tiles.
    EXPECT_EQ(m.bytes_h2d_raw, total);
    EXPECT_EQ(m.bytes_d2h_raw, total);
    EXPECT_LT(m.bytes_h2d_wire, m.bytes_h2d_raw);
    EXPECT_LT(m.bytes_d2h_wire, m.bytes_d2h_raw);
    // The incompressible tile fell back on both lanes, so wire includes it
    // at full size: the split can never claim more than the frames saved.
    EXPECT_GT(m.bytes_h2d_wire, 0u);
    EXPECT_GT(m.decodes, 0);
    EXPECT_GT(m.decode_seconds, 0.0);
  }
}

TEST_P(CodecOracle, SynchronousRoundTripIsBitExact) {
  sim::Device dev(tiny_device(4u << 20));
  TransferCodec codec(dev, GetParam());

  for (const auto& tile : tile_corpus()) {
    auto dbuf = dev.alloc<std::uint8_t>(tile.size(), "tile");
    codec.h2d(sim::kDefaultStream, dbuf.data(), tile.data(), tile.size(),
              /*pinned=*/true);
    ASSERT_EQ(std::memcmp(dbuf.data(), tile.data(), tile.size()), 0);
    std::vector<std::uint8_t> back(tile.size(), 0xee);
    codec.d2h(sim::kDefaultStream, back.data(), dbuf.data(), tile.size(),
              /*pinned=*/false);
    ASSERT_EQ(back, tile);
  }
  dev.synchronize();
  EXPECT_GE(dev.metrics().bytes_h2d, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, CodecOracle,
                         ::testing::Values(TransferCompression::kOff,
                                           TransferCompression::kOn,
                                           TransferCompression::kAuto));

TEST(CodecAccounting, WireBufferIsPinnedAccounted) {
  sim::Device dev(tiny_device(1u << 20));
  {
    sim::StreamPipeline pipe(dev, /*overlap=*/true);
    TransferCodec codec(dev, TransferCompression::kOn);
    std::vector<dist_t> tile(8192, kInf);
    auto dbuf = dev.alloc<dist_t>(tile.size(), "tile");
    pipe.consume(codec.stage_in(pipe, dbuf.data(), tile.data(),
                                tile.size() * sizeof(dist_t)));
    pipe.drain();
    EXPECT_GT(dev.pinned_bytes(), 0u);  // the frame buffer is staged memory
  }
  // Codec destruction returns its pinned accounting.
  EXPECT_EQ(dev.pinned_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Slice frames through the shared helper.
// ---------------------------------------------------------------------------

TEST(SliceFrames, OneFramePerSliceIdenticalForAnyThreadCount) {
  const auto tile = sparse_dist_tile(std::size_t{631} * 631 * sizeof(dist_t),
                                     51);
  SlicedFrames serial;
  SlicedFrames pooled;
  ASSERT_TRUE(encode_slices(tile.data(), tile.size(), 1.0, 1, serial));
  ASSERT_TRUE(encode_slices(tile.data(), tile.size(), 1.0, 0, pooled));
  ASSERT_EQ(serial.frames.size(), 25u);
  ASSERT_EQ(serial.frames, pooled.frames);
  EXPECT_EQ(serial.wire_bytes, pooled.wire_bytes);

  // Each frame is an ordinary z1 frame of its own slice; the summed sizes
  // are what the link is charged.
  std::size_t covered = 0;
  std::size_t wire = 0;
  for (const auto& frame : serial.frames) {
    covered += z1_raw_size(frame.data(), frame.size());
    wire += frame.size();
  }
  EXPECT_EQ(covered, tile.size());
  EXPECT_EQ(z1_raw_size(serial.frames.back().data(),
                        serial.frames.back().size()),
            tile.size() - 24 * kTransferSliceBytes);
  EXPECT_EQ(wire, serial.wire_bytes);

  // The fallback test runs on the sum: a threshold the frames cannot beat
  // sends the tile raw, and a rejected probe never encodes at all.
  EXPECT_FALSE(encode_slices(tile.data(), tile.size(), 0.0, 0, pooled));
  Rng rng(52);
  std::vector<std::uint8_t> noise(3 * kTransferSliceBytes);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  EXPECT_FALSE(encode_slices(noise.data(), noise.size(), 1.0, 0, pooled));
  EXPECT_EQ(pooled.wire_bytes, 0u);

  for (const int threads : {1, 0}) {
    std::vector<std::uint8_t> back(tile.size(), 0xee);
    decode_slices(serial, back.data(), back.size(), threads);
    ASSERT_EQ(back, tile) << "threads=" << threads;
  }
}

TEST(SliceFrames, CorruptSliceThrowsCorruptErrorOnTheCaller) {
  const auto tile = sparse_dist_tile(5 * kTransferSliceBytes + 12, 53);
  SlicedFrames frames;
  ASSERT_TRUE(encode_slices(tile.data(), tile.size(), 1.0, 0, frames));
  ASSERT_EQ(frames.frames.size(), 6u);

  for (const int threads : {1, 0}) {
    // A flipped payload byte in one middle slice fails that slice's content
    // check; a truncated last slice fails its bounds checks. Either way the
    // error reaches this thread as CorruptError, after every slice ran.
    SlicedFrames flipped = frames;
    auto& mid = flipped.frames[3];
    mid[mid.size() / 2] ^= 0x5a;
    SlicedFrames truncated = frames;
    truncated.frames.back().resize(truncated.frames.back().size() - 3);
    for (const SlicedFrames* bad : {&flipped, &truncated}) {
      std::vector<std::uint8_t> back(tile.size());
      const auto caller = std::this_thread::get_id();
      try {
        decode_slices(*bad, back.data(), back.size(), threads);
        FAIL() << "corrupt slice decoded, threads=" << threads;
      } catch (const CorruptError& e) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_NE(std::string(e.what()).find("z1 frame"), std::string::npos);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver parity: mode × algorithm × overlap, bit-identical distances and
// sim_seconds invariants.
// ---------------------------------------------------------------------------

struct DriverCase {
  Algorithm algo;
  std::size_t mem;
  const char* name;
};

class DriverParity : public ::testing::TestWithParam<DriverCase> {};

ApspOptions parity_opts(const DriverCase& c, bool overlap,
                        TransferCompression mode) {
  ApspOptions o;
  o.device = tiny_device(c.mem);  // v100 rates: decode 64 GB/s > link, so
                                  // auto engages exactly like on
  o.fw_tile = 32;
  o.algorithm = c.algo;
  o.overlap_transfers = overlap;
  o.transfer_compression = mode;
  return o;
}

TEST_P(DriverParity, ModesAreBitIdenticalAndCompressionNeverLoses) {
  const DriverCase c = GetParam();
  const auto g = graph::make_erdos_renyi(150, 700, 1234);
  const vidx_t n = g.num_vertices();

  for (const bool overlap : {false, true}) {
    auto s_off = make_ram_store(n);
    auto s_on = make_ram_store(n);
    auto s_auto = make_ram_store(n);
    const auto r_off =
        solve_apsp(g, parity_opts(c, overlap, TransferCompression::kOff),
                   *s_off);
    const auto r_on =
        solve_apsp(g, parity_opts(c, overlap, TransferCompression::kOn),
                   *s_on);
    const auto r_auto =
        solve_apsp(g, parity_opts(c, overlap, TransferCompression::kAuto),
                   *s_auto);

    // Distances: every mode bit-identical, and correct vs Dijkstra.
    ASSERT_EQ(r_off.perm, r_on.perm);
    ASSERT_EQ(r_off.perm, r_auto.perm);
    std::vector<dist_t> a(static_cast<std::size_t>(n));
    std::vector<dist_t> b(static_cast<std::size_t>(n));
    std::vector<dist_t> d(static_cast<std::size_t>(n));
    for (vidx_t r = 0; r < n; ++r) {
      s_off->read_block(r, 0, 1, n, a.data(), a.size());
      s_on->read_block(r, 0, 1, n, b.data(), b.size());
      s_auto->read_block(r, 0, 1, n, d.data(), d.size());
      ASSERT_EQ(a, b) << c.name << " row " << r << " overlap=" << overlap;
      ASSERT_EQ(a, d) << c.name << " row " << r << " overlap=" << overlap;
    }
    expect_store_matches_reference(g, *s_off, r_off);

    // sim_seconds invariants: off moves no wire bytes; on this device auto
    // and on make identical decisions, so their timelines coincide exactly;
    // the threshold only takes the wire path when it wins, so the
    // compressed makespan never exceeds raw.
    EXPECT_EQ(r_off.metrics.bytes_h2d_wire + r_off.metrics.bytes_d2h_wire,
              0u);
    EXPECT_EQ(r_off.metrics.decodes, 0);
    EXPECT_DOUBLE_EQ(r_on.metrics.sim_seconds, r_auto.metrics.sim_seconds);
    EXPECT_LE(r_on.metrics.sim_seconds,
              r_off.metrics.sim_seconds * (1.0 + 1e-9));
    // Legacy traffic counters stay logical: mode-invariant.
    EXPECT_EQ(r_off.metrics.bytes_h2d, r_on.metrics.bytes_h2d);
    EXPECT_EQ(r_off.metrics.bytes_d2h, r_on.metrics.bytes_d2h);

    // Determinism: the same configuration reproduces its timeline exactly.
    auto s_rep = make_ram_store(n);
    const auto r_rep =
        solve_apsp(g, parity_opts(c, overlap, TransferCompression::kOn),
                   *s_rep);
    EXPECT_DOUBLE_EQ(r_rep.metrics.sim_seconds, r_on.metrics.sim_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverParity,
    ::testing::Values(
        DriverCase{Algorithm::kBlockedFloydWarshall, 64u << 10, "fw"},
        DriverCase{Algorithm::kJohnson, 256u << 10, "johnson"},
        DriverCase{Algorithm::kBoundary, 2u << 20, "boundary"}),
    [](const ::testing::TestParamInfo<DriverCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Host thread count: kernel_threads = 1 vs the pool on multi-slice tiles.
// ---------------------------------------------------------------------------

class ThreadParity : public ::testing::TestWithParam<DriverCase> {};

TEST_P(ThreadParity, PooledCodecMatchesOneThread) {
  const DriverCase c = GetParam();
  const auto g = graph::make_road(24, 24, 61);
  const vidx_t n = g.num_vertices();

  ApspOptions o = parity_opts(c, /*overlap=*/true, TransferCompression::kOn);
  sim::TraceRecorder trace;
  o.trace = &trace;
  o.kernel_threads = 1;
  auto s_one = make_ram_store(n);
  const auto r_one = solve_apsp(g, o, *s_one);
  o.trace = nullptr;
  o.kernel_threads = 0;
  auto s_pool = make_ram_store(n);
  const auto r_pool = solve_apsp(g, o, *s_pool);

  // The comparison only means something if some compressed tile spanned
  // several slices, so the pool actually fanned out.
  double widest = 0.0;
  for (const auto& e : trace.events()) {
    if (e.kind == sim::TraceEvent::Kind::kDecode) {
      widest = std::max(widest, e.bytes);
    }
  }
  EXPECT_GT(widest, static_cast<double>(kTransferSliceBytes)) << c.name;

  ASSERT_EQ(r_one.perm, r_pool.perm);
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    s_one->read_block(r, 0, 1, n, a.data(), a.size());
    s_pool->read_block(r, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << c.name << " row " << r;
  }
  expect_store_matches_reference(g, *s_pool, r_pool);
  EXPECT_GT(r_one.metrics.decodes, 0) << c.name;
  EXPECT_EQ(r_one.metrics.decodes, r_pool.metrics.decodes);
  EXPECT_EQ(r_one.metrics.bytes_h2d_wire, r_pool.metrics.bytes_h2d_wire);
  EXPECT_EQ(r_one.metrics.bytes_d2h_wire, r_pool.metrics.bytes_d2h_wire);
  EXPECT_EQ(r_one.metrics.sim_seconds, r_pool.metrics.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, ThreadParity,
    ::testing::Values(
        DriverCase{Algorithm::kBlockedFloydWarshall, 1u << 20, "fw"},
        DriverCase{Algorithm::kJohnson, 1u << 20, "johnson"},
        DriverCase{Algorithm::kBoundary, 4u << 20, "boundary"}),
    [](const ::testing::TestParamInfo<DriverCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Chaos: the kDecode gate, probability schedules, and checkpoint resume.
// ---------------------------------------------------------------------------

ApspOptions chaos_fw_opts() {
  ApspOptions o;
  o.device = tiny_device(64u << 10);
  o.fw_tile = 32;
  o.algorithm = Algorithm::kBlockedFloydWarshall;
  o.transfer_compression = TransferCompression::kOn;
  return o;
}

TEST(TransferChaos, ScriptedDecodeFaultRetriesWholeTileBitIdentical) {
  const auto g = graph::make_erdos_renyi(90, 400, 508);
  ApspOptions clean = chaos_fw_opts();
  auto s_ref = make_ram_store(g.num_vertices());
  const auto ref = solve_apsp(g, clean, *s_ref);
  ASSERT_GT(ref.metrics.decodes, 0) << "compressed path never engaged";

  // Fail the first decode and one mid-stream decode: the gate fires before
  // materialize, so the retry re-runs the whole tile.
  sim::FaultPlan plan;
  plan.scripted.push_back({sim::FaultOp::kDecode, 1, -1, true});
  plan.scripted.push_back({sim::FaultOp::kDecode, 5, -1, true});
  ApspOptions faulty = clean;
  faulty.faults = &plan;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, faulty, *store);
  EXPECT_EQ(r.metrics.decode_retries, 2);
  EXPECT_GT(r.metrics.retry_backoff_seconds, 0.0);

  const vidx_t n = g.num_vertices();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t row = 0; row < n; ++row) {
    s_ref->read_block(row, 0, 1, n, a.data(), a.size());
    store->read_block(row, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << "row " << row;
  }
}

TEST(TransferChaos, ProbabilityScheduleOnEveryCompressedOpHeals) {
  const auto g = graph::make_erdos_renyi(90, 400, 508);
  ApspOptions clean = chaos_fw_opts();
  auto s_ref = make_ram_store(g.num_vertices());
  const auto ref = solve_apsp(g, clean, *s_ref);

  // Faults on every op class the compressed path gates: the wire spans
  // (h2d/d2h) and the decode kernels.
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.p_h2d = 0.2;
  plan.p_d2h = 0.2;
  plan.p_decode = 0.3;
  ApspOptions faulty = clean;
  faulty.faults = &plan;
  faulty.retry.max_retries = 8;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, faulty, *store);
  EXPECT_GT(r.metrics.faults_injected, 0);
  EXPECT_GT(r.metrics.decode_retries, 0);
  EXPECT_GT(r.metrics.transfer_retries, 0);

  const vidx_t n = g.num_vertices();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t row = 0; row < n; ++row) {
    s_ref->read_block(row, 0, 1, n, a.data(), a.size());
    store->read_block(row, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << "row " << row;
  }
  // The faulted timeline paid for its retries.
  EXPECT_GT(r.metrics.sim_seconds, ref.metrics.sim_seconds);
}

TEST(TransferChaos, KillSweepResumesCompressedRunBitIdentical) {
  const auto g = graph::make_erdos_renyi(90, 400, 508);
  ApspOptions clean = chaos_fw_opts();
  const std::string path =
      ::testing::TempDir() + "gapsp_transfer_chaos.ck";
  auto s_ref = make_ram_store(g.num_vertices());
  const auto ref = solve_apsp(g, clean, *s_ref);

  int interruptions = 0;
  for (long long kill = 1;; kill += 3) {
    ASSERT_LT(kill, 1000000) << "kill sweep failed to terminate";
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions faulty = clean;
    faulty.faults = &plan;
    faulty.checkpoint_path = path;
    auto store = make_ram_store(g.num_vertices());
    try {
      const auto done = solve_apsp(g, faulty, *store);
      EXPECT_EQ(done.metrics.faults_injected, 0);
      break;
    } catch (const sim::FaultError& e) {
      ASSERT_EQ(e.op(), sim::FaultOp::kDeviceLost);
      ++interruptions;
    }
    ApspOptions rec = clean;
    rec.checkpoint_path = path;
    rec.resume = true;
    const auto resumed = solve_apsp(g, rec, *store);
    const vidx_t n = g.num_vertices();
    std::vector<dist_t> a(static_cast<std::size_t>(n));
    std::vector<dist_t> b(static_cast<std::size_t>(n));
    for (vidx_t row = 0; row < n; ++row) {
      s_ref->read_block(row, 0, 1, n, a.data(), a.size());
      store->read_block(row, 0, 1, n, b.data(), b.size());
      ASSERT_EQ(a, b) << "kill " << kill << " row " << row;
    }
    EXPECT_EQ(resumed.perm, ref.perm);
  }
  EXPECT_GT(interruptions, 0) << "sweep never actually killed the device";
}

}  // namespace
}  // namespace gapsp::core
