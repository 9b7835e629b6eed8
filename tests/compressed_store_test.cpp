// Block-compressed store (GAPSPZ1, DESIGN.md §11) coverage: the z1 codec on
// known patterns, the store against the raw DistStore oracle (full
// decompress must be bit-identical), the compaction/auto-detect entry
// points, directory-answered all-kInf tiles, corruption rejection, and the
// compressed checkpoint sidecar payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/compressed_store.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

std::string tmp_path(const char* tag) {
  return ::testing::TempDir() + "gapsp_zstore_" + tag + ".bin";
}

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<std::uint64_t>(size);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
  return buf;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

void expect_round_trip(const std::vector<std::uint8_t>& raw) {
  const auto frame = z1_compress(raw.data(), raw.size());
  ASSERT_EQ(z1_raw_size(frame.data(), frame.size()), raw.size());
  std::vector<std::uint8_t> back(raw.size());
  z1_decompress(frame.data(), frame.size(), back.data(), back.size());
  EXPECT_EQ(back, raw);
}

/// `components` disjoint side×side grid components — road-like structure
/// where (components−1)/components of all pairs are unreachable, i.e. the
/// kInf-dominated regime the compressed store targets.
graph::CsrGraph disjoint_grids(int components, vidx_t side,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  const vidx_t per = side * side;
  for (int c = 0; c < components; ++c) {
    const vidx_t base = static_cast<vidx_t>(c) * per;
    for (vidx_t r = 0; r < side; ++r) {
      for (vidx_t col = 0; col < side; ++col) {
        const vidx_t v = base + r * side + col;
        if (col + 1 < side) {
          edges.push_back({v, v + 1, static_cast<dist_t>(rng.next_in(1, 9))});
        }
        if (r + 1 < side) {
          edges.push_back(
              {v, v + side, static_cast<dist_t>(rng.next_in(1, 9))});
        }
      }
    }
  }
  return graph::CsrGraph::from_edges(static_cast<vidx_t>(components) * per,
                                     std::move(edges), true);
}

std::unique_ptr<DistStore> solve_to_ram(const graph::CsrGraph& g) {
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.algorithm = Algorithm::kJohnson;
  auto store = make_ram_store(g.num_vertices());
  solve_apsp(g, o, *store);
  return store;
}

void expect_stores_bit_identical(const DistStore& a, const DistStore& b) {
  ASSERT_EQ(a.n(), b.n());
  const vidx_t n = a.n();
  std::vector<dist_t> ra(static_cast<std::size_t>(n));
  std::vector<dist_t> rb(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    a.read_block(r, 0, 1, n, ra.data(), ra.size());
    b.read_block(r, 0, 1, n, rb.data(), rb.size());
    ASSERT_EQ(ra, rb) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// z1 codec
// ---------------------------------------------------------------------------

TEST(Z1Codec, RoundTripKnownPatterns) {
  expect_round_trip({});
  expect_round_trip({42});
  expect_round_trip({1, 2, 3});  // shorter than the minimum match
  std::vector<std::uint8_t> text;
  const char* s = "the quick brown fox jumps over the quick brown dog";
  text.assign(s, s + std::strlen(s));
  expect_round_trip(text);
  std::vector<std::uint8_t> periodic(4096);
  for (std::size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = static_cast<std::uint8_t>(i % 4);
  }
  expect_round_trip(periodic);
}

TEST(Z1Codec, AllInfBufferCompressesMassively) {
  std::vector<dist_t> inf(64 * 1024, kInf);
  const std::size_t raw = inf.size() * sizeof(dist_t);
  const auto frame = z1_compress(inf.data(), raw);
  // The kInf-run fast path reduces a constant 256 KiB tile to a handful of
  // sequences; anything under 1% keeps the acceptance ratios comfortable.
  EXPECT_LT(frame.size(), raw / 100);
  std::vector<dist_t> back(inf.size());
  z1_decompress(frame.data(), frame.size(), back.data(), raw);
  EXPECT_EQ(back, inf);
}

TEST(Z1Codec, IncompressibleInputStaysBounded) {
  Rng rng(7);
  std::vector<std::uint8_t> noise(32 * 1024);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto frame = z1_compress(noise.data(), noise.size());
  // Worst case is literals plus token/extension overhead: ~len/255 + header.
  EXPECT_LT(frame.size(), noise.size() + noise.size() / 128 + 64);
  expect_round_trip(noise);
}

TEST(Z1Codec, TruncatedFramesThrow) {
  std::vector<dist_t> data(2048, kInf);
  data[100] = 17;
  data[2000] = 99;
  const auto frame = z1_compress(data.data(), data.size() * sizeof(dist_t));
  std::vector<dist_t> dst(data.size());
  // Every proper prefix must be rejected, never over-read.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(z1_decompress(frame.data(), cut, dst.data(),
                               dst.size() * sizeof(dist_t)),
                 IoError)
        << "prefix length " << cut;
  }
  EXPECT_THROW(z1_raw_size(frame.data(), 15), IoError);
  // Wrong destination size is a mismatch, not a crash.
  EXPECT_THROW(z1_decompress(frame.data(), frame.size(), dst.data(),
                             dst.size() * sizeof(dist_t) - 4),
               IoError);
}

TEST(Z1Codec, DegenerateTileSizes) {
  // Empty tile: a header-only frame that decodes to zero bytes (the store
  // never writes one today, but the codec is shared by the transfer path).
  const auto empty = z1_compress(nullptr, 0);
  EXPECT_EQ(z1_raw_size(empty.data(), empty.size()), 0u);
  z1_decompress(empty.data(), empty.size(), nullptr, 0);
  // One-byte and one-element tiles: below the minimum match, literal-only.
  expect_round_trip({0x5a});
  const dist_t one = 12345;
  const auto frame = z1_compress(&one, sizeof(one));
  dist_t back = 0;
  z1_decompress(frame.data(), frame.size(), &back, sizeof(back));
  EXPECT_EQ(back, one);
}

TEST(Z1Codec, MatchOffsetsAtTheU16Boundary) {
  // Two copies of a distinctive 64-byte motif separated by runs of zeros
  // sized around the u16 match-offset limit. The hash probe sees the far
  // first copy; an encoder that emitted its distance unchecked would wrap
  // the u16 offset field and decode garbage (caught as a round-trip
  // mismatch or a checksum throw). Straddle the limit from both sides.
  std::vector<std::uint8_t> motif(64);
  for (std::size_t i = 0; i < motif.size(); ++i) {
    motif[i] = static_cast<std::uint8_t>(0xA1 + 37 * i);
  }
  for (const std::size_t gap :
       {std::size_t{65400}, std::size_t{65471}, std::size_t{65535},
        std::size_t{65536}, std::size_t{65600}}) {
    std::vector<std::uint8_t> buf;
    buf.insert(buf.end(), motif.begin(), motif.end());
    buf.resize(motif.size() + gap, 0);
    buf.insert(buf.end(), motif.begin(), motif.end());
    expect_round_trip(buf);
  }
  // Total sizes at the boundary as well (length-extension edge cases).
  for (const std::size_t len :
       {std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    std::vector<std::uint8_t> buf(len);
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::uint8_t>(i % 251);
    }
    expect_round_trip(buf);
  }
}

TEST(Z1Codec, RowDeltaInvertsEveryWord) {
  // Extreme words beside small ones make row deltas wrap mod 2^32; each
  // must still invert exactly, at any row width.
  Rng rng(17);
  const std::uint32_t extremes[] = {0u, 0x7fffffffu, 0x80000000u,
                                    0xffffffffu,
                                    static_cast<std::uint32_t>(kInf)};
  std::vector<std::uint32_t> words(64 * 50);
  for (auto& w : words) {
    w = rng.next_bool(0.3) ? extremes[rng.next_below(5)]
                           : static_cast<std::uint32_t>(rng.next_below(1000));
  }
  for (const std::size_t row : {std::size_t{1}, std::size_t{3},
                                std::size_t{64}, words.size() - 1}) {
    const auto frame = z1_compress(words.data(), words.size() * 4, row);
    std::vector<std::uint32_t> back(words.size());
    z1_decompress(frame.data(), frame.size(), back.data(), back.size() * 4);
    EXPECT_EQ(back, words) << "row " << row;
  }
}

TEST(Z1Codec, RowDeltaShrinksNearbyDistanceRows) {
  // Rows of nearby vertices differ by at most the distance between them,
  // so on a road matrix the row delta leaves mostly tiny words.
  const auto ram = solve_to_ram(graph::make_road(16, 16, 5));
  const vidx_t n = ram->n();
  std::vector<dist_t> tile(static_cast<std::size_t>(n) * n);
  ram->read_block(0, 0, n, n, tile.data(), static_cast<std::size_t>(n));
  const std::size_t bytes = tile.size() * sizeof(dist_t);
  const auto planes = z1_compress(tile.data(), bytes);
  const auto delta =
      z1_compress(tile.data(), bytes, static_cast<std::size_t>(n));
  EXPECT_LT(planes.size(), bytes / 2);
  EXPECT_LT(delta.size() * 2, planes.size());
  for (const auto* frame : {&planes, &delta}) {
    std::vector<dist_t> back(tile.size());
    z1_decompress(frame->data(), frame->size(), back.data(), bytes);
    EXPECT_EQ(back, tile);
  }
}

TEST(Z1Codec, ContentChecksumCatchesPayloadCorruption) {
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i / 7);
  }
  auto frame = z1_compress(data.data(), data.size());
  std::vector<std::uint8_t> dst(data.size());
  // A literal byte flip decodes structurally but must fail the checksum.
  auto bad = frame;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_THROW(z1_decompress(bad.data(), bad.size(), dst.data(), dst.size()),
               IoError);
}

// ---------------------------------------------------------------------------
// GAPSPZ1 store
// ---------------------------------------------------------------------------

TEST(CompressedStore, BitIdenticalToRawOracle) {
  const auto g = graph::make_road(12, 13, 77);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("oracle");
  const auto cs = write_compressed_store(*ram, zpath, /*tile=*/48);
  EXPECT_EQ(cs.raw_bytes, static_cast<std::uint64_t>(g.num_vertices()) *
                              g.num_vertices() * sizeof(dist_t));
  EXPECT_EQ(cs.compressed_bytes, file_size(zpath));
  const auto z = open_compressed_store(zpath);
  EXPECT_EQ(z->tile_size(), 48);
  expect_stores_bit_identical(*ram, *z);
  // Strided partial reads crossing tile boundaries match at().
  std::vector<dist_t> block(5 * 7);
  z->read_block(45, 43, 5, 7, block.data(), 7);
  for (vidx_t r = 0; r < 5; ++r) {
    for (vidx_t c = 0; c < 7; ++c) {
      EXPECT_EQ(block[static_cast<std::size_t>(r) * 7 + c],
                ram->at(45 + r, 43 + c));
    }
  }
  std::remove(zpath.c_str());
}

TEST(CompressedStore, RaggedTilesRoundTrip) {
  // n deliberately not a multiple of the tile side: edge tiles are ragged
  // both ways and must still round-trip exactly.
  const vidx_t n = 30;
  auto ram = make_ram_store(n);
  Rng rng(5);
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    for (auto& v : row) {
      v = rng.next_bool(0.3) ? kInf : static_cast<dist_t>(rng.next_below(50));
    }
    ram->write_block(r, 0, 1, n, row.data(), row.size());
  }
  const std::string zpath = tmp_path("ragged");
  write_compressed_store(*ram, zpath, /*tile=*/7);
  const auto z = open_compressed_store(zpath);
  expect_stores_bit_identical(*ram, *z);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, CompactAutodetectsAndServes) {
  const auto g = graph::make_road(10, 10, 31);
  const vidx_t n = g.num_vertices();
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.algorithm = Algorithm::kJohnson;
  const std::string raw_path = tmp_path("raw");
  {
    auto fs = make_file_store(n, raw_path, /*keep_file=*/true);
    solve_apsp(g, o, *fs);
  }
  auto ram = solve_to_ram(g);

  // A raw kept file is not a compressed store; open_store serves it raw.
  EXPECT_FALSE(is_compressed_store(raw_path));
  expect_stores_bit_identical(*ram, *open_store(raw_path));

  // Out-of-place compaction leaves the raw file usable and both agree.
  const std::string zpath = tmp_path("z");
  const auto cs = compact_store(raw_path, zpath, /*tile=*/32);
  EXPECT_GT(cs.ratio(), 1.0);
  EXPECT_TRUE(is_compressed_store(zpath));
  EXPECT_FALSE(is_compressed_store(raw_path));
  expect_stores_bit_identical(*ram, *open_store(zpath));

  const auto info = compressed_store_info(zpath);
  EXPECT_EQ(info.n, n);
  EXPECT_EQ(info.tile, 32);
  EXPECT_EQ(info.tiles_per_side, (n + 31) / 32);
  EXPECT_EQ(info.file_bytes, file_size(zpath));
  EXPECT_EQ(info.tiles, static_cast<long long>(info.tiles_per_side) *
                            info.tiles_per_side);

  // In-place compaction replaces the raw file; compacting twice is an error
  // (double compression would silently store garbage geometry).
  const auto cs2 = compact_store(raw_path, raw_path);
  EXPECT_TRUE(is_compressed_store(raw_path));
  EXPECT_EQ(cs2.raw_bytes, cs.raw_bytes);
  EXPECT_THROW(compact_store(raw_path, raw_path), IoError);
  expect_stores_bit_identical(*ram, *open_store(raw_path));

  std::remove(raw_path.c_str());
  std::remove(zpath.c_str());
}

TEST(CompressedStore, KnownInfTilesServeWithoutPayload) {
  // Two disjoint grids: every cross-component tile is all-kInf and must be
  // a zero-length directory entry answered without touching the payload.
  const auto g = disjoint_grids(2, 8, 11);
  const vidx_t half = g.num_vertices() / 2;
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("kinf");
  const auto cs = write_compressed_store(*ram, zpath, /*tile=*/64);
  EXPECT_GT(cs.inf_tiles, 0);
  const auto z = open_compressed_store(zpath);

  EXPECT_TRUE(z->block_known_inf(0, half, half, half));
  EXPECT_TRUE(z->block_known_inf(half, 0, half, half));
  EXPECT_FALSE(z->block_known_inf(0, 0, half, half));  // diagonal has data
  EXPECT_FALSE(z->block_known_inf(0, 0, g.num_vertices(), g.num_vertices()));

  std::vector<dist_t> block(static_cast<std::size_t>(half) * half);
  z->read_block(0, half, half, half, block.data(), half);
  for (const dist_t d : block) EXPECT_EQ(d, kInf);
  expect_stores_bit_identical(*ram, *z);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, KinfDominatedRoadLikeRatioFloor) {
  // Acceptance: ≥4× on a kInf-dominated road-like matrix. Eight disjoint
  // grid components leave 7/8 of all pairs at kInf.
  const auto g = disjoint_grids(8, 8, 23);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("ratio");
  const auto cs = write_compressed_store(*ram, zpath);
  EXPECT_GE(cs.ratio(), 4.0) << cs.raw_bytes << " -> " << cs.compressed_bytes;
  expect_stores_bit_identical(*ram, *open_store(zpath));
  std::remove(zpath.c_str());
}

TEST(CompressedStore, RejectsWritesAndValidatesBounds) {
  const auto g = graph::make_road(6, 6, 3);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("ro");
  write_compressed_store(*ram, zpath, /*tile=*/16);
  const auto z = open_compressed_store(zpath);
  dist_t v = 1;
  EXPECT_THROW(z->write_block(0, 0, 1, 1, &v, 1), IoError);
  std::vector<dist_t> out(4);
  EXPECT_THROW(z->read_block(-1, 0, 1, 1, out.data(), 1), Error);
  EXPECT_THROW(z->read_block(0, 0, 1, 1 + g.num_vertices(), out.data(),
                             1 + static_cast<std::size_t>(g.num_vertices())),
               Error);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, CorruptionIsRejectedNotServed) {
  const auto g = graph::make_road(8, 8, 9);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("corrupt");
  write_compressed_store(*ram, zpath, /*tile=*/16);
  const auto pristine = read_file(zpath);

  // Flipped directory byte: rejected at open by the directory checksum.
  auto bad = pristine;
  bad[64 + 3] ^= 0xff;
  write_file(zpath, bad);
  EXPECT_THROW(open_compressed_store(zpath), IoError);

  // Truncated payload: directory entries point past EOF.
  bad = pristine;
  bad.resize(bad.size() - 9);
  write_file(zpath, bad);
  EXPECT_THROW(open_compressed_store(zpath), IoError);

  // Each byte of the last frame flipped in turn: open succeeds (directory
  // intact), and every read either fails its frame validation or returns
  // the pristine distances, never wrong ones. A flip may decode to
  // identical bytes (say, a match offset whose alternative copies the same
  // run), so only some flips must throw.
  const vidx_t tiles_per_side = (g.num_vertices() + 15) / 16;
  std::uint64_t last_frame = 0;
  for (vidx_t t = 0; t < tiles_per_side * tiles_per_side; ++t) {
    std::uint64_t offset = 0;
    std::memcpy(&offset, pristine.data() + 64 + 16 * t, sizeof(offset));
    last_frame = std::max(last_frame, offset);
  }
  ASSERT_GT(last_frame, 0U);
  int rejected = 0;
  for (std::size_t at = last_frame; at < pristine.size(); ++at) {
    bad = pristine;
    bad[at] ^= 0x10;
    write_file(zpath, bad);
    const auto z = open_compressed_store(zpath);
    try {
      expect_stores_bit_identical(*ram, *z);
    } catch (const IoError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);

  // Not-a-store inputs.
  write_file(zpath, {'G', 'A'});
  EXPECT_FALSE(is_compressed_store(zpath));
  EXPECT_THROW(compressed_store_info(zpath), IoError);
  std::remove(zpath.c_str());
}

// GAPSPZ1 file of road:8x8 (seed 9) in 16-wide tiles, as written before z1
// frames carried a transform tag: 16 untagged frames with FNV-1a
// checksums, in hex. No encoder writes untagged frames any more, so this is
// the one reader of that path.
constexpr const char* kLegacyRoad8x8Store =
    "47415053505a310040000000000000001000000000000000040000000000000049360000"
    "00000000f4af44336328b727000000000000000000000000000000004001000000000000"
    "3b030000000000007b040000000000006003000000000000db0700000000000077030000"
    "00000000520b0000000000007403000000000000c60e0000000000007f03000000000000"
    "45120000000000002e0300000000000073150000000000004603000000000000b9180000"
    "000000007f03000000000000381c0000000000006f03000000000000a71f000000000000"
    "5103000000000000f8220000000000003a0300000000000032260000000000008e030000"
    "00000000c0290000000000007803000000000000382d0000000000008503000000000000"
    "bd300000000000008d030000000000004a340000000000003f0300000000000000040000"
    "0000000071f30cda8313b901f02e000000004c00000012010000db000000340100007c01"
    "00004c0100005f0100004f00000084000000af000000c7000000470100007e0100004b01"
    "0000542800004100f001000000f1000000ba00000013010000603800f216010000620100"
    "0098000000630000008e000000a60000004a010000810100004e01000057017800003c00"
    "004700f3063b00000094000000e10000001101000026010000c33c00004400008c005319"
    "010000423800131bb400007800003c0000440013596800f316d6000000eb0000008c0000"
    "00570000002c00000014000000de00000007010000d7000000e0f00000b400007800003c"
    "00004400f21b4d0000007d00000092000000e5000000b0000000850000006d000000e200"
    "0000ae0000007e00000087002c0100f00000b40000e000003c00004400f3023000000045"
    "0000002d010000fd000000d22001d09500000061000000310000003a7c01032c0100f000"
    "00b400007800003c000044002215003c00d0ec000000e7000000cf00000065b400920000"
    "00010000000a00a401006801002c0100f00000b400007800003c000044009310010000ff"
    "000000fabc001078c401030c01220b00e00100a401006801002c0100f00004b400003c00"
    "0044008035000000600000003c00e2f80000002f010000fc00000005011c02009c0100e0"
    "01006801002c0100f00000b400007800003c00004400532b00000043c800221e019c0113"
    "f45802003c0000440000a401006801002c0100f00000b400007800003c000044001318c4"
    "0000040253e6000000ef9402007801001c0200e00100a401001002002c0100ac0100b400"
    "007800003c0000440010ca3c0152010000ce00040200d002009402005400001c02003400"
    "00a401006801003c0000f000008c00001800003c000044005355000000641002000c0300"
    "d002009402005802001c0200e00113346801002c0100f00000600040010100003c000044"
    "0062330000003c004803000c03008003009402005802001c0200e00100d00000680100d8"
    "0100f00000b400007800003c000044002209008403004803000c0300d002009402005802"
    "001c0200e00100a401006801002c01006000002001007800003c00004400000004000000"
    "000000d0099cf78f0a799df382550000008a000000db000000f100000017010000260100"
    "00300100006301000081000000a3000000b6000000f80000000401000047010000580100"
    "006b0100009e00000069000000ba000000d00000001a0100002901000033010000660100"
    "00b00000008e000000a1000000ef000000070100004a0100005b0100006e010000c90000"
    "0094000000ab00000079000000e9680013024400009800f326b9000000cc000000be0000"
    "00d6000000190100002a0100003d010000920000005d000000700000003e000000ae0000"
    "00bd000000c74800f306a40000008200000095000000830000009b000000de8c00006400"
    "13ebdc000088005397000000b2f00093990000009f000000fd1c01f20fee000000dc0000"
    "00c5000000c4000000c1000000d4000000270100000301d800f306d50000006500000056"
    "0000004c00000052000000fb5801007400f3269000000078000000770000007400000087"
    "000000f7000000e6000000d7000000a500000035000000260000001c00000022000000cb"
    "6c0000d800f31260000000480000004700000044000000570000000a010000f9000000ea"
    "000000b8200093390000002f00000023ec0000a80000b00093730000005b0000005a3c00"
    "f3066a000000060000003b0000008c000000a2000000c88c00f30ae10000001401000032"
    "0000005400000067000000a9000000b5580162090100001c013c00004400008c00936d00"
    "0000b7000000c60c02001801534d0000002b9c0100640000900113e74400930b01000066"
    "0000003110011342800100ac0000f80013fe300100500100640200300100940150e20000"
    "00f3bc00f3050100007e000000490000005c0000002a0000009aa80013b3580100740122"
    "6e00c802136f740117cad40140f2000000ec00d3d2000000a0000000300000003f540013"
    "7ccc0013bc5400003c014043000000880162710000008400ec024018010000100100c401"
    "00280153580000004e380100400200ac0022e000ac02137ae802d37600000089000000f6"
    "000000e5d802001c01f00134000000250000001b00000021000000ac0093c0000000ad00"
    "00005ffc014046000000880000180140ff0000009c0213df2400f2033d0000002e000000"
    "2400000018000000d300640300c0039368000000500000004fa002005000000004000000"
    "000000c0de531e6c657fecf22f94000000b4000000b9000000c3000000e9000000a10100"
    "005d0100005f010000e4000000c1000000c4000000000100003d010000a00100009c0100"
    "0079013400f34ed1000000d6000000e000000006010000a4010000600100006201000009"
    "010000de000000e10000001d0100005a010000bd0100009f0100007c010000ee000000fc"
    "000000fd000000f3000000f1000000730100002f01000031010000344400f3260c010000"
    "4301000080010000c00100006e0100004b010000b7000000c5000000c2000000b8000000"
    "b600000038010000f4000000f65800f30ad2000000d50000000801000045010000850100"
    "00330100001004001315080000bc0000c400f31e0a010000c6000000c80000004d010000"
    "220100002501000056010000930100005701000005010000e2000000e82800003c010044"
    "01d393000000bd000000790000007b3401007c0022d8000c014046010000600000ac0013"
    "95b40040980000003800f34689000000630000008d000000490000004b000000d0000000"
    "a5000000a8000000d900000016010000da0000008800000065000000cb000000ab000000"
    "a60000009c00000076000000a00000005c0000005e000000e36400f30abb000000ec0000"
    "0029010000ed0000009b00000078000000454800f3026a000000740000009a0000005201"
    "00000e140100a400a27200000075000000b100b0012251011801102ae801400000006eb4"
    "01d20000007d000000a30000004101d00113ff9800000801a27e000000ba000000f70004"
    "02f3023c010000190100008b000000990000009ee400002400001c0080f8000000fa0000"
    "005c0200dc0062a9000000e5008c0100c001623701000014017000009800e2ae000000a4"
    "000000a200000024018c0200a00100d00213bec40200140200540262710100001f017802"
    "13b37c01538e00000084340100840000480100200100600100500100d800f30ad4000000"
    "1101000007010000b500000092000000ea000000ca840200640100300113bffc01001001"
    "6202010000d700b401800b01000048010000cc02006400229700c002000800004c0000d4"
    "01f302620000008c000000480000004a000000cfd80040a7000000440200ac0200080293"
    "8700000064000000c0f00100d00180910000006b0000008400535100000053340053ad00"
    "0000b08403131eb80280900000006d0000000004000000000000d8b45ec5ae5fa145f263"
    "14010000150100002b0100003601000064010000ad010000f9010000cb01000026010000"
    "5f0100008801000063010000c701000008020000250200005f0200003901000032010000"
    "480100005301000081010000ca010000fc010000ce0100004b0100007c010000a5010000"
    "80010000e4013c0062420200007c027000f3025d010000730100007e010000a7010000f0"
    "7c00539d010000761400f30ad0010000ab0100000a0200004b02000068020000a2020000"
    "2da400f01e3c010000470100006c010000b501000090010000620100003f010000700100"
    "009901000074010000cf01000010380083020000670200007d6400d38c01000097010000"
    "ba010000a63c00f31a340100008f010000c0010000e9010000c40100001d0200005e0200"
    "007b020000b502000030010000296800934a0100006d01000059540153e700000042dc00"
    "809c01000077010000c80053110200002ec40010006c01c30000000f0100001a0100003d"
    "5000d3e5000000b70000001201000043d80000e000f20ba0010000e1010000fe01000038"
    "020000130100000c01000022010c0140500100000c01f011f8000000ca00000025010000"
    "560100007f0100005a010000b3010000f40100008400004801c0c5000000c6000000dc00"
    "0000b000000c02535e010000aab80162d70000001001e801002c029378010000b9010000"
    "d6480180d6000000cf000000b00093f00000001e010000677001a26b010000e800000019"
    "010801131d2002f302c2010000df0100001902000001010000fa6400f2031b0100004901"
    "000092010000940100006601e0001344580100640253ac010000ed08022244025c000024"
    "01d3280100003301000058010000a1bc00134ed802d35c0100008501000060010000bb9c"
    "02007c00d353020000fb000000f40000000ab4011338300100540093e40000000d010000"
    "3ed40000cc01509b010000dcb4010070001202fc02003c03f002410100004c0100006f01"
    "00005b01000017340230000000bc00d0750100009e01000079010000d2d400003802b002"
    "00006a020000ff000000ac01100e100103bc0100cc00007c0053b6000000113c01004c01"
    "f207460100009f010000e0010000fd010000370200000801440100700000040250450100"
    "0031240152000000bf00540200840300fc02504f010000a89800b0010000060200004002"
    "00000004000000000000f0a81aae50274e11f34e550000009e000000c900000092000000"
    "eb00000027010000f70000000a010000060000003b000000660000007e000000f2000000"
    "29010000f6000000ff0000008a00000069000000940000005d000000b600000003010000"
    "e6000000f93c00004400f3163100000049000000e100000018010000e5000000ee000000"
    "db000000ba000000ab000000708800f24f07010000d7000000ea0000008c000000570000"
    "00740000005c000000d200000009010000d6000000df000000f1000000d0000000790000"
    "003e00000097000000d5000000a5000000b8000000a20000006d000000420000002a0000"
    "00a0005c00f31ea4000000ad000000170100001a010000e9000000ae000000b200000065"
    "0000003500000048000000c8000000b71800f2079a000000300000006700000034000000"
    "3d00000026011001d0f8000000bd000000a300000056180043000000396c00f00ac60000"
    "00c1000000a90000003f00000058000000250000002e5000f30d01000033010000020100"
    "00c7000000990000004c0000001c0000002f300100e00053cb000000b34401f3024e0000"
    "001b0000002400000063010000664400008400f2039f0000005200000022000000230000"
    "001401900122fe009401907c000000540000002188018300000081000000b08801001401"
    "80fd000000fb0000007000f005de000000320000004d0000007800000090000000cc0000"
    "240053ca000000d3f000938e000000b900000082480000940100f00013d46c00132b1401"
    "d36e000000bc000000f3000000c0ec0100300293a1000000cc000000951402007800008c"
    "01004400006c0100d80100640200ac0000440113e0bc01003c0000f400d3ef000000be00"
    "000083000000dca800536000000073740100440293870000006f0000005be802c05f0000"
    "0068000000040100007002005002539b000000c5ec0000fc01002c0040b5000000180100"
    "5801004400d0430000007a00000047000000500800b00100004a01000019010000b80050"
    "c4000000771800700000005a000000a00080e7000000e200000034010098009079000000"
    "460000004f0c02b00100005b0100002a010000c80000f40000ec021344f80200ec020044"
    "00003401002c038071000000760000008800002802936b0100006e0100003d4402007401"
    "00a800003403106a4802400100000bc80312017003538400000089900100040100000400"
    "0000000000c17e84b1a03a1af1f22f000000004100000092000000a8000000c2000000d1"
    "000000db0000000e0100002c0000004e00000061000000a3000000af000000f200000003"
    "01000016013c00004400f31e5100000073000000b1000000c0000000ca000000fd000000"
    "470000002500000038000000860000009e000000e144002205017800003c000044005332"
    "000000a24400f316bb000000ee000000980000007600000089000000770000008f000000"
    "d2000000e3000000f6b400007800003c0000440053700000007f300053bc000000ba4400"
    "d393000000450000005d000000a0640013c4f00000b400007800003c00004400f3120f00"
    "0000190000004c000000960000008c000000790000002b0000001300000030340113542c"
    "0100f000004400007800003c00004400f0110a0000003d000000a50000009b0000008800"
    "00003a0000002200000021000000b000009000006801002c0100f00000e400007800003c"
    "000044001333700100440000a001224400900100880053280000003ba40100680140ee00"
    "0000f00000b400007800003c0000440093e2000000d8000000c54001935f0000005e0000"
    "005a9c0100e00100a401006801002c0100f00000700000e801003c0000440000b4001335"
    "4000d383000000c6000000d7000000ea1c0200e00100a401004400002c0100f000004400"
    "007800003c000044000038011361480100a80053cd000000e05802001c0200fc0000a401"
    "13792c0100f00000b400007800003c000044000088025366000000a9d801004400009402"
    "005802001c02005001001c01006801002c01001400000400007800003c00004400931800"
    "00005b0000006c280200e800009402005802001c02006c0000b400001801002c0100f000"
    "009400007800003c000044004043000000fc011367c80200d002009402005802001c0200"
    "e001008800006801002c0100f00000b400007800003c00004400134b8801004803005003"
    "00d002004402008c03001c0200e00100a40100680100e800009c0100b400007800003c00"
    "00440000ac00008403004803000c0300d002002000000801001c0200d80100a401006801"
    "00440000a00200b400009800003c000044000000040000000000007ef730ecca521d89f2"
    "6f3f0000005f000000640000006e000000940000004c010000080100000a0100008f0000"
    "006c0000006f000000ab000000e80000004b01000047010000240100005a000000680000"
    "006d000000770000009d0000003b010000f7000000f9000000a000000075000000780000"
    "00b4000000f1000000540100003601000013015400f203b9000000b6000000ac000000aa"
    "0000002c01680013ea3000f31ac6000000c9000000fc0000003901000079010000270100"
    "0004010000a900000089000000840000007a680013fa5000f306b8000000c10000009600"
    "000099000000ca00000007bc00f002f5000000d200000083000000630000005e9800f329"
    "0000002e0000008a00000046000000480000009b0000007000000073000000a4000000e1"
    "000000d7000000850000006200000092000000720001004800903d0000007b00000037ac"
    "0003d000f3127f00000082000000b3000000f0000000c800000076000000530000009c00"
    "00007c3c01004401d347000000710000002d0000002f340100e000808c000000bd000000"
    "dc0013be94019349000000cf000000af6800006c0100040113a3d401d361000000e70000"
    "00bc000000bf7c00222d018400139ea800d313000000330000003800000042cc01932001"
    "0000dc000000de1c01804000000043000000c800004c00d31f0100001b010000f8000000"
    "351c00002c01135280012216015c0113d464001350ec00004c0210ccd800830100001101"
    "0000ee640140450000006400134a6c01220301b00000bc01407d0000005800f306550000"
    "0091000000ce00000031010000fe000000dbb8024044000000c802008c0000cc0013b544"
    "0100b401005c011351dc0100b401d3c200000002010000b00000008d700000a000934b00"
    "0000410000001bc402f702590000005b000000880000005d0000006080000098021398d8"
    "0200d40153930000008e840200480200440300540000b80013cb040300940100100100f8"
    "00004402000c0100580313c45802539f00000095680300d8011005ac021200880113b108"
    "0213e5540300d00200f40013218c0293b7000000b2000000a86802f0015c000000180000"
    "001a000000ef000000640022c700b001130c340380570000003400000000040000000000"
    "004efe8c252236c7c1f38ebf000000c0000000d6000000e10000000f01000058010000a4"
    "01000076010000d10000000a010000330100000e01000072010000b3010000d00100000a"
    "020000d0000000c9000000df000000ea00000018010000610100009301000065010000e2"
    "000000130100003c010000170100007b010000bc010000d901000013020000210100001a"
    "010000300100003b01000060010000a901000084010000567800f002640100008d010000"
    "68010000c3010000043800830200005b020000f17800f33e000100000b0100002e010000"
    "77010000520100002401000003010000340100005d0100003801000091010000d2010000"
    "ef01000029020000cb000000c4000000da000000e50000000801000026b80062b4000000"
    "dd00f800f00237010000120100006b010000ac010000c95c0012023800a2d3000000e900"
    "0000f400e400000400001400e2a5000000ec0000001d0100004601ec00907a010000bb01"
    "0000d8500043020000e4640062f3000000fe002400100d6000f3050000009b000000f600"
    "000027010000500100002b180110c5a000520100001c0270001310b400f0453101000054"
    "0100003f010000fb000000cd000000290100005a010000830100005e010000b7010000f8"
    "010000150200004f0200009300000094000000aa000000b5000000e30000002c01000078"
    "0100004a010000c40050de0000000774001200c80013872002f005de010000ab000000a4"
    "000000ba000000c5000000c80000ec01d36e01000040010000bd000000ee180122f200d4"
    "01f01d97010000b4010000ee010000ad000000a6000000bc000000c7000000f50000003e"
    "0100005b0100002d010000a00262f000000019016001009c02e299010000b6010000f001"
    "0000ac00a40053bb000000c688014032010000440100940253be000000ef9802009c0013"
    "4c4c02d3aa010000e4010000b8000000b17c0013d28000223901880000900022ca004c01"
    "004c0222ff001c0308800000680100f8010024031315640200cc0200f801007c00008800"
    "00d000f00267010000420100009b010000dc010000f9dc02c30200000c01000005010000"
    "1bc4012220018802d3a1000000730000001e0100004f90011353c80150c4010000e13400"
    "520200001f01740300f80200b80000a803c0f8000000b4000000860000001402f0026201"
    "00008b0100006601000096010000d74c01002c0330020000000400000000000010e4cf3d"
    "08f3c785f32694000000c3000000ee000000b700000010010000e8000000b8000000cb00"
    "000045000000600000008b000000a3000000b3000000ea2c00f342c0000000b4000000d1"
    "000000fc000000c500000015010000c800000098000000ab000000650000006e00000099"
    "000000b100000093000000ca00000097000000a0000000b9000000d6000000fd000000c2"
    "8000009000002800f306a60000006a000000730000009e000000ae0000008e6800539200"
    "00009bbc0053e0000000f3b4002206015400f01d890000009c000000740000007d000000"
    "a8000000a400000084000000bb0000008800000091000000e9000000340080f1000000b6"
    "0000004c00007c009363000000760000009af800f322ba000000a20000005e0000009500"
    "0000620000006b000000a1010000a401000073010000380100000a010000bd0000008de0"
    "00f00152010000410100003c01000024010000480053bf0000008c4800f2135d01000060"
    "0100002f010000f4000000c600000079000000490000005c0000000e011c0113f89c0000"
    "9400f20b7b00000048000000510000005f0100006201000031010000f6007c0100200013"
    "4bac0000d001d3ff000000fa000000e2000000781001f3024a00000053000000e4000000"
    "09010000346800d34d01000000010000d0000000e3a40000880100e401002c01001402f3"
    "0202010000cf000000d8000000c1000000de4400d3d200000022010000d5000000a59001"
    "4072000000900000440013be140113d78c01d3ad000000c4000000e10000000c38002225"
    "01580000b00100a80193750000007e000000a96c00008402a2da000000a7000000b000ac"
    "00e21d01000043010000080100005601d00053d9000000ec740200740122e500600153d4"
    "0000000b6400007800f20f3d0100005a0100008001000045010000930100004601000016"
    "0100002901180313f7d80000640162110100004801e802f3061e010000a0010000bd0100"
    "00c00100008501000057040200a40010eda401036000001c0062710100000701ec0000a0"
    "00009001f2039c0100009f0100006e0100003301000005017c0300a00200e00200900100"
    "3c02a2370100001f010000b50044025087000000902c02920100007c0100004b01bc0300"
    "540000a00200780300ec01a22a010000190100001401a403003803007c0380640000006d"
    "0000000004000000000000ce51a8095d4d4dd8f36e3f0000005a000000ab000000a90000"
    "0083000000920000009c000000cf00000013000000350000004800000064000000700000"
    "00b3000000c4000000d70000005f00000068000000b90000008900000063000000720000"
    "007c000000af000000330000004300000045000000440000005000000093000000a40000"
    "00b75400f0016d000000b6000000840000005e00000010009377000000aa000000387c00"
    "4040000000ac00f0054b0000008e0000009f000000b20000006e0000002c0093ac000000"
    "7a000000548400004400d3a000000042000000520000004ac80013416800d395000000a8"
    "000000940000009d6c00d3780000002e0000003d00000047500000dc0000180000f80000"
    "cc00131ba400f3266f000000820000004c0100003b0100002c010000fa0000008a000000"
    "7b00000071000000a3000000200100001601000003010000b56c00007400f30249000000"
    "5c00000008010000f7000000e804019346000000370000002d5c0193dc000000d2000000"
    "bf540013594401f30605000000180000000a010000f9000000ea000000b82c01f30e3900"
    "00002f00000061000000de000000d4000000c1000000730000005b1001c0070000001a00"
    "00008f000000280113f12400139b0c0153b4000000e74c0100d000137dd4018088000000"
    "cb0000009800f302ef0000006c00000075000000c6000000962002137f0c0240bc000000"
    "b80100f40100840153510000005d700013b1440200480100600153c900000099a4000058"
    "01138cf400003c02535300000055dc011360580100a00013c7b802000c0053fc000000ca"
    "580200a00280bd000000f00000008c0000e400809100000085000000080000100153e500"
    "0000f8780100fc00933901000007010000e1380000cc01402d010000c40093cc000000ce"
    "000000c2080013117401f2030c0100004b01000054010000790100004701140353c80000"
    "00be4800e21f0100002f010000310100000201a801006400002c01007003003400933601"
    "000027010000f5a40013765801809e0000001b010000700093fe000000b000000098b401"
    "004c03e2570000002401000013010000040128024062000000300100600200b80100e400"
    "93ee000000db0000008dac0100b40180210000003400000000040000000000008d73aaf7"
    "628ea9e3f32e0000000020000000250000002f000000550000000d010000c9000000cb00"
    "0000500000002d000000300000006c000000a90000000c01000008010000e53c00004400"
    "d3050000000f00000035000000ed280050ab000000385000f309000000100000004c0000"
    "0089000000ec000000e8000000c57800003c00004400130a6800001c00f316a4000000a6"
    "0000003d0000001200000015000000510000008e000000f1000000e3000000c0b4000078"
    "00003c00004400f30a26000000de0000009a0000009c000000470000001c0000001fcc00"
    "d38d000000f0000000d9000000b6f00000b40000e000003c00004400f306b80000007400"
    "0000760000006d0000004200000045100080b30000000501000008001090dc001201f000"
    "00b400007800003c00004400504400000046e00083010000fa000000fd1801e2b0000000"
    "4d000000830000006000680100540100f00000b400007800003c000044005302000000e1"
    "a800f302b9000000ea000000f4000000910000003fd80000a401006801002c0100f00000"
    "b400007800003c0000440000280100940013bb7801d3f600000093000000410000001a14"
    "0100a401006801002c0100f0002225017800003c00004400f2072b0000002e0000006a00"
    "0000a70000000a0100002001d400001c02130da401006801002c0100f000005c01007800"
    "003c000044001303b400d37c000000df000000f5000000d2f001001c0200e00100a40100"
    "6801002c0100f00000b400007800003c00004400f3023c00000079000000dc000000f800"
    "0000d59402005802001c0200ac02000001008002002c0100680200b400002c01003c0000"
    "440000e80013a08000220601d002009402005802001c0200d80100a401006801002c0100"
    "f00000b400007800003c000044004063000000dc00220f010c0300680000940200580200"
    "1c0200e00100a401006801002c0100f00000b400007800003c0000440000680322ac0048"
    "03003c02006c01009402008000001c0200b40000a401006801002c0100f0000008000078"
    "00003c000044002257008403004803000c03007401009402005802008c0100e001004c01"
    "006801002c0100f00000b400007800003c000044000000040000000000009e1bc9ec9cb2"
    "581ef392800000008100000097000000a2000000d0000000190100006501000037010000"
    "92000000cb000000f4000000cf000000330100007401000091010000cb01000068000000"
    "610000007700000082000000b0000000f900000045010000170100007a000000ab000000"
    "d4000000af000000130100005401000071010000ab0100006d000000660000007c000000"
    "87000000b5000000fe00000040010000120100007f5400f207d9000000b4000000180100"
    "005901000076010000b0017800937000000086000000912400f20bfd0000003601000008"
    "01000089000000ba000000e3000000be009400f31a5801000075010000af0100009d0000"
    "0096000000ac000000b7000000da0000002301000010010000e2b400f025e00000000901"
    "0000e40000003d0100007e0100009b010000d501000055010000430100002d0100002201"
    "0000d70000009c000000340093b2000000670100008d3000f2174f0100003a0100007b01"
    "000098010000d2010000110100000a010000200100002b0100001b013c00004400136e8c"
    "00003001407d010000b800007c00a2bf010000dc01000016025001130c7c00008400131d"
    "b800d09e0000006c00000025010000564801f3150100005a01000080010000c1010000de"
    "01000018020000300000004e000000640000006f2c01800301000053010000b000934200"
    "000098000000c1d800006000135ec400f312b50100005b000000540000006a0000007500"
    "0000a3000000ec0000003c01000024e001008c0031c700006002f2070601000047010000"
    "640100009e0100005e00000057000802f00578000000a0000000e9000000390100002701"
    "0000dc01c0a1000000ca000000a50000009c005344010000615401939a00000093000000"
    "a9ac0100c80040ad0000000402223b01d80140dd000000780040dc000000880000180200"
    "1801535f010000b14000a27d000000720000002700740013c0880240c3000000400093eb"
    "0000009f0000008a100322e800f0015314010000f6f00113d52000134f2c000038002226"
    "01cc02f3464e01000002010000ed0000002e0100004b0100008501000050010000490100"
    "00350100002a010000df000000a40000005d0000009b0000006201000093010000a30100"
    "00570100004201000083010000a0010000da780200640000700100580113294002909000"
    "0000520000003f44014301000099b803908c010000cd010000eaa0013002000000040000"
    "0000000084ee3b7cc0a50609f0161401000039010000640100002d0100007d0100003001"
    "00000001000013010000c5000000d60f00f20a01000019010000fb00000032010000ff00"
    "00000801000015011000f3225d010000260100007601000029010000f90000000c010000"
    "c6000000cf000000fa00000012010000f40000002b010000f85400000c00f34648010000"
    "730100003c0100008c0100003f0100000f01000022010000dc000000e500000010010000"
    "280100000a010000410100000e0100001701000036010000530100007e01000047010000"
    "970100004a0100001ad000d3e7000000f00000001b01000033b000134ccc0000600000f8"
    "00f30a81010000a70100006c010000ba0100006d0100003d010000503000f3021e010000"
    "4901000058010000380100006fac00f30a45010000ad010000ca010000f0010000b50100"
    "00a601000059040100d000f3065e0100006701000092010000a1010000560100005bcc00"
    "10312801f301010000fc010000cb0100009001000062740000f400002401e2aa01000099"
    "010000940100007c01440100f80062e4000000ed00380053ce0100009d3c004034010000"
    "f40062b7000000ca003400c06b010000660100004e0100003800a2e9000000b6000000bf"
    "00b401134bb801007801538f010000426800a225010000d7000000e8000c0200ac01930d"
    "01000044010000116401135f98000040015370010000c0cc011343ec0000b80100380200"
    "3400935c0100003e0100007564000078009388010000a5010000d0e80053e90100009c8c"
    "01137f9c0200900000940113854c01409e010000d400f001740100006301000080010000"
    "ab010000100053c4010000770c02405a010000e002401d010000640213607800d0790100"
    "00460100004f010000c7140100580292020000cf0100001d028c00c0a0010000b3010000"
    "780100002002f022ac010000bb0100009b010000d20100009f010000a801000008020000"
    "250200004b020000100200005e02000011020000e1ec02c3010000b9010000c2010000ed"
    "e80110dc580370020000e0010000ec00003c00f00642020000680200002d0200007b0200"
    "002e020000fe640183020000d6010000dfa0005019020000f9a003f30d020000fd010000"
    "060200005f0200007c020000a202000067020000b54c0017389400003800f00944020000"
    "53020000330200006a02000037020000400200000004000000000000f240376a2200285f"
    "f27fbf000000d000000021010000f1000000cb000000da000000e4000000170100009300"
    "0000ab000000ad000000ac000000b8000000fb0000000c0100001f010000c0000000c900"
    "00001a010000ea000000c4000000d3000000dd0000001001000094000000a4000000a600"
    "0000a5000000b1000000f40000000501000018010000d6000000df000000300100000001"
    "7c00f21fe9000000f300000026010000aa000000ba000000bc000000bb000000c7000000"
    "0a0100001b0100002e010000e1007800933b0100000b010000e56000d3fe000000310100"
    "00b5000000c53800a2c6000000d200000015015c0053390100000f880013605000220801"
    "f8000010015354010000e38c0040f50000009800000800f30a3801000020010000330100"
    "005801000061010000a9010000775800003801f0090d0100003f0100002c0100003c0100"
    "003e01000032010000740000ec0000a80010f81c01006401c30100008401000052010000"
    "e24001005401006801c0780100006e0100005b0100005400008000f20bec000000a10000"
    "00b400000076010000650100005601000024011400006801f2039b000000cd0000004a01"
    "0000400100002d016801004001e2be0000007300000086000000d100740000cc00220301"
    "b80100600062f60000002901b40140bd000000280200380022ca008800221e016001008c"
    "01f31a1301000064010000340100000e0100001d010000270100005a010000de000000ee"
    "000000f0000000ef3c02000c01534f010000624401002001f30a8d0100005d0100003701"
    "00004601000050010000830100000790011319a80100e40040670100001801138b700000"
    "700140680100009801221201cc02532b0100005e500113f21402005402f316ff00000042"
    "0100005301000066010000720100007b010000c3010000910100006b0100007a900113b7"
    "8c00005c0100e801134cf001139b9c00f02196010000b3010000bc01000004020000d201"
    "0000ac010000bb010000c5010000f8010000870100009701000099010000e400000800f0"
    "02dc010000c4010000d7010000d0010000d9b400c0020000ef010000c9010000d8b80080"
    "01000015020000a4d40140010000b60c0303080010f9f802f325010000f40100000a0200"
    "00130200005b0200002902000003020000120200001c0200004f020000de010000ee0100"
    "00f0010000e40800c0330200001b0200002e02000000040000000000009e1bbd001fdef0"
    "a9f35e80000000680000006d000000770000009d00000055010000110100001301000030"
    "0000005b0000005e0000009a000000b100000014010000500100002d0100008100000061"
    "000000660000007000000096000000430100000a0100000c0100004e0000005400000057"
    "000000930400d3f60000004901000026010000977800a27c00000086000000ac005800d3"
    "2001000022010000640000006aa000f217a90000007d000000e0000000350100003c0100"
    "00a2000000820000008700000091000000b7003800132ba000f23b6f0000007500000078"
    "000000af00000072000000d50000002a01000047010000d0000000b0000000b5000000b4"
    "000000da000000d70000001b0100001d010000ba000000a3000000a0008c00f316270000"
    "008a000000df0000002901000019010000f9000000fe000000fd000000230100009ca400"
    "f302e200000003010000ec000000e9000000ad2401534f000000a42400f2036501000045"
    "01000040010000360100001001e000004400539e00000053e8002239016000f011c00000"
    "009f0000005d00000090000000370100001701000012010000080100007400f20bb20000"
    "006e0000006c0000004f01000024010000270100003b01a800f30add0000009b00000052"
    "000000920000007a0000007f000000892401226701c8005325010000427c0100dc01009c"
    "0122c300b801d3620100003f010000cb000000ab4401002c01009c01f0018d0100005401"
    "00005601000098000000c80040a1000000780000040000ec00f33a9301000070010000f4"
    "000000d4000000d9000000e3000000090100009b0100007d0100007f010000c1000000c7"
    "000000ca00000006010000eb0000004e010000a301000099010000cfb40000bc0153be00"
    "0000e4f40053580100005a8c0100240253a5000000dc3c01d30201000057010000740100"
    "0033e80213184801d33d0100003a0100007e01000080040200780000c80100880000fc01"
    "93ed000000420100008c440000ec0040590100007400003800507b010000bfbc00430100"
    "005e68021344a001003001f30a2e01000083010000cd0100009101000071010000760100"
    "0075fc00c098010000dc010000de0100004c008064010000610100009001d0e80000004b"
    "010000a0010000ea8001f315010000ab010000b0010000af010000d5010000d201000016"
    "02000018020000b50100009e5800135f54035085010000da180230020000000400000000"
    "0000651027151a48d266f22f000000001e000000340000003f0000008a000000d3000000"
    "23010000610100001200000068000000910000006c000000ed0000002e0100004b010000"
    "85013c000044005316000000212400f21bb50000000501000043010000300000004a0000"
    "00730000004e000000cf000000100100002d01000067017800003c00004400e20b000000"
    "560000009f000000ef002400f20f46000000600000008400000038000000b9000000fa00"
    "0000170100005101b400007800003c00004400d04b00000094000000e400000022240080"
    "0000006b00000079500043000000ae5c00620c0100004601f00000d800007800003c0000"
    "4400f31a4900000099000000d70000009c000000b6000000c40000007800000063000000"
    "a4000000c1000000fb2c0100f00000b400007800003c00004400f203500000008e000000"
    "e5000000ff0000000d01340013ac4401620a01000044016801002c0100f00000b4000078"
    "00003c00004400f3123e000000350100004f0100005d01000011010000fc0000003d0100"
    "005a01000094a40100680100500100f00000b400007800003c0000440093730100008d01"
    "00009b4800d33a0100007b01000098010000d2e00100a4010068011351f00000b4000078"
    "00003c00004400937a000000a30000007ecc00134090002297011c0200e00100a401136b"
    "2c0100f00000b400007800003c0000440093290000007500000019bc006277010000b101"
    "5802001c0200e00100a401006801002c0100f00000b400007800003c00004400504c0000"
    "00277400037c0222bf019402005802001c02132da401009c01002c0100840000b4000078"
    "00003c00004400c0db0000001c01000039010000e00000d002009402005802001c0200e0"
    "0100a401006801002c0100cc0000b400007800003c0000440093410000005e000000980c"
    "0300d00200940200c401001c0200540000a401006801002c0100ac012268017800003c00"
    "004400621d0000005700480300bc0100d00200940200bc00001c0200340000a401000801"
    "002c01006c0300b400007800003c00004400223a008403004803000c0300d00200940200"
    "5802001c0200e00100a401006801002c0100f00000b400007800003c0000440000";

std::vector<std::uint8_t> from_hex(const char* hex) {
  std::vector<std::uint8_t> out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(std::string(p, 2), nullptr, 16)));
  }
  return out;
}

TEST(CompressedStore, UntaggedFramesStayReadable) {
  const auto bytes = from_hex(kLegacyRoad8x8Store);
  ASSERT_EQ(bytes.size(), 14217U);
  // Every directory entry points at an untagged frame: the high half of
  // its raw_len word is zero.
  const std::size_t tiles = 16;
  for (std::size_t t = 0; t < tiles; ++t) {
    std::uint64_t offset = 0;
    std::memcpy(&offset, bytes.data() + 64 + 16 * t, sizeof(offset));
    for (std::size_t b = 4; b < 8; ++b) EXPECT_EQ(bytes[offset + b], 0) << t;
  }
  const std::string zpath = tmp_path("legacy");
  write_file(zpath, bytes);
  const auto z = open_compressed_store(zpath);
  EXPECT_EQ(z->tile_size(), 16);
  expect_stores_bit_identical(*solve_to_ram(graph::make_road(8, 8, 9)), *z);
  std::remove(zpath.c_str());
}

// ---------------------------------------------------------------------------
// Compressed checkpoint sidecars
// ---------------------------------------------------------------------------

TEST(CompressedCheckpoint, SidecarPayloadShrinksAndRoundTrips) {
  Checkpoint ck;
  ck.algorithm = 3;
  ck.fingerprint = 0xfeedbeef;
  ck.progress = 7;
  ck.aux0 = 1;
  ck.aux1 = 2;
  // A boundary-style blob: distance data dominated by kInf runs.
  std::vector<dist_t> dists(64 * 1024, kInf);
  for (std::size_t i = 0; i < dists.size(); i += 97) {
    dists[i] = static_cast<dist_t>(i);
  }
  ck.payload.resize(dists.size() * sizeof(dist_t));
  std::memcpy(ck.payload.data(), dists.data(), ck.payload.size());

  const std::string path = tmp_path("ck");
  write_checkpoint(path, ck);
  // The sink compressed: the sidecar is far smaller than the raw payload.
  EXPECT_LT(file_size(path), ck.payload.size() / 4);

  Checkpoint back;
  ASSERT_TRUE(read_checkpoint(path, &back));
  EXPECT_EQ(back.algorithm, ck.algorithm);
  EXPECT_EQ(back.fingerprint, ck.fingerprint);
  EXPECT_EQ(back.progress, ck.progress);
  EXPECT_EQ(back.aux0, ck.aux0);
  EXPECT_EQ(back.aux1, ck.aux1);
  EXPECT_EQ(back.payload, ck.payload);  // callers always see raw bytes
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, IncompressiblePayloadStoredRaw) {
  Checkpoint ck;
  ck.algorithm = 1;
  ck.fingerprint = 1;
  Rng rng(13);
  ck.payload.resize(8 * 1024);
  for (auto& b : ck.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::string path = tmp_path("ck_raw");
  write_checkpoint(path, ck);
  // Raw fallback: header + payload + checksum, no compression growth.
  EXPECT_LE(file_size(path), ck.payload.size() + 64 + 8);
  Checkpoint back;
  ASSERT_TRUE(read_checkpoint(path, &back));
  EXPECT_EQ(back.payload, ck.payload);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::core
