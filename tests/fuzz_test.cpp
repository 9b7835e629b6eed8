// Randomized cross-checking ("fuzz") sweep: random graph family × random
// size × random device memory × every algorithm, validated on sampled rows
// against the Dijkstra oracle. Complements the deterministic property
// tests with breadth across the configuration space.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/kernel_engine.h"
#include "core/store_integrity.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

graph::CsrGraph random_graph(Rng& rng) {
  const int family = static_cast<int>(rng.next_below(7));
  const auto seed = rng.next_u64();
  switch (family) {
    case 0: {
      const vidx_t side = static_cast<vidx_t>(rng.next_in(8, 16));
      return graph::make_road(side, side + 1, seed);
    }
    case 1:
      return graph::make_mesh(static_cast<vidx_t>(rng.next_in(120, 280)),
                              static_cast<int>(rng.next_in(6, 16)), seed);
    case 2:
      return graph::make_rmat(static_cast<int>(rng.next_in(6, 8)),
                              rng.next_in(300, 1200), seed);
    case 3:
      return graph::make_erdos_renyi(
          static_cast<vidx_t>(rng.next_in(100, 260)), rng.next_in(150, 900),
          seed, /*connect=*/rng.next_bool(0.5));
    case 4:
      return graph::make_small_world(
          static_cast<vidx_t>(rng.next_in(100, 260)),
          static_cast<int>(rng.next_in(1, 4)), rng.next_double() * 0.5, seed);
    case 5:
      return graph::make_preferential(
          static_cast<vidx_t>(rng.next_in(100, 260)),
          static_cast<int>(rng.next_in(1, 4)), seed);
    default: {
      const vidx_t side = static_cast<vidx_t>(rng.next_in(4, 7));
      return graph::make_grid3d(side, side, side - 1, seed);
    }
  }
}

class ApspFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ApspFuzz, RandomConfigurationMatchesOracle) {
  Rng rng(0xF00D + static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto g = random_graph(rng);

  ApspOptions opts;
  // Random device memory between 256 KiB and 4 MiB; occasionally K80.
  const std::size_t mem = (256u << 10)
                          << static_cast<unsigned>(rng.next_below(5));
  opts.device = rng.next_bool(0.3) ? sim::DeviceSpec::k80_scaled(mem)
                                   : sim::DeviceSpec::v100_scaled(mem);
  opts.fw_tile = rng.next_bool(0.5) ? 32 : 64;
  opts.delta = static_cast<dist_t>(rng.next_in(0, 120));
  opts.heavy_degree_threshold = static_cast<int>(rng.next_in(4, 64));
  opts.dynamic_parallelism = rng.next_bool(0.7);
  opts.batch_transfers = rng.next_bool(0.8);
  opts.overlap_transfers = rng.next_bool(0.8);
  opts.num_components = rng.next_bool(0.5)
                            ? 0
                            : static_cast<int>(rng.next_in(2, 12));
  opts.johnson_queue_factor = 1.0 + rng.next_double() * 2.0;

  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  opts.algorithm = algos[rng.next_below(3)];

  auto store = make_ram_store(g.num_vertices());
  ApspResult r;
  try {
    r = solve_apsp(g, opts, *store);
  } catch (const Error&) {
    // Legitimately infeasible configuration (device too small for this
    // graph/algorithm) — acceptable, but it must be *reported*, not wrong.
    return;
  }
  test::expect_store_rows_match(g, *store, r, /*samples=*/6, rng.next_u64());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApspFuzz, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Fault-schedule fuzzer: random FaultPlan (probabilistic faults, occasional
// device kill) × random graph × random recovery budget. The invariant is the
// DESIGN.md §8 contract: every run either completes with distances
// bit-identical to a fault-free twin — possibly after checkpointed resume
// attempts — or surfaces a typed sim::FaultError. Crashes, hangs and silently
// wrong matrices are the bugs this sweep exists to catch.
// ---------------------------------------------------------------------------

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, RandomFaultScheduleRecoversOrFailsTyped) {
  Rng rng(0xFA17 + static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto g = random_graph(rng);

  ApspOptions opts;
  const std::size_t mem = (256u << 10)
                          << static_cast<unsigned>(rng.next_below(4));
  opts.device = sim::DeviceSpec::v100_scaled(mem);
  opts.fw_tile = 32;
  opts.overlap_transfers = rng.next_bool(0.7);
  opts.num_components = rng.next_bool(0.5)
                            ? 0
                            : static_cast<int>(rng.next_in(2, 8));
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  opts.algorithm = algos[rng.next_below(3)];

  auto clean_store = make_ram_store(g.num_vertices());
  ApspResult clean;
  try {
    clean = solve_apsp(g, opts, *clean_store);
  } catch (const Error&) {
    return;  // infeasible configuration — covered by ApspFuzz above
  }

  sim::FaultPlan plan;
  plan.seed = rng.next_u64();
  if (rng.next_bool(0.7)) plan.p_h2d = rng.next_double() * 0.03;
  if (rng.next_bool(0.7)) plan.p_d2h = rng.next_double() * 0.03;
  if (rng.next_bool(0.5)) plan.p_kernel = rng.next_double() * 0.02;
  if (rng.next_bool(0.2)) plan.p_alloc = rng.next_double() * 0.1;
  if (rng.next_bool(0.4)) {
    plan.kill_device = 0;
    plan.kill_at_op = static_cast<long long>(rng.next_in(1, 500));
  }

  auto injector = std::make_unique<sim::FaultInjector>(plan);
  ApspOptions faulty = opts;
  faulty.fault_injector = injector.get();
  faulty.retry.max_retries = static_cast<int>(rng.next_below(4));
  faulty.max_degradations = static_cast<int>(rng.next_below(3));
  faulty.checkpoint_path = ::testing::TempDir() + "gapsp_fault_fuzz_" +
                           std::to_string(GetParam()) + ".ck";

  auto store = make_ram_store(g.num_vertices());
  bool completed = false;
  ApspResult r;
  for (int attempt = 0; attempt < 6 && !completed; ++attempt) {
    try {
      r = solve_apsp(g, faulty, *store);
      completed = true;
    } catch (const sim::FaultError& e) {
      // Typed failure — resume from the checkpoint. A killed device stays
      // dead, so model its replacement with a fresh injector whose kill
      // rule already fired.
      if (e.op() == sim::FaultOp::kDeviceLost) {
        sim::FaultPlan replacement = plan;
        replacement.kill_device = -1;
        injector = std::make_unique<sim::FaultInjector>(replacement);
        faulty.fault_injector = injector.get();
      }
      faulty.resume = true;
    }
    // Any exception that is not a gapsp::Error escapes and fails the test.
  }
  if (completed) {
    ASSERT_EQ(r.perm, clean.perm);
    const vidx_t n = g.num_vertices();
    std::vector<dist_t> a(static_cast<std::size_t>(n));
    std::vector<dist_t> b(static_cast<std::size_t>(n));
    for (vidx_t row = 0; row < n; ++row) {
      clean_store->read_block(row, 0, 1, n, a.data(), a.size());
      store->read_block(row, 0, 1, n, b.data(), b.size());
      ASSERT_EQ(a, b) << "row " << row;
    }
  }
  std::remove(faulty.checkpoint_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// z1 codec fuzzer (z1_codec.h). Three invariants: (a) any input — random
// noise, adversarially repetitive, all-kInf, or mixed — round-trips
// bit-exactly under any row width; (b) any damaged frame (truncation, byte
// flips, bit flips) either round-trips to checksum-valid output or throws
// IoError; (c) a header that breaks a tag rule throws CorruptError. It must
// never read or write out of bounds — the CI chaos job runs this suite
// under ASan/UBSan, which turns an over-read into a hard failure.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_z1_input(Rng& rng) {
  const int shape = static_cast<int>(rng.next_below(7));
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(rng.next_in(0, 20000)));
  switch (shape) {
    case 5: {  // degenerate tiles: empty, 1 byte, below-minimum-match sizes
      buf.resize(static_cast<std::size_t>(rng.next_in(0, 4)));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
      return buf;
    }
    case 6: {  // repeats separated by ~the u16 match-offset limit (65535)
      const std::size_t gap =
          static_cast<std::size_t>(rng.next_in(65535 - 80, 65535 + 80));
      buf.assign(gap + 128, 0);
      for (std::size_t i = 0; i < 64; ++i) {
        const auto m = static_cast<std::uint8_t>(rng.next_u64());
        buf[i] = m;
        buf[gap + 64 + i] = m;
      }
      return buf;
    }
    default:
      break;
  }
  switch (shape) {
    case 0:  // incompressible noise
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
    case 1: {  // all-kInf distance data, the dominant store pattern
      const dist_t inf = kInf;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = reinterpret_cast<const std::uint8_t*>(&inf)[i % sizeof(inf)];
      }
      break;
    }
    case 2: {  // short period just off the 4-byte fast path
      const std::size_t period = static_cast<std::size_t>(rng.next_in(1, 9));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(i % period);
      }
      break;
    }
    case 3: {  // adversarial: long runs broken by noise at random points
      std::uint8_t fill = 0xff;
      for (auto& b : buf) {
        if (rng.next_bool(0.01)) fill = static_cast<std::uint8_t>(rng.next_u64());
        b = rng.next_bool(0.02) ? static_cast<std::uint8_t>(rng.next_u64())
                                : fill;
      }
      break;
    }
    default: {  // plausible distance matrix rows: small values + kInf gaps
      std::vector<dist_t> d(buf.size() / sizeof(dist_t) + 1);
      for (auto& v : d) {
        v = rng.next_bool(0.6) ? kInf
                               : static_cast<dist_t>(rng.next_below(1000));
      }
      std::memcpy(buf.data(), d.data(), buf.size());
      break;
    }
  }
  return buf;
}

class Z1Fuzz : public ::testing::TestWithParam<int> {};

/// A row width for `elems` 4-byte elements: 0 (no row delta), 1, a divisor,
/// a non-divisor, or one at least the element count (no row delta either).
std::size_t random_row_width(Rng& rng, std::size_t elems) {
  switch (rng.next_below(5)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2: {
      std::vector<std::size_t> divisors;
      for (std::size_t d = 1; d <= elems; ++d) {
        if (elems % d == 0) divisors.push_back(d);
      }
      return divisors.empty() ? 0 : divisors[rng.next_below(divisors.size())];
    }
    case 3: {
      for (std::size_t d = elems / 2 + 1; d >= 2; --d) {
        if (elems % d != 0) return d;
      }
      return 2;
    }
    default:
      return elems + rng.next_below(3);
  }
}

/// Overwrites a frame's raw_len word: bits 0–31 length, 32–33 tag, 34–63
/// row width (z1_codec.h).
void forge_header(std::vector<std::uint8_t>& frame, std::uint64_t raw_len,
                  std::uint64_t tag, std::uint64_t row) {
  const std::uint64_t word = raw_len | tag << 32 | row << 34;
  for (int i = 0; i < 8; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(word >> (8 * i));
  }
}

TEST_P(Z1Fuzz, RoundTripsExactlyAndRejectsDamageTyped) {
  Rng rng(0x21F0 + static_cast<std::uint64_t>(GetParam()) * 6151);
  const auto raw = random_z1_input(rng);
  const std::size_t elems = raw.size() / 4;
  const std::size_t row =
      raw.size() % 4 == 0 ? random_row_width(rng, elems) : 0;
  const auto frame = z1_compress(raw.data(), raw.size(), row);

  ASSERT_EQ(z1_raw_size(frame.data(), frame.size()), raw.size());
  std::vector<std::uint8_t> back(raw.size());
  z1_decompress(frame.data(), frame.size(), back.data(), back.size());
  ASSERT_EQ(back, raw);

  // Random truncations: always a typed error.
  for (int i = 0; i < 16; ++i) {
    const auto cut = static_cast<std::size_t>(rng.next_below(frame.size()));
    EXPECT_THROW(
        z1_decompress(frame.data(), cut, back.data(), back.size()), IoError)
        << "cut " << cut;
  }

  // Random damage: flips in header, token stream, and literals. Decoding
  // either throws IoError or — if the flip cancels out semantically —
  // reproduces the exact input (the content checksum gates everything
  // else). `raw_len` flips also hit the destination-size check.
  for (int i = 0; i < 32; ++i) {
    auto bad = frame;
    const int edits = static_cast<int>(rng.next_in(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(rng.next_below(bad.size()));
      bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    try {
      std::vector<std::uint8_t> out(raw.size());
      z1_decompress(bad.data(), bad.size(), out.data(), out.size());
      EXPECT_EQ(out, raw) << "damaged frame decoded to different content";
    } catch (const IoError&) {
      // typed rejection is the expected outcome
    }
  }

  // Headers the encoder never writes: a row delta without a row inside the
  // element count, planes of a length that is not a multiple of 4, a row
  // width beside any other tag (on an untagged frame: nonzero high bits).
  const std::uint64_t len = raw.size();
  const std::uint64_t ragged = len % 4 != 0 ? len : len + 1 + rng.next_below(3);
  const std::vector<std::array<std::uint64_t, 3>> forged = {
      {len, 3, 0},
      {len, 3, elems},
      {len, 3, elems + 1 + rng.next_below(1000)},
      {ragged, 2, 0},
      {ragged, 3, 1},
      {len, 0, 1 + rng.next_below((1u << 30) - 1)},
      {len, 1, 1 + rng.next_below((1u << 30) - 1)},
      {len, 2, 1 + rng.next_below((1u << 30) - 1)},
  };
  for (const auto& [claimed, tag, width] : forged) {
    auto bad = frame;
    forge_header(bad, claimed, tag, width);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(claimed));
    EXPECT_THROW(z1_raw_size(bad.data(), bad.size()), CorruptError)
        << "tag " << tag << " row " << width << " len " << claimed;
    EXPECT_THROW(z1_decompress(bad.data(), bad.size(), out.data(), out.size()),
                 CorruptError)
        << "tag " << tag << " row " << width << " len " << claimed;
  }
}

// 36 seeds so the degenerate shapes (5: empty/1-byte, 6: u16-offset
// boundary) each land several times per run.
INSTANTIATE_TEST_SUITE_P(Seeds, Z1Fuzz, ::testing::Range(0, 36));

// ---------------------------------------------------------------------------
// Vector microkernel fuzzer (kernel_engine.h kSimd): random tile
// shapes × random kInf density × random leading dimensions and base-pointer
// offsets, checked elementwise against the scalar naive oracle. The shapes
// deliberately straddle the 8×16 register tile, the lane width and the
// 64-deep k tile so lane tails, strip-liveness edges and the branch-free
// saturation path all get hit; the random offsets make the unaligned
// load/store paths real (an aligned-only assumption would fault or corrupt
// here). Comparing the *whole* padded buffer also proves the kernel never
// writes outside the logical nr×nc window.
// ---------------------------------------------------------------------------

class SimdFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimdFuzz, VectorKernelsMatchScalarOracleAtAnyAlignment) {
  Rng rng(0x51D0 + static_cast<std::uint64_t>(GetParam()) * 9176);
  auto fill = [&rng](std::vector<dist_t>& buf, double p_inf) {
    for (auto& x : buf) {
      x = rng.next_bool(p_inf) ? kInf
                               : static_cast<dist_t>(rng.next_in(0, 1000));
    }
  };
  for (int trial = 0; trial < 8; ++trial) {
    const vidx_t nr = static_cast<vidx_t>(rng.next_in(1, 90));
    const vidx_t nk = static_cast<vidx_t>(rng.next_in(1, 150));
    const vidx_t nc = static_cast<vidx_t>(rng.next_in(1, 90));
    const double p_inf = rng.next_double();
    // Random pad past each logical row and a random base offset: every
    // combination of leading dimension and pointer alignment mod the vector
    // width shows up across the sweep.
    const std::size_t lda = nk + rng.next_below(18);
    const std::size_t ldb = nc + rng.next_below(18);
    const std::size_t ldc = nc + rng.next_below(18);
    const std::size_t offa = rng.next_below(8);
    const std::size_t offb = rng.next_below(8);
    const std::size_t offc = rng.next_below(8);
    std::vector<dist_t> abuf(offa + static_cast<std::size_t>(nr) * lda);
    std::vector<dist_t> bbuf(offb + static_cast<std::size_t>(nk) * ldb);
    std::vector<dist_t> cbuf(offc + static_cast<std::size_t>(nr) * ldc);
    fill(abuf, p_inf);
    fill(bbuf, p_inf);
    fill(cbuf, p_inf / 2);

    auto want = cbuf;
    minplus_accum_naive(want.data() + offc, ldc, abuf.data() + offa, lda,
                        bbuf.data() + offb, ldb, nr, nk, nc);
    auto got = cbuf;
    minplus_accum_variant(KernelVariant::kSimd, got.data() + offc, ldc,
                          abuf.data() + offa, lda, bbuf.data() + offb, ldb,
                          nr, nk, nc);
    ASSERT_EQ(got, want) << "simd diverges at " << nr << "x" << nk << "x"
                         << nc << " ld=(" << lda << "," << ldb << "," << ldc
                         << ") off=(" << offa << "," << offb << "," << offc
                         << ") p_inf=" << p_inf;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdFuzz, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Raw kept-store damage fuzzer (DESIGN.md §13): random truncations of the
// kept file are rejected typed at open (the size is no longer n²·4), and
// random bit flips under a GAPSPSM1 sidecar make the serving tier answer
// every query either exactly right or with a typed per-query status — no
// crash, no silently wrong distance.
// ---------------------------------------------------------------------------

class RawStoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RawStoreFuzz, DamageIsTypedOrExact) {
  Rng rng(0x4A57 + static_cast<std::uint64_t>(GetParam()) * 7877);
  const auto g = random_graph(rng);
  const vidx_t n = g.num_vertices();
  const std::string path = ::testing::TempDir() + "gapsp_rawfuzz_" +
                           std::to_string(GetParam()) + ".bin";

  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.algorithm = Algorithm::kJohnson;  // identity layout
  {
    auto store = make_file_store(n, path, /*keep_file=*/true);
    solve_apsp(g, o, *store);
  }
  const vidx_t tile = static_cast<vidx_t>(rng.next_in(16, 96));
  StoreChecksums sums;
  std::vector<std::uint8_t> pristine;
  {
    auto ro = open_file_store(path);
    sums = compute_store_checksums(*ro, tile);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    pristine.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), f),
              pristine.size());
    std::fclose(f);
  }
  const auto rewrite = [&](const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };

  // Truncations: unless the cut happens to stay a perfect square matrix
  // size, open is a typed rejection, not a crash or a short-read garbage
  // serve.
  for (int i = 0; i < 4; ++i) {
    auto bytes = pristine;
    bytes.resize(static_cast<std::size_t>(rng.next_below(bytes.size())));
    rewrite(bytes);
    try {
      const auto store = open_file_store(path);
      EXPECT_LT(store->n(), n);  // a smaller square matrix: legal but small
    } catch (const IoError&) {
      // typed rejection is the expected outcome
    }
  }

  // Bit flips under the sidecar: every point query comes back exact or
  // typed.
  for (int round = 0; round < 4; ++round) {
    auto bytes = pristine;
    const int flips = static_cast<int>(rng.next_in(1, 5));
    for (int e = 0; e < flips; ++e) {
      const auto at = static_cast<std::size_t>(rng.next_below(bytes.size()));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    rewrite(bytes);

    const auto store = open_file_store(path);
    service::QueryEngineOptions qopt;
    qopt.retry.max_retries = 1;
    qopt.retry.backoff_s = 1e-6;
    qopt.checksums = sums;
    const service::QueryEngine engine(*store, qopt);
    std::vector<service::Query> queries;
    for (int i = 0; i < 32; ++i) {
      queries.push_back({service::QueryKind::kPoint,
                         static_cast<vidx_t>(rng.next_below(n)),
                         static_cast<vidx_t>(rng.next_below(n))});
    }
    const auto report = engine.run_batch(queries);
    for (const auto& r : report.results) {
      if (r.status == service::QueryStatus::kOk) {
        const auto ref = test::ref_row(g, r.query.u);
        ASSERT_EQ(r.dist, ref[r.query.v])
            << "round " << round << ": damaged store served a wrong distance"
            << " for (" << r.query.u << ", " << r.query.v << ")";
      } else {
        EXPECT_EQ(r.status, service::QueryStatus::kQuarantined);
        EXPECT_FALSE(r.error.empty());
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RawStoreFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace gapsp::core
