#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace gapsp {
namespace {

TEST(Common, SatAddClampsAtInfinity) {
  EXPECT_EQ(sat_add(1, 2), 3);
  EXPECT_EQ(sat_add(kInf, 5), kInf);
  EXPECT_EQ(sat_add(5, kInf), kInf);
  EXPECT_EQ(sat_add(kInf, kInf), kInf);
  EXPECT_EQ(sat_add(kInf - 1, 1), kInf);
}

TEST(Common, SatAddNeverOverflows) {
  // kInf + kInf must stay representable by construction of the sentinel.
  EXPECT_LT(static_cast<long long>(kInf) * 2,
            static_cast<long long>(std::numeric_limits<dist_t>::max()));
}

TEST(Common, MinPlusPicksShorterPath) {
  EXPECT_EQ(min_plus(10, 3, 4), 7);
  EXPECT_EQ(min_plus(5, 3, 4), 5);
  EXPECT_EQ(min_plus(5, kInf, 1), 5);
  EXPECT_EQ(min_plus(kInf, kInf, kInf), kInf);
}

TEST(Common, CheckThrowsWithContext) {
  EXPECT_THROW(GAPSP_CHECK(false, "context message"), Error);
  try {
    GAPSP_CHECK(1 == 2, "the reason");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

/// `n` bytes of a fixed pattern for the hash known-answer vectors.
std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return v;
}

TEST(Common, WordHashKnownAnswers) {
  // word_hash is the checksum of every tagged z1 frame on disk, so these
  // values are part of the file formats: an edit that changes one would
  // make every stored frame fail its check. The lengths cover no words,
  // one lane round short, exactly one, and one past.
  EXPECT_EQ(util::word_hash(nullptr, 0), 0x9090306c6e91ed59ULL);
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {1, 0x3b7c0914a80d8f0cULL},
      {31, 0x499f90be46326c72ULL},
      {32, 0x36758651506b8a80ULL},
      {33, 0xeab76ab4820ad2f5ULL}};
  for (const auto& [n, want] : cases) {
    const auto bytes = pattern_bytes(n);
    EXPECT_EQ(util::word_hash(bytes.data(), n), want) << n << " bytes";
  }
  // A 256×256 distance tile (256 KiB): small distances and kInf runs.
  std::vector<dist_t> tile(256 * 256);
  for (std::size_t i = 0; i < tile.size(); ++i) {
    tile[i] = i % 7 == 0 ? kInf : static_cast<dist_t>(i % 1000);
  }
  EXPECT_EQ(util::word_hash(tile.data(), tile.size() * sizeof(dist_t)),
            0x203720680bb172e2ULL);
}

TEST(Common, WordHashSeesEveryBit) {
  // One flipped bit anywhere in a 33-byte range (four lanes plus a tail
  // byte) changes the hash.
  const auto bytes = pattern_bytes(33);
  const std::uint64_t base = util::word_hash(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size() * 8; ++i) {
    auto flipped = bytes;
    flipped[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(util::word_hash(flipped.data(), flipped.size()), base)
        << "bit " << i;
  }
}

TEST(Common, ParseIntKnownAnswers) {
  EXPECT_EQ(util::parse_int("0", "n"), 0);
  EXPECT_EQ(util::parse_int("007", "n"), 7);
  EXPECT_EQ(util::parse_int("-5", "n"), -5);
  EXPECT_EQ(util::parse_int("9223372036854775807", "n"),
            std::numeric_limits<long long>::max());
  EXPECT_EQ(util::parse_int("-9223372036854775808", "n"),
            std::numeric_limits<long long>::min());
  EXPECT_EQ(util::parse_int("2147483647", "n", 0, 2147483647), 2147483647);
  EXPECT_EQ(util::parse_int("1", "n", 1, 1), 1);
}

TEST(Common, ParseIntRejectsPartialAndOutOfRangeText) {
  // Each of these was once read as a number by a hand-rolled parser: a
  // numeric prefix, a wrapped overflow, or a sign the caller never wanted.
  for (const char* bad :
       {"", " ", "8x", "x8", "0x10", "+4", " 4", "4 ", "4 2", "1e3", "3.5",
        "-", "--1", "99999999999999999999", "-99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(util::parse_int(bad, "--n"), Error);
  }
  EXPECT_THROW(util::parse_int("4294967296", "id", 0, 2147483647), Error);
  EXPECT_THROW(util::parse_int("-1", "--cache-mb", 0), Error);
  EXPECT_THROW(util::parse_int("0", "GAPSP_THREADS", 1), Error);
  try {
    util::parse_int("-1", "--cache-mb", 0, 1024);
    ADD_FAILURE() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "--cache-mb expects an integer in [0, 1024], got '-1'");
  }
  try {
    util::parse_int("8x", "line 3", 1);
    ADD_FAILURE() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "line 3 expects an integer >= 1, got '8x'");
  }
}

TEST(Common, ParseDoubleKnownAnswers) {
  EXPECT_DOUBLE_EQ(util::parse_double("0.25", "p"), 0.25);
  EXPECT_DOUBLE_EQ(util::parse_double("4", "p"), 4.0);
  EXPECT_DOUBLE_EQ(util::parse_double("1e-3", "p"), 1e-3);
  EXPECT_DOUBLE_EQ(util::parse_double("-0.5", "p"), -0.5);
  EXPECT_DOUBLE_EQ(util::parse_double("1", "p", 0.0, 1.0), 1.0);
  for (const char* bad :
       {"", "0.5x", "+1", " 1", "nan", "inf", "-inf", "1e400", "0x1p3"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(util::parse_double(bad, "--p"), Error);
  }
  try {
    util::parse_double("-0.5", "--fault-h2d", 0.0, 1.0);
    ADD_FAILURE() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "--fault-h2d expects a number in [0, 1], got '-0.5'");
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 2000, 0.5, 0.05);
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Stats, WelfordMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, CvPercent) {
  RunningStats s;
  s.add(9.0);
  s.add(11.0);
  EXPECT_NEAR(s.cv_percent(), 100.0 * std::sqrt(2.0) / 10.0, 1e-9);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CountInsertsThousandsSeparators) {
  EXPECT_EQ(Table::count(14988), "14,988");
  EXPECT_EQ(Table::count(152), "152");
  EXPECT_EQ(Table::count(1000000), "1,000,000");
  EXPECT_EQ(Table::count(-1234), "-1,234");
  EXPECT_EQ(Table::count(0), "0");
}

TEST(Table, NumRespectsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, GrainChunksStillCoverEverything) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum += static_cast<long long>(i); },
                    /*grain=*/64);
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: a parallel_for issued from inside a pool worker used to
  // enqueue its chunks behind the caller's own blocked task. It must inline
  // instead — and still cover every (outer, inner) pair exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner,
                      [&](std::size_t i) { hits[o * kInner + i]++; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCallOnGlobalPoolDoesNotDeadlock) {
  // Same shape as Johnson MSSP (outer over sources) containing a grid
  // launch (inner over blocks), both on the global pool.
  auto& pool = ThreadPool::global();
  std::atomic<long long> sum{0};
  pool.parallel_for(6, [&](std::size_t o) {
    pool.parallel_for(50, [&](std::size_t i) {
      sum += static_cast<long long>(o * 1000 + i);
    });
  });
  long long want = 0;
  for (long long o = 0; o < 6; ++o) {
    for (long long i = 0; i < 50; ++i) want += o * 1000 + i;
  }
  EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPool, AutoGrainCoversAllIndices) {
  // grain <= 1 derives count/(4·workers); coverage must be unaffected for
  // counts around the chunking boundaries.
  ThreadPool pool(3);
  for (const std::size_t count : {1u, 2u, 11u, 12u, 13u, 100u, 1023u}) {
    std::atomic<std::size_t> n{0};
    pool.parallel_for(count, [&](std::size_t) { n++; });
    EXPECT_EQ(n.load(), count) << "count=" << count;
  }
}

TEST(ThreadPool, MaxThreadsOneRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;  // unsynchronized on purpose: must stay inline
  pool.parallel_for(6, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
                    /*grain=*/1, /*max_threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, InWorkerReflectsContext) {
  EXPECT_FALSE(ThreadPool::in_worker());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  // Each body sleeps long enough that the enqueued worker reliably claims a
  // chunk before the calling thread (which also participates) drains them.
  pool.parallel_for(4, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (ThreadPool::in_worker()) inside++;
  });
  EXPECT_GT(inside.load(), 0);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPool, ThreadsFromEnvAcceptsPositiveIntegers) {
  EXPECT_EQ(ThreadPool::threads_from_env("1"), 1u);
  EXPECT_EQ(ThreadPool::threads_from_env("4"), 4u);
  EXPECT_EQ(ThreadPool::threads_from_env("128"), 128u);
  EXPECT_EQ(ThreadPool::threads_from_env("  8  "), 8u);  // trimmed
  EXPECT_EQ(ThreadPool::threads_from_env("007"), 7u);
}

TEST(ThreadPool, ThreadsFromEnvRejectsEverythingElse) {
  // Regression: strtol without an end-pointer check once accepted "4x16" as
  // 4 and cast "-2" to a huge size_t — both must fall back (0) instead of
  // half-parsing.
  EXPECT_EQ(ThreadPool::threads_from_env(nullptr), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env(""), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("   "), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("0"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("-2"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("+4"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("4x16"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("x4"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("1e3"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("3.5"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("4 2"), 0u);
  EXPECT_EQ(ThreadPool::threads_from_env("0x10"), 0u);
  // A value past every plausible range still parses digit-clean; overflow
  // of long falls back rather than wrapping.
  EXPECT_EQ(ThreadPool::threads_from_env("99999999999999999999999999"), 0u);
}

void expect_io_error_naming(const std::function<void()>& fn,
                            const std::string& path) {
  try {
    fn();
    ADD_FAILURE() << "expected IoError for " << path;
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(FileIo, TruncatedFileAndMissingPathThrowIoErrorNamingThePath) {
  const std::string path = ::testing::TempDir() + "gapsp_file_io_short.bin";
  {
    util::File f(path, O_WRONLY | O_CREAT | O_TRUNC);
    const char ten[10] = {};
    f.pwrite_exact(ten, sizeof(ten), 0);
  }
  const util::File f(path, O_RDONLY);
  EXPECT_EQ(f.size(), 10u);
  char buf[16] = {};
  f.pread_exact(buf, 10, 0);  // exactly the file: fine
  expect_io_error_naming([&] { f.pread_exact(buf, 16, 0); }, path);
  expect_io_error_naming([&] { f.pread_exact(buf, 1, 10); }, path);
  std::remove(path.c_str());

  const std::string missing = path + ".missing";
  expect_io_error_naming([&] { util::File(missing, O_RDONLY); }, missing);
}

TEST(FileIo, RoundTripPastTwoGiBOnSparseFile) {
  // Offsets past 2^31 are where the old fseek(static_cast<long>) plumbing
  // would have truncated on a 32-bit long; the file is sparse, so it costs
  // a few pages of disk.
  const std::string path = ::testing::TempDir() + "gapsp_file_io_sparse.bin";
  const std::uint64_t size = std::uint64_t{3} << 30;
  const std::uint64_t offset = (std::uint64_t{1} << 31) + 12345;
  std::vector<std::uint8_t> out(4096);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::uint8_t last = 0xA5;
  try {
    util::File f(path, O_RDWR | O_CREAT | O_TRUNC);
    f.pwrite_exact(out.data(), out.size(), offset);
    f.pwrite_exact(&last, 1, size - 1);
  } catch (const IoError& e) {
    std::remove(path.c_str());
    GTEST_SKIP() << "filesystem refused a sparse 3 GiB file: " << e.what();
  }
  const util::File f(path, O_RDONLY);
  EXPECT_EQ(f.size(), size);
  std::vector<std::uint8_t> in(out.size());
  f.pread_exact(in.data(), in.size(), offset);
  EXPECT_EQ(in, out);
  std::uint8_t tail[2] = {1, 1};
  f.pread_exact(tail, 2, size - 2);
  EXPECT_EQ(tail[0], 0);  // inside the hole
  EXPECT_EQ(tail[1], last);
  std::remove(path.c_str());
}

std::string read_all(const std::string& path) {
  const util::File f(path, O_RDONLY);
  std::string bytes(static_cast<std::size_t>(f.size()), '\0');
  f.pread_exact(bytes.data(), bytes.size(), 0);
  return bytes;
}

bool exists(const std::string& path) {
  return util::File::open_if_present(path).has_value();
}

void write_text(util::File& f, const std::string& text) {
  f.pwrite_exact(text.data(), text.size(), 0);
}

TEST(FileIo, OpenIfPresentIsEmptyOnlyForAMissingPath) {
  const std::string path = ::testing::TempDir() + "gapsp_file_io_present.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(util::File::open_if_present(path).has_value());
  util::atomic_replace(path, [](util::File& f) { write_text(f, "abc"); });
  const auto f = util::File::open_if_present(path);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->size(), 3u);
  EXPECT_EQ(f->path(), path);
  // A path through a regular file exists in no sense, but is not "missing"
  // either: ENOTDIR is an error, not an absent sidecar.
  expect_io_error_naming([&] { util::File::open_if_present(path + "/x"); },
                         path + "/x");
  std::remove(path.c_str());
}

TEST(FileIo, AtomicReplaceLandsWholeFilesAndCleansUpOnThrow) {
  const std::string path = ::testing::TempDir() + "gapsp_file_io_atomic.bin";
  util::atomic_replace(path, [](util::File& f) { write_text(f, "first"); });
  EXPECT_EQ(read_all(path), "first");
  util::atomic_replace(path, [](util::File& f) { write_text(f, "second!"); });
  EXPECT_EQ(read_all(path), "second!");

  // A writer that fails part-way: the previous file survives byte for
  // byte, the exception reaches the caller, and no tmp is left behind.
  EXPECT_THROW(util::atomic_replace(path,
                                    [](util::File& f) {
                                      write_text(f, "torn");
                                      throw IoError("disk full");
                                    }),
               IoError);
  EXPECT_EQ(read_all(path), "second!");
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileIo, FailedCommitRenameRemovesTheTmp) {
  const std::string dir = ::testing::TempDir() + "gapsp_file_io_commit_dir";
  const std::string tmp = dir + ".tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/occupied");
  {
    util::File f(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    write_text(f, "x");
  }
  // rename(2) cannot put a file over a non-empty directory.
  expect_io_error_naming([&] { util::commit_rename(tmp, dir); }, tmp);
  EXPECT_FALSE(exists(tmp));
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/occupied"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gapsp
