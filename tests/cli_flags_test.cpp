// CLI regression tests for the flag validation matrix: contradictory
// shard/route/chaos combinations, malformed numbers and out-of-range values
// must exit 1 with a typed error naming the flag (not crash, not silently
// serve or solve the wrong thing), unknown commands, stray words and
// unknown flags exit 2, --help exits 0 for every command, and the valid
// single-slice and routed paths exit 0. Drives the real apsp_cli binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

namespace {

std::string cli_path() {
#ifdef GAPSP_CLI_PATH_FILE
  std::ifstream in(GAPSP_CLI_PATH_FILE);
  std::string path;
  if (in.good() && std::getline(in, path) && !path.empty()) return path;
#endif
  if (const char* env = std::getenv("GAPSP_CLI")) return env;
  return {};
}

/// Runs `apsp_cli <args>` and returns the exit code (-1 if the child did
/// not exit normally). Output is discarded, or kept in `out` (stdout and
/// stderr interleaved) when it is given.
int run_cli(const std::string& cli, const std::string& args,
            std::string* out = nullptr) {
  const std::string cmd =
      cli + " " + args + (out != nullptr ? " 2>&1" : " >/dev/null 2>&1");
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    if (out != nullptr) out->append(buf, got);
  }
  const int status = ::pclose(pipe);
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Expects `apsp_cli <args>` to exit 1 with an error that names `flag`.
void expect_typed_error(const std::string& cli, const std::string& args,
                        const std::string& flag) {
  std::string out;
  EXPECT_EQ(run_cli(cli, args, &out), 1) << args << "\n" << out;
  EXPECT_NE(out.find("error: "), std::string::npos) << args << "\n" << out;
  EXPECT_NE(out.find(flag), std::string::npos) << args << "\n" << out;
}

class CliFlags : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) {
      GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
    }
    store = ::testing::TempDir() + "gapsp_cli_flags.bin";
    // Raw kept store (n=64) sharded into 2 × 32 rows.
    ASSERT_EQ(run_cli(cli, "--generate road:8x8 --store file --store-path " +
                               store + " --keep-store --no-compress-store"),
              0);
    ASSERT_EQ(run_cli(cli, "shard --store-path " + store +
                               " --shards 2 --block 16"),
              0);
  }

  void TearDown() override {
    if (store.empty()) return;
    std::remove(store.c_str());
    std::remove((store + ".shards").c_str());
    std::remove((store + ".shard.0").c_str());
    std::remove((store + ".shard.1").c_str());
    std::remove((store + ".sum").c_str());
    std::remove((store + ".cal").c_str());
  }

  std::string q(const std::string& flags) {
    return "query --store-path " + store + " " + flags;
  }

  std::string cli;
  std::string store;
};

TEST_F(CliFlags, ValidServingModesExitZero) {
  EXPECT_EQ(run_cli(cli, q("--point 0,63")), 0);
  EXPECT_EQ(run_cli(cli, q("--point '0, 63; 5,6 ' --row ' 5'")), 0);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --point 5,63")), 0);
  EXPECT_EQ(run_cli(cli, q("--shard 1 --row 40")), 0);
  EXPECT_EQ(run_cli(cli, q("--route local --point 0,63 --row 40")), 0);
  EXPECT_EQ(run_cli(cli, q("--route process --point 0,63 --row 40")), 0);
}

TEST_F(CliFlags, ContradictoryServingFlagsExitOne) {
  // --shard serves one slice; --route reaches all of them.
  EXPECT_EQ(run_cli(cli, q("--shard 0 --route local --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --route process --point 0,1")), 1);
  // --kill-worker only makes sense with worker processes.
  EXPECT_EQ(run_cli(cli, q("--kill-worker 0:1 --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--route local --kill-worker 0:1 --point 0,1")),
            1);
  // Online repair and single-engine chaos cannot cross the router.
  EXPECT_EQ(run_cli(cli, q("--route local --repair recompute --generate "
                           "road:8x8 --point 0,1")),
            1);
  EXPECT_EQ(run_cli(cli, q("--route process --fault-store-read 0.5 "
                           "--point 0,1")),
            1);
  // --no-verify-shard without any shard serving mode.
  EXPECT_EQ(run_cli(cli, q("--no-verify-shard --point 0,1")), 1);
  // Unknown route name.
  EXPECT_EQ(run_cli(cli, q("--route remote --point 0,1")), 1);
}

TEST_F(CliFlags, QueriesRoutingOutsideTheSliceExitOne) {
  // Shard 0 owns rows [0, 32): a point or row query outside it is a typed
  // usage error, not "unreachable".
  EXPECT_EQ(run_cli(cli, q("--shard 0 --point 40,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --row 32")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 1 --point 0,1")), 1);
  // Mixed in/out batches fail too — no partial serving of a misrouted batch.
  EXPECT_EQ(run_cli(cli, q("--shard 1 --point '40,1;5,2'")), 1);
  // Shard index out of range.
  EXPECT_EQ(run_cli(cli, q("--shard 2 --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard -1 --point 0,1")), 1);
}

TEST_F(CliFlags, QueryVerticesOutsideTheStoreExitOne) {
  // The store has n = 64. A vertex outside it is a usage error naming its
  // flag or batch line, whatever tile grid or topology would serve it:
  // unchecked, a 7-wide grid typed it per query and exited 0, a 64-wide
  // one threw the engine's internal check, and the router typed it too.
  expect_typed_error(cli, q("--block 7 --point '0,1;3,64'"), "--point");
  expect_typed_error(cli, q("--block 64 --point '0,1;3,64'"), "--point");
  expect_typed_error(cli, q("--row 64"), "--row");
  expect_typed_error(cli, q("--route local --point '0,1;3,64'"), "--point");
  expect_typed_error(cli, q("--shard 0 --point 3,64"), "--point");
  const std::string batch = ::testing::TempDir() + "gapsp_cli_range.txt";
  {
    std::ofstream out(batch);
    out << "0 1\n# the next line is out of range\nrow 70\n";
  }
  expect_typed_error(cli, q("--batch " + batch), "--batch line 3");
  std::remove(batch.c_str());
  // The last vertex is still served.
  EXPECT_EQ(run_cli(cli, q("--point 63,63 --row 63")), 0);
}

TEST_F(CliFlags, SolveChecksQueryAndPathVerticesBeforeSolving) {
  // road:12x12 has n = 144. A vertex past n exits 1 naming its flag before
  // the solve runs, whichever algorithm would run.
  for (const std::string algorithm : {"boundary", "fw"}) {
    for (const std::string flag : {"--query", "--path"}) {
      const std::string args = "--generate road:12x12 --algorithm " +
                               algorithm + " " + flag + " 0,5000";
      std::string out;
      EXPECT_EQ(run_cli(cli, args, &out), 1) << args << "\n" << out;
      EXPECT_NE(out.find(flag), std::string::npos) << args << "\n" << out;
      EXPECT_EQ(out.find("algorithm:"), std::string::npos) << args << "\n"
                                                            << out;
    }
    expect_typed_error(cli,
                       "--generate road:12x12 --algorithm " + algorithm +
                           " --query '0,1;3,144'",
                       "--query");
  }
}

TEST_F(CliFlags, UnknownFlagsExitTwo) {
  EXPECT_EQ(run_cli(cli, q("--point 0,1 --bogus-flag 3")), 2);
  EXPECT_EQ(run_cli(cli, "shard --store-path " + store + " --route local"),
            2);
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store + " --point 0,1"), 2);
}

TEST_F(CliFlags, BadKernelFlagsExitOne) {
  // A negative thread count used to run on the whole pool and exit 0.
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 --kernel-threads -3"), 1);
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 --algorithm fw "
                         "--kernel-threads 1"),
            0);
  // The deleted microkernels are unknown names like any other.
  for (const char* v : {"tiled", "tiled-reg", "tensor", "avx9000"}) {
    EXPECT_EQ(run_cli(cli, std::string("--generate road:8x8 "
                                       "--kernel-variant ") +
                               v),
              1)
        << v;
  }
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 --algorithm fw "
                         "--kernel-variant naive"),
            0);
}

TEST_F(CliFlags, ServeRequiresAShard) {
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store + " </dev/null"), 1);
}

TEST_F(CliFlags, RoutedQueryWithoutManifestExitsOne) {
  const std::string bare = ::testing::TempDir() + "gapsp_cli_bare.bin";
  ASSERT_EQ(run_cli(cli, "--generate road:8x8 --store file --store-path " +
                             bare + " --keep-store --no-compress-store"),
            0);
  EXPECT_EQ(run_cli(cli, "query --store-path " + bare +
                             " --route local --point 0,1"),
            1);
  EXPECT_EQ(run_cli(cli,
                    "query --store-path " + bare + " --shard 0 --point 0,1"),
            1);
  std::remove(bare.c_str());
  std::remove((bare + ".sum").c_str());
  std::remove((bare + ".cal").c_str());
}

TEST_F(CliFlags, InfoFindsTheCalibrationAnAutoSolveSaved) {
  // The fixture's --keep-store solve runs under auto selection, so it saves
  // the selector's calibration next to the store; info reads it back by
  // the library's own magic.
  std::string out;
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &out), 0) << out;
  EXPECT_NE(out.find("calibration: present"), std::string::npos) << out;
}

TEST_F(CliFlags, KilledWorkerStillExitsZeroWithTypedDegradation) {
  // Degradation is visible but non-fatal: the batch completes and the
  // process exits 0 even when a worker was killed mid-request.
  EXPECT_EQ(run_cli(cli, q("--route process --kill-worker 1:1 "
                           "--worker-retries 0 --point 0,1 --row 40")),
            0);
}

TEST_F(CliFlags, MalformedNumbersAreTypedErrors) {
  // Each of these used to abort on an uncaught std::invalid_argument or
  // std::out_of_range (exit 134).
  expect_typed_error(cli, "--generate road:axb", "--generate");
  expect_typed_error(cli, "--generate road:8x8 --query a,1", "--query");
  expect_typed_error(cli, "--generate road:8x8 --kill-device 0:abc",
                     "--kill-device");
  expect_typed_error(cli, q("--point x,1"), "--point");
  expect_typed_error(cli, q("--row abc"), "--row");
  expect_typed_error(cli, q("--point 99999999999999999999,1"), "--point");
  const std::string batch = ::testing::TempDir() + "gapsp_cli_batch.txt";
  {
    std::ofstream out(batch);
    out << "0 1\nx,2\n";
  }
  expect_typed_error(cli, q("--batch " + batch), "--batch line 2");
  std::remove(batch.c_str());
}

TEST_F(CliFlags, OversizedIdsNoLongerAliasAnotherVertex) {
  // 2^32 used to narrow to vertex 0 and answer dist(0, 5) = 345.
  expect_typed_error(cli, q("--point 4294967296,5"), "--point");
  expect_typed_error(cli, q("--row 4294967296"), "--row");
}

TEST_F(CliFlags, TrailingJunkIsNotANumber) {
  // Read as 8 MiB, as (0,1), and as road:8x8.
  expect_typed_error(cli, q("--cache-mb 8x --point 0,1"), "--cache-mb");
  expect_typed_error(cli, q("--point 0x,1y"), "--point");
  expect_typed_error(cli, "--generate road:8x8junk", "--generate");
}

TEST_F(CliFlags, OutOfRangeValuesAreTypedErrors) {
  // Used to abort on std::bad_alloc.
  expect_typed_error(cli, "--generate road:8x8 --memory-mb -1", "--memory-mb");
  // Used to serve from a "17592186044415 MiB" cache.
  expect_typed_error(cli, q("--cache-mb -1 --point 0,1"), "--cache-mb");
  // Used to take the single-device path.
  expect_typed_error(cli, "--generate road:8x8 --devices 0", "--devices");
  expect_typed_error(cli, "--generate road:8x8 --devices -2", "--devices");
  // Used to be accepted.
  expect_typed_error(cli, q("--threads -4 --point 0,1"), "--threads");
  expect_typed_error(cli, q("--retries -1 --point 0,1"), "--retries");
  expect_typed_error(cli, q("--max-queue -1 --point 0,1"), "--max-queue");
  expect_typed_error(cli, "--generate road:8x8 --fault-h2d -0.5",
                     "--fault-h2d");
  // Used to solve into RAM, keep nothing and exit 0.
  const std::string kept = ::testing::TempDir() + "gapsp_cli_flie.bin";
  expect_typed_error(cli,
                     "--generate road:8x8 --store flie --store-path " + kept +
                         " --keep-store",
                     "--store");
  std::remove(kept.c_str());
  // The ends of the documented ranges stay valid.
  EXPECT_EQ(run_cli(cli, q("--cache-mb 0 --threads 0 --max-queue 0 "
                           "--point 0,1")),
            0);
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 --devices 1 --fault-h2d 0.01 "
                         "--retries 8"),
            0);
}

TEST_F(CliFlags, MultiGpuFlagsItCannotHonourExitOne) {
  // Regression: --devices N > 1 always runs batched boundary without
  // checkpoints on one trace lane per stream, and silently ignored every
  // flag that asks for something else.
  const std::string store = ::testing::TempDir() + "gapsp_cli_multi.bin";
  const std::string ck = ::testing::TempDir() + "gapsp_cli_multi.ck";
  const std::string trace = ::testing::TempDir() + "gapsp_cli_multi.json";
  const std::string multi = "--generate road:8x8 --devices 2 ";
  const std::string file = "--store file --store-path " + store + " ";
  expect_typed_error(cli, multi + "--algorithm fw --no-batching",
                     "--algorithm");
  expect_typed_error(cli, multi + "--algorithm johnson", "--algorithm");
  expect_typed_error(cli, multi + "--no-batching", "--no-batching");
  expect_typed_error(cli, multi + file + "--checkpoint " + ck + " --resume",
                     "--checkpoint");
  expect_typed_error(cli, multi + "--per-component", "--per-component");
  expect_typed_error(cli, multi + "--trace " + trace, "--trace");
  EXPECT_FALSE(std::ifstream(ck).good());
  EXPECT_FALSE(std::ifstream(trace).good());
  // The boundary algorithm, picked or named, still runs on N devices.
  EXPECT_EQ(run_cli(cli, multi + "--algorithm auto"), 0);
  EXPECT_EQ(run_cli(cli, multi + "--algorithm boundary --no-overlap"), 0);
  for (const std::string& f : {store, ck, trace, store + ".cal"}) {
    std::remove(f.c_str());
  }
}

TEST(CliResume, AutoResumesTheCheckpointOfAKilledFwRun) {
  // Regression: under the default --algorithm auto the selector's FW
  // calibration probe ran with the caller's --checkpoint path, rewrote the
  // killed run's sidecar and removed it, so the resume restarted from round
  // 0 ("resumed past 0 completed units").
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
  const std::string store = ::testing::TempDir() + "gapsp_cli_resume.bin";
  const std::string ck = ::testing::TempDir() + "gapsp_cli_resume.ck";
  const std::string solve = "--generate dense:700:8 --store file "
                            "--store-path " + store + " --checkpoint " + ck;
  // Two FW rounds (b = 631); op 60 falls in the second.
  ASSERT_EQ(run_cli(cli, solve + " --algorithm fw --kill-device 0:60"), 1);
  ASSERT_TRUE(std::ifstream(ck).good());
  std::string out;
  EXPECT_EQ(run_cli(cli, solve + " --resume --verify", &out), 0) << out;
  const std::string tag = "resumed past ";
  const auto at = out.find(tag);
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_GE(std::atoi(out.c_str() + at + tag.size()), 1) << out;
  EXPECT_NE(out.find("verify: OK"), std::string::npos) << out;
  for (const std::string& f : {store, ck, store + ".sum", store + ".cal"}) {
    std::remove(f.c_str());
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A raw kept FW store of road:20x20 (n = 400, checksum tiles of 128, so a
/// 4×4 grid) and a one-arc update batch, removed with their sidecars.
class CliUpdate : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) {
      GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
    }
    store = ::testing::TempDir() + "gapsp_cli_update.bin";
    updates = ::testing::TempDir() + "gapsp_cli_update.txt";
    ASSERT_EQ(run_cli(cli, "--generate road:20x20 --algorithm fw --store "
                           "file --store-path " + store +
                               " --keep-store --no-compress-store"),
              0);
    std::ofstream(updates) << "0 1 9\n1 0 9\n";
  }

  void TearDown() override {
    for (const std::string& f :
         {store, store + ".sum", store + ".cal", store + ".updck",
          store + ".upd.tmp", updates}) {
      std::remove(f.c_str());
    }
  }

  int update(std::string* out) const {
    return run_cli(cli, "update --store-path " + store + " --updates " +
                            updates + " --generate road:20x20",
                   out);
  }

  std::string cli, store, updates;
};

TEST_F(CliUpdate, DamagedRawStoreIsRefusedAndLeftAsItWas) {
  // One flipped byte in tile (2,2), which the batch's repair never touches.
  // The update must refuse the store, not land a fresh .sum over the damage
  // that scrub would then call CLEAN.
  {
    std::fstream f(store, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at = (300 * 400 + 300) * 4;
    f.seekg(at);
    const char byte = static_cast<char>(f.get() ^ 0x01);
    f.seekp(at);
    f.put(byte);
  }
  const std::string before = file_bytes(store);
  const std::string sums_before = file_bytes(store + ".sum");
  std::string out;
  EXPECT_EQ(update(&out), 4) << out;
  EXPECT_NE(out.find("tile (2,2)"), std::string::npos) << out;
  EXPECT_NE(out.find("apsp_cli scrub"), std::string::npos) << out;
  EXPECT_EQ(file_bytes(store), before);
  EXPECT_EQ(file_bytes(store + ".sum"), sums_before);
  EXPECT_FALSE(std::ifstream(store + ".upd.tmp").good());
  EXPECT_FALSE(std::ifstream(store + ".updck").good());
  out.clear();
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + store, &out), 3) << out;
}

TEST_F(CliUpdate, CalibrationSidecarIsKept) {
  // The calibration table is keyed by the device configuration and fit on
  // synthetic probes; it never reads the store, so an update keeps it.
  const std::string auto_store = ::testing::TempDir() + "gapsp_cli_cal.bin";
  ASSERT_EQ(run_cli(cli, "--generate road:8x8 --store file --store-path " +
                             auto_store + " --keep-store"),
            0);
  const std::string cal = file_bytes(auto_store + ".cal");
  for (const std::string& f : {auto_store, auto_store + ".cal"}) {
    std::remove(f.c_str());
  }
  ASSERT_FALSE(cal.empty());
  std::ofstream(store + ".cal", std::ios::binary) << cal;
  std::string out;
  EXPECT_EQ(update(&out), 0) << out;
  EXPECT_EQ(out.find(".cal"), std::string::npos) << out;
  EXPECT_EQ(file_bytes(store + ".cal"), cal);
  out.clear();
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &out), 0) << out;
  EXPECT_NE(out.find("calibration: present"), std::string::npos) << out;
}

/// Raw kept stores of road:24x24 (n = 576, a 3×3 grid of checksum tiles)
/// solved by blocked FW and by the boundary algorithm, which renumbers the
/// vertices on its device. Every command must treat the two alike.
class CliStoreOrder : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) {
      GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
    }
    const std::string dir = ::testing::TempDir() + "gapsp_cli_order_";
    fw = dir + "fw.bin";
    boundary = dir + "boundary.bin";
    fresh = dir + "fresh.bin";
    updates = dir + "updates.txt";
    graph = dir + "updated.mtx";
    for (const auto& [path, algorithm] :
         {std::pair{fw, "fw"}, std::pair{boundary, "boundary"}}) {
      ASSERT_EQ(run_cli(cli, std::string("--generate road:24x24 --algorithm ") +
                                 algorithm + kKeep + path),
                0)
          << algorithm;
    }
  }

  void TearDown() override {
    for (const std::string& p : {fw, boundary, fresh}) {
      for (const std::string& f : {p, p + ".sum", p + ".cal", p + ".updck"}) {
        std::remove(f.c_str());
      }
    }
    std::remove(updates.c_str());
    std::remove(graph.c_str());
  }

  /// The `dist(` and `row ` answer lines that `query` prints for a store.
  std::string answers(const std::string& store) const {
    std::string out;
    EXPECT_EQ(run_cli(cli,
                      "query --store-path " + store +
                          " --point '0,575;5,77;300,3;575,0' --row '5;300'",
                      &out),
              0)
        << out;
    std::string lines;
    for (std::size_t at = 0; at < out.size();) {
      const std::size_t end = std::min(out.find('\n', at), out.size());
      const std::string line = out.substr(at, end - at);
      if (line.starts_with("dist(") || line.starts_with("row ")) {
        lines += line + "\n";
      }
      at = end + 1;
    }
    return lines;
  }

  static constexpr const char* kKeep =
      " --store file --keep-store --no-compress-store --store-path ";
  std::string cli, fw, boundary, fresh, updates, graph;
};

TEST_F(CliStoreOrder, QueryAnswersTheBoundaryStoreAsTheFwStore) {
  const std::string want = answers(fw);
  ASSERT_NE(want.find("dist(0, 575) = "), std::string::npos) << want;
  EXPECT_EQ(answers(boundary), want);
}

TEST_F(CliStoreOrder, ScrubRecomputeRepairsTheBoundaryStoreToTheFwStore) {
  // One flipped byte in tile (2,2): the repair rewrites that tile only, so
  // the other 24 must already be in the order the repair computes.
  {
    std::fstream f(boundary, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at = (300 * 576 + 300) * 4;
    f.seekg(at);
    const char byte = static_cast<char>(f.get() ^ 0x01);
    f.seekp(at);
    f.put(byte);
  }
  std::string out;
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + boundary +
                             " --repair recompute --generate road:24x24",
                    &out),
            0)
      << out;
  EXPECT_EQ(file_bytes(boundary), file_bytes(fw));
  EXPECT_EQ(file_bytes(boundary + ".sum"), file_bytes(fw + ".sum"));
}

TEST_F(CliStoreOrder, UpdateOfTheBoundaryStoreLandsAFreshFwSolve) {
  std::ofstream(updates) << "0 1 9\n1 0 9\n";
  std::string out;
  ASSERT_EQ(run_cli(cli, "update --store-path " + boundary + " --updates " +
                             updates + " --generate road:24x24 --save-graph " +
                             graph,
                    &out),
            0)
      << out;
  ASSERT_EQ(run_cli(cli, "--input " + graph + " --algorithm fw" + kKeep +
                             fresh,
                    &out),
            0)
      << out;
  EXPECT_EQ(file_bytes(boundary), file_bytes(fresh));
  EXPECT_EQ(file_bytes(boundary + ".sum"), file_bytes(fresh + ".sum"));
}

/// Kept stores at one path, landed over each other: every landing drops
/// the shards and the stale .sum that described the bytes it replaced, and
/// a raw store's .sum checks every read that compaction and sharding make.
class CliLanding : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) {
      GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
    }
    store = ::testing::TempDir() + "gapsp_cli_landing.bin";
    out = ::testing::TempDir() + "gapsp_cli_landing.z.bin";
  }

  void TearDown() override {
    for (const std::string& f : leftovers()) std::remove(f.c_str());
    for (const std::string& f : {store, store + ".sum", store + ".cal"}) {
      std::remove(f.c_str());
    }
  }

  /// A road:RxR solve kept at the store path, raw with a .sum unless
  /// `compress`.
  int solve(const std::string& road, int seed, bool compress = false) {
    std::string log;
    const int code = run_cli(
        cli, "--generate road:" + road + " --seed " + std::to_string(seed) +
                 " --algorithm fw --store file --keep-store --store-path " +
                 store + (compress ? "" : " --no-compress-store"),
        &log);
    EXPECT_EQ(code, 0) << log;
    return code;
  }

  /// Every file a compaction to `out` or a shard pass might leave behind.
  std::vector<std::string> leftovers() const {
    std::vector<std::string> files = {out, out + ".tmp", out + ".sum",
                                      store + ".shards",
                                      store + ".shards.tmp"};
    for (int k = 0; k < 3; ++k) {
      const std::string slice = store + ".shard." + std::to_string(k);
      files.push_back(slice);
      files.push_back(slice + ".tmp");
    }
    return files;
  }

  void expect_no_leftovers() const {
    for (const std::string& f : leftovers()) {
      EXPECT_FALSE(std::ifstream(f).good()) << f << " was left behind";
    }
  }

  /// `query --route local` finds no manifest: exit 1 naming it.
  void expect_unsharded() const {
    std::string log;
    EXPECT_EQ(run_cli(cli, "query --store-path " + store +
                               " --route local --point 0,575",
                      &log),
              1)
        << log;
    EXPECT_NE(log.find("no shard manifest next to " + store),
              std::string::npos)
        << log;
  }

  std::string cli, store, out;
};

TEST_F(CliLanding, ReSolveDropsTheOldShards) {
  // The slices of the seed-1 graph used to stay in service: a routed query
  // answered the old graph's distance with exit 0, and `info` listed them.
  ASSERT_EQ(solve("24x24", 1), 0);
  ASSERT_EQ(run_cli(cli, "shard --store-path " + store + " --shards 2"), 0);
  ASSERT_EQ(solve("24x24", 2), 0);
  expect_no_leftovers();
  expect_unsharded();
  std::string log;
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &log), 0) << log;
  EXPECT_NE(log.find("shards: absent"), std::string::npos) << log;
}

TEST_F(CliLanding, CompactInPlaceDropsTheOldShards) {
  ASSERT_EQ(solve("24x24", 1), 0);
  ASSERT_EQ(run_cli(cli, "shard --store-path " + store + " --shards 2"), 0);
  std::string log;
  ASSERT_EQ(run_cli(cli, "compact --store-path " + store, &log), 0) << log;
  expect_no_leftovers();
  EXPECT_FALSE(std::ifstream(store + ".sum").good());
  expect_unsharded();
}

TEST_F(CliLanding, CompactingReSolveOverAnotherGraphsRawStore) {
  // The new raw bytes must not be read checked against the old graph's
  // .sum on their way to GAPSPZ1: the landing drops it first.
  ASSERT_EQ(solve("16x16", 1), 0);
  ASSERT_TRUE(std::ifstream(store + ".sum").good());
  ASSERT_EQ(solve("16x16", 2, /*compress=*/true), 0);
  EXPECT_FALSE(std::ifstream(store + ".sum").good());
  std::string log;
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &log), 0) << log;
  EXPECT_NE(log.find("format: GAPSPZ1"), std::string::npos) << log;
  EXPECT_NE(log.find("checksums: absent"), std::string::npos) << log;
}

TEST_F(CliLanding, DamagedRawStoreNeitherCompactsNorShards) {
  // Element (300, 300) lies in checksum tile (2,2). Both commands used to
  // exit 0 and carry the damage into a copy that then checked clean.
  ASSERT_EQ(solve("24x24", 1), 0);
  {
    std::fstream f(store, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp((300 * 576 + 300) * 4);
    f.write("\xde\xad\xbe\x0e", 4);
  }
  const std::string before = file_bytes(store);
  const std::string sums_before = file_bytes(store + ".sum");
  for (const std::string& cmd :
       {"compact --store-path " + store + " --out " + out,
        "shard --store-path " + store + " --shards 2"}) {
    std::string log;
    EXPECT_EQ(run_cli(cli, cmd, &log), 4) << cmd << "\n" << log;
    EXPECT_NE(log.find("tile (2,2)"), std::string::npos) << cmd << "\n"
                                                        << log;
    expect_no_leftovers();
    EXPECT_EQ(file_bytes(store), before) << cmd;
    EXPECT_EQ(file_bytes(store + ".sum"), sums_before) << cmd;
  }
}

TEST_F(CliLanding, KeptStoresLandOn64KiBTiles) {
  // The store tile is 128 (a 64 KiB tile of dist_t): a raw kept store's
  // .sum and a compacted one's frames both sit on it, 5 per side of n = 576.
  ASSERT_EQ(solve("24x24", 1), 0);
  std::string log;
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &log), 0) << log;
  EXPECT_NE(log.find("checksums: present (" + store + ".sum, tile 128, 25 "
                     "tiles)"),
            std::string::npos)
      << log;
  ASSERT_EQ(solve("24x24", 1, /*compress=*/true), 0);
  log.clear();
  ASSERT_EQ(run_cli(cli, "info --store-path " + store, &log), 0) << log;
  EXPECT_NE(log.find("tile: 128 (5 per side"), std::string::npos) << log;
}

/// How many times `what` occurs in `text`.
std::size_t count_of(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  for (auto at = text.find(what); at != std::string::npos;
       at = text.find(what, at + what.size())) {
    ++count;
  }
  return count;
}

TEST_F(CliLanding, ScrubNamesEachDamagedTileOnce) {
  // A raw store's checksum error names its tile, and the scrub used to
  // print the tile again in front of it. A z1 frame's error does not name
  // one, so there the location still comes first.
  ASSERT_EQ(solve("24x24", 1), 0);
  {
    std::fstream f(store, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp((300 * 576 + 300) * 4);
    f.write("\xde\xad\xbe\x0e", 4);
  }
  std::string log;
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + store, &log), 3) << log;
  EXPECT_EQ(count_of(log, "tile (2,2)"), 1u) << log;
  EXPECT_EQ(count_of(log, "tile ("), 1u) << log;

  // The last frame is tile (4,4)'s: road:24x24 has no all-kInf tile.
  ASSERT_EQ(solve("24x24", 1, /*compress=*/true), 0);
  {
    std::fstream f(store, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-2, std::ios::end);
    const char byte = static_cast<char>(f.get() ^ 0x01);
    f.seekp(-2, std::ios::end);
    f.put(byte);
  }
  log.clear();
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + store, &log), 3) << log;
  EXPECT_EQ(count_of(log, "tile (4,4)"), 1u) << log;
  EXPECT_EQ(count_of(log, "tile ("), 1u) << log;
}

/// The line of `out` that starts with `prefix` (without its newline), or
/// "" when there is none.
std::string line_of(const std::string& out, const std::string& prefix) {
  const auto at = out.find(prefix);
  if (at == std::string::npos) return {};
  return out.substr(at, out.find('\n', at) - at);
}

TEST(CliOutput, KernelLineLeavesLaterNumbersAtFullPrecision) {
  // The `kernel engine:` line used to leave std::setprecision(2) on stdout,
  // so every double printed after it had two significant digits: a 140 ms
  // compaction read "in 1.4e+02 ms" and its 18.7× ratio "19x".
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
  const std::string store = ::testing::TempDir() + "gapsp_cli_precision.bin";
  std::string out;
  ASSERT_EQ(run_cli(cli, "--generate road:64x64 --store file --store-path " +
                             store + " --keep-store",
                    &out),
            0)
      << out;
  const std::string line = line_of(out, "store compressed: ");
  ASSERT_FALSE(line.empty()) << out;
  const std::string time = line.substr(line.rfind(" in ") + 4);
  EXPECT_EQ(time.find('e'), std::string::npos) << line;
  const auto open = line.find('(');
  const std::string ratio = line.substr(open + 1, line.find("x, ") - open - 1);
  EXPECT_NE(ratio.find('.'), std::string::npos) << line;
  for (const std::string& f : {store, store + ".sum", store + ".cal"}) {
    std::remove(f.c_str());
  }
}

TEST(CliOutput, AutoSolvePrintsTheSelectorReport) {
  // One line per candidate, from the SelectorReport solve_apsp fills: the
  // density band's verdict, feasibility, the modeled compute and transfer
  // estimate, and the pick. dense:300:8 (8.3 %) keeps FW and Johnson, and
  // FW's estimate is the lower by about 8×.
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
  std::string out;
  ASSERT_EQ(run_cli(cli, "--generate dense:300:8", &out), 0) << out;
  EXPECT_NE(out.find("algorithm: blocked-floyd-warshall (selected"),
            std::string::npos)
      << out;
  const std::string fw = line_of(out, "  candidate blocked-floyd-warshall: ");
  const std::string johnson = line_of(out, "  candidate johnson: ");
  const std::string boundary = line_of(out, "  candidate boundary: ");
  for (const std::string& considered : {fw, johnson}) {
    EXPECT_NE(considered.find(": in the density band, feasible, compute "),
              std::string::npos)
        << out;
    EXPECT_NE(considered.find(" ms, transfer "), std::string::npos) << out;
    EXPECT_NE(considered.find(" ms, estimate "), std::string::npos) << out;
  }
  EXPECT_TRUE(fw.ends_with(" ms (picked)")) << out;
  EXPECT_TRUE(johnson.ends_with(" ms")) << out;
  EXPECT_EQ(boundary, "  candidate boundary: outside the density band")
      << out;

  // An explicit algorithm runs no selector and prints no report.
  out.clear();
  ASSERT_EQ(run_cli(cli, "--generate dense:300:8 --algorithm fw", &out), 0)
      << out;
  EXPECT_EQ(out.find("candidate"), std::string::npos) << out;
}

TEST_F(CliFlags, MistypedCommandsAndStrayWordsExitTwo) {
  // Each used to run the default road:40x40 solve, or ignore the word.
  EXPECT_EQ(run_cli(cli, "infoo --store-path " + store), 2);
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 stray"), 2);
  EXPECT_EQ(run_cli(cli, "query extra --store-path " + store +
                             " --point 0,1"),
            2);
  EXPECT_EQ(run_cli(cli, "--generate road:8x8 --verify stray"), 2);
}

TEST_F(CliFlags, HelpListsEachCommandsOwnFlags) {
  for (const char* cmd : {"", "query ", "shard ", "serve ", "scrub ",
                          "update ", "info ", "compact "}) {
    std::string out;
    EXPECT_EQ(run_cli(cli, std::string(cmd) + "--help", &out), 0) << cmd;
    EXPECT_NE(out.find("--help"), std::string::npos) << cmd;
  }
  std::string top, query, update, solve_help;
  ASSERT_EQ(run_cli(cli, "--help", &top), 0);
  for (const char* word : {"query", "compact", "exit codes", "--devices N",
                           "in [1, 1024]", "--fault-h2d P", "in [0, 1]"}) {
    EXPECT_NE(top.find(word), std::string::npos) << word;
  }
  ASSERT_EQ(run_cli(cli, "query --help", &query), 0);
  EXPECT_NE(query.find("--route"), std::string::npos);
  EXPECT_NE(query.find("--cache-mb M"), std::string::npos);
  EXPECT_EQ(query.find("--updates"), std::string::npos);
  // Serving bytes the sidecar rejects is no mode: --repair recompute is.
  EXPECT_EQ(query.find("--no-verify-sums"), std::string::npos);
  EXPECT_EQ(query.find("--devices"), std::string::npos);
  ASSERT_EQ(run_cli(cli, "update --help", &update), 0);
  EXPECT_NE(update.find("--updates"), std::string::npos);
  EXPECT_EQ(update.find("--route"), std::string::npos);
  // Unknown flags still win over --help.
  EXPECT_EQ(run_cli(cli, "query --help --updates x"), 2);
}

}  // namespace
