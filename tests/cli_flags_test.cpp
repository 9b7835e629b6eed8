// CLI regression tests for the flag validation matrix: contradictory
// shard/route/chaos combinations, malformed numbers and out-of-range values
// must exit 1 with a typed error naming the flag (not crash, not silently
// serve or solve the wrong thing), unknown commands, stray words and
// unknown flags exit 2, --help exits 0 for every command, and the valid
// single-slice and routed paths exit 0. Drives the real apsp_cli binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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
  EXPECT_EQ(query.find("--devices"), std::string::npos);
  ASSERT_EQ(run_cli(cli, "update --help", &update), 0);
  EXPECT_NE(update.find("--updates"), std::string::npos);
  EXPECT_EQ(update.find("--route"), std::string::npos);
  // Unknown flags still win over --help.
  EXPECT_EQ(run_cli(cli, "query --help --updates x"), 2);
}

}  // namespace
