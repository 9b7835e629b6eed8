// CLI regression tests for the flag validation matrix: contradictory
// shard/route/chaos combinations and out-of-range kernel settings must exit
// 1 with a typed error (not crash, not silently serve or solve the wrong
// thing), unknown flags exit 2, and the valid single-slice and routed paths
// exit 0. Drives the real apsp_cli binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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

/// Runs `apsp_cli <args>` with output discarded; returns the exit code
/// (-1 if the child did not exit normally).
int run_cli(const std::string& cli, const std::string& args) {
  const std::string cmd = cli + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
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

}  // namespace
