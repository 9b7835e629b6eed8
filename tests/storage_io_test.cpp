// Landing and header validation across the on-disk formats.
//
// AtomicWriter: every writer that replaces a file (GAPSPCK1 checkpoint,
// GAPSPSM1 `.sum`, CAL1 `.cal`, GAPSPZ1 compaction, GAPSPSD1 shard file and
// GAPSPSH1 manifest) is made to fail mid-write by an RLIMIT_FSIZE cap with
// SIGXFSZ ignored, so write(2) returns EFBIG. The file being replaced must
// survive byte-identical, and no `*.tmp` may be left in its directory.
//
// CorruptHeader: each reader sizes an allocation from a count in its
// header. A forged count far past the end of the file must fail typed,
// never abort the process with std::length_error.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/dist_store.h"
#include "core/shard_store.h"
#include "core/store_integrity.h"
#include "test_util.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

namespace fs = std::filesystem;

/// A fresh private directory, removed with its contents at scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    std::string tmpl = ::testing::TempDir() + "gapsp_" + name + "_XXXXXX";
    GAPSP_CHECK(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp " + tmpl);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }

  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

  /// Names of the `*.tmp` files in the directory.
  std::vector<std::string> tmp_files() const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(path_)) {
      if (e.path().extension() == ".tmp") out.push_back(e.path().string());
    }
    return out;
  }

 private:
  fs::path path_;
};

std::string read_bytes(const std::string& path) {
  const util::File f(path, O_RDONLY);
  std::string out(static_cast<std::size_t>(f.size()), '\0');
  f.pread_exact(out.data(), out.size(), 0);
  return out;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  util::File f(path, O_WRONLY | O_CREAT | O_TRUNC);
  f.pwrite_exact(b.data(), b.size(), 0);
}

/// Caps every file this process writes at `bytes`, with SIGXFSZ ignored so
/// a write past the cap fails with EFBIG instead of killing the process.
/// Restores the previous limit and disposition at scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    GAPSP_CHECK(::getrlimit(RLIMIT_FSIZE, &saved_) == 0, "getrlimit");
    rlimit capped = saved_;
    capped.rlim_cur = bytes;
    GAPSP_CHECK(::setrlimit(RLIMIT_FSIZE, &capped) == 0, "setrlimit");
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

/// A raw kept store of n×n pseudo-random finite distances, which z1 cannot
/// compress much.
void write_random_store(const std::string& path, vidx_t n,
                        std::uint64_t seed) {
  auto store = make_file_store(n, path, /*keep_file=*/true);
  Rng rng(seed);
  std::vector<dist_t> buf(static_cast<std::size_t>(n) * n);
  for (dist_t& d : buf) d = static_cast<dist_t>(rng.next_below(kInf));
  store->write_block(0, 0, n, n, buf.data(), static_cast<std::size_t>(n));
}

Checkpoint checkpoint_with_payload(std::size_t bytes, std::uint64_t seed) {
  Checkpoint ck;
  ck.fingerprint = seed;
  ck.n = 64;
  ck.progress = 3;
  Rng rng(seed);
  ck.payload.resize(bytes);
  for (auto& b : ck.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  return ck;
}

StoreChecksums checksum_grid(vidx_t n, vidx_t tile) {
  StoreChecksums s;
  s.n = n;
  s.tile = tile;
  s.tiles_per_side = (n + tile - 1) / tile;
  s.sums.resize(static_cast<std::size_t>(s.tiles_per_side) *
                s.tiles_per_side);
  for (std::size_t i = 0; i < s.sums.size(); ++i) s.sums[i] = i * 7919 + 1;
  return s;
}

ApspOptions calibration_options() {
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.device.name = "storage-io-test";  // a calibration no other test keys
  o.fw_tile = 32;
  return o;
}

/// One atomic writer: `land_previous` writes the files a failed write must
/// leave intact (and any inputs `write_new` needs), returning their paths;
/// `write_new` then rewrites under a cap of `cap_bytes`.
struct WriterCase {
  const char* name;
  rlim_t cap_bytes;
  std::function<std::vector<std::string>(const ScratchDir&)> land_previous;
  std::function<void(const ScratchDir&)> write_new;
};

void PrintTo(const WriterCase& c, std::ostream* os) { *os << c.name; }

class AtomicWriter : public ::testing::TestWithParam<WriterCase> {};

TEST_P(AtomicWriter, FailedWriteKeepsThePreviousFileAndLeavesNoTmp) {
  const WriterCase& c = GetParam();
  ScratchDir dir(c.name);
  std::map<std::string, std::string> before;
  for (const std::string& p : c.land_previous(dir)) before[p] = read_bytes(p);
  ASSERT_FALSE(before.empty());

  bool threw_io_error = false;
  {
    const FileSizeCap cap(c.cap_bytes);
    try {
      c.write_new(dir);
    } catch (const IoError&) {
      threw_io_error = true;
    }
  }
  EXPECT_TRUE(threw_io_error) << "the capped write did not fail";
  for (const auto& [path, bytes] : before) {
    EXPECT_EQ(read_bytes(path), bytes) << path << " changed";
  }
  EXPECT_EQ(dir.tmp_files(), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    EveryLanding, AtomicWriter,
    ::testing::Values(
        WriterCase{"checkpoint", 4096,
                   [](const ScratchDir& d) {
                     write_checkpoint(d.file("run.ck"),
                                      checkpoint_with_payload(16, 1));
                     return std::vector<std::string>{d.file("run.ck")};
                   },
                   [](const ScratchDir& d) {
                     // Random bytes defeat z1, so 64 KiB land raw.
                     write_checkpoint(d.file("run.ck"),
                                      checkpoint_with_payload(64 << 10, 2));
                   }},
        WriterCase{"sum", 4096,
                   [](const ScratchDir& d) {
                     write_store_checksums(checksum_grid(4, 4),
                                           d.file("s.bin.sum"));
                     return std::vector<std::string>{d.file("s.bin.sum")};
                   },
                   [](const ScratchDir& d) {
                     // 64² tile sums: 32 KiB.
                     write_store_checksums(checksum_grid(64, 1),
                                           d.file("s.bin.sum"));
                   }},
        WriterCase{"cal", 16,
                   [](const ScratchDir& d) {
                     calibrate(calibration_options());
                     save_calibration(calibration_options(),
                                      d.file("s.bin.cal"));
                     return std::vector<std::string>{d.file("s.bin.cal")};
                   },
                   [](const ScratchDir& d) {
                     save_calibration(calibration_options(),
                                      d.file("s.bin.cal"));
                   }},
        WriterCase{"compaction", 8192,
                   [](const ScratchDir& d) {
                     write_random_store(d.file("small.raw"), 16, 3);
                     compact_store(d.file("small.raw"), d.file("s.z"));
                     write_random_store(d.file("big.raw"), 128, 4);
                     return std::vector<std::string>{d.file("s.z")};
                   },
                   [](const ScratchDir& d) {
                     compact_store(d.file("big.raw"), d.file("s.z"), 64);
                   }},
        WriterCase{"shard_file", 4096,
                   [](const ScratchDir& d) {
                     const std::string s = d.file("s.bin");
                     write_random_store(s, 64, 5);
                     shard_store_file(s, 2, 32);
                     return std::vector<std::string>{
                         shard_file_path(s, 0), shard_file_path(s, 1),
                         shard_manifest_path(s)};
                   },
                   [](const ScratchDir& d) {
                     // Each 16-row shard file is 64 + 16·64·4 bytes.
                     shard_store_file(d.file("s.bin"), 4, 16);
                   }},
        WriterCase{"manifest", 128,
                   [](const ScratchDir& d) {
                     const std::string s = d.file("s.bin");
                     write_random_store(s, 4, 6);
                     shard_store_file(s, 2, 2);
                     return std::vector<std::string>{shard_manifest_path(s)};
                   },
                   [](const ScratchDir& d) {
                     // The 80-byte shard files fit under the cap; the
                     // 64 + 4·32-byte manifest does not.
                     shard_store_file(d.file("s.bin"), 4, 1);
                   }}),
    [](const ::testing::TestParamInfo<WriterCase>& info) {
      return std::string(info.param.name);
    });

/// A zeroed 64-byte header carrying `magic`, with i64/u64 `fields` at
/// their byte offsets.
std::vector<std::uint8_t> forged_header(
    const char* magic, const std::map<std::size_t, std::uint64_t>& fields) {
  std::vector<std::uint8_t> h(64, 0);
  std::memcpy(h.data(), magic, 8);
  for (const auto& [offset, value] : fields) {
    std::memcpy(h.data() + offset, &value, sizeof(value));
  }
  return h;
}

TEST(CorruptHeader, Z1TileCountPastTheFileIsCorrupt) {
  ScratchDir dir("z1_header");
  const std::string path = dir.file("s.z");
  // n = tiles_per_side = 2^30 with tile 1: a 2^60-entry directory.
  write_bytes(path, forged_header("GAPSPZ1\0",
                                  {{8, 1ull << 30}, {16, 1}, {24, 1ull << 30}}));
  EXPECT_THROW(compressed_store_info(path), CorruptError);
  EXPECT_THROW(open_store(path), CorruptError);
}

TEST(CorruptHeader, SumGridPastTheFileIsCorrupt) {
  ScratchDir dir("sum_header");
  const std::string path = dir.file("s.bin.sum");
  // n = tiles_per_side = 2^31 − 1 with tile 1: a ~2^62-entry grid.
  const std::uint64_t side = (1ull << 31) - 1;
  write_bytes(path,
              forged_header("GAPSPSM1", {{8, side}, {16, 1}, {24, side}}));
  StoreChecksums sums;
  EXPECT_THROW(load_store_checksums(path, sums), CorruptError);
  EXPECT_FALSE(sums.present());
}

TEST(CorruptHeader, ManifestShardCountPastTheFileIsCorrupt) {
  ScratchDir dir("manifest_header");
  const std::string path = dir.file("s.bin.shards");
  ShardManifest m;
  // n = num_shards = 2^58 with tile 1: 2^58 entries of 32 bytes, and an n
  // past any vertex id; then a plausible n whose 2^20 entries (32 MiB) the
  // 64-byte file cannot hold.
  for (const std::uint64_t side : {1ull << 58, 1ull << 20}) {
    write_bytes(path,
                forged_header("GAPSPSH1", {{8, side}, {16, 1}, {24, side}}));
    EXPECT_THROW(load_shard_manifest(path, m), CorruptError) << side;
    EXPECT_FALSE(m.present());
  }
}

TEST(CorruptHeader, CheckpointPayloadSizeThatWrapsStartsFresh) {
  ScratchDir dir("checkpoint_header");
  const std::string path = dir.file("run.ck");
  // 64 + (2^64 − 8) + 8 wraps to the 64-byte file size.
  write_bytes(path, forged_header("GAPSPCK1", {{56, ~std::uint64_t{0} - 7}}));
  Checkpoint ck;
  ck.progress = -1;
  EXPECT_FALSE(read_checkpoint(path, &ck));
  EXPECT_EQ(ck.progress, -1);  // untouched
}

TEST(CorruptHeader, CheckpointPayloadFrameThatOverstatesItsSizeStartsFresh) {
  ScratchDir dir("checkpoint_frame");
  const std::string path = dir.file("run.ck");
  // A correctly checksummed sidecar whose z1 payload frame (flags bit 0)
  // claims 2^62 decoded bytes from 24 stored ones.
  std::vector<std::uint8_t> frame(24, 0);
  const std::uint64_t raw_len = 1ull << 62;
  std::memcpy(frame.data(), &raw_len, sizeof(raw_len));
  std::vector<std::uint8_t> file = forged_header("GAPSPCK1", {});
  const std::uint32_t compressed = 1;
  std::memcpy(file.data() + 12, &compressed, sizeof(compressed));
  const std::uint64_t payload_bytes = frame.size();
  std::memcpy(file.data() + 56, &payload_bytes, sizeof(payload_bytes));
  file.insert(file.end(), frame.begin(), frame.end());
  const std::uint64_t sum = util::fnv1a(file.data(), file.size());
  file.resize(file.size() + sizeof(sum));
  std::memcpy(file.data() + file.size() - sizeof(sum), &sum, sizeof(sum));
  write_bytes(path, file);

  Checkpoint ck;
  EXPECT_FALSE(read_checkpoint(path, &ck));
}

TEST(CorruptHeader, ShardDirectoryEntryThatWrapsIsCorrupt) {
  ScratchDir dir("shard_directory");
  const std::string raw = dir.file("s.raw");
  const std::string z = dir.file("s.z");
  write_random_store(raw, 64, 7);
  compact_store(raw, z, 32);
  shard_store_file(z, 1);
  ShardManifest m;
  ASSERT_TRUE(load_shard_manifest(shard_manifest_path(z), m));
  ASSERT_TRUE(m.compressed);

  // GAPSPSD1: the 2×2 directory follows the 64-byte header, whose u64 at
  // byte 48 checksums it. Give entry 0 a size whose end wraps past 2^64 to
  // land inside the file, and re-sign the directory.
  const std::string shard = shard_file_path(z, 0);
  std::string bytes = read_bytes(shard);
  std::vector<std::uint8_t> file(bytes.begin(), bytes.end());
  std::uint64_t offset = 0;
  std::memcpy(&offset, file.data() + 64, sizeof(offset));
  ASSERT_GT(offset, 0u);  // a stored (not all-kInf) tile
  const std::uint64_t wrapping = ~offset + 1 + 16;  // offset + this == 16
  std::memcpy(file.data() + 72, &wrapping, sizeof(wrapping));
  const std::uint64_t dir_sum = util::fnv1a(file.data() + 64, 4 * 16);
  std::memcpy(file.data() + 48, &dir_sum, sizeof(dir_sum));
  write_bytes(shard, file);

  EXPECT_THROW(open_shard_slice(z, m, 0, /*verify=*/false), CorruptError);
}

}  // namespace
}  // namespace gapsp::core
