#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/ooc_fw.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "sim/trace.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

ApspOptions tiny_opts(std::size_t mem = 256u << 10) {
  ApspOptions o;
  o.device = tiny_device(mem);
  o.fw_tile = 32;
  return o;
}

TEST(OocFw, BlockSizeFitsThreeBlocks) {
  const auto spec = tiny_device(1 << 20);
  const vidx_t b = fw_block_size(spec, 100000);
  EXPECT_LE(3u * b * b * sizeof(dist_t),
            static_cast<std::size_t>(spec.memory_bytes));
  // Maximal: the next size up must not fit.
  EXPECT_GT(3.0 * (b + 16.0) * (b + 16.0) * sizeof(dist_t),
            0.95 * static_cast<double>(spec.memory_bytes));
}

TEST(OocFw, BlockSizeCappedAtN) {
  EXPECT_EQ(fw_block_size(tiny_device(64u << 20), 100), 100);
}

TEST(OocFw, TinyDeviceRejected) {
  EXPECT_THROW(fw_block_size(tiny_device(1024), 1000), Error);
}

TEST(OocFw, MatchesDijkstraMultiBlock) {
  const auto g = graph::make_erdos_renyi(180, 800, 31);
  auto store = make_ram_store(g.num_vertices());
  const auto opts = tiny_opts(64u << 10);  // forces several blocks
  const auto r = ooc_floyd_warshall(g, opts, *store);
  EXPECT_GT(r.metrics.fw_num_blocks, 1);
  expect_store_matches_reference(g, *store);
}

TEST(OocFw, MatchesDijkstraSingleBlockInCore) {
  const auto g = graph::make_erdos_renyi(90, 400, 32);
  auto store = make_ram_store(g.num_vertices());
  const auto opts = tiny_opts(4u << 20);  // whole matrix fits one block
  const auto r = ooc_floyd_warshall(g, opts, *store);
  EXPECT_EQ(r.metrics.fw_num_blocks, 1);
  expect_store_matches_reference(g, *store);
}

TEST(OocFw, MatchesDijkstraOnRoadGraph) {
  const auto g = graph::make_road(12, 13, 33);
  auto store = make_ram_store(g.num_vertices());
  ooc_floyd_warshall(g, tiny_opts(), *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocFw, HandlesDisconnectedGraph) {
  const auto g = graph::make_erdos_renyi(120, 100, 34, /*connect=*/false);
  auto store = make_ram_store(g.num_vertices());
  ooc_floyd_warshall(g, tiny_opts(64u << 10), *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocFw, NonDivisibleBlockTail) {
  // n chosen so n % b != 0 for the tiny device's block size.
  const auto g = graph::make_erdos_renyi(131, 500, 35);
  auto store = make_ram_store(g.num_vertices());
  ooc_floyd_warshall(g, tiny_opts(64u << 10), *store);
  expect_store_matches_reference(g, *store);
}

TEST(OocFw, MetricsAccountTransfersAndKernels) {
  const auto g = graph::make_erdos_renyi(150, 600, 37);
  auto store = make_ram_store(g.num_vertices());
  const auto r = ooc_floyd_warshall(g, tiny_opts(64u << 10), *store);
  EXPECT_GT(r.metrics.sim_seconds, 0.0);
  EXPECT_GT(r.metrics.kernel_seconds, 0.0);
  EXPECT_GT(r.metrics.transfer_seconds, 0.0);
  EXPECT_GT(r.metrics.kernels, 0);
  // Every round ships at least the full matrix back: d2h >= n_d * n² * W.
  const double n2 = static_cast<double>(g.num_vertices()) * g.num_vertices();
  EXPECT_GE(static_cast<double>(r.metrics.bytes_d2h),
            r.metrics.fw_num_blocks * n2 * sizeof(dist_t));
  EXPECT_LE(r.metrics.device_peak_bytes, r.metrics.device_peak_bytes);
  EXPECT_LE(r.metrics.device_peak_bytes,
            static_cast<std::size_t>(tiny_opts(64u << 10).device.memory_bytes));
}

TEST(OocFw, MoreBlocksMoreTraffic) {
  const auto g = graph::make_erdos_renyi(160, 700, 38);
  auto s1 = make_ram_store(g.num_vertices());
  auto s2 = make_ram_store(g.num_vertices());
  const auto r_small = ooc_floyd_warshall(g, tiny_opts(48u << 10), *s1);
  const auto r_large = ooc_floyd_warshall(g, tiny_opts(512u << 10), *s2);
  EXPECT_GT(r_small.metrics.fw_num_blocks, r_large.metrics.fw_num_blocks);
  EXPECT_GT(r_small.metrics.bytes_d2h, r_large.metrics.bytes_d2h);
}

TEST(OocFw, WorksWithFileStore) {
  const auto g = graph::make_erdos_renyi(80, 350, 39);
  auto store = make_file_store(
      g.num_vertices(), testing::TempDir() + "/gapsp_fw_file_test.bin");
  ooc_floyd_warshall(g, tiny_opts(64u << 10), *store);
  expect_store_matches_reference(g, *store);
}

/// Forwards to a RAM store and counts block reads: the FW driver's
/// stage-ins that came neither from held frames nor from the graph. Reads
/// of a block the run has not written yet are counted apart.
class ReadCountingStore final : public DistStore {
 public:
  explicit ReadCountingStore(vidx_t n)
      : DistStore(n), inner_(make_ram_store(n)) {}

  void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                   const dist_t* src, std::size_t src_ld) override {
    written_.insert({row0, col0});
    inner_->write_block(row0, col0, rows, cols, src, src_ld);
  }
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    ++reads;
    if (written_.count({row0, col0}) == 0) ++unwritten_reads;
    inner_->read_block(row0, col0, rows, cols, dst, dst_ld);
  }

  mutable long long reads = 0;
  mutable long long unwritten_reads = 0;

 private:
  std::unique_ptr<DistStore> inner_;
  std::set<std::pair<vidx_t, vidx_t>> written_;
};

TEST(OocFw, HeldFramesCoverBlockRowsAndColumnsKAndKPlusOne) {
  // Round k holds the frames of the blocks in block row and column k and
  // k+1, so at n_d = 4 a pass loads 73 of its 112 blocks from held frames
  // and at n_d = 5 142 of 225. Holding every block would load 96 and 200;
  // the uncompressed path holds nothing. Every block here rides compressed.
  // Round 0 builds each block's first load from the graph (n_d² stage-ins
  // that read neither the store nor held frames), so no load reads a block
  // the run has not stored.
  const auto g = graph::make_dense(900, 8.0, 2701);
  for (const bool overlap : {false, true}) {
    for (const auto mode :
         {TransferCompression::kOn, TransferCompression::kOff}) {
      ApspOptions o;
      o.device = sim::DeviceSpec::v100_scaled(1u << 20);
      o.overlap_transfers = overlap;
      o.transfer_compression = mode;
      ReadCountingStore store(g.num_vertices());
      const auto r = ooc_floyd_warshall(g, o, store);
      ASSERT_EQ(r.metrics.fw_num_blocks, overlap ? 5 : 4);
      EXPECT_EQ(store.unwritten_reads, 0) << "overlap " << overlap;
      const long long built =
          static_cast<long long>(r.metrics.fw_num_blocks) *
          r.metrics.fw_num_blocks;
      const long long held = r.metrics.transfers_h2d - store.reads - built;
      if (mode == TransferCompression::kOn) {
        ASSERT_EQ(r.metrics.decodes,
                  r.metrics.transfers_h2d + r.metrics.transfers_d2h);
        EXPECT_EQ(held, overlap ? 142 : 73) << "overlap " << overlap;
      } else {
        EXPECT_EQ(held, 0) << "overlap " << overlap;
      }
    }
  }
}

// Bit-identity gate for the FW driver's block traffic: every traced event
// and stored distance of one pass, its pinned peak, decode count and
// per-lane raw/wire bytes, pinned in hex for overlap × compression. The
// codec's host thread count and the store backend must not move any of it.
struct PinnedFwRun {
  bool overlap;
  TransferCompression compression;
  const char* expected;
};

void expect_fw_runs_pinned(const graph::CsrGraph& g, const ApspOptions& base,
                           std::initializer_list<PinnedFwRun> runs) {
  const vidx_t n = g.num_vertices();
  for (const PinnedFwRun& c : runs) {
    for (const int threads : {1, 0}) {
      for (const bool file : {false, true}) {
        sim::TraceRecorder trace;
        ApspOptions o = base;
        o.overlap_transfers = c.overlap;
        o.transfer_compression = c.compression;
        o.kernel_threads = threads;
        o.trace = &trace;
        auto store = file ? make_file_store(n, testing::TempDir() +
                                                   "/gapsp_fw_pinned.bin")
                          : make_ram_store(n);
        const auto r = ooc_floyd_warshall(g, o, *store);
        std::ostringstream got;
        got << test::run_digest(trace, *store) << " n_d "
            << r.metrics.fw_num_blocks << " pinned "
            << r.metrics.pinned_peak_bytes << " decodes "
            << r.metrics.decodes << " h2d " << r.metrics.bytes_h2d_raw << "/"
            << r.metrics.bytes_h2d_wire << " d2h " << r.metrics.bytes_d2h_raw
            << "/" << r.metrics.bytes_d2h_wire;
        EXPECT_EQ(got.str(), c.expected)
            << "overlap " << c.overlap << ", compression "
            << transfer_compression_name(c.compression) << ", threads "
            << threads << ", " << (file ? "file" : "RAM") << " store";
      }
    }
  }
}

TEST(OocFwPinned, Dense900OnOneMiB) {
  // 4 blocks per side serial, 5 overlapped: rounds where the held band of
  // rows and columns k and k+1 both keeps and drops blocks.
  const auto g = graph::make_dense(900, 8.0, 2701);
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(1u << 20);
  expect_fw_runs_pinned(
      g, o,
      {
          PinnedFwRun{true, TransferCompression::kOn,
                      "0x44db5b884c93749e (869 events) n_d 5 "
                      "pinned 1053025 decodes 350 "
                      "h2d 28420400/7027806 d2h 16200000/3899302"},
          PinnedFwRun{true, TransferCompression::kOff,
                      "0x9bbe169300abdc1f (519 events) n_d 5 "
                      "pinned 994580 decodes 0 "
                      "h2d 0/0 d2h 0/0"},
          PinnedFwRun{false, TransferCompression::kOn,
                      "0xba872e8517daaf72 (458 events) n_d 4 "
                      "pinned 1090697 decodes 176 "
                      "h2d 21917952/5413482 d2h 12960000/3099924"},
          PinnedFwRun{false, TransferCompression::kOff,
                      "0xe1f1fe2347b512a3 (282 events) n_d 4 "
                      "pinned 995328 decodes 0 "
                      "h2d 0/0 d2h 0/0"},
      });
}

TEST(OocFwPinned, Dense1500OnDefaultDevice) {
  // The benchmark's solve-dense graph shape: 3 blocks per side overlapped,
  // 2 serial.
  const auto g = graph::make_dense(1500, 8.0, 1);
  expect_fw_runs_pinned(
      g, ApspOptions{},
      {
          PinnedFwRun{true, TransferCompression::kOn,
                      "0x2927f2a553e7f100 (240 events) n_d 3 "
                      "pinned 8389479 decodes 72 "
                      "h2d 43764408/10154308 d2h 27000000/5908472"},
          PinnedFwRun{true, TransferCompression::kOff,
                      "0xacfe09d43b58fbb5 (168 events) n_d 3 "
                      "pinned 7963220 decodes 0 "
                      "h2d 0/0 d2h 0/0"},
          PinnedFwRun{false, TransferCompression::kOn,
                      "0x593ae4ff4ac5f38f (118 events) n_d 2 "
                      "pinned 8648039 decodes 20 "
                      "h2d 26934464/6408317 d2h 18000000/3903869"},
          PinnedFwRun{false, TransferCompression::kOff,
                      "0x5f141d8630477ff4 (98 events) n_d 2 "
                      "pinned 7951152 decodes 0 "
                      "h2d 0/0 d2h 0/0"},
      });
}

}  // namespace
}  // namespace gapsp::core
