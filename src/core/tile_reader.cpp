#include "core/tile_reader.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "core/dist_store.h"
#include "sim/fault.h"

namespace gapsp::core {

namespace {

std::string tile_tag(vidx_t row_block, vidx_t col_block) {
  return "tile (" + std::to_string(row_block) + "," +
         std::to_string(col_block) + ")";
}

}  // namespace

CheckedTileReader::CheckedTileReader(const DistStore& store,
                                     StoreChecksums sums, TileReaderOptions opt)
    : store_(store), sums_(std::move(sums)), opt_(opt) {
  if (sums_.present()) {
    GAPSP_CHECK(sums_.n == store.n(),
                "checksum sidecar covers a different matrix dimension");
  }
}

bool CheckedTileReader::verifying() const {
  return opt_.verify_checksums && sums_.present();
}

TileReaderStats CheckedTileReader::stats() const {
  TileReaderStats out;
  out.reads = reads_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.transient_failures = transient_failures_.load(std::memory_order_relaxed);
  out.corrupt_tiles = corrupt_tiles_.load(std::memory_order_relaxed);
  return out;
}

void CheckedTileReader::read_tile(vidx_t row_block, vidx_t col_block,
                                  vidx_t row0, vidx_t col0, vidx_t rows,
                                  vidx_t cols, dist_t* dst) {
  // Only verify rectangles that exactly cover one sidecar tile; anything
  // else (a misaligned caller) is read unverified rather than mis-verified.
  const bool verify =
      verifying() && sums_.tile > 0 && row0 % sums_.tile == 0 &&
      col0 % sums_.tile == 0 &&
      rows == std::min<vidx_t>(sums_.tile, sums_.n - row0) &&
      cols == std::min<vidx_t>(sums_.tile, sums_.n - col0);
  const vidx_t sum_bi = verify ? row0 / sums_.tile : 0;
  const vidx_t sum_bj = verify ? col0 / sums_.tile : 0;

  // The counters are independent tallies read only as a snapshot, so
  // relaxed increments suffice.
  const auto bump = [](std::atomic<long long>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  };
  for (int attempt = 0;; ++attempt) {
    try {
      if (opt_.faults != nullptr) {
        std::lock_guard<std::mutex> lk(faults_mu_);
        opt_.faults->on_op(sim::FaultOp::kStoreRead, /*device_now=*/0.0,
                           tile_tag(row_block, col_block).c_str());
      }
      store_.read_block(row0, col0, rows, cols, dst, cols);
      if (verify) {
        const std::uint64_t got =
            tile_checksum(dst, static_cast<std::size_t>(rows) * cols);
        if (got != sums_.tile_sum(sum_bi, sum_bj)) {
          throw CorruptError("checksum mismatch on " +
                             tile_tag(row_block, col_block));
        }
      }
      bump(reads_);
      return;
    } catch (const CorruptError& e) {
      bump(corrupt_tiles_);
      throw TileError(TileFailure::kCorrupt, row_block, col_block, e.what());
    } catch (const sim::FaultError& e) {
      if (!e.transient()) {
        bump(corrupt_tiles_);
        throw TileError(TileFailure::kCorrupt, row_block, col_block, e.what());
      }
      if (attempt >= opt_.retry.max_retries) {
        bump(transient_failures_);
        throw TileError(TileFailure::kTransient, row_block, col_block,
                        std::string(e.what()) + " (retries exhausted)");
      }
    } catch (const IoError& e) {
      if (attempt >= opt_.retry.max_retries) {
        bump(transient_failures_);
        throw TileError(TileFailure::kTransient, row_block, col_block,
                        std::string(e.what()) + " (retries exhausted)");
      }
    }
    bump(retries_);
    const double backoff = util::retry_backoff_s(opt_.retry, attempt + 1);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

}  // namespace gapsp::core
