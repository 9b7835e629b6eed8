#include "core/tile_reader.h"

#include <chrono>
#include <string>
#include <thread>

#include "core/dist_store.h"
#include "sim/fault.h"

namespace gapsp::core {

CheckedTileReader::CheckedTileReader(const DistStore& store,
                                     const StoreChecksums& sums,
                                     TileReaderOptions opt)
    : CheckedTileReader(store, opt) {
  GAPSP_CHECK(!sums.present(), "a CheckedStore verifies a raw store's sums");
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
  // The counters are independent tallies read only as a snapshot, so
  // relaxed increments suffice.
  const auto bump = [](std::atomic<long long>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  };
  for (int attempt = 0;; ++attempt) {
    try {
      if (opt_.faults != nullptr) {
        std::lock_guard<std::mutex> lk(faults_mu_);
        const std::string tag = "tile (" + std::to_string(row_block) + "," +
                                std::to_string(col_block) + ")";
        opt_.faults->on_op(sim::FaultOp::kStoreRead, /*device_now=*/0.0,
                           tag.c_str());
      }
      store_.read_block(row0, col0, rows, cols, dst, cols);
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
