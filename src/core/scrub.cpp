#include "core/scrub.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/compressed_store.h"
#include "core/dist_store.h"
#include "core/store_integrity.h"
#include "core/tile_reader.h"
#include "graph/csr_graph.h"
#include "sssp/dijkstra.h"

namespace gapsp::core {

namespace {

constexpr std::size_t kMaxReportedTiles = 64;

void note_damage(ScrubReport& report, vidx_t bi, vidx_t bj,
                 const std::string& reason) {
  ++report.corrupt;
  if (report.damaged.size() < kMaxReportedTiles) {
    report.damaged.push_back(DamagedTile{bi, bj, false, reason});
  }
}

void mark_repaired(ScrubReport& report) {
  report.repaired = report.corrupt;
  for (DamagedTile& t : report.damaged) t.repaired = true;
}

/// Scans every tile of `store` through `reader`, recording damage.
/// Returns the damaged tile keys (bi * tiles_per_side + bj).
std::unordered_set<std::uint64_t> scan_tiles(CheckedTileReader& reader,
                                             const DistStore& store,
                                             vidx_t tile, ScrubReport& report) {
  std::unordered_set<std::uint64_t> damaged;
  const vidx_t n = store.n();
  const vidx_t tps = (n + tile - 1) / tile;
  std::vector<dist_t> buf(static_cast<std::size_t>(tile) * tile);
  for (vidx_t bi = 0; bi < tps; ++bi) {
    const vidx_t row0 = bi * tile;
    const vidx_t rows = std::min<vidx_t>(tile, n - row0);
    for (vidx_t bj = 0; bj < tps; ++bj) {
      const vidx_t col0 = bj * tile;
      const vidx_t cols = std::min<vidx_t>(tile, n - col0);
      ++report.tiles;
      try {
        reader.read_tile(bi, bj, row0, col0, rows, cols, buf.data());
      } catch (const TileError& e) {
        note_damage(report, bi, bj, e.what());
        damaged.insert(static_cast<std::uint64_t>(bi) * tps + bj);
      }
    }
  }
  return damaged;
}

/// Serves damaged tiles from the repair source and everything else from the
/// underlying (partially corrupt) store. Both repairs read it in
/// store-tile-aligned rectangles, so forwarding by tile key is exact.
class PatchedSource final : public DistStore {
 public:
  PatchedSource(const DistStore& base, vidx_t tile,
                const std::unordered_set<std::uint64_t>& damaged,
                const TileRepairFn& repair)
      : DistStore(base.n()), base_(base), tile_(tile), damaged_(damaged),
        repair_(repair) {}

  void write_block(vidx_t, vidx_t, vidx_t, vidx_t, const dist_t*,
                   std::size_t) override {
    throw IoError("PatchedSource is read-only");
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    GAPSP_CHECK(row0 % tile_ == 0 && col0 % tile_ == 0 && rows <= tile_ &&
                    cols <= tile_,
                "patched scrub source requires tile-aligned reads");
    const vidx_t tps = (n() + tile_ - 1) / tile_;
    const std::uint64_t key =
        static_cast<std::uint64_t>(row0 / tile_) * tps + col0 / tile_;
    if (damaged_.count(key) == 0) {
      base_.read_block(row0, col0, rows, cols, dst, dst_ld);
      return;
    }
    const std::vector<dist_t> fixed = repair_(row0, col0, rows, cols);
    GAPSP_CHECK(fixed.size() == static_cast<std::size_t>(rows) * cols,
                "repair source returned a wrong-sized tile");
    for (vidx_t r = 0; r < rows; ++r) {
      std::copy_n(fixed.data() + static_cast<std::size_t>(r) * cols, cols,
                  dst + static_cast<std::size_t>(r) * dst_ld);
    }
  }

  vidx_t tile_size() const override { return tile_; }

 private:
  const DistStore& base_;
  vidx_t tile_;
  const std::unordered_set<std::uint64_t>& damaged_;
  const TileRepairFn& repair_;
};

}  // namespace

ScrubReport scrub_store(const std::string& path, const ScrubOptions& opt) {
  GAPSP_CHECK(!opt.repair || static_cast<bool>(opt.repair_fn),
              "scrub repair requested without a repair source");
  // Through the one open path, so every tile read is checked: against a
  // raw store's `.sum`, or by the GAPSPZ1 frames (damage to a GAPSPZ1
  // directory prevents the walk and propagates). A rotten sidecar is itself
  // damage: scan the plain file, then rebuild the sidecar when asked to.
  ScrubReport report;
  StoreFormat format = StoreFormat::kRaw;
  std::unique_ptr<DistStore> store;
  bool sidecar_corrupt = false;
  try {
    store = open_store(path, &format);
  } catch (const CorruptError&) {
    if (is_compressed_store(path)) throw;
    sidecar_corrupt = true;
    store = open_file_store(path);
  }
  report.compressed = format == StoreFormat::kCompressed;
  report.sums_present = format == StoreFormat::kRawChecked;
  const vidx_t n = report.n = store->n();
  const vidx_t tile = report.tile =
      store->tile_size() > 0 ? store->tile_size() : opt.tile;
  CheckedTileReader reader(*store, TileReaderOptions{opt.retry, opt.faults});
  std::unordered_set<std::uint64_t> damaged =
      scan_tiles(reader, *store, tile, report);

  if (opt.repair && !damaged.empty()) {
    const PatchedSource patched(*store, tile, damaged, opt.repair_fn);
    if (report.compressed) {
      // Atomic: the rebuilt store replaces `path` only once fully written;
      // our open handle keeps reading the old inode meanwhile.
      write_compressed_store(patched, path, tile);
    } else {
      // Adopt the existing file read-write (same size, no truncation) and
      // overwrite exactly the damaged tiles with recomputed truth.
      auto rw = make_file_store(n, path, /*keep_file=*/true);
      std::vector<dist_t> fixed(static_cast<std::size_t>(tile) * tile);
      const vidx_t tps = (n + tile - 1) / tile;
      for (const std::uint64_t key : damaged) {
        const vidx_t row0 = static_cast<vidx_t>(key / tps) * tile;
        const vidx_t col0 = static_cast<vidx_t>(key % tps) * tile;
        const vidx_t rows = std::min<vidx_t>(tile, n - row0);
        const vidx_t cols = std::min<vidx_t>(tile, n - col0);
        patched.read_block(row0, col0, rows, cols, fixed.data(), cols);
        rw->write_block(row0, col0, rows, cols, fixed.data(), cols);
      }
    }
    mark_repaired(report);
  }
  report.unrepaired = report.corrupt - report.repaired;

  // A raw store's sidecar is (re)written when asked, when repair touched
  // the store, or when the old one was corrupt — but never over damage we
  // did not fix, which would launder corruption into "verified" data.
  const bool want_sums =
      opt.write_sums || sidecar_corrupt || report.repaired > 0;
  if (!report.compressed && want_sums && report.unrepaired == 0) {
    write_store_checksums(compute_store_checksums(*open_file_store(path), tile),
                          checksum_sidecar_path(path));
    report.sums_written = true;
  }
  return report;
}

TileRepairFn make_sssp_repair(const graph::CsrGraph& g) {
  // A tile's rows are Dijkstra sources and its columns one contiguous slice
  // of each row.
  return [&g](vidx_t row0, vidx_t col0, vidx_t rows,
              vidx_t cols) -> std::vector<dist_t> {
    std::vector<dist_t> out(static_cast<std::size_t>(rows) * cols);
    std::vector<dist_t> dist(static_cast<std::size_t>(g.num_vertices()));
    for (vidx_t r = 0; r < rows; ++r) {
      sssp::dijkstra_into(g, row0 + r, dist);
      std::copy_n(dist.data() + col0, cols,
                  out.data() + static_cast<std::size_t>(r) * cols);
    }
    return out;
  };
}

}  // namespace gapsp::core
