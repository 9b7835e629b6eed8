// Benchmark of the block-compressed distance store (DESIGN.md §11).
//
// For each graph family the paper's footprint argument cares about —
// connected road, kInf-dominated road-like (disjoint grid components), and
// R-MAT — this solves into a raw kept file store, compacts it into a
// GAPSPZ1 store, and measures: compression ratio, compress and decompress
// throughput, full-scan time raw vs compressed (the chaos-resume /
// re-ingest read path), warm point-query throughput raw vs compressed
// through the QueryEngine, and full-decompress bit-parity against the raw
// store. Writes BENCH_store_compression.json.
//
// The scan numbers need care to read: both files sit in the page cache
// here, so the raw scan is a memcpy-speed fread and the compressed scan is
// CPU-bound decompression — `scan_speedup` is therefore < 1 and reported
// only to price the decompression cost. The win the paper cares about is
// bytes moved across a disk- or link-bound channel, so the headline
// `io_speedup` combines the *measured* decompress time with a *modeled*
// byte-transfer time at `--disk-mbps` (default 200, SATA-class):
//   t_raw = raw_bytes / disk,  t_z = z_bytes / disk + measured decompress,
//   io_speedup = t_raw / t_z.
//
// Acceptance guards (ISSUE 5), checked when the flags are given:
//   --assert-min-ratio R    kInf-dominated road-like family must reach
//                           max(4, R)× and R-MAT max(2, R)×
//   --assert-min-speedup S  io_speedup on the kInf-heavy family must be
//                           ≥ S, and warm query throughput on every
//                           family within 10% of raw (≥ 0.9×, the median
//                           of paired ratios; see warm_parity)
// `--transfer-compression=auto|on|off` sets the wire-path mode of the solve
// phase (the at-rest numbers are mode-invariant — stores are bit-identical
// either way); unknown values exit 2.
// All flags accept `--flag=V` and `--flag V`.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gapsp;

struct Row {
  std::string family;
  vidx_t n = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t z_bytes = 0;
  double ratio = 0.0;
  long long tiles = 0;
  long long inf_tiles = 0;
  double compress_mbps = 0.0;
  double decompress_mbps = 0.0;
  double scan_raw_s = 0.0;
  double scan_z_s = 0.0;
  double scan_speedup = 0.0;  ///< page-cache-resident: prices decompression
  double io_speedup = 0.0;    ///< at --disk-mbps byte transfer, the paper's regime
  double warm_qps_raw = 0.0;
  double warm_qps_z = 0.0;
  double warm_parity = 0.0;
  bool bit_identical = false;
};

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"family\": \"" << r.family << "\", \"n\": " << r.n
        << ", \"raw_bytes\": " << r.raw_bytes
        << ", \"compressed_bytes\": " << r.z_bytes
        << ", \"ratio\": " << r.ratio << ", \"tiles\": " << r.tiles
        << ", \"inf_tiles\": " << r.inf_tiles
        << ", \"compress_mbps\": " << r.compress_mbps
        << ", \"decompress_mbps\": " << r.decompress_mbps
        << ", \"scan_raw_s\": " << r.scan_raw_s
        << ", \"scan_z_s\": " << r.scan_z_s
        << ", \"scan_speedup\": " << r.scan_speedup
        << ", \"io_speedup\": " << r.io_speedup
        << ", \"warm_qps_raw\": " << r.warm_qps_raw
        << ", \"warm_qps_z\": " << r.warm_qps_z
        << ", \"warm_parity\": " << r.warm_parity
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

/// `components` disjoint side×side grids: road-like local structure with
/// (components−1)/components of all pairs unreachable — the kInf-dominated
/// regime the compressed store exists for.
graph::CsrGraph disjoint_grids(int components, vidx_t side,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  const vidx_t per = side * side;
  for (int c = 0; c < components; ++c) {
    const vidx_t base = static_cast<vidx_t>(c) * per;
    for (vidx_t r = 0; r < side; ++r) {
      for (vidx_t col = 0; col < side; ++col) {
        const vidx_t v = base + r * side + col;
        if (col + 1 < side) {
          edges.push_back({v, v + 1, static_cast<dist_t>(rng.next_in(1, 9))});
        }
        if (r + 1 < side) {
          edges.push_back(
              {v, v + side, static_cast<dist_t>(rng.next_in(1, 9))});
        }
      }
    }
  }
  return graph::CsrGraph::from_edges(static_cast<vidx_t>(components) * per,
                                     std::move(edges), true);
}

/// Full-matrix sweep in tile-height stripes (each stored tile decompressed
/// exactly once) returning wall time; accumulates into `sink` so the reads
/// cannot be optimized away. Pure read path — parity is checked separately
/// so the comparison never pollutes the timing.
double scan_store(const core::DistStore& store, vidx_t stripe,
                  long long* sink) {
  const vidx_t n = store.n();
  std::vector<dist_t> buf(static_cast<std::size_t>(stripe) *
                          static_cast<std::size_t>(n));
  Timer t;
  for (vidx_t r0 = 0; r0 < n; r0 += stripe) {
    const vidx_t rows = std::min<vidx_t>(stripe, n - r0);
    store.read_block(r0, 0, rows, n, buf.data(), static_cast<std::size_t>(n));
    for (vidx_t i = 0; i < rows; ++i) {
      *sink += buf[static_cast<std::size_t>(i) * n + (r0 + i) % n];
    }
  }
  return t.seconds();
}

/// Acceptance: the compressed store must decompress bit-identically.
bool stores_bit_identical(const core::DistStore& a, const core::DistStore& b,
                          vidx_t stripe) {
  const vidx_t n = a.n();
  std::vector<dist_t> ba(static_cast<std::size_t>(stripe) *
                         static_cast<std::size_t>(n));
  std::vector<dist_t> bb(ba.size());
  for (vidx_t r0 = 0; r0 < n; r0 += stripe) {
    const vidx_t rows = std::min<vidx_t>(stripe, n - r0);
    a.read_block(r0, 0, rows, n, ba.data(), static_cast<std::size_t>(n));
    b.read_block(r0, 0, rows, n, bb.data(), static_cast<std::size_t>(n));
    if (std::memcmp(ba.data(), bb.data(),
                    static_cast<std::size_t>(rows) * n * sizeof(dist_t)) !=
        0) {
      return false;
    }
  }
  return true;
}

/// Warm point-query throughput of engines over `raw` and `z`, on each
/// batch's own clock (BatchReport::wall_seconds). One warm batch takes
/// about a millisecond, so a best-of-few pass per engine reads scheduler
/// noise; instead the passes interleave, alternating which engine runs
/// first, each sample repeats the batch for at least kSampleSeconds, and
/// the parity is the median of the kParityPairs paired z/raw ratios
/// (bench_query_service's checksum-overhead row measures the same way).
/// Each pair builds and fills its own two engines: where one engine's
/// tiles land in memory moves its warm throughput for as long as it
/// lives, by up to ~15 % here, which more samples of the same pair of
/// engines would not average out.
struct WarmParity {
  double qps_raw = 0.0;
  double qps_z = 0.0;
  double parity = 0.0;
};

WarmParity warm_parity(const core::DistStore& raw, const core::DistStore& z,
                       const std::vector<service::Query>& queries) {
  constexpr int kParityPairs = 15;
  constexpr double kSampleSeconds = 0.02;
  service::QueryEngineOptions qopt;
  qopt.cache_bytes = 64u << 20;  // larger than any matrix here: warm = hits
  const auto warm_qps = [&](const service::QueryEngine& engine) {
    Timer t;
    double batch_s = 0.0;
    int reps = 0;
    do {
      batch_s += engine.run_batch(queries).wall_seconds;
      ++reps;
    } while (t.seconds() < kSampleSeconds);
    return static_cast<double>(queries.size()) * reps / batch_s;
  };
  std::vector<double> raw_qps, z_qps, ratios;
  for (int pair = 0; pair < kParityPairs; ++pair) {
    const service::QueryEngine raw_engine(raw, qopt);
    const service::QueryEngine z_engine(z, qopt);
    raw_engine.run_batch(queries);  // cold passes populate the caches
    z_engine.run_batch(queries);
    if (pair % 2 == 0) {
      raw_qps.push_back(warm_qps(raw_engine));
      z_qps.push_back(warm_qps(z_engine));
    } else {
      z_qps.push_back(warm_qps(z_engine));
      raw_qps.push_back(warm_qps(raw_engine));
    }
    ratios.push_back(z_qps.back() / raw_qps.back());
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(raw_qps), median(z_qps), median(ratios)};
}

Row run_family(const std::string& family, const graph::CsrGraph& g,
               double disk_mbps, core::TransferCompression wire_mode) {
  Row row;
  row.family = family;
  row.n = g.num_vertices();

  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  opts.algorithm = core::Algorithm::kJohnson;
  opts.transfer_compression = wire_mode;
  const std::string raw_path = "bench_zstore_" + family + ".bin";
  const std::string z_path = raw_path + ".z";
  {
    auto store = core::make_file_store(row.n, raw_path, /*keep_file=*/true);
    core::solve_apsp(g, opts, *store);
  }  // closed: compaction re-reads the kept file, the CLI's exact flow

  const auto cs = core::compact_store(raw_path, z_path);
  row.raw_bytes = cs.raw_bytes;
  row.z_bytes = cs.compressed_bytes;
  row.ratio = cs.ratio();
  row.tiles = cs.tiles;
  row.inf_tiles = cs.inf_tiles;
  row.compress_mbps =
      static_cast<double>(cs.raw_bytes) / 1e6 / std::max(cs.seconds, 1e-12);

  const auto raw = core::open_store(raw_path);
  const auto z = core::open_store(z_path);
  const vidx_t stripe = z->tile_size();

  row.bit_identical = stores_bit_identical(*raw, *z, stripe);

  long long sink = 0;
  row.scan_raw_s = scan_store(*raw, stripe, &sink);
  row.scan_z_s = scan_store(*z, stripe, &sink);
  row.scan_speedup = row.scan_raw_s / std::max(row.scan_z_s, 1e-12);
  row.decompress_mbps =
      static_cast<double>(row.raw_bytes) / 1e6 / std::max(row.scan_z_s, 1e-12);
  const double t_raw = static_cast<double>(row.raw_bytes) / 1e6 / disk_mbps;
  const double t_z = static_cast<double>(row.z_bytes) / 1e6 / disk_mbps +
                     row.scan_z_s;
  row.io_speedup = t_raw / std::max(t_z, 1e-12);

  std::vector<service::Query> queries;
  Rng rng(29);
  for (int i = 0; i < 30000; ++i) {
    queries.push_back({service::QueryKind::kPoint,
                       static_cast<vidx_t>(rng.next_below(row.n)),
                       static_cast<vidx_t>(rng.next_below(row.n))});
  }
  const WarmParity warm = warm_parity(*raw, *z, queries);
  row.warm_qps_raw = warm.qps_raw;
  row.warm_qps_z = warm.qps_z;
  row.warm_parity = warm.parity;

  std::remove(raw_path.c_str());
  std::remove(z_path.c_str());

  std::cout << family << ": n=" << row.n << ", " << (row.raw_bytes >> 10)
            << " KiB -> " << (row.z_bytes >> 10) << " KiB (" << row.ratio
            << "x, " << row.inf_tiles << "/" << row.tiles
            << " all-kInf tiles), compress " << row.compress_mbps
            << " MB/s, decompress " << row.decompress_mbps
            << " MB/s, scan " << row.scan_speedup << "x (page cache), io "
            << row.io_speedup << "x @" << disk_mbps << " MB/s, warm query "
            << row.warm_parity << "x raw ("
            << static_cast<long long>(row.warm_qps_z) << " qps), "
            << (row.bit_identical ? "bit-identical" : "MISMATCH") << "\n";
  return row;
}

double flag_value(int argc, char** argv, int& i, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return -1.0;
  if (argv[i][len] == '=') return std::stod(argv[i] + len + 1);
  if (argv[i][len] == '\0' && i + 1 < argc) return std::stod(argv[++i]);
  return -1.0;
}

const char* flag_string(int argc, char** argv, int& i, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return nullptr;
  if (argv[i][len] == '=') return argv[i] + len + 1;
  if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  double min_ratio = 0.0;
  double min_speedup = 0.0;
  double disk_mbps = 200.0;
  auto wire_mode = core::TransferCompression::kAuto;
  for (int i = 1; i < argc; ++i) {
    double v;
    const char* s;
    if ((s = flag_string(argc, argv, i, "--transfer-compression")) !=
        nullptr) {
      try {
        wire_mode = core::parse_transfer_compression(s);
      } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
    } else if ((v = flag_value(argc, argv, i, "--assert-min-ratio")) >= 0.0) {
      min_ratio = v;
    } else if ((v = flag_value(argc, argv, i, "--assert-min-speedup")) >=
               0.0) {
      min_speedup = v;
    } else if ((v = flag_value(argc, argv, i, "--disk-mbps")) > 0.0) {
      disk_mbps = v;
    }
  }

  std::vector<Row> rows;
  rows.push_back(
      run_family("road", graph::make_road(40, 40, 11), disk_mbps, wire_mode));
  // Eight disjoint 15×15 grids: n = 1800, 7/8 of all pairs at kInf.
  rows.push_back(run_family("road_kinf", disjoint_grids(8, 15, 13), disk_mbps,
                            wire_mode));
  // R-MAT without forced connectivity (Graph500-style): the natural
  // isolated-vertex tail leaves a large unreachable fraction.
  rows.push_back(run_family(
      "rmat", graph::make_rmat(11, 6000, 17, 0.57, 0.19, 0.19,
                               /*connect=*/false),
      disk_mbps, wire_mode));
  write_json(rows, "BENCH_store_compression.json");

  bool ok = true;
  for (const Row& r : rows) {
    if (!r.bit_identical) {
      std::cerr << "FAIL: " << r.family
                << " compressed store is not bit-identical to raw\n";
      ok = false;
    }
  }
  const Row& kinf = rows[1];
  const Row& rmat = rows[2];
  if (min_ratio > 0.0) {
    const double kinf_floor = std::max(4.0, min_ratio);
    const double rmat_floor = std::max(2.0, min_ratio);
    if (kinf.ratio < kinf_floor) {
      std::cerr << "FAIL: road_kinf ratio " << kinf.ratio << " < "
                << kinf_floor << "\n";
      ok = false;
    }
    if (rmat.ratio < rmat_floor) {
      std::cerr << "FAIL: rmat ratio " << rmat.ratio << " < " << rmat_floor
                << "\n";
      ok = false;
    }
  }
  if (min_speedup > 0.0) {
    if (kinf.io_speedup < min_speedup) {
      std::cerr << "FAIL: road_kinf io speedup " << kinf.io_speedup << " < "
                << min_speedup << "\n";
      ok = false;
    }
    for (const Row& r : rows) {
      if (r.warm_parity < 0.9) {
        std::cerr << "FAIL: " << r.family << " warm query parity "
                  << r.warm_parity << " < 0.9\n";
        ok = false;
      }
    }
  }
  if (!ok) return 1;
  if (min_ratio > 0.0 || min_speedup > 0.0) {
    std::cout << "asserts passed (min-ratio " << min_ratio
              << ", min-speedup " << min_speedup << ")\n";
  }
  return 0;
}
