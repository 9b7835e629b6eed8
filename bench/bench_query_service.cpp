// Benchmark of the distance-oracle query service (DESIGN.md §10).
//
// Solves one road graph into a file-backed store, then measures batched
// point-query throughput through the block-cached QueryEngine — cold cache
// vs warm cache, across cache capacities, serial vs pooled — against the
// baseline every pre-service caller used: a per-element DistStore::at()
// loop that pays one seek+read per query. Writes BENCH_query.json.
//
// `--assert-min-speedup=R` exits non-zero unless the warm-cache pooled
// batch throughput is at least R× the at() loop — the acceptance guard
// (ISSUE 4 requires ≥ 5×).
//
// Fault-tolerance rows (DESIGN.md §13): the same batch is replayed through
// a checksum-verified engine (GAPSPSM1 sidecar) and through degraded modes —
// injected transient read faults with retries, and a quarantined-tile
// sweep — so the cost of the serving-tier fault ladder is a measured number,
// not a guess. `--assert-max-overhead=PCT` exits non-zero when the
// checksum-verified clean path costs more than PCT% of the unverified
// engine's warm pooled batch time, taken as the median of paired per-batch
// time ratios (the serving tier's budget is 2%).
// `--assert-cold-fanout=R` exits non-zero unless the cold 16 MiB pooled
// batch runs at least R× the cold serial batch's qps: cache misses read and
// decode in parallel, so the miss path must scale with the fan-out.
// `--transfer-compression=auto|on|off` sets the solve phase's wire-path
// mode (serving numbers are mode-invariant); unknown values exit 2.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/store_integrity.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "sim/fault.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace gapsp;

struct Row {
  std::string mode;
  std::size_t cache_kb = 0;
  int threads = 0;
  std::size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
};

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"mode\": \"" << r.mode << "\", \"cache_kb\": " << r.cache_kb
        << ", \"threads\": " << r.threads << ", \"queries\": " << r.queries
        << ", \"seconds\": " << r.seconds << ", \"qps\": " << r.qps
        << ", \"hit_rate\": " << r.hit_rate << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  double max_overhead_pct = -1.0;
  double min_cold_fanout = 0.0;
  auto wire_mode = core::TransferCompression::kAuto;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--assert-min-speedup=", 21) == 0) {
      min_speedup = std::stod(argv[i] + 21);
    } else if (std::strncmp(argv[i], "--assert-max-overhead=", 22) == 0) {
      max_overhead_pct = std::stod(argv[i] + 22);
    } else if (std::strncmp(argv[i], "--assert-cold-fanout=", 21) == 0) {
      min_cold_fanout = std::stod(argv[i] + 21);
    } else if (std::strncmp(argv[i], "--transfer-compression=", 23) == 0 ||
               (std::strcmp(argv[i], "--transfer-compression") == 0 &&
                i + 1 < argc)) {
      const char* val = argv[i][22] == '=' ? argv[i] + 23 : argv[++i];
      try {
        wire_mode = core::parse_transfer_compression(val);
      } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
    }
  }

  // One solved matrix serves every series: road 40×40 → n = 1600, a 10 MiB
  // file store, 49 cache tiles of 256².
  const auto g = graph::make_road(40, 40, 11);
  const vidx_t n = g.num_vertices();
  core::ApspOptions opts;
  opts.device = sim::DeviceSpec::v100_scaled();
  opts.algorithm = core::Algorithm::kJohnson;
  opts.transfer_compression = wire_mode;  // solve phase's wire path
  const std::string store_path = "bench_query_dist.bin";
  auto store = core::make_file_store(n, store_path, /*keep_file=*/false);
  const auto solved = core::solve_apsp(g, opts, *store);
  std::cout << "solved n=" << n << " via "
            << core::algorithm_name(solved.used) << ", serving from "
            << store_path << "\n";

  constexpr std::size_t kQueries = 50000;
  Rng rng(17);
  std::vector<service::Query> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries.push_back({service::QueryKind::kPoint,
                       static_cast<vidx_t>(rng.next_below(n)),
                       static_cast<vidx_t>(rng.next_below(n))});
  }

  std::vector<Row> rows;

  // --- baseline: the pre-service read path, one at() per element ---
  {
    Timer t;
    long long sum = 0;
    for (const auto& q : queries) sum += store->at(q.u, q.v);
    const double s = t.seconds();
    rows.push_back({"at_loop", 0, 1, kQueries, s,
                    static_cast<double>(kQueries) / s, 0.0});
    std::cout << "at() loop: " << s * 1e3 << " ms ("
              << static_cast<long long>(rows.back().qps)
              << " qps, checksum " << sum << ")\n";
  }

  double best_warm_qps = 0.0;
  double cold_qps[2] = {0.0, 0.0};  // 16 MiB cache: serial, pooled
  for (const std::size_t cache_kb : {256u, 1024u, 4096u, 16384u}) {
    service::QueryEngineOptions qopt;
    qopt.cache_bytes = cache_kb << 10;
    for (const int threads : {1, 0}) {  // serial, then the whole pool
      qopt.max_threads = threads;
      // Cold is the best of three fresh engines: one cold batch takes
      // milliseconds, short enough for a scheduler hiccup to swing it.
      std::unique_ptr<service::QueryEngine> fastest;
      service::BatchReport cold;
      for (int rep = 0; rep < 3; ++rep) {
        auto fresh = std::make_unique<service::QueryEngine>(*store, qopt);
        auto r = fresh->run_batch(queries);
        if (fastest == nullptr || r.qps > cold.qps) {
          cold = std::move(r);
          fastest = std::move(fresh);
        }
      }
      const service::QueryEngine& engine = *fastest;
      rows.push_back({"cold", cache_kb, threads, kQueries, cold.wall_seconds,
                      cold.qps, cold.cache.hit_rate()});
      if (cache_kb == 16384u) cold_qps[threads == 0 ? 1 : 0] = cold.qps;
      const auto warm = engine.run_batch(queries);
      const auto warm_stats = warm.cache;
      // Batched execution resolves each tile once per bucket, so cache
      // counters move per tile resolution: the warm hit rate is the share
      // of the warm run's resolutions served from cache.
      const auto hits_d =
          static_cast<double>(warm_stats.hits - cold.cache.hits);
      const auto miss_d =
          static_cast<double>(warm_stats.misses - cold.cache.misses);
      const double warm_hit_rate =
          hits_d + miss_d == 0.0 ? 1.0 : hits_d / (hits_d + miss_d);
      rows.push_back({"warm", cache_kb, threads, kQueries, warm.wall_seconds,
                      warm.qps, warm_hit_rate});
      if (threads == 0) best_warm_qps = std::max(best_warm_qps, warm.qps);
      std::cout << "cache " << (cache_kb >> 10 > 0 ? cache_kb >> 10 : cache_kb)
                << (cache_kb >= 1024 ? " MiB" : " KiB") << ", "
                << (threads == 1 ? "serial" : "pooled") << ": cold "
                << static_cast<long long>(cold.qps) << " qps, warm "
                << static_cast<long long>(warm.qps) << " qps ("
                << warm_hit_rate * 100.0 << "% warm tile hits, "
                << warm_stats.evictions << " evictions)\n";
    }
  }

  // --- fault-tolerance rows: same batch, same 16 MiB pooled config ---
  // The verified engine serves a checked view of the same store. Its
  // sidecar tile = 256 matches the default cache tiling, so both engines
  // resolve the identical tile grid and the comparison is purely
  // "checksum the miss path or not". Checksums run only on misses, so two
  // warm engines differ by little more than scheduler noise, and a
  // best-of-few comparison reads that noise. Instead the overhead is the
  // median over kOverheadPairs (plain, verified) pairs — alternating which
  // engine runs first — of the verified/plain per-batch time ratio, each
  // sample repeating the warm batch for at least kSampleSeconds.
  constexpr int kOverheadPairs = 15;
  constexpr double kSampleSeconds = 0.02;
  const core::CheckedStore checked(
      *store, core::compute_store_checksums(*store, /*tile=*/256),
      store_path);
  service::QueryEngineOptions base_opt;
  base_opt.cache_bytes = 16384u << 10;
  const service::QueryEngine plain(*store, base_opt);
  const service::QueryEngine verified(checked, base_opt);
  plain.run_batch(queries);  // cold fills
  verified.run_batch(queries);
  auto warm_batch_seconds = [&](const service::QueryEngine& engine) {
    Timer t;
    int reps = 0;
    do {
      engine.run_batch(queries);
      ++reps;
    } while (t.seconds() < kSampleSeconds);
    return t.seconds() / reps;
  };
  std::vector<double> plain_s, verified_s, ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    if (pair % 2 == 0) {
      plain_s.push_back(warm_batch_seconds(plain));
      verified_s.push_back(warm_batch_seconds(verified));
    } else {
      verified_s.push_back(warm_batch_seconds(verified));
      plain_s.push_back(warm_batch_seconds(plain));
    }
    ratios.push_back(verified_s.back() / plain_s.back());
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double plain_batch_s = median(plain_s);
  const double verified_batch_s = median(verified_s);
  rows.push_back({"ft_plain_warm", 16384, 0, kQueries, plain_batch_s,
                  kQueries / plain_batch_s, 1.0});
  rows.push_back({"ft_verified_warm", 16384, 0, kQueries, verified_batch_s,
                  kQueries / verified_batch_s, 1.0});
  const double overhead_pct = (median(ratios) - 1.0) * 100.0;
  std::cout << "checksum-verified warm path: "
            << static_cast<long long>(kQueries / verified_batch_s)
            << " qps vs " << static_cast<long long>(kQueries / plain_batch_s)
            << " qps plain (" << overhead_pct << "% overhead, median of "
            << kOverheadPairs << " paired ratios)\n";

  {  // degraded: transient read faults healed by the retry ladder (cold —
     // faults only exist on the miss path)
    sim::FaultPlan plan;
    plan.p_store_read = 0.2;
    sim::FaultInjector inject(plan);
    auto opt = base_opt;
    opt.retry.max_retries = 4;
    opt.faults = &inject;
    const service::QueryEngine engine(checked, opt);
    const auto r = engine.run_batch(queries);
    rows.push_back({"ft_faulty_cold", 16384, 0, kQueries, r.wall_seconds,
                    r.qps, r.cache.hit_rate()});
    std::cout << "cold with 20% injected read faults: "
              << static_cast<long long>(r.qps) << " qps ("
              << r.service.retries << " retries, " << r.service.degraded
              << " degraded)\n";
  }
  {  // degraded: nothing readable — every tile quarantines, every query is
     // answered typed; measures the degraded-serve floor, not a hang
    sim::FaultPlan plan;
    plan.p_store_read = 1.0;
    sim::FaultInjector inject(plan);
    auto opt = base_opt;
    opt.retry.max_retries = 1;
    opt.faults = &inject;
    const service::QueryEngine engine(checked, opt);
    const auto r = engine.run_batch(queries);
    rows.push_back({"ft_quarantined_cold", 16384, 0, kQueries,
                    r.wall_seconds, r.qps, 0.0});
    std::cout << "cold with unreadable store: "
              << static_cast<long long>(r.qps)
              << " qps all-degraded (" << r.service.degraded << " typed, "
              << r.cache.quarantined_tiles << " tiles quarantined)\n";
  }
  {  // overload: admission control sheds half the batch up front
    auto opt = base_opt;
    opt.max_queue = kQueries / 2;
    const service::QueryEngine engine(checked, opt);
    engine.run_batch(queries);  // cold fill
    const auto r = engine.run_batch(queries);
    rows.push_back({"ft_shed_warm", 16384, 0, kQueries, r.wall_seconds,
                    r.qps, 1.0});
    std::cout << "warm with max-queue " << kQueries / 2 << ": "
              << static_cast<long long>(r.qps) << " qps ("
              << (r.service.shed / 2) << " shed this run)\n";
  }

  write_json(rows, "BENCH_query.json");

  const double at_qps = rows.front().qps;
  const double speedup = best_warm_qps / at_qps;
  std::cout << "warm-cache batch vs at() loop: " << speedup << "x\n";
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "FAILED: query service speedup below " << min_speedup
              << "x\n";
    return 1;
  }
  const double cold_fanout = cold_qps[0] > 0.0 ? cold_qps[1] / cold_qps[0] : 0.0;
  std::cout << "cold 16 MiB pooled vs serial: " << cold_fanout << "x\n";
  if (min_cold_fanout > 0.0 && cold_fanout < min_cold_fanout) {
    std::cerr << "FAILED: cold-cache fan-out speedup below " << min_cold_fanout
              << "x\n";
    return 1;
  }
  if (max_overhead_pct >= 0.0 && overhead_pct > max_overhead_pct) {
    std::cerr << "FAILED: checksum-verified clean path costs "
              << overhead_pct << "% (budget " << max_overhead_pct << "%)\n";
    return 1;
  }
  return 0;
}
