// apsp_cli — the command-line front end of the gapsp library: solve APSP on
// a simulated V100 or K80, then serve, shard, scrub, update and inspect the
// kept distance store. `apsp_cli --help` lists the commands and exit codes,
// `apsp_cli <command> --help` a command's flags. Both are generated from the
// command table at the end of this file, which also validates every flag.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <tuple>

#include <unistd.h>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/incremental.h"
#include "core/kernel_engine.h"
#include "core/component_solver.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/multi_device.h"
#include "core/scrub.h"
#include "core/shard_store.h"
#include "core/store_integrity.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/matrix_market.h"
#include "partition/boundary.h"
#include "service/path_extract.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "service/shard_worker.h"
#include "util/args.h"
#include "util/file_io.h"

namespace {

using namespace gapsp;

constexpr long long kMaxVertex = std::numeric_limits<vidx_t>::max();

/// A probability flag: default 0, in [0, 1].
RealFlag probability(std::string name, std::string help) {
  return {std::move(name), "P", std::move(help), 0.0, 0.0, 1.0};
}

const Flag kHelp("help", "", "print this help and exit");
const Flag kStorePath("store-path", "P", "distance store", "apsp_dist.bin");

// The graph a solve reads, and a repair or update re-derives (the solve's).
const Flag kInput("input", "FILE", "Matrix Market input");
const Flag kGenerate("generate", "SPEC",
                     "road:RxC | mesh:N:DEG | rmat:SCALE:EDGES | er:N:M[:0 "
                     "= leave disconnected] | dense:N:PCT",
                     "road:40x40");
const IntFlag kSeed("seed", "S", "generator seed", 1, 0, LLONG_MAX);

// The query engine's cache and retry budget.
const IntFlag kCacheMb("cache-mb", "M", "block cache MiB", 64, 0, 1LL << 30);
const IntFlag kBlock("block", "B", "tile side (GAPSPZ1 and .sum keep theirs)",
                     256, 1);
const IntFlag kShards("shards", "S", "cache shards", 8, 1, 1 << 16);
const IntFlag kThreads("threads", "T", "batch threads (0 = pool)", 0, 0);
const IntFlag kRetries("retries", "N", "retries per transient fault", 3, 0);

// Store-read chaos; the solve's device faults share the seed.
const IntFlag kFaultSeed("fault-seed", "S", "fault schedule seed", 1, 0,
                         LLONG_MAX);
const RealFlag kFaultStoreRead = probability("fault-store-read", "read fault");

// The solve (DESIGN.md §8 faults, §9 kernels, §11 stores, §14 transfers).
const ChoiceFlag<core::Algorithm> kAlgorithm(
    "algorithm", "auto runs the paper's selector",
    {{"auto", core::Algorithm::kAuto},
     {"fw", core::Algorithm::kBlockedFloydWarshall},
     {"johnson", core::Algorithm::kJohnson},
     {"boundary", core::Algorithm::kBoundary}});
struct Device {
  sim::DeviceSpec (*spec)(std::size_t memory);
  long long memory_mb;
};
const ChoiceFlag<Device> kDevice("device", "simulated GPU",
                                 {{"v100", {&sim::DeviceSpec::v100_scaled, 8}},
                                  {"k80", {&sim::DeviceSpec::k80_scaled, 6}}});
const IntFlag kMemoryMb("memory-mb", "M", "device MiB (8 on v100, 6 on k80)",
                        std::nullopt, 1, 1 << 20);
const IntFlag kComponents("components", "K", "boundary parts (0 = sqrt(n)/4)",
                          0, 0);
const IntFlag kDevices("devices", "N", "GPUs (> 1: multi-GPU)", 1, 1, 1024);
const Flag kNoBatching("no-batching", "", "no boundary transfer batching");
const Flag kNoOverlap("no-overlap", "", "no compute/transfer overlap");
const Flag kNoDp("no-dp", "", "no Johnson dynamic parallelism");
const Flag kTransferCompression("transfer-compression", "auto|on|off",
                                "z1 over the host link", "auto");
const RealFlag kSparseThreshold("sparse-threshold", "P",
                                "selector sparse band, %", 0.8, 0, 100);
const RealFlag kDenseThreshold("dense-threshold", "P", "selector dense band, %",
                               4, 0, 100);
const ChoiceFlag<core::SsspKernel> kSsspKernel(
    "sssp-kernel", "Johnson's SSSP kernel",
    {{"near-far", core::SsspKernel::kNearFar},
     {"delta-stepping", core::SsspKernel::kDeltaStepping},
     {"bellman-ford", core::SsspKernel::kBellmanFord}});
const ChoiceFlag<part::Method> kPartitioner(
    "partitioner", "rb = recursive bisection",
    {{"kway", part::Method::kMultilevelKway},
     {"rb", part::Method::kRecursiveBisection}});
const Flag kKernelVariant("kernel-variant", "auto|naive|simd",
                          "min-plus microkernel", "auto");
const IntFlag kKernelThreads("kernel-threads", "N",
                             "kernel+codec threads (0 = pool)", 0, 0);
const ChoiceFlag<bool> kStore("store", "distance store",
                              {{"ram", false}, {"file", true}});
const Flag kKeepStore("keep-store", "", "keep the file store, compacted");
const Flag kNoCompressStore("no-compress-store", "", "keep it raw, with .sum");
const RealFlag kStoreRatio("store-ratio", "R", "expected store compression",
                           1, 1);
const Flag kVerify("verify", "", "spot-check 8 rows against Dijkstra");
const Flag kPerComponent("per-component", "", "solve each component apart");
const Flag kQuery("query", "U,V", "print dist(U,V) (\"U,V;U2,V2\")");
const Flag kPath("path", "U,V", "print one shortest path U -> V");
const Flag kTrace("trace", "FILE", "write a chrome://tracing timeline");
const Flag kStats("stats", "", "print graph statistics and exit");
const RealFlag kFaultH2d = probability("fault-h2d", "H2D transfer fault");
const RealFlag kFaultD2h = probability("fault-d2h", "D2H transfer fault");
const RealFlag kFaultKernel = probability("fault-kernel", "kernel fault");
const RealFlag kFaultAlloc = probability("fault-alloc", "allocation fault");
const RealFlag kFaultDecode = probability("fault-decode", "z1 decode fault");
const Flag kKillDevice("kill-device", "D:N", "device D dies at op N >= 1");
const Flag kCheckpoint("checkpoint", "FILE", "round checkpoint (file store)");
const Flag kResume("resume", "", "resume from the checkpoint");

// Serving (DESIGN.md §10 engine, §13 fault ladder, §15 shards).
const Flag kPoint("point", "U,V", "point queries (\"U,V;U2,V2\")");
const Flag kRow("row", "U", "row queries (\"U;U2\")");
const Flag kBatch("batch", "FILE", "\"U V\" | \"U,V\" | \"row U\" lines");
const IntFlag kRepeat("repeat", "N", "batch runs (2+: warm cache)", 1, 1);
const IntFlag kMaxQueue("max-queue", "N", "admission bound (0 = none)", 0, 0);
const ChoiceFlag<bool> kRepair("repair", "re-derive damaged tiles by SSSP",
                               {{"off", false}, {"recompute", true}});
enum class Route { kNone, kLocal, kProcess };
const ChoiceFlag<Route> kRoute("route", "serve all shards, in process or not",
                               {{"none", Route::kNone},
                                {"local", Route::kLocal},
                                {"process", Route::kProcess}});
const IntFlag kShard("shard", "K", "serve one shard slice", std::nullopt, 0);
const Flag kNoVerifyShard("no-verify-shard", "", "skip the shard checksum");
const IntFlag kWorkerRetries("worker-retries", "N", "respawns per dead worker",
                             1, 0);
const IntFlag kWorkerTimeoutMs("worker-timeout-ms", "T",
                               "reply wait (0 = forever)", 30000, 0);
const Flag kKillWorker("kill-worker", "K:N", "worker K exits at batch N >= 1");
const IntFlag kExitAfter("exit-after", "N", "exit after batch N (0 = never)",
                         0, 0);

// Store maintenance (DESIGN.md §13 scrub, §15 shards, §16 updates).
const IntFlag kShardCount = kShards.with(2, "row-range shards");
const Flag kWriteSums("write-sums", "", "write or refresh <P>.sum");
const Flag kOut("out", "FILE", "compacted store (default: in place)");
const Flag kUpdates("updates", "FILE", "\"u v w\" lines; w = inf|x|-1 deletes");
const RealFlag kUpdateThreshold("update-threshold", "F",
                                "re-solve past F*n damaged rows",
                                core::IncrementalOptions{}.damage_threshold, 0);
const Flag kUpdateCheckpoint =
    kCheckpoint.with_help("delta checkpoint (default <P>.updck)");
const IntFlag kCheckpointEvery(
    "checkpoint-every", "N", "tiles per checkpoint",
    core::IncrementalOptions{}.checkpoint_every_tiles, 1);
const Flag kUpdateResume = kResume.with_help("continue a killed update");
const Flag kSaveGraph("save-graph", "FILE", "write the updated graph");

const std::string kServe = "serve";  // the command the process router execs

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  for (std::string item; std::getline(ss, item, sep);) out.push_back(item);
  return out;
}

/// An integer in [0, hi] from one list item; spaces around it are allowed,
/// as in "0, 1; 2,3".
long long item(std::string s, const std::string& what, long long hi) {
  s.erase(0, s.find_first_not_of(" \t"));
  s.erase(s.find_last_not_of(" \t") + 1);
  return util::parse_int(s, what, 0, hi);
}

/// "A<sep>B" as two integers in [0, hi]; `shape` names the flag in errors.
std::pair<long long, long long> int_pair(const std::string& s, char sep,
                                         const std::string& shape,
                                         long long hi) {
  const auto at = s.find(sep);
  GAPSP_CHECK(at != std::string::npos, "expected " + shape + " but got " + s);
  return {item(s.substr(0, at), shape, hi), item(s.substr(at + 1), shape, hi)};
}

vidx_t vertex(const std::string& s, const std::string& what) {
  return static_cast<vidx_t>(item(s, what, kMaxVertex));
}

std::pair<vidx_t, vidx_t> vertex_pair(const std::string& s,
                                      const std::string& what,
                                      long long hi = kMaxVertex) {
  const auto [u, v] = int_pair(s, ',', what + " U,V", hi);
  return {static_cast<vidx_t>(u), static_cast<vidx_t>(v)};
}

graph::CsrGraph make_graph(const Args& args) {
  if (const auto input = kInput.get(args)) {
    return graph::read_matrix_market_file(*input);
  }
  const std::string spec = kGenerate(args);
  const auto seed = static_cast<std::uint64_t>(kSeed(args));
  auto f = split(spec, ':');  // kind:A:B[:C], road's RxC being two fields
  if (f.size() == 2 && f[0] == "road" && f[1].find('x') != std::string::npos) {
    const auto x = f[1].find('x');
    f = {f[0], f[1].substr(0, x), f[1].substr(x + 1)};
  }
  const std::string kind = f.empty() ? "" : f[0];
  GAPSP_CHECK(f.size() == 3 || (kind == "er" && f.size() == 4),
              "bad " + kGenerate.flag() + " spec: " + spec);
  const std::string what = kGenerate.flag() + " " + spec;
  const auto field = [&](std::size_t i, long long hi) {
    return util::parse_int(f[i], what, 0, hi);
  };
  const auto n = [&] { return static_cast<vidx_t>(field(1, kMaxVertex)); };
  if (kind == "road") {
    return graph::make_road(n(), static_cast<vidx_t>(field(2, kMaxVertex)),
                            seed);
  }
  if (kind == "mesh") {
    return graph::make_mesh(n(), static_cast<int>(field(2, INT_MAX)), seed);
  }
  if (kind == "rmat") {
    return graph::make_rmat(static_cast<int>(field(1, INT_MAX)),
                            field(2, LLONG_MAX), seed);
  }
  if (kind == "er") {
    // er:N:M:0 skips the connecting spanning walk, so a sub-critical M
    // leaves many components (a kInf-dominated store).
    return graph::make_erdos_renyi(n(), field(2, LLONG_MAX), seed,
                                   f.size() == 3 || field(3, 1) != 0);
  }
  if (kind == "dense") {
    return graph::make_dense(n(), util::parse_double(f[2], what, 0.0, 100.0),
                             seed);
  }
  throw Error("unknown generator kind: " + kind);
}

/// The SSSP repair source of a recompute repair: the solve's graph, made
/// again from its source (every solver keeps original vertex order, so its
/// rows are the store's). The shared_ptr keeps the graph alive inside the
/// fn.
core::TileRepairFn make_repair_source(const Args& args) {
  if (!kRepair(args)) return {};
  GAPSP_CHECK(kGenerate.has(args) || kInput.has(args),
              kRepair.flag() + " recompute re-derives tiles from the input "
              "graph: pass the solve's " + kGenerate.flag() + "/" +
                  kInput.flag() + " (and " + kSeed.flag() + ")");
  auto g = std::make_shared<graph::CsrGraph>(make_graph(args));
  core::TileRepairFn fn = core::make_sssp_repair(*g);
  return [g, fn](vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols) {
    return fn(row0, col0, rows, cols);
  };
}

sim::FaultPlan read_chaos(const Args& args) {
  sim::FaultPlan chaos;
  chaos.seed = static_cast<std::uint64_t>(kFaultSeed(args));
  chaos.p_store_read = kFaultStoreRead(args);
  return chaos;
}

service::QueryEngineOptions engine_options(const Args& args) {
  service::QueryEngineOptions qopt;
  qopt.cache_bytes = static_cast<std::size_t>(kCacheMb(args)) << 20;
  qopt.block_size = static_cast<vidx_t>(kBlock(args));
  qopt.cache_shards = static_cast<int>(kShards(args));
  qopt.max_threads = static_cast<int>(kThreads(args));
  qopt.retry.max_retries = static_cast<int>(kRetries(args));
  qopt.max_queue = static_cast<std::size_t>(kMaxQueue(args));
  return qopt;
}

struct ParsedQueries {
  std::vector<service::Query> queries;
  std::size_t inline_queries = 0;  // point and row flags: echo each result
  std::vector<std::string> source;  // each query's flag or batch line
};

ParsedQueries parse_queries(const Args& args) {
  ParsedQueries out;
  auto& queries = out.queries;
  for (const auto& item : split(kPoint(args), ';')) {
    const auto [u, v] = vertex_pair(item, kPoint.flag());
    queries.push_back({service::QueryKind::kPoint, u, v});
    out.source.push_back(kPoint.flag());
  }
  for (const auto& item : split(kRow(args), ';')) {
    queries.push_back({service::QueryKind::kRow, vertex(item, kRow.flag()), 0});
    out.source.push_back(kRow.flag());
  }
  out.inline_queries = queries.size();
  if (const auto batch = kBatch.get(args)) {
    std::ifstream in(*batch);
    GAPSP_CHECK(in.good(), "cannot open batch file " + *batch);
    std::string line;
    for (long long lineno = 1; std::getline(in, line); ++lineno) {
      std::istringstream ls(line);
      std::vector<std::string> tok;
      for (std::string t; ls >> t;) tok.push_back(t);
      if (tok.empty() || tok[0][0] == '#') continue;
      const std::string what =
          kBatch.flag() + " line " + std::to_string(lineno);
      out.source.push_back(what);
      if (tok[0] == "row" && tok.size() > 1) {
        queries.push_back({service::QueryKind::kRow, vertex(tok[1], what), 0});
      } else if (tok[0].find(',') != std::string::npos) {
        const auto [u, v] = vertex_pair(tok[0], what);
        queries.push_back({service::QueryKind::kPoint, u, v});
      } else {
        GAPSP_CHECK(tok.size() > 1, "bad batch line: " + line);
        queries.push_back({service::QueryKind::kPoint, vertex(tok[0], what),
                           vertex(tok[1], what)});
      }
    }
  }
  GAPSP_CHECK(!queries.empty(), "nothing to serve: give " + kPoint.flag() +
                                    ", " + kRow.flag() + ", or " +
                                    kBatch.flag());
  return out;
}

/// A query vertex outside the served matrix is a usage error naming its
/// flag or batch line (exit 1), checked before anything is served.
void check_vertices(const ParsedQueries& pq, vidx_t n) {
  for (std::size_t i = 0; i < pq.queries.size(); ++i) {
    const service::Query& q = pq.queries[i];
    const vidx_t far =
        q.kind == service::QueryKind::kPoint ? std::max(q.u, q.v) : q.u;
    GAPSP_CHECK(far < n, pq.source[i] + ": vertex " + std::to_string(far) +
                             " is outside the store (n=" + std::to_string(n) +
                             ")");
  }
}

std::string us(double seconds) {
  std::ostringstream os;
  os << seconds * 1e6 << "us";
  return os.str();
}

std::string dist_text(dist_t d) {
  return d >= kInf ? "unreachable" : std::to_string(d);
}

void print_inline_results(const service::BatchReport& report,
                          std::size_t inline_queries, vidx_t n) {
  for (std::size_t i = 0; i < inline_queries; ++i) {
    const auto& r = report.results[i];
    const bool point = r.query.kind == service::QueryKind::kPoint;
    std::cout << (point ? "dist(" + std::to_string(r.query.u) + ", " +
                              std::to_string(r.query.v) + ")"
                        : "row " + std::to_string(r.query.u));
    if (r.status != service::QueryStatus::kOk) {
      std::cout << " = <" << service::query_status_name(r.status) << ": "
                << r.error << ">\n";
    } else if (point) {
      std::cout << " = " << dist_text(r.dist) << "\n";
    } else {
      vidx_t reachable = 0;
      dist_t far = 0;
      for (dist_t d : r.row) {
        if (d < kInf) {
          ++reachable;
          far = std::max(far, d);
        }
      }
      std::cout << ": " << reachable << "/" << n << " reachable, eccentricity "
                << far << "\n";
    }
  }
}

void print_batch_summary(const service::BatchReport& report) {
  const auto& cs = report.cache;
  std::cout << "batch: " << report.results.size() << " queries in "
            << report.wall_seconds * 1e3 << " ms ("
            << static_cast<long long>(report.qps) << " qps)\n"
            << "latency: mean " << us(report.latency.mean_s) << ", p50 "
            << us(report.latency.p50_s) << ", p95 " << us(report.latency.p95_s)
            << ", max " << us(report.latency.max_s) << "\n"
            << "cache: " << cs.hits << " hits, " << cs.misses << " misses ("
            << cs.hit_rate() * 100.0 << "% hit rate), " << cs.evictions
            << " evictions, " << cs.negative_loads
            << " all-kInf tiles at zero cost, " << (cs.bytes_cached >> 10)
            << " KiB of " << (cs.capacity_bytes >> 10) << " KiB used\n";
  const auto& sv = report.service;
  std::cout << "service: " << sv.served << " served, " << sv.degraded
            << " degraded, " << sv.shed << " shed, " << sv.repaired
            << " repaired; " << sv.retries << " retried, "
            << sv.transient_failures << " transient-failed, "
            << sv.corrupt_tiles << " corrupt, " << cs.quarantined_tiles
            << " quarantined\n";
}

/// Runs the batch as often as the repeat flag says on an engine or a router
/// (cache counters accumulate, so 2+ shows the warm steady state) and
/// prints the last run. Degradation is visible but not fatal: every query
/// got a typed answer.
template <typename Server>
int serve_batch(Server& server, const Args& args, const ParsedQueries& pq,
                vidx_t n) {
  auto report = server.run_batch(pq.queries);
  for (long long rep = 1; rep < kRepeat(args); ++rep) {
    report = server.run_batch(pq.queries);
  }
  print_inline_results(report, pq.inline_queries, n);
  print_batch_summary(report);
  return 0;
}

void print_compaction(const core::StoreCompactionStats& cs) {
  std::cout << "store compressed: " << (cs.raw_bytes >> 10) << " KiB -> "
            << (cs.compressed_bytes >> 10) << " KiB (" << cs.ratio() << "x, "
            << cs.inf_tiles << "/" << cs.tiles << " all-kInf tiles) in "
            << cs.seconds * 1e3 << " ms\n";
}

/// One line per selector candidate, from the report solve_apsp filled:
/// whether the density band kept it, its feasibility and modeled cost, and
/// the pick.
void print_selector_report(const core::SelectorReport& report) {
  for (const auto& e : report.estimates) {
    std::cout << "\n  candidate " << core::algorithm_name(e.algo) << ": ";
    if (!e.considered) {
      std::cout << "outside the density band";
      continue;
    }
    std::cout << "in the density band, ";
    if (!e.cost.feasible) {
      std::cout << "infeasible";
    } else {
      std::cout << "feasible, compute " << e.cost.compute_s * 1e3
                << " ms, transfer " << e.cost.transfer_s * 1e3
                << " ms, estimate " << e.cost.total() * 1e3 << " ms";
    }
    if (e.algo == report.chosen) std::cout << " (picked)";
  }
}

core::ShardManifest require_manifest(const std::string& path) {
  core::ShardManifest manifest;
  if (!core::load_shard_manifest(core::shard_manifest_path(path), manifest)) {
    throw Error("no shard manifest next to " + path +
                " — run `apsp_cli shard " + kStorePath.flag() + " " + path +
                " " + kShardCount.flag() + " N` first");
  }
  return manifest;
}

/// Serves one shard slice directly (no router).
int run_query_shard_slice(const Args& args, const std::string& path,
                          const ParsedQueries& pq) {
  const auto manifest = require_manifest(path);
  const int k = static_cast<int>(kShard(args));
  GAPSP_CHECK(k < manifest.num_shards(),
              kShard.flag() + " " + std::to_string(k) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  check_vertices(pq, manifest.n);
  const auto& range = manifest.shards[static_cast<std::size_t>(k)];
  const auto slice = core::open_shard_slice(path, manifest, k);
  const service::QueryEngine engine(*slice, engine_options(args));

  std::cout << "store: " << path << " shard " << k << "/"
            << manifest.num_shards() << " (rows [" << range.row_begin << ", "
            << range.row_end << ") of n=" << manifest.n << ", "
            << (manifest.compressed ? "GAPSPZ1" : "raw") << " slice, tile "
            << manifest.tile << ")\n";
  for (std::size_t i = 0; i < pq.queries.size(); ++i) {
    // A query this slice cannot own is a flag contradiction (exit 1), not
    // an "unreachable" answer.
    const vidx_t u = pq.queries[i].u;
    GAPSP_CHECK(
        u >= range.row_begin && u < range.row_end,
        pq.source[i] + ": row " + std::to_string(u) + " routes outside " +
            kShard.flag() + " " + std::to_string(k) + " rows [" +
            std::to_string(range.row_begin) + ", " +
            std::to_string(range.row_end) + "); drop " + kShard.flag() +
            " or use " + kRoute.flag() + " local/process");
  }
  return serve_batch(engine, args, pq, manifest.n);
}

/// Serves through a ShardRouter over every shard, either in-process engines
/// or one `serve` worker process per shard.
int run_query_routed(const Args& args, const std::string& path, Route route,
                     const ParsedQueries& pq) {
  const auto manifest = require_manifest(path);
  check_vertices(pq, manifest.n);
  const int shards = manifest.num_shards();
  // One logical cache budget, split across the shard engines like the
  // single-engine path would spend it (floor 1 MiB per shard).
  const auto cache_mb = std::max<long long>(1, kCacheMb(args));
  const auto per_shard_mb = std::max<long long>(1, cache_mb / shards);
  service::ShardRouterOptions ropt;
  ropt.max_queue = static_cast<std::size_t>(kMaxQueue(args));
  service::ProcessBackendOptions popt;
  popt.retries = static_cast<int>(kWorkerRetries(args));
  popt.timeout_ms = static_cast<int>(kWorkerTimeoutMs(args));

  long long kill_shard = -1;
  long long kill_at = 0;
  if (const auto kill = kKillWorker.get(args)) {
    std::tie(kill_shard, kill_at) =
        int_pair(*kill, ':', kKillWorker.flag() + " SHARD:NTHBATCH", INT_MAX);
    GAPSP_CHECK(kill_shard < shards,
                kKillWorker.flag() + " shard " + std::to_string(kill_shard) +
                    " out of range [0, " + std::to_string(shards) + ")");
    GAPSP_CHECK(kill_at >= 1, kKillWorker.flag() + " batch index must be >= 1");
  }

  std::vector<std::unique_ptr<service::ShardBackend>> backends;
  if (route == Route::kLocal) {
    auto qopt = engine_options(args);
    qopt.cache_bytes = static_cast<std::size_t>(per_shard_mb) << 20;
    qopt.max_queue = 0;  // the router sheds; engines see bounded sub-batches
    backends = service::make_local_backends(path, manifest, qopt);
  } else {
    for (int k = 0; k < shards; ++k) {
      std::vector<std::string> argv = {
          "/proc/self/exe", kServe, kStorePath.arg(path), kShard.arg(k),
          kCacheMb.arg(per_shard_mb), kShards.arg(kShards(args)),
          kRetries.arg(kRetries(args))};
      if (kNoVerifyShard.has(args)) argv.push_back(kNoVerifyShard.flag());
      if (k == kill_shard) argv.push_back(kExitAfter.arg(kill_at));
      backends.push_back(service::make_process_backend(
          service::make_cli_worker_spawner(std::move(argv)), k, manifest,
          popt));
    }
  }
  service::ShardRouter router(manifest, std::move(backends), ropt);

  std::cout << "store: " << path << " (n=" << manifest.n << ", " << shards
            << " shards, tile " << manifest.tile << ", "
            << (manifest.compressed ? "GAPSPZ1" : "raw") << " slices)\n"
            << "route: " << kRoute.label(route) << ", cache " << cache_mb
            << " MiB split as " << per_shard_mb << " MiB/shard";
  if (route == Route::kProcess) {
    std::cout << ", worker retries " << popt.retries << ", timeout "
              << popt.timeout_ms << " ms";
  }
  if (ropt.max_queue > 0) std::cout << ", max-queue " << ropt.max_queue;
  if (kill_shard >= 0) {
    std::cout << ", killing worker " << kill_shard << " at batch " << kill_at;
  }
  std::cout << "\n";
  return serve_batch(router, args, pq, manifest.n);
}

int run_query(const Args& args) {
  const std::string path = kStorePath(args);
  // Serving-topology contradictions are typed usage errors (exit 1), caught
  // before any store is opened.
  const Route route = kRoute(args);
  const bool routed = route != Route::kNone;
  GAPSP_CHECK(!(kShard.has(args) && routed),
              kShard.flag() + " serves a single slice; it contradicts " +
                  kRoute.flag() + " " + kRoute.label(route) +
                  " (the router already reaches every shard)");
  GAPSP_CHECK(!kKillWorker.has(args) || route == Route::kProcess,
              kKillWorker.flag() + " kills a worker process; it needs " +
                  kRoute.flag() + " " + kRoute.label(Route::kProcess));
  GAPSP_CHECK(!(routed && kRepair(args)),
              kRepair.flag() + " recompute cannot cross the worker boundary; "
              "serve unrouted or repair offline with `apsp_cli scrub`");
  GAPSP_CHECK(!(routed && kFaultStoreRead(args) > 0.0),
              kFaultStoreRead.flag() + " injects into a single engine; chaos "
              "for routed serving is " + kKillWorker.flag());
  GAPSP_CHECK(!kNoVerifyShard.has(args) || routed || kShard.has(args),
              kNoVerifyShard.flag() + " only applies to shard serving (" +
                  kShard.flag() + " or " + kRoute.flag() + ")");
  const ParsedQueries pq = parse_queries(args);
  if (routed) return run_query_routed(args, path, route, pq);
  if (kShard.has(args)) return run_query_shard_slice(args, path, pq);

  core::StoreFormat format = core::StoreFormat::kRaw;
  const auto store = core::open_store(path, &format);
  check_vertices(pq, store->n());
  auto qopt = engine_options(args);
  qopt.repair = make_repair_source(args);
  const sim::FaultPlan chaos = read_chaos(args);
  sim::FaultInjector chaos_injector(chaos);
  if (chaos.p_store_read > 0.0) qopt.faults = &chaos_injector;

  const bool compressed = format == core::StoreFormat::kCompressed;
  const service::QueryEngine engine(*store, qopt);
  std::cout << "store: " << path << " (n=" << store->n() << ", "
            << (static_cast<std::uint64_t>(store->n()) * store->n() *
                sizeof(dist_t) >> 10)
            << " KiB";
  if (compressed) {
    const auto info = core::compressed_store_info(path);
    std::cout << " raw; compressed to " << (info.file_bytes >> 10) << " KiB, "
              << static_cast<double>(info.raw_bytes) /
                     static_cast<double>(info.file_bytes)
              << "x, " << info.inf_tiles << "/" << info.tiles
              << " all-kInf tiles";
  }
  std::cout << ")\ncache: " << (qopt.cache_bytes >> 20) << " MiB in "
            << qopt.cache_shards << " shards, "
            << (store->tile_size() > 0 ? store->tile_size() : qopt.block_size)
            << "-wide blocks\n"
            << "integrity: "
            << (compressed ? "GAPSPZ1 frame checksums"
                : format == core::StoreFormat::kRawChecked
                    ? "GAPSPSM1 sidecar verification"
                    : "off (no sidecar)")
            << ", " << qopt.retry.max_retries << " retries"
            << (qopt.repair ? ", repair=recompute" : "");
  if (qopt.max_queue > 0) std::cout << ", max-queue " << qopt.max_queue;
  if (chaos.p_store_read > 0.0) {
    std::cout << ", injecting store-read faults p=" << chaos.p_store_read;
  }
  std::cout << "\n";
  return serve_batch(engine, args, pq, store->n());
}

int run_shard(const Args& args) {
  const std::string path = kStorePath(args);
  core::ShardingStats stats;
  const auto m = core::shard_store_file(
      path, static_cast<int>(kShardCount(args)),
      static_cast<vidx_t>(kBlock(args)), &stats);
  std::cout << "sharded: " << path << " -> " << m.num_shards() << " shards ("
            << (m.compressed ? "GAPSPZ1" : "raw") << ", n=" << m.n
            << ", tile " << m.tile << ", " << (stats.bytes_written >> 10)
            << " KiB) in " << stats.seconds * 1e3 << " ms\n";
  for (int k = 0; k < m.num_shards(); ++k) {
    const auto& r = m.shards[static_cast<std::size_t>(k)];
    std::cout << "  shard " << k << ": rows [" << r.row_begin << ", "
              << r.row_end << "), " << (r.bytes >> 10) << " KiB -> "
              << core::shard_file_path(path, k) << "\n";
  }
  std::cout << "manifest: " << core::shard_manifest_path(path) << "\n"
            << "serve it with: apsp_cli query " << kStorePath.flag() << " "
            << path << " " << kRoute.flag() << " process ...\n";
  return 0;
}

/// One shard worker speaking the wire protocol on stdin/stdout (the router
/// spawns it; logs go to stderr).
int run_serve(const Args& args) {
  GAPSP_CHECK(kShard.has(args),
              kServe + " needs " + kShard.flag() +
                  " K — it serves exactly one shard slice behind the wire "
                  "protocol (the router spawns one per shard)");
  service::ShardWorkerOptions wopt;
  wopt.engine = engine_options(args);
  wopt.engine.max_queue = 0;  // the router is the single admission point
  wopt.verify_shard = !kNoVerifyShard.has(args);
  wopt.exit_after = static_cast<int>(kExitAfter(args));
  return service::run_shard_worker(kStorePath(args),
                                   static_cast<int>(kShard(args)), wopt,
                                   STDIN_FILENO, STDOUT_FILENO);
}

int run_scrub(const Args& args) {
  const std::string path = kStorePath(args);
  core::ScrubOptions sopt;
  sopt.retry.max_retries = static_cast<int>(kRetries(args));
  sopt.write_sums = kWriteSums.has(args);
  sopt.tile = static_cast<vidx_t>(kBlock(args));
  sopt.repair_fn = make_repair_source(args);
  sopt.repair = static_cast<bool>(sopt.repair_fn);
  const sim::FaultPlan chaos = read_chaos(args);
  sim::FaultInjector chaos_injector(chaos);
  if (chaos.p_store_read > 0.0) sopt.faults = &chaos_injector;

  const auto report = core::scrub_store(path, sopt);
  std::cout << "scrub: " << path << " ("
            << (report.compressed ? "GAPSPZ1" : "raw") << ", n=" << report.n
            << ", tile=" << report.tile << ", " << report.tiles
            << " tiles)\n";
  if (!report.compressed) {
    std::cout << "sidecar: "
              << (report.sums_written   ? "written"
                  : report.sums_present ? "present"
                                        : "absent (checks limited to "
                                          "readability; " +
                                              kWriteSums.flag() + " to add)")
              << "\n";
  }
  std::cout << "damage: " << report.corrupt << " corrupt, " << report.repaired
            << " repaired, " << report.unrepaired << " unrepaired\n";
  for (const auto& t : report.damaged) {
    std::cout << "  tile (" << t.row_block << "," << t.col_block << ") "
              << (t.repaired ? "[repaired] " : "") << t.reason << "\n";
  }
  if (report.ok()) {
    std::cout << "result: " << (report.clean() ? "CLEAN" : "REPAIRED") << "\n";
    return 0;
  }
  std::cout << "result: DAMAGED (serve at your own risk, or repair with "
            << kRepair.flag() << " recompute " << kGenerate.flag() << "/"
            << kInput.flag() << " ...)\n";
  return 3;
}

int run_compact(const Args& args) {
  const std::string in = kStorePath(args);
  const std::string out = kOut.get(args).value_or(in);
  const auto cs =
      core::compact_store(in, out, static_cast<vidx_t>(kBlock(args)));
  std::cout << "compacted: " << in << " -> " << out << "\n";
  print_compaction(cs);
  std::cout << "serve it with: apsp_cli query " << kStorePath.flag() << " "
            << out << "\n";
  return 0;
}

/// Bytes of the file at `path`, or 0 when it does not exist.
std::uint64_t file_size_bytes(const std::string& path) {
  const auto f = util::File::open_if_present(path);
  return f ? f->size() : 0;
}

/// Delta-repairs a kept store after a batch of edge-weight updates instead
/// of re-solving (DESIGN.md §16). The repair writes into a sibling tmp copy
/// and atomically replaces the store only when complete, so a kill leaves
/// the pristine matrix plus a GAPSPCK1 delta sidecar that a resume continues
/// bit-identically. The copy reads through core::open_store, so a .sum
/// checks every tile on its way in.
int run_update(const Args& args) {
  const std::string path = kStorePath(args);
  const auto upath = kUpdates.get(args);
  const std::string source =
      kGenerate.flag() + "/" + kInput.flag() + "/" + kSeed.flag();
  GAPSP_CHECK(upath.has_value(),
              "update needs " + kUpdates.flag() +
                  " FILE (one `u v w` arc per line; w = inf/x/-1 deletes) "
                  "plus the solve's " + source);
  const graph::CsrGraph g = make_graph(args);
  const auto updates = core::read_edge_updates(*upath);

  core::StoreFormat format = core::StoreFormat::kRaw;
  auto pristine = core::open_store(path, &format);
  const vidx_t n = pristine->n();
  GAPSP_CHECK(n == g.num_vertices(),
              "store " + path + " holds n=" + std::to_string(n) +
                  " but the graph has n=" + std::to_string(g.num_vertices()) +
                  " — pass the exact " + source + " the solve used");
  const bool compressed = format == core::StoreFormat::kCompressed;
  // The old sidecar's grid, which the landing's fresh .sum keeps.
  const vidx_t sum_tile =
      format == core::StoreFormat::kRawChecked ? pristine->tile_size() : 0;

  core::IncrementalOptions opt;
  opt.damage_threshold = kUpdateThreshold(args);
  opt.tile = compressed ? pristine->tile_size()
                        : static_cast<vidx_t>(kBlock(args));
  opt.checkpoint_path = kUpdateCheckpoint.get(args).value_or(path + ".updck");
  opt.resume = kUpdateResume.has(args);
  opt.checkpoint_every_tiles = kCheckpointEvery(args);

  // The repair lands in a raw sibling copy; the pristine store — which a
  // resumed run must re-read byte-identically — is replaced only by the
  // final rename/compaction.
  const std::string tmp = path + ".upd.tmp";
  const std::uint64_t raw_bytes = static_cast<std::uint64_t>(n) *
                                  static_cast<std::uint64_t>(n) *
                                  sizeof(dist_t);
  bool fresh_copy = true;
  if (opt.resume) {
    core::Checkpoint ck;
    if (core::read_checkpoint(opt.checkpoint_path, &ck) &&
        ck.fingerprint == core::incremental_fingerprint(
                              g, updates, opt.tile, opt.damage_threshold) &&
        file_size_bytes(tmp) == raw_bytes) {
      // The tmp copy already holds every tile the dead run emitted;
      // re-copying the pristine matrix would silently undo them.
      fresh_copy = false;
    }
  }
  auto target = core::make_file_store(n, tmp, /*keep_file=*/true);
  if (fresh_copy) {
    // Whole strips of the store's tile: reading one checks every tile in
    // it, so a damaged tile leaves the store as it was.
    const vidx_t strip = std::min<vidx_t>(
        n, pristine->tile_size() > 0 ? pristine->tile_size() : opt.tile);
    std::vector<dist_t> buf(static_cast<std::size_t>(strip) *
                            static_cast<std::size_t>(n));
    try {
      for (vidx_t r0 = 0; r0 < n; r0 += strip) {
        const vidx_t rows = std::min(strip, n - r0);
        pristine->read_block(r0, 0, rows, n, buf.data(),
                             static_cast<std::size_t>(n));
        target->write_block(r0, 0, rows, n, buf.data(),
                            static_cast<std::size_t>(n));
      }
    } catch (...) {
      target.reset();
      std::remove(tmp.c_str());
      throw;
    }
  } else {
    std::cout << "resume: continuing into " << tmp << " from "
              << opt.checkpoint_path << "\n";
  }
  // Checkpoint durability boundary: each run is pwritten to the tmp copy
  // before any checkpoint claims it, which already survives SIGKILL.
  // flush() is a no-op today; it is where the fsync for power loss goes.
  opt.sync_before_checkpoint = [&target] { target->flush(); };
  // The copy was the check: the engine reads a plain view, which does not
  // hash its whole-tile band reads a second time.
  if (sum_tile > 0) pristine = core::open_file_store(path);

  core::IncrementalEngine engine(g, opt);
  // One write_block per run: a full-width run is one pwrite.
  const core::UpdateOutcome out = engine.apply(
      *pristine, updates, [&](const core::IncrementalEngine::TileRun& run) {
        target->write_block(run.row0, run.col0, run.rows, run.cols, run.data,
                            run.ld);
      });

  // Swap the repaired matrix in; land_store fixes the sidecars.
  target.reset();
  pristine.reset();
  if (compressed) {
    core::compact_store(tmp, path, opt.tile);  // then land_store
    std::remove(tmp.c_str());
  } else {
    util::commit_rename(tmp, path);
    core::land_store(path, sum_tile);
  }

  std::cout << "update: " << path << " (n=" << n << ", "
            << (compressed ? "GAPSPZ1" : "raw") << ", tile " << opt.tile
            << ")\n"
            << "batch: " << updates.size() << " updates -> " << out.decreases
            << " decreases, " << out.increases << " increases, " << out.noops
            << " noops\n";
  if (out.full_solve) {
    std::cout << "mode: full re-solve (" << out.damaged_rows << "/" << n
              << " rows damaged > threshold " << opt.damage_threshold
              << ")\n";
  } else {
    std::cout << "mode: delta repair (" << out.damaged_rows
              << " damaged rows, " << out.sources << " seed sources, AR "
              << out.affected_rows << " x AC " << out.affected_cols << ")\n";
  }
  std::cout << "tiles: " << out.tiles_touched << " changed of "
            << out.tiles_candidate << " candidates / " << out.tiles_total
            << " total";
  if (out.tiles_resumed > 0) {
    std::cout << " (" << out.tiles_resumed << " resumed from checkpoint)";
  }
  std::cout << "\ntime: " << out.seconds * 1e3 << " ms (probe "
            << out.probe_seconds * 1e3 << ", sssp " << out.sssp_seconds * 1e3
            << ", panels " << out.panel_seconds * 1e3 << ", tiles "
            << out.tile_seconds * 1e3 << ")\n"
            << "modeled: repair " << out.modeled_repair_seconds
            << " s vs full re-solve " << out.modeled_full_seconds << " s ("
            << out.modeled_full_seconds /
                   std::max(out.modeled_repair_seconds, 1e-12)
            << "x)\n";
  if (const auto gpath = kSaveGraph.get(args)) {
    graph::write_matrix_market_file(engine.updated_graph(), *gpath);
    std::cout << "graph: wrote updated graph to " << *gpath
              << " (solve it fresh via " << kInput.flag()
              << " to cross-check the repair)\n";
  }
  return 0;
}

/// Describes a kept store and the health of its sidecars without serving
/// or mutating anything.
int run_info(const Args& args) {
  const std::string path = kStorePath(args);
  if (file_size_bytes(path) == 0) throw IoError("no store at " + path);
  std::cout << "store: " << path << " (" << (file_size_bytes(path) >> 10)
            << " KiB)\n";
  vidx_t n = 0;
  if (core::is_compressed_store(path)) {
    const auto info = core::compressed_store_info(path);
    n = info.n;
    std::cout << "format: GAPSPZ1 block-compressed\n"
              << "n: " << info.n << "\ntile: " << info.tile << " ("
              << info.tiles_per_side << " per side, " << info.inf_tiles << "/"
              << info.tiles << " all-kInf)\n"
              << "compression: " << (info.raw_bytes >> 10) << " KiB raw -> "
              << (info.file_bytes >> 10) << " KiB ("
              << static_cast<double>(info.raw_bytes) /
                     static_cast<double>(info.file_bytes)
              << "x)\n";
  } else if (core::is_shard_slice(path)) {
    std::cout << "format: GAPSPSD1 shard slice (one row range of a sharded "
              << "store; `info` on the parent store reads the manifest)\n";
    return 0;
  } else {
    const auto store = core::open_file_store(path);  // throws if not square
    n = store->n();
    std::cout << "format: raw row-major dist_t matrix\nn: " << n << "\n";
  }

  // Each sidecar reads absent, INVALID when it fails to load, or its facts.
  const auto sidecar = [](const std::string& label, const std::string& file,
                          const std::function<std::string()>& describe) {
    std::string text = "absent (" + file + ")";
    if (file_size_bytes(file) > 0) {
      try {
        text = describe();
      } catch (const Error& e) {
        text = "INVALID (" + file + ": " + e.what() + ")";
      }
    }
    std::cout << label << ": " << text << "\n";
  };
  const std::string sums_path = core::checksum_sidecar_path(path);
  sidecar("checksums", sums_path, [&] {
    core::StoreChecksums sums;
    core::load_store_checksums(sums_path, sums);
    return "present (" + sums_path + ", tile " + std::to_string(sums.tile) +
           ", " + std::to_string(sums.sums.size()) + " tiles" +
           (sums.n == n ? "" : ", STALE: n mismatch") + ")";
  });
  const std::string cal_path = path + ".cal";
  sidecar("calibration", cal_path, [&] {
    return std::string(core::is_calibration_sidecar(cal_path)
                           ? "present"
                           : "INVALID (bad magic)") +
           " (" + cal_path + ")";
  });
  const std::string manifest_path = core::shard_manifest_path(path);
  sidecar("shards", manifest_path, [&] {
    core::ShardManifest m;
    core::load_shard_manifest(manifest_path, m);
    int missing = 0;
    for (int k = 0; k < m.num_shards(); ++k) {
      missing += file_size_bytes(core::shard_file_path(path, k)) !=
                 m.shards[static_cast<std::size_t>(k)].bytes;
    }
    return std::to_string(m.num_shards()) + " (" +
           (m.compressed ? "GAPSPZ1" : "raw") + " payloads, tile " +
           std::to_string(m.tile) + ")" +
           (missing > 0 ? " — " + std::to_string(missing) +
                              " shard file(s) missing or resized"
                        : "");
  });
  core::Checkpoint ck;
  if (core::read_checkpoint(path + ".updck", &ck)) {
    std::cout << "delta checkpoint: present (" << path << ".updck, "
              << ck.progress
              << " tiles done — an `apsp_cli update` died mid-repair; rerun "
              << "it with " << kUpdateResume.flag() << ")\n";
  }
  return 0;
}

int run_solve(const Args& args) {
  const graph::CsrGraph g = make_graph(args);
  // Query and path vertices are checked against the graph before the solve
  // runs: a bad one costs no solve.
  const long long last = static_cast<long long>(g.num_vertices()) - 1;
  std::vector<std::pair<vidx_t, vidx_t>> queries;
  for (const auto& item : split(kQuery(args), ';')) {
    queries.push_back(vertex_pair(item, kQuery.flag(), last));
  }
  std::optional<std::pair<vidx_t, vidx_t>> path_ends;
  if (const auto p = kPath.get(args)) {
    path_ends = vertex_pair(*p, kPath.flag(), last);
  }
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " density=" << g.density_percent() << "%\n";
  if (kStats.has(args)) {
    const auto deg = graph::degree_stats(g);
    std::cout << "degree: min=" << deg.min << " max=" << deg.max
              << " mean=" << deg.mean << "\n"
              << "components: " << graph::count_components(g) << "\n"
              << "separator ratio (#boundary / n^0.75): "
              << part::separator_ratio(g)
              << (part::has_small_separator(g) ? "  [small separator]\n"
                                               : "  [large separator]\n");
    return 0;
  }

  core::ApspOptions opts;
  const Device device = kDevice(args);
  opts.device = device.spec(
      static_cast<std::size_t>(kMemoryMb(args, device.memory_mb)) << 20);
  opts.algorithm = kAlgorithm(args);
  opts.num_components = static_cast<int>(kComponents(args));
  opts.batch_transfers = !kNoBatching.has(args);
  opts.overlap_transfers = !kNoOverlap.has(args);
  opts.transfer_compression =
      core::parse_transfer_compression(kTransferCompression(args));
  opts.dynamic_parallelism = !kNoDp.has(args);
  opts.seed = static_cast<std::uint64_t>(kSeed(args));
  opts.sssp_kernel = kSsspKernel(args);
  opts.partition_method = kPartitioner(args);
  sim::TraceRecorder trace;
  if (kTrace.has(args)) opts.trace = &trace;

  sim::FaultPlan faults;
  faults.seed = static_cast<std::uint64_t>(kFaultSeed(args));
  faults.p_h2d = kFaultH2d(args);
  faults.p_d2h = kFaultD2h(args);
  faults.p_kernel = kFaultKernel(args);
  faults.p_alloc = kFaultAlloc(args);
  faults.p_decode = kFaultDecode(args);
  if (const auto kill = kKillDevice.get(args)) {
    const auto [d, at] =
        int_pair(*kill, ':', kKillDevice.flag() + " D:NTHOP", INT_MAX);
    GAPSP_CHECK(at >= 1, kKillDevice.flag() + " operation index must be >= 1");
    faults.kill_device = static_cast<int>(d);
    faults.kill_at_op = at;
  }
  if (faults.p_h2d > 0 || faults.p_d2h > 0 || faults.p_kernel > 0 ||
      faults.p_alloc > 0 || faults.p_decode > 0 || faults.kill_device >= 0) {
    opts.faults = &faults;
  }
  opts.retry.max_retries = static_cast<int>(kRetries(args));
  opts.kernel_variant = core::parse_kernel_variant(kKernelVariant(args));
  opts.kernel_threads = static_cast<int>(kKernelThreads(args));
  opts.checkpoint_path = kCheckpoint(args);
  opts.resume = kResume.has(args);
  opts.store_bytes_per_element = sizeof(dist_t) / kStoreRatio(args);
  core::SelectorOptions sel;
  sel.sparse_percent = kSparseThreshold(args);
  sel.dense_percent = kDenseThreshold(args);

  // The multi-GPU driver runs batched boundary without checkpoints, and its
  // devices would share the trace's per-stream lanes: a flag asking for
  // anything else is a contradiction, not a silent no-op.
  const int devices = static_cast<int>(kDevices(args));
  const std::string multi_gpu = kDevices.flag() + " > 1 runs batched boundary";
  GAPSP_CHECK(devices == 1 || opts.algorithm == core::Algorithm::kAuto ||
                  opts.algorithm == core::Algorithm::kBoundary,
              multi_gpu + "; it contradicts " + kAlgorithm.flag() + " " +
                  kAlgorithm.label(opts.algorithm));
  for (const Flag* single : {&kNoBatching, &kCheckpoint, &kResume,
                             &kPerComponent, &kTrace}) {
    GAPSP_CHECK(devices == 1 || !single->has(args),
                multi_gpu + " with no checkpoints, per-component split or "
                "per-device trace lanes; it contradicts " + single->flag());
  }

  // A checkpoint sidecar only records *progress*; the completed rounds live
  // in the distance store. Across processes that store must be durable — a
  // RAM store dies with the killed run, and resuming against a fresh one
  // would silently continue from an uninitialized matrix.
  const bool file_store = kStore(args);
  GAPSP_CHECK(opts.checkpoint_path.empty() || file_store,
              kCheckpoint.flag() + "/" + kResume.flag() +
                  " need a durable store: add " + kStore.flag() + " " +
                  kStore.label(true) + " " + kStorePath.flag() +
                  " P (the file is kept across runs)");
  const std::string store_path = kStorePath(args);
  std::unique_ptr<core::DistStore> store;
  if (file_store) {
    // With a checkpoint in play the store must survive both the interrupted
    // run (exception unwinds this unique_ptr) and the resume run.
    const bool keep = kKeepStore.has(args) || !opts.checkpoint_path.empty();
    store = core::make_file_store(g.num_vertices(), store_path, keep);
    // Reuse the calibration sidecar a previous run saved next to the store,
    // so the selector's warm-up solves are skipped.
    if (core::load_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: reused " << store_path << ".cal\n";
    }
  } else {
    store = core::make_ram_store(g.num_vertices());
  }

  core::SelectorReport report;
  core::ApspResult r;
  if (devices > 1) {
    // Multi-GPU path (boundary algorithm only).
    auto multi = core::ooc_boundary_multi(g, opts, devices, *store);
    std::cout << "multi-GPU boundary: " << devices << " devices, makespan "
              << multi.result.metrics.sim_seconds * 1e3 << " ms\n";
    if (!multi.multi.failed_devices.empty()) {
      std::cout << "failover:";
      for (int d : multi.multi.failed_devices) {
        std::cout << " device " << d << " lost;";
      }
      std::cout << " " << multi.multi.failover_components
                << " components re-run on survivors ("
                << multi.multi.failover_cost_s * 1e3 << " ms)\n";
    }
    r = std::move(multi.result);
  } else if (kPerComponent.has(args)) {
    auto comp = core::solve_apsp_per_component(g, opts, *store, sel);
    std::cout << "per-component: " << comp.num_components
              << " components, largest " << comp.largest_component << "\n";
    r = std::move(comp.result);
  } else {
    r = core::solve_apsp(g, opts, *store, &report, sel);
  }

  const auto& m = r.metrics;
  std::cout << "algorithm: " << core::algorithm_name(r.used);
  if (opts.algorithm == core::Algorithm::kAuto && devices == 1 &&
      !kPerComponent.has(args)) {
    std::cout << " (selected; density " << report.density_percent << "%)";
    print_selector_report(report);
  }
  std::cout << "\nsimulated time: " << m.sim_seconds * 1e3 << " ms (kernels "
            << m.kernel_seconds * 1e3 << " ms, transfers "
            << m.transfer_seconds * 1e3 << " ms)\ntransfer overlap: "
            << m.hidden_transfer_seconds * 1e3 << " ms hidden, "
            << m.exposed_transfer_seconds * 1e3 << " ms exposed\n";
  const std::size_t wire_raw = m.bytes_h2d_raw + m.bytes_d2h_raw;
  const std::size_t wire = m.bytes_h2d_wire + m.bytes_d2h_wire;
  if (wire > 0) {
    std::cout << "transfer compression: " << (wire_raw >> 10) << " KiB -> "
              << (wire >> 10) << " KiB on the wire ("
              << static_cast<double>(wire_raw) / static_cast<double>(wire)
              << "x), decode busy " << m.decode_seconds * 1e3 << " ms in "
              << m.decodes << " kernels\n";
  }
  std::cout << "device traffic: " << (m.bytes_h2d >> 10) << " KiB h2d in "
            << m.transfers_h2d << " transfers, " << (m.bytes_d2h >> 10)
            << " KiB d2h in " << m.transfers_d2h << " transfers\n"
            << "device peak memory: " << (m.device_peak_bytes >> 10)
            << " KiB of " << (opts.device.memory_bytes >> 10) << " KiB";
  if (m.pinned_peak_bytes > 0) {
    std::cout << " (+" << (m.pinned_peak_bytes >> 10)
              << " KiB pinned staging)";
  }
  std::cout << "\n";
  if (!m.kernel_variant.empty()) {
    // Formatted on its own stream, so the fixed two-digit precision stays
    // off every later line.
    std::ostringstream rel;
    rel << std::fixed << std::setprecision(2)
        << core::kernel_variant_rel_speed(
               core::parse_kernel_variant(m.kernel_variant));
    std::cout << "kernel engine: " << m.kernel_variant << " microkernel, "
              << (opts.kernel_threads == 1   ? std::string("serial")
                  : opts.kernel_threads == 0 ? std::string("pooled")
                                             : std::to_string(
                                                   opts.kernel_threads) +
                                                   "-thread")
              << " grid execution (" << core::simd_lane_isa() << " lanes, "
              << rel.str() << "x vs naive)\n";
  }
  if (m.johnson_batch_size > 0) {
    std::cout << "johnson: bat=" << m.johnson_batch_size << ", "
              << m.johnson_num_batches << " batches, " << m.child_kernels
              << " child kernels\n";
  }
  if (m.boundary_k > 0) {
    std::cout << "boundary: k=" << m.boundary_k << ", " << m.boundary_nodes
              << " boundary vertices\n";
  }
  if (m.faults_injected > 0 || m.degradations > 0) {
    std::cout << "recovery: " << m.faults_injected << " faults injected, "
              << m.transfer_retries << " transfer retries, "
              << m.kernel_retries << " kernel retries, " << m.decode_retries
              << " decode retries (" << m.retry_backoff_seconds * 1e3
              << " ms backoff), " << m.degradations << " degradations\n";
  }
  if (m.checkpoints_written > 0 || m.resumed_progress > 0) {
    std::cout << "checkpoint: " << m.checkpoints_written
              << " written, resumed past " << m.resumed_progress
              << " completed units\n";
  }

  for (const auto& [u, v] : queries) {
    std::cout << "dist(" << u << ", " << v << ") = "
              << dist_text(store->at(u, v)) << "\n";
  }
  if (path_ends) {
    const auto [u, v] = *path_ends;
    const service::QueryEngine engine(*store);
    const service::PathExtractor extractor(g, engine);
    const auto path = extractor.path(u, v);
    std::cout << "path(" << u << " -> " << v << "): ";
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::cout << (i == 0 ? "" : " -> ") << path[i];
    }
    if (path.empty()) {
      std::cout << "unreachable\n";
    } else {
      std::cout << "  (length " << extractor.walk_length(path) << ")\n";
    }
  }
  if (kVerify.has(args)) {
    const auto rep = core::verify_result(g, *store, r, 8, opts.seed);
    std::cout << "verify: " << (rep.ok ? "OK" : "FAILED") << " ("
              << rep.rows_checked << " rows, " << rep.entries_checked
              << " entries)\n";
    if (!rep.ok) {
      std::cerr << rep.detail;
      return 3;
    }
  }
  if (kKeepStore.has(args) && file_store) {
    if (core::save_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: saved " << store_path << ".cal\n";
    }
    store.reset();  // flush buffered writes before the file is re-read
    // Drop what described the old bytes before anything reads them checked.
    // A raw kept store has no framing to catch bit rot, so it gets a .sum
    // (DESIGN.md §13), on `compact`'s default tile.
    const auto tile = static_cast<vidx_t>(*kBlock.dflt);
    const bool raw = kNoCompressStore.has(args);
    core::land_store(store_path, raw ? tile : 0);
    if (raw) {
      std::cout << "store checksums: " << core::checksum_sidecar_path(store_path)
                << "\n";
    } else {
      // The solve loop always writes the raw store (blocked FW rewrites
      // every tile O(n_d) times); compression happens here, at the sink,
      // once the matrix is final.
      print_compaction(core::compact_store(store_path, store_path, tile));
    }
    std::cout << "store kept: " << store_path << " (serve it with: apsp_cli "
              << "query " << kStorePath.flag() << " ...)\n";
  }
  if (const auto tpath = kTrace.get(args)) {
    std::ofstream out(*tpath);
    GAPSP_CHECK(out.good(), "cannot open " + *tpath);
    trace.write_chrome_trace(out);
    std::cout << "timeline: " << trace.events().size() << " events -> "
              << *tpath << "\n";
  }
  return 0;
}

// ---- the command table ----------------------------------------------------

using Flags = std::vector<const Flag*>;
Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}
const Flags kGraphSource = {&kInput, &kGenerate, &kSeed};
const Flags kCache = {&kCacheMb, &kBlock, &kShards, &kThreads, &kRetries};
const Flags kReadChaos = {&kFaultSeed, &kFaultStoreRead};

struct Command {
  std::string name;  ///< empty for the solve
  std::string summary;
  Flags flags;
  int (*run)(const Args&);
};

const std::vector<Command> kCommands = {
    {"", "solve APSP on a simulated GPU",
     kGraphSource +
         Flags{&kAlgorithm, &kDevice, &kMemoryMb, &kComponents, &kDevices,
               &kNoBatching, &kNoOverlap, &kNoDp, &kTransferCompression,
               &kSparseThreshold, &kDenseThreshold, &kSsspKernel,
               &kPartitioner, &kKernelVariant, &kKernelThreads, &kStore,
               &kStorePath, &kKeepStore, &kNoCompressStore, &kStoreRatio,
               &kVerify, &kPerComponent, &kQuery, &kPath, &kTrace,
               &kStats, &kFaultSeed, &kFaultH2d, &kFaultD2h, &kFaultKernel,
               &kFaultAlloc, &kFaultDecode, &kKillDevice, &kRetries,
               &kCheckpoint, &kResume},
     run_solve},
    {"query", "serve point, row and batch queries from a kept store",
     Flags{&kStorePath, &kPoint, &kRow, &kBatch, &kRepeat, &kMaxQueue,
           &kRepair, &kRoute, &kShard, &kNoVerifyShard, &kWorkerRetries,
           &kWorkerTimeoutMs, &kKillWorker} +
         kCache + kGraphSource + kReadChaos,
     run_query},
    {"shard", "cut a kept store into row-range shards plus a manifest",
     {&kStorePath, &kShardCount, &kBlock}, run_shard},
    {kServe, "serve one shard on stdin/stdout (the router spawns these)",
     Flags{&kStorePath, &kShard, &kNoVerifyShard, &kExitAfter} + kCache,
     run_serve},
    {"scrub", "check every tile of a kept store, and repair it",
     Flags{&kStorePath, &kRepair, &kWriteSums, &kRetries, &kBlock} +
         kGraphSource + kReadChaos,
     run_scrub},
    {"update", "repair a kept store after edge-weight updates, resumably",
     Flags{&kStorePath, &kUpdates, &kUpdateThreshold, &kUpdateCheckpoint,
           &kCheckpointEvery, &kUpdateResume, &kBlock, &kSaveGraph} +
         kGraphSource,
     run_update},
    {"info", "print a kept store's format and its sidecars' health",
     {&kStorePath}, run_info},
    {"compact", "convert a raw kept store to GAPSPZ1",
     {&kStorePath, &kOut, &kBlock}, run_compact},
};

void print_help(const Command& cmd) {
  std::cout << "usage: apsp_cli " << (cmd.name.empty() ? "[COMMAND]" : cmd.name)
            << " [--flag value ...]\n\n";
  if (cmd.name.empty()) {
    std::cout << "commands (`apsp_cli COMMAND " << kHelp.flag()
              << "` lists a command's flags):\n";
    for (const Command& c : kCommands) {
      const std::string name = c.name.empty() ? "(none)" : c.name;
      std::cout << "  " << name << std::string(10 - name.size(), ' ')
                << c.summary << "\n";
    }
    std::cout << "\nexit codes: 0 ok, 1 typed or usage error, 2 unknown "
              << "command or flag,\n  3 unrepaired damage or failed "
              << kVerify.flag() << ", 4 I/O or corruption\n\n";
  }
  std::cout << cmd.summary << "; flags:\n";
  for (const Flag* f : cmd.flags + Flags{&kHelp}) {
    // The help text starts at column 28, on a line of its own after a long
    // flag, and wraps at 80.
    std::string out =
        "  " + f->flag() + (f->value.empty() ? "" : " " + f->value);
    std::size_t col = out.size();
    if (col > 26) {
      out += "\n" + std::string(27, ' ');
      col = 27;
    }
    std::istringstream words(f->help);
    for (std::string w; words >> w; col += 1 + w.size()) {
      if (col < 27 || col + 1 + w.size() > 80) {
        out += col < 27 ? std::string(27 - col, ' ')
                        : "\n" + std::string(27, ' ');
        col = 27;
      }
      out += " " + w;
    }
    std::cout << out << "\n";
  }
}

/// Looks the command up and rejects stray words and the flags it does not
/// list (exit 2), then prints its help or runs it.
int dispatch(const Args& args) {
  const auto& words = args.positional();
  const std::string name = words.empty() ? "" : words.front();
  const auto cmd =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == kCommands.end()) {
    std::cerr << "unknown command: " << name << " (see apsp_cli "
              << kHelp.flag() << ")\n";
    return 2;
  }
  std::vector<std::string> known;
  std::vector<std::string> stray(words.begin() + (name.empty() ? 0 : 1),
                                 words.end());
  for (const Flag* f : cmd->flags + Flags{&kHelp}) {
    known.push_back(f->name);
    // A switch given a value has swallowed a stray word.
    if (f->value.empty() && !(*f)(args).empty()) stray.push_back((*f)(args));
  }
  if (!stray.empty()) {
    std::cerr << "stray word: " << stray.front() << " (see apsp_cli "
              << (name.empty() ? "" : name + " ") << kHelp.flag() << ")\n";
    return 2;
  }
  if (const auto unknown = args.unknown(known); !unknown.empty()) {
    std::cerr << "unknown " << (name.empty() ? "" : name + " ") << "flag(s):";
    for (const auto& f : unknown) std::cerr << " --" << f;
    std::cerr << "\n";
    return 2;
  }
  if (kHelp.has(args)) {
    print_help(*cmd);
    return 0;
  }
  return cmd->run(args);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(Args(argc, argv));
  } catch (const gapsp::CorruptError& e) {
    // Data failed an integrity check — retrying is useless; scrub instead.
    std::cerr << "corrupt store: " << e.what() << " (run `apsp_cli scrub "
              << kStorePath.flag()
              << " ...` to locate and repair the damage)\n";
    return 4;
  } catch (const gapsp::IoError& e) {
    // Host I/O failure (missing/truncated file, sick disk) — distinct exit
    // code so serving wrappers can tell an infrastructure fault from a
    // usage error.
    std::cerr << "io error: " << e.what() << " (check " << kStorePath.flag()
              << " and that the file is readable)\n";
    return 4;
  } catch (const gapsp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
