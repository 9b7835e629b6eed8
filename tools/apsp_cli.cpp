// apsp_cli — the command-line front end of the gapsp library.
//
// Solve APSP on a Matrix Market file or a generated graph, with the paper's
// selector or an explicit algorithm, on a simulated V100 or K80:
//
//   apsp_cli --input graph.mtx
//   apsp_cli --generate road:40x40 --query 0,812 --path 0,812
//   apsp_cli --generate rmat:11:14000 --algorithm johnson --device k80
//   apsp_cli --generate mesh:1200:30 --store file --store-path dist.bin --keep-store
//   apsp_cli --generate road:36x36 --trace timeline.json   (chrome://tracing)
//
// Flags:
//   --input FILE            Matrix Market input
//   --generate SPEC         road:RxC | mesh:N:DEG | rmat:SCALE:EDGES |
//                           er:N:M[:0 = leave disconnected] | dense:N:PCT
//   --seed S                generator seed (default 1)
//   --algorithm A           auto | fw | johnson | boundary   (default auto)
//   --device D              v100 | k80                        (default v100)
//   --memory-mb M           device memory in MiB              (default 8 / 6)
//   --components K          boundary algorithm component count (0 = sqrt(n)/4)
//   --no-batching           disable boundary transfer batching
//   --no-overlap            disable compute/transfer overlap (all algorithms)
//   --transfer-compression M  auto | on | off: z1-compress staged tiles into
//                           the pinned lanes, decode on device (DESIGN.md
//                           §14). auto engages when the device's decode rate
//                           beats its host link; results are bit-identical
//                           in every mode (unknown names are an error)
//   --no-dp                 disable Johnson dynamic parallelism
//   --sparse-threshold P    selector sparse density band, percent (default 0.8)
//   --dense-threshold P     selector dense density band, percent  (default 4)
//   --store S               ram | file                        (default ram)
//   --store-path P          file-store path (default ./apsp_dist.bin)
//   --keep-store            keep the file store after exit; on completion it
//                           is compacted into a GAPSPZ1 block-compressed
//                           store (DESIGN.md §11) and a calibration sidecar
//                           (<store-path>.cal) is saved next to it
//   --no-compress-store     keep the raw file instead of compacting
//   --store-ratio R         expected compression ratio of the store sink;
//                           scales the n² output term of the cost models
//                           (selector sees cheaper I/O)   (default 1 = raw)
//   --sssp-kernel K         near-far | delta-stepping | bellman-ford
//   --partitioner P         kway | rb (recursive bisection)
//   --devices N             run the multi-GPU boundary algorithm on N devices
//   --verify                spot-check the result against Dijkstra rows
//   --per-component         decompose into connected components first
//   --save FILE             serialize the distance matrix (GAPSPDM1 format)
//   --query U,V             print dist(U,V)  (several: "U,V;U2,V2")
//   --path U,V              print one shortest path U -> V
//   --trace FILE            write a chrome://tracing JSON timeline
//   --stats                 print graph statistics and exit
//
// Kernel engine (see DESIGN.md §9):
//   --kernel-variant V      auto | naive | simd   min-plus microkernel (auto
//                           = simd, or naive on a CPU without AVX2; naive
//                           rules the vector kernel out of a wrong answer;
//                           unknown names are an error)
//   --kernel-threads N      host threads for grid-parallel kernels and the
//                           transfer codec's slice frames (0 = whole pool,
//                           1 = serial; negative is an error); never changes
//                           results or simulated time, only wall-clock
//
// Fault injection & recovery (see DESIGN.md §8):
//   --fault-seed S          fault schedule seed (default 1)
//   --fault-h2d P           probability an H2D transfer faults (transient)
//   --fault-d2h P           probability a D2H transfer faults (transient)
//   --fault-kernel P        probability a kernel launch faults (transient)
//   --fault-alloc P         probability an allocation faults (→ degrade)
//   --fault-decode P        probability an on-device z1 decode/encode faults
//                           (transient; the whole tile retries)
//   --kill-device D:N       device D dies at its N-th operation
//   --retries N             max retries per transient fault (default 3)
//   --checkpoint FILE       write a round-level checkpoint sidecar; requires
//                           --store file (the store holds the completed
//                           rounds, so it must outlive the process; the
//                           store file is kept across runs automatically)
//   --resume                resume from --checkpoint if compatible:
//
//   apsp_cli --generate road:20x20 --algorithm fw --store file \
//            --store-path d.bin --checkpoint fw.ck [--kill-device 0:40]
//   apsp_cli --generate road:20x20 --algorithm fw --store file \
//            --store-path d.bin --checkpoint fw.ck --resume
//
// Query service (see DESIGN.md §10): `apsp_cli query` opens a kept store —
// raw or GAPSPZ1 compressed, auto-detected — from a previous solve and
// serves point/row/batch queries through the block-cached query engine,
// printing cache and latency metrics:
//
//   apsp_cli --generate road:24x24 --store file --store-path d.bin --keep-store
//   apsp_cli query --store-path d.bin --point 0,100 --row 5
//   apsp_cli query --store-path d.bin --batch queries.txt --cache-mb 32
//
// Store compaction (see DESIGN.md §11): `apsp_cli compact` converts a raw
// kept store into a GAPSPZ1 block-compressed store (in place by default):
//
//   apsp_cli compact --store-path d.bin [--out d.z.bin] [--block 256]
//
// Query flags:
//   --store-path P          kept store file from `--keep-store` (required)
//   --point U,V             point queries (several: "U,V;U2,V2")
//   --row U                 row queries (several: "U;U2")
//   --batch FILE            one query per line: "U V" / "U,V" (point) or
//                           "row U"; '#' starts a comment
//   --cache-mb M            block cache capacity in MiB       (default 64)
//   --block B               cache tile side, elements         (default 256)
//   --shards S              cache shard count                 (default 8)
//   --threads T             batch fan-out threads (0 = whole pool)
//   --repeat N              run the batch N times (N >= 2 shows the
//                           warm-cache steady state; metrics per run)
//
// Serving-tier fault tolerance (see DESIGN.md §13): raw kept stores carry a
// GAPSPSM1 checksum sidecar (<store>.sum, written at --keep-store/scrub
// time) and every cache-miss read is verified against it; GAPSPZ1 stores
// verify their own frame checksums. Transient read faults retry with
// backoff; persistent damage quarantines the tile and degrades exactly the
// queries that touch it (typed per-query status) — or, with
// --repair recompute, the tile is re-derived from the graph on the spot.
//
//   --retries N             retry budget per transient read fault (default 3)
//   --max-queue N           admission bound per batch; overflow is shed with
//                           a typed status (0 = unbounded)
//   --no-verify-sums        skip sidecar verification on reads
//   --repair recompute      re-derive damaged tiles by SSSP over the input
//                           graph (give the same --generate/--input/--seed
//                           as the solve; identity-permutation solves only)
//   --fault-store-read P    inject transient store-read faults (chaos)
//   --fault-seed S          fault schedule seed (default 1)
//
// Sharded serving (see DESIGN.md §15): `apsp_cli shard` splits a kept store
// (raw or GAPSPZ1) into row-range shard files plus a GAPSPSH1 manifest;
// `query --route` serves all shards behind one batch surface, either with
// in-process engines (local) or one worker process per shard (process, the
// workers being `apsp_cli serve --shard K` children speaking a
// length-prefixed protocol on stdin/stdout). A dead or corrupt shard
// degrades exactly its row range to typed kQuarantined results:
//
//   apsp_cli shard --store-path d.bin --shards 4
//   apsp_cli query --store-path d.bin --route process --point 0,100 --row 5
//   apsp_cli query --store-path d.bin --shard 1 --row 300   (single slice)
//
//   --route M               none | local | process        (default none)
//   --shard K               serve one shard slice directly; every query must
//                           route inside its row range (contradiction = exit 1)
//   --worker-retries N      resend+respawn budget per dead worker (default 1)
//   --worker-timeout-ms T   per-reply wait before a worker counts as dead
//   --kill-worker K:N       chaos: worker K _exits on its N-th batch
//   --no-verify-shard       skip the whole-file shard checksum at open
//
// Scrub & repair (offline): `apsp_cli scrub` walks every tile of a kept
// store, reports corruption, optionally repairs it in place, and exits 3
// when unrepaired damage remains:
//
//   apsp_cli scrub --store-path d.bin
//   apsp_cli scrub --store-path d.bin --repair recompute --generate road:24x24
//   apsp_cli scrub --store-path d.bin --write-sums    (create/refresh sidecar)
//
// Dynamic updates (see DESIGN.md §16): `apsp_cli update` repairs a kept
// store in place after a batch of edge-weight updates, instead of
// re-solving. Decrease-only batches run a bounded min-plus panel repair;
// increases/deletes probe for damaged rows and recompute them by SSSP,
// falling back to a full re-solve past --update-threshold. The repair
// writes into a sibling tmp copy and atomically replaces the store, with a
// GAPSPCK1 delta sidecar (<store>.updck) making a killed update resumable
// bit-identically. Stale sidecars are fixed up: .sum refreshed, .cal and
// .shards removed. Pass the solve's exact --generate/--input/--seed
// (identity-permutation solves only, like --repair recompute):
//
//   apsp_cli update --store-path d.bin --updates batch.txt \
//            --generate road:24x24 [--update-threshold 0.5] [--resume]
//
//   --updates FILE          one `u v w` arc per line ('#' comments;
//                           w = inf | x | -1 deletes the arc; arcs absent
//                           from the graph are inserted; last update of an
//                           arc wins). Undirected graphs need both arcs.
//   --update-threshold F    fall back to a full re-solve when more than
//                           F*n rows are damaged by increases (default 1 =
//                           never: row repair is output-sensitive, so the
//                           damaged-row fraction does not predict its cost;
//                           0 = always re-solve)
//   --checkpoint FILE       delta sidecar path (default <store>.updck)
//   --checkpoint-every N    tiles between checkpoint rewrites (default 64)
//   --resume                continue a killed update (same store + batch)
//   --block B               repair tile side for raw stores (default 256;
//                           GAPSPZ1 stores always use their own tiling)
//   --save-graph FILE       write the post-update graph as Matrix Market,
//                           so a from-scratch `--input FILE` solve can
//                           cross-check the repaired store byte-for-byte
//
// `apsp_cli info` prints a kept store's format facts (raw / GAPSPZ1 /
// GAPSPSD1 shard slice, n, tile, compression ratio) and the health of every
// sidecar next to it (.sum / .cal / .shards / .updck):
//
//   apsp_cli info --store-path d.bin
//
// Query-mode vertex ids address the store's own layout; solves that permute
// (the boundary algorithm) should query through the API with ApspResult::
// perm, or save via --save which records the permutation.
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/incremental.h"
#include "core/kernel_engine.h"
#include "core/component_solver.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/dist_io.h"
#include "core/multi_device.h"
#include "core/path_extract.h"
#include "core/scrub.h"
#include "core/shard_store.h"
#include "core/store_integrity.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/matrix_market.h"
#include "partition/boundary.h"
#include "service/query_engine.h"
#include "service/shard_router.h"
#include "service/shard_worker.h"
#include "util/args.h"
#include "util/file_io.h"

namespace {

using namespace gapsp;

graph::CsrGraph make_graph(const Args& args) {
  if (const auto input = args.get("input"); input.has_value()) {
    return graph::read_matrix_market_file(*input);
  }
  const std::string spec = args.get_or("generate", "road:40x40");
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  std::istringstream ss(spec);
  std::string kind;
  GAPSP_CHECK(static_cast<bool>(std::getline(ss, kind, ':')),
              "bad --generate spec: " + spec);
  auto next_num = [&](char sep) {
    std::string tok;
    GAPSP_CHECK(static_cast<bool>(std::getline(ss, tok, sep)),
                "bad --generate spec: " + spec);
    return std::stoll(tok);
  };
  if (kind == "road") {
    const auto rows = next_num('x');
    const auto cols = next_num(':');
    return graph::make_road(static_cast<vidx_t>(rows),
                            static_cast<vidx_t>(cols), seed);
  }
  if (kind == "mesh") {
    const auto n = next_num(':');
    const auto deg = next_num(':');
    return graph::make_mesh(static_cast<vidx_t>(n), static_cast<int>(deg),
                            seed);
  }
  if (kind == "rmat") {
    const auto scale = next_num(':');
    const auto edges = next_num(':');
    return graph::make_rmat(static_cast<int>(scale), edges, seed);
  }
  if (kind == "er") {
    const auto n = next_num(':');
    const auto m = next_num(':');
    // Optional 4th field: er:N:M:0 skips the connecting spanning walk, so a
    // sub-critical M leaves many components (a kInf-dominated store).
    std::string tok;
    const bool connect =
        !std::getline(ss, tok, ':') || std::stoll(tok) != 0;
    return graph::make_erdos_renyi(static_cast<vidx_t>(n), m, seed, connect);
  }
  if (kind == "dense") {
    const auto n = next_num(':');
    const auto pct = next_num(':');
    return graph::make_dense(static_cast<vidx_t>(n),
                             static_cast<double>(pct), seed);
  }
  throw Error("unknown generator kind: " + kind);
}

core::Algorithm parse_algorithm(const std::string& name) {
  if (name == "auto") return core::Algorithm::kAuto;
  if (name == "fw") return core::Algorithm::kBlockedFloydWarshall;
  if (name == "johnson") return core::Algorithm::kJohnson;
  if (name == "boundary") return core::Algorithm::kBoundary;
  throw Error("unknown --algorithm: " + name);
}

std::pair<vidx_t, vidx_t> parse_pair(const std::string& s) {
  const auto comma = s.find(',');
  GAPSP_CHECK(comma != std::string::npos, "expected U,V but got " + s);
  return {static_cast<vidx_t>(std::stoll(s.substr(0, comma))),
          static_cast<vidx_t>(std::stoll(s.substr(comma + 1)))};
}

std::string us(double seconds) {
  std::ostringstream os;
  os << seconds * 1e6 << "us";
  return os.str();
}

/// Builds the SSSP repair source for --repair recompute: the same graph the
/// solve ran on, re-made from --generate/--input/--seed. Identity
/// permutation only (fw/johnson solves); the kept graph outlives the fn via
/// the shared_ptr capture.
core::TileRepairFn make_repair_source(const Args& args) {
  const std::string mode = args.get_or("repair", "off");
  if (mode == "off") return {};
  GAPSP_CHECK(mode == "recompute", "unknown --repair mode: " + mode);
  GAPSP_CHECK(args.has("generate") || args.has("input"),
              "--repair recompute re-derives tiles from the input graph: "
              "pass the solve's --generate/--input (and --seed)");
  auto g = std::make_shared<graph::CsrGraph>(make_graph(args));
  core::TileRepairFn fn = core::make_sssp_repair(*g);
  return [g, fn](vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols) {
    return fn(row0, col0, rows, cols);
  };
}

service::QueryEngineOptions engine_options_from_flags(const Args& args) {
  service::QueryEngineOptions qopt;
  qopt.cache_bytes =
      static_cast<std::size_t>(args.get_int_or("cache-mb", 64)) << 20;
  qopt.block_size = static_cast<vidx_t>(args.get_int_or("block", 256));
  qopt.cache_shards = static_cast<int>(args.get_int_or("shards", 8));
  qopt.max_threads = static_cast<int>(args.get_int_or("threads", 0));
  qopt.retry.max_retries = static_cast<int>(args.get_int_or("retries", 3));
  qopt.max_queue = static_cast<std::size_t>(args.get_int_or("max-queue", 0));
  qopt.verify_checksums = !args.has("no-verify-sums");
  return qopt;
}

struct ParsedQueries {
  std::vector<service::Query> queries;
  std::size_t inline_queries = 0;  // from --point/--row: echo each result
};

ParsedQueries parse_queries(const Args& args) {
  ParsedQueries out;
  auto& queries = out.queries;
  if (const auto p = args.get("point"); p.has_value()) {
    std::istringstream ss(*p);
    std::string item;
    while (std::getline(ss, item, ';')) {
      const auto [u, v] = parse_pair(item);
      queries.push_back({service::QueryKind::kPoint, u, v});
    }
    out.inline_queries = queries.size();
  }
  if (const auto rws = args.get("row"); rws.has_value()) {
    std::istringstream ss(*rws);
    std::string item;
    while (std::getline(ss, item, ';')) {
      queries.push_back({service::QueryKind::kRow,
                         static_cast<vidx_t>(std::stoll(item)), 0});
    }
    out.inline_queries = queries.size();
  }
  if (const auto batch = args.get("batch"); batch.has_value()) {
    std::ifstream in(*batch);
    GAPSP_CHECK(in.good(), "cannot open batch file " + *batch);
    std::string line;
    while (std::getline(in, line)) {
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      std::istringstream ls(line.substr(first));
      std::string tok;
      ls >> tok;
      if (tok == "row") {
        long long u = 0;
        GAPSP_CHECK(static_cast<bool>(ls >> u), "bad batch line: " + line);
        queries.push_back(
            {service::QueryKind::kRow, static_cast<vidx_t>(u), 0});
      } else if (tok.find(',') != std::string::npos) {
        const auto [u, v] = parse_pair(tok);
        queries.push_back({service::QueryKind::kPoint, u, v});
      } else {
        long long v = 0;
        GAPSP_CHECK(static_cast<bool>(ls >> v), "bad batch line: " + line);
        queries.push_back({service::QueryKind::kPoint,
                           static_cast<vidx_t>(std::stoll(tok)),
                           static_cast<vidx_t>(v)});
      }
    }
  }
  GAPSP_CHECK(!queries.empty(),
              "nothing to serve: give --point, --row, or --batch");
  return out;
}

void print_inline_results(const service::BatchReport& report,
                          std::size_t inline_queries, vidx_t n) {
  for (std::size_t i = 0; i < inline_queries; ++i) {
    const auto& r = report.results[i];
    if (r.status != service::QueryStatus::kOk) {
      std::cout << (r.query.kind == service::QueryKind::kPoint
                        ? "dist(" + std::to_string(r.query.u) + ", " +
                              std::to_string(r.query.v) + ")"
                        : "row " + std::to_string(r.query.u))
                << " = <" << service::query_status_name(r.status) << ": "
                << r.error << ">\n";
      continue;
    }
    if (r.query.kind == service::QueryKind::kPoint) {
      std::cout << "dist(" << r.query.u << ", " << r.query.v << ") = ";
      if (r.dist >= kInf) {
        std::cout << "unreachable\n";
      } else {
        std::cout << r.dist << "\n";
      }
    } else {
      vidx_t reachable = 0;
      dist_t far = 0;
      for (dist_t d : r.row) {
        if (d < kInf) {
          ++reachable;
          far = std::max(far, d);
        }
      }
      std::cout << "row " << r.query.u << ": " << reachable << "/" << n
                << " reachable, eccentricity " << far << "\n";
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

core::ShardManifest require_manifest(const std::string& path) {
  core::ShardManifest manifest;
  if (!core::load_shard_manifest(core::shard_manifest_path(path), manifest)) {
    throw Error("no shard manifest next to " + path +
                " — run `apsp_cli shard --store-path " + path +
                " --shards N` first");
  }
  return manifest;
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  GAPSP_CHECK(len > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(len));
}

/// `query --shard K`: serve one shard slice directly (no router). Queries
/// routing outside the shard's rows are a usage error — the slice cannot
/// answer them, and silently returning kInf would look like "unreachable".
int run_query_shard_slice(const Args& args, const std::string& path) {
  const auto manifest = require_manifest(path);
  const int k = static_cast<int>(args.get_int_or("shard", 0));
  GAPSP_CHECK(k >= 0 && k < manifest.num_shards(),
              "--shard " + std::to_string(k) + " out of range [0, " +
                  std::to_string(manifest.num_shards()) + ")");
  const auto& range = manifest.shards[static_cast<std::size_t>(k)];
  const auto slice = core::open_shard_slice(path, manifest, k);
  const auto qopt = engine_options_from_flags(args);
  const service::QueryEngine engine(*slice, qopt);

  std::cout << "store: " << path << " shard " << k << "/"
            << manifest.num_shards() << " (rows [" << range.row_begin << ", "
            << range.row_end << ") of n=" << manifest.n << ", "
            << (manifest.compressed ? "GAPSPZ1" : "raw") << " slice, tile "
            << manifest.tile << ")\n";

  auto pq = parse_queries(args);
  for (const auto& q : pq.queries) {
    // Typed exit-1 path: a query this slice cannot own is a flag
    // contradiction, not an "unreachable" answer.
    GAPSP_CHECK(
        q.u >= range.row_begin && q.u < range.row_end,
        (q.kind == service::QueryKind::kPoint ? "--point " : "--row ") +
            std::to_string(q.u) + " routes outside --shard " +
            std::to_string(k) + " rows [" + std::to_string(range.row_begin) +
            ", " + std::to_string(range.row_end) +
            "); drop --shard or use --route local/process");
  }

  const auto repeat = std::max<long long>(1, args.get_int_or("repeat", 1));
  auto report = engine.run_batch(pq.queries);
  for (long long rep = 1; rep < repeat; ++rep) {
    report = engine.run_batch(pq.queries);
  }
  print_inline_results(report, pq.inline_queries, manifest.n);
  print_batch_summary(report);
  return 0;
}

/// `query --route local|process`: a ShardRouter over every shard, either
/// in-process engines or one worker process per shard.
int run_query_routed(const Args& args, const std::string& path,
                     const std::string& route) {
  const auto manifest = require_manifest(path);
  const int shards = manifest.num_shards();

  // One logical cache budget, split across the shard engines like the
  // single-engine path would spend it (floor 1 MiB per shard).
  const auto cache_mb =
      std::max<long long>(1, args.get_int_or("cache-mb", 64));
  const auto per_shard_mb = std::max<long long>(1, cache_mb / shards);

  service::ShardRouterOptions ropt;
  ropt.max_queue = static_cast<std::size_t>(args.get_int_or("max-queue", 0));

  int kill_shard = -1;
  long long kill_at = 0;
  if (const auto kill = args.get("kill-worker"); kill.has_value()) {
    const auto colon = kill->find(':');
    GAPSP_CHECK(colon != std::string::npos,
                "expected --kill-worker SHARD:NTHBATCH but got " + *kill);
    kill_shard = static_cast<int>(std::stoll(kill->substr(0, colon)));
    kill_at = std::stoll(kill->substr(colon + 1));
    GAPSP_CHECK(kill_shard >= 0 && kill_shard < shards,
                "--kill-worker shard " + std::to_string(kill_shard) +
                    " out of range [0, " + std::to_string(shards) + ")");
    GAPSP_CHECK(kill_at >= 1, "--kill-worker batch index must be >= 1");
  }

  std::vector<std::unique_ptr<service::ShardBackend>> backends;
  if (route == "local") {
    auto qopt = engine_options_from_flags(args);
    qopt.cache_bytes =
        static_cast<std::size_t>(per_shard_mb) << 20;
    qopt.max_queue = 0;  // the router sheds; engines see bounded sub-batches
    backends = service::make_local_backends(path, manifest, qopt);
  } else {
    service::ProcessBackendOptions popt;
    popt.retries = static_cast<int>(args.get_int_or("worker-retries", 1));
    popt.timeout_ms =
        static_cast<int>(args.get_int_or("worker-timeout-ms", 30000));
    const std::string exe = self_exe_path();
    for (int k = 0; k < shards; ++k) {
      std::vector<std::string> extra = {
          "--cache-mb", std::to_string(per_shard_mb),
          "--shards", std::to_string(args.get_int_or("shards", 8)),
          "--retries", std::to_string(args.get_int_or("retries", 3))};
      if (args.has("no-verify-shard")) extra.push_back("--no-verify-shard");
      if (k == kill_shard) {
        extra.push_back("--exit-after");
        extra.push_back(std::to_string(kill_at));
      }
      backends.push_back(service::make_process_backend(
          service::make_cli_worker_spawner(exe, path, std::move(extra)), k,
          manifest, popt));
    }
  }
  service::ShardRouter router(manifest, std::move(backends), ropt);

  std::cout << "store: " << path << " (n=" << manifest.n << ", " << shards
            << " shards, tile " << manifest.tile << ", "
            << (manifest.compressed ? "GAPSPZ1" : "raw") << " slices)\n"
            << "route: " << route << ", cache " << cache_mb
            << " MiB split as " << per_shard_mb << " MiB/shard";
  if (route == "process") {
    std::cout << ", worker retries " << args.get_int_or("worker-retries", 1)
              << ", timeout " << args.get_int_or("worker-timeout-ms", 30000)
              << " ms";
  }
  if (ropt.max_queue > 0) std::cout << ", max-queue " << ropt.max_queue;
  if (kill_shard >= 0) {
    std::cout << ", killing worker " << kill_shard << " at batch " << kill_at;
  }
  std::cout << "\n";

  auto pq = parse_queries(args);
  const auto repeat = std::max<long long>(1, args.get_int_or("repeat", 1));
  auto report = router.run_batch(pq.queries);
  for (long long rep = 1; rep < repeat; ++rep) {
    report = router.run_batch(pq.queries);
  }
  print_inline_results(report, pq.inline_queries, manifest.n);
  print_batch_summary(report);
  return 0;
}

int run_query(const Args& args) {
  const std::string path = args.get_or("store-path", "apsp_dist.bin");

  // Serving-topology flags first — contradictions are typed usage errors
  // (exit 1), caught before any store is opened.
  const std::string route = args.get_or("route", "none");
  GAPSP_CHECK(route == "none" || route == "local" || route == "process",
              "unknown --route: " + route + " (none | local | process)");
  const bool routed = route != "none";
  GAPSP_CHECK(!(args.has("shard") && routed),
              "--shard serves a single slice; it contradicts --route " +
                  route + " (the router already reaches every shard)");
  GAPSP_CHECK(!args.has("kill-worker") || route == "process",
              "--kill-worker kills a worker process; it needs --route "
              "process");
  GAPSP_CHECK(!(routed && args.get_or("repair", "off") != "off"),
              "--repair recompute cannot cross the worker boundary; serve "
              "unrouted or repair offline with `apsp_cli scrub`");
  GAPSP_CHECK(!(routed && args.get_double_or("fault-store-read", 0.0) > 0.0),
              "--fault-store-read injects into a single engine; chaos for "
              "routed serving is --kill-worker");
  GAPSP_CHECK(!args.has("no-verify-shard") || routed || args.has("shard"),
              "--no-verify-shard only applies to shard serving (--shard or "
              "--route)");

  if (routed) return run_query_routed(args, path, route);
  if (args.has("shard")) return run_query_shard_slice(args, path);

  const auto store = core::open_store(path);  // raw or GAPSPZ1, auto-detected

  auto qopt = engine_options_from_flags(args);
  // Raw stores verify against the GAPSPSM1 sidecar when one sits next to
  // the store; GAPSPZ1 frames are self-checksummed.
  if (store->tile_size() == 0) {
    core::load_store_checksums(core::checksum_sidecar_path(path),
                               qopt.checksums);
  }
  qopt.repair = make_repair_source(args);

  sim::FaultPlan chaos;
  chaos.seed = static_cast<std::uint64_t>(args.get_int_or("fault-seed", 1));
  chaos.p_store_read = args.get_double_or("fault-store-read", 0.0);
  sim::FaultInjector chaos_injector(chaos);
  if (chaos.p_store_read > 0.0) qopt.faults = &chaos_injector;

  const bool verified = qopt.verify_checksums && qopt.checksums.present();
  const service::QueryEngine engine(*store, qopt);
  std::cout << "store: " << path << " (n=" << store->n() << ", "
            << (static_cast<std::uint64_t>(store->n()) * store->n() *
                sizeof(dist_t) >> 10)
            << " KiB";
  if (store->tile_size() > 0) {
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
            << (store->tile_size() > 0 ? "GAPSPZ1 frame checksums"
                : verified             ? "GAPSPSM1 sidecar verification"
                                       : "off (no sidecar)")
            << ", " << qopt.retry.max_retries << " retries"
            << (qopt.repair ? ", repair=recompute" : "");
  if (qopt.max_queue > 0) std::cout << ", max-queue " << qopt.max_queue;
  if (chaos.p_store_read > 0.0) {
    std::cout << ", injecting store-read faults p=" << chaos.p_store_read;
  }
  std::cout << "\n";

  auto pq = parse_queries(args);
  const auto repeat = std::max<long long>(1, args.get_int_or("repeat", 1));
  auto report = engine.run_batch(pq.queries);
  for (long long rep = 1; rep < repeat; ++rep) {
    report = engine.run_batch(pq.queries);  // cache counters accumulate
  }
  print_inline_results(report, pq.inline_queries, store->n());
  print_batch_summary(report);
  // Degradation is visible but non-fatal: every query got a typed answer.
  return 0;
}

/// `apsp_cli shard`: slice a kept store into row-range shard files plus the
/// GAPSPSH1 manifest, next to the store.
int run_shard(const Args& args) {
  const std::string path = args.get_or("store-path", "apsp_dist.bin");
  const int num = static_cast<int>(args.get_int_or("shards", 2));
  const auto tile = static_cast<vidx_t>(args.get_int_or("block", 256));
  core::ShardingStats stats;
  const auto m = core::shard_store_file(path, num, tile, &stats);
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
            << "serve it with: apsp_cli query --store-path " << path
            << " --route process ...\n";
  return 0;
}

/// `apsp_cli serve --shard K`: one shard worker speaking the wire protocol
/// on stdin/stdout (spawned by the router; logs go to stderr).
int run_serve(const Args& args) {
  GAPSP_CHECK(args.has("shard"),
              "serve needs --shard K — it serves exactly one shard slice "
              "behind the wire protocol (the router spawns one per shard)");
  const std::string path = args.get_or("store-path", "apsp_dist.bin");
  const int shard = static_cast<int>(args.get_int_or("shard", 0));
  service::ShardWorkerOptions wopt;
  wopt.engine = engine_options_from_flags(args);
  wopt.engine.max_queue = 0;  // the router is the single admission point
  wopt.verify_shard = !args.has("no-verify-shard");
  wopt.exit_after = static_cast<int>(args.get_int_or("exit-after", 0));
  return service::run_shard_worker(path, shard, wopt, STDIN_FILENO,
                                   STDOUT_FILENO);
}

int run_scrub(const Args& args) {
  const std::string path = args.get_or("store-path", "apsp_dist.bin");
  core::ScrubOptions sopt;
  sopt.retry.max_retries = static_cast<int>(args.get_int_or("retries", 3));
  sopt.write_sums = args.has("write-sums");
  sopt.tile = static_cast<vidx_t>(args.get_int_or("block", 256));
  sopt.repair_fn = make_repair_source(args);
  sopt.repair = static_cast<bool>(sopt.repair_fn);

  sim::FaultPlan chaos;
  chaos.seed = static_cast<std::uint64_t>(args.get_int_or("fault-seed", 1));
  chaos.p_store_read = args.get_double_or("fault-store-read", 0.0);
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
                                          "readability; --write-sums to add)")
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
               "--repair recompute --generate/--input ...)\n";
  return 3;
}

int run_compact(const Args& args) {
  const std::string in = args.get_or("store-path", "apsp_dist.bin");
  const std::string out = args.get_or("out", in);
  const auto tile = static_cast<vidx_t>(args.get_int_or("block", 256));
  const auto cs = core::compact_store(in, out, tile);
  // GAPSPZ1 frames are self-checksummed; a raw-era sidecar would go stale.
  std::remove(core::checksum_sidecar_path(out).c_str());
  std::cout << "compacted: " << in << " -> " << out << "\n"
            << "store compressed: " << (cs.raw_bytes >> 10) << " KiB -> "
            << (cs.compressed_bytes >> 10) << " KiB (" << cs.ratio() << "x, "
            << cs.inf_tiles << "/" << cs.tiles << " all-kInf tiles) in "
            << cs.seconds * 1e3 << " ms\n"
            << "serve it with: apsp_cli query --store-path " << out << "\n";
  return 0;
}

/// Bytes of the file at `path`, or 0 when it does not exist.
std::uint64_t file_size_bytes(const std::string& path) {
  const auto f = util::File::open_if_present(path);
  return f ? f->size() : 0;
}

/// First `len` bytes of `path` (shorter when the file is), for magic sniffs.
std::string file_magic(const std::string& path, std::size_t len) {
  const auto f = util::File::open_if_present(path);
  if (!f) return {};
  std::string magic(
      static_cast<std::size_t>(std::min<std::uint64_t>(len, f->size())), '\0');
  f->pread_exact(magic.data(), magic.size(), 0);
  return magic;
}

/// Removes every shard sidecar of `path` (manifest + shard files), because
/// the bytes they slice are about to change. Tolerates a corrupt manifest:
/// the files are removed by probing, not by trusting its count.
void remove_shard_sidecars(const std::string& path) {
  const std::string manifest = core::shard_manifest_path(path);
  if (file_size_bytes(manifest) == 0) return;
  for (int k = 0;; ++k) {
    if (std::remove(core::shard_file_path(path, k).c_str()) != 0) break;
  }
  std::remove(manifest.c_str());
}

/// `apsp_cli update`: delta-repair a kept store after a batch of edge-weight
/// updates instead of re-solving (DESIGN.md §16). The repair writes into a
/// sibling tmp copy and atomically replaces the store only when complete, so
/// a kill mid-update leaves the pristine matrix plus a GAPSPCK1 delta
/// sidecar that --resume continues bit-identically. Sidecars derived from
/// the old bytes (.cal, .shards) are invalidated; a .sum sidecar is
/// refreshed in place.
int run_update(const Args& args) {
  const std::string path = args.get_or("store-path", "apsp_dist.bin");
  const auto upath = args.get("updates");
  GAPSP_CHECK(upath.has_value(),
              "update needs --updates FILE (one `u v w` arc per line; w = "
              "inf/x/-1 deletes) plus the solve's --generate/--input/--seed");
  const graph::CsrGraph g = make_graph(args);
  const auto updates = core::read_edge_updates(*upath);

  auto pristine = core::open_store(path);  // raw or GAPSPZ1, auto-detected
  const vidx_t n = pristine->n();
  GAPSP_CHECK(
      n == g.num_vertices(),
      "store " + path + " holds n=" + std::to_string(n) +
          " but the graph has n=" + std::to_string(g.num_vertices()) +
          " — pass the exact --generate/--input/--seed the solve used");
  const bool compressed = pristine->tile_size() > 0;

  core::IncrementalOptions opt;
  opt.damage_threshold = args.get_double_or(
      "update-threshold", core::IncrementalOptions{}.damage_threshold);
  opt.tile = compressed ? pristine->tile_size()
                        : static_cast<vidx_t>(args.get_int_or("block", 256));
  opt.checkpoint_path = args.get_or("checkpoint", path + ".updck");
  opt.resume = args.has("resume");
  opt.checkpoint_every_tiles = args.get_int_or("checkpoint-every", 64);

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
    const vidx_t strip = std::min<vidx_t>(n, 256);
    std::vector<dist_t> buf(static_cast<std::size_t>(strip) *
                            static_cast<std::size_t>(n));
    for (vidx_t r0 = 0; r0 < n; r0 += strip) {
      const vidx_t rows = std::min(strip, n - r0);
      pristine->read_block(r0, 0, rows, n, buf.data(),
                           static_cast<std::size_t>(n));
      target->write_block(r0, 0, rows, n, buf.data(),
                          static_cast<std::size_t>(n));
    }
  } else {
    std::cout << "resume: continuing into " << tmp << " from "
              << opt.checkpoint_path << "\n";
  }

  // Checkpoint durability boundary: each run is pwritten to the tmp copy
  // before any checkpoint claims it, which already survives SIGKILL.
  // flush() is a no-op today; it is where the fsync for power loss goes.
  opt.sync_before_checkpoint = [&target] { target->flush(); };

  core::IncrementalEngine engine(g, opt);
  // One write_block per run: a full-width run is one pwrite.
  const core::UpdateOutcome out = engine.apply(
      *pristine, updates, [&](const core::IncrementalEngine::TileRun& run) {
        target->write_block(run.row0, run.col0, run.rows, run.cols, run.data,
                            run.ld);
      });

  // Swap the repaired matrix in and fix up every sidecar derived from the
  // old bytes (the invalidation matrix in DESIGN.md §16).
  target.reset();
  pristine.reset();
  if (compressed) {
    core::compact_store(tmp, path, opt.tile);  // lands via atomic_replace
    std::remove(tmp.c_str());
    // GAPSPZ1 frames are self-checksummed; a raw-era sidecar would go stale.
    std::remove(core::checksum_sidecar_path(path).c_str());
  } else {
    util::commit_rename(tmp, path);
    // Refresh the checksum sidecar when the store carries one.
    core::StoreChecksums sums;
    if (core::load_store_checksums(core::checksum_sidecar_path(path), sums)) {
      auto repaired = core::open_file_store(path);
      const auto fresh = core::compute_store_checksums(*repaired, sums.tile);
      core::write_store_checksums(fresh, core::checksum_sidecar_path(path));
      std::cout << "sidecar: refreshed " << core::checksum_sidecar_path(path)
                << "\n";
    }
  }
  if (std::remove((path + ".cal").c_str()) == 0) {
    std::cout << "sidecar: invalidated " << path << ".cal (calibration was "
              << "fit against the old store)\n";
  }
  if (file_size_bytes(core::shard_manifest_path(path)) > 0) {
    remove_shard_sidecars(path);
    std::cout << "sidecar: invalidated " << core::shard_manifest_path(path)
              << " + shard files (re-shard with `apsp_cli shard`)\n";
  }

  std::cout << "update: " << path << " (n=" << n << ", "
            << (compressed ? "GAPSPZ1" : "raw") << ", tile " << opt.tile
            << ")\n"
            << "batch: " << updates.size() << " updates -> " << out.decreases
            << " decreases, " << out.increases << " increases, " << out.noops
            << " noops\n";
  if (out.full_solve) {
    std::cout << "mode: full re-solve (" << out.damaged_rows << "/" << n
              << " rows damaged > threshold "
              << opt.damage_threshold << ")\n";
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
  if (const auto gpath = args.get("save-graph")) {
    graph::write_matrix_market_file(engine.updated_graph(), *gpath);
    std::cout << "graph: wrote updated graph to " << *gpath
              << " (solve it fresh via --input to cross-check the repair)\n";
  }
  return 0;
}

/// `apsp_cli info`: describe a kept store and the health of its sidecars
/// without serving or mutating anything.
int run_info(const Args& args) {
  const std::string path = args.get_or("store-path", "apsp_dist.bin");
  if (file_size_bytes(path) == 0) {
    throw IoError("no store at " + path);
  }
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
  } else if (file_magic(path, 8) == "GAPSPSD1") {
    std::cout << "format: GAPSPSD1 shard slice (one row range of a sharded "
              << "store; `info` on the parent store reads the manifest)\n";
    return 0;
  } else {
    const auto store = core::open_file_store(path);  // throws if not square
    n = store->n();
    std::cout << "format: raw row-major dist_t matrix\nn: " << n << "\n";
  }

  // ---- sidecar health ---------------------------------------------------
  const std::string sum_path = core::checksum_sidecar_path(path);
  if (file_size_bytes(sum_path) == 0) {
    std::cout << "checksums: absent (" << sum_path << ")\n";
  } else {
    try {
      core::StoreChecksums sums;
      core::load_store_checksums(sum_path, sums);
      std::cout << "checksums: present (" << sum_path << ", tile "
                << sums.tile << ", " << sums.sums.size() << " tiles"
                << (sums.n == n ? "" : ", STALE: n mismatch") << ")\n";
    } catch (const Error& e) {
      std::cout << "checksums: INVALID (" << sum_path << ": " << e.what()
                << ")\n";
    }
  }
  const std::string cal_path = path + ".cal";
  if (file_size_bytes(cal_path) == 0) {
    std::cout << "calibration: absent (" << cal_path << ")\n";
  } else {
    std::cout << "calibration: "
              << (file_magic(cal_path, 9) == "GAPSPCAL1" ? "present"
                                                         : "INVALID (bad "
                                                           "magic)")
              << " (" << cal_path << ")\n";
  }
  const std::string manifest_path = core::shard_manifest_path(path);
  if (file_size_bytes(manifest_path) == 0) {
    std::cout << "shards: absent (" << manifest_path << ")\n";
  } else {
    try {
      core::ShardManifest m;
      core::load_shard_manifest(manifest_path, m);
      int missing = 0;
      for (int k = 0; k < m.num_shards(); ++k) {
        if (file_size_bytes(core::shard_file_path(path, k)) !=
            m.shards[static_cast<std::size_t>(k)].bytes) {
          ++missing;
        }
      }
      std::cout << "shards: " << m.num_shards() << " ("
                << (m.compressed ? "GAPSPZ1" : "raw") << " payloads, tile "
                << m.tile << ")";
      if (missing > 0) {
        std::cout << " — " << missing << " shard file(s) missing or resized";
      }
      std::cout << "\n";
    } catch (const Error& e) {
      std::cout << "shards: INVALID (" << manifest_path << ": " << e.what()
                << ")\n";
    }
  }
  core::Checkpoint ck;
  if (core::read_checkpoint(path + ".updck", &ck)) {
    std::cout << "delta checkpoint: present (" << path << ".updck, "
              << ck.progress
              << " tiles done — an `apsp_cli update` died mid-repair; rerun "
              << "it with --resume)\n";
  }
  return 0;
}

int run(const Args& args) {
  const graph::CsrGraph g = make_graph(args);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " density=" << g.density_percent() << "%\n";

  if (args.has("stats")) {
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
  const std::string device = args.get_or("device", "v100");
  if (device == "v100") {
    opts.device = sim::DeviceSpec::v100_scaled(
        static_cast<std::size_t>(args.get_int_or("memory-mb", 8)) << 20);
  } else if (device == "k80") {
    opts.device = sim::DeviceSpec::k80_scaled(
        static_cast<std::size_t>(args.get_int_or("memory-mb", 6)) << 20);
  } else {
    throw Error("unknown --device: " + device);
  }
  opts.algorithm = parse_algorithm(args.get_or("algorithm", "auto"));
  opts.num_components =
      static_cast<int>(args.get_int_or("components", 0));
  opts.batch_transfers = !args.has("no-batching");
  opts.overlap_transfers = !args.has("no-overlap");
  opts.transfer_compression = core::parse_transfer_compression(
      args.get_or("transfer-compression", "auto"));
  opts.dynamic_parallelism = !args.has("no-dp");
  opts.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const std::string kernel = args.get_or("sssp-kernel", "near-far");
  if (kernel == "near-far") {
    opts.sssp_kernel = core::SsspKernel::kNearFar;
  } else if (kernel == "delta-stepping") {
    opts.sssp_kernel = core::SsspKernel::kDeltaStepping;
  } else if (kernel == "bellman-ford") {
    opts.sssp_kernel = core::SsspKernel::kBellmanFord;
  } else {
    throw Error("unknown --sssp-kernel: " + kernel);
  }
  const std::string partitioner = args.get_or("partitioner", "kway");
  if (partitioner == "kway") {
    opts.partition_method = part::Method::kMultilevelKway;
  } else if (partitioner == "rb") {
    opts.partition_method = part::Method::kRecursiveBisection;
  } else {
    throw Error("unknown --partitioner: " + partitioner);
  }

  sim::TraceRecorder trace;
  if (args.has("trace")) opts.trace = &trace;

  sim::FaultPlan faults;
  faults.seed = static_cast<std::uint64_t>(args.get_int_or("fault-seed", 1));
  faults.p_h2d = args.get_double_or("fault-h2d", 0.0);
  faults.p_d2h = args.get_double_or("fault-d2h", 0.0);
  faults.p_kernel = args.get_double_or("fault-kernel", 0.0);
  faults.p_alloc = args.get_double_or("fault-alloc", 0.0);
  faults.p_decode = args.get_double_or("fault-decode", 0.0);
  if (const auto kill = args.get("kill-device"); kill.has_value()) {
    const auto colon = kill->find(':');
    GAPSP_CHECK(colon != std::string::npos,
                "expected --kill-device D:NTHOP but got " + *kill);
    faults.kill_device = static_cast<int>(std::stoll(kill->substr(0, colon)));
    faults.kill_at_op = std::stoll(kill->substr(colon + 1));
  }
  const bool any_faults = faults.p_h2d > 0 || faults.p_d2h > 0 ||
                          faults.p_kernel > 0 || faults.p_alloc > 0 ||
                          faults.p_decode > 0 || faults.kill_device >= 0;
  if (any_faults) opts.faults = &faults;
  opts.retry.max_retries = static_cast<int>(args.get_int_or("retries", 3));
  opts.kernel_variant =
      core::parse_kernel_variant(args.get_or("kernel-variant", "auto"));
  opts.kernel_threads =
      static_cast<int>(args.get_int_or("kernel-threads", 0));
  opts.checkpoint_path = args.get_or("checkpoint", "");
  opts.resume = args.has("resume");
  const double store_ratio = args.get_double_or("store-ratio", 1.0);
  GAPSP_CHECK(store_ratio >= 1.0, "--store-ratio must be >= 1");
  opts.store_bytes_per_element = sizeof(dist_t) / store_ratio;

  core::SelectorOptions sel;
  sel.sparse_percent = args.get_double_or("sparse-threshold", 0.8);
  sel.dense_percent = args.get_double_or("dense-threshold", 4.0);

  // A checkpoint sidecar only records *progress*; the completed rounds live
  // in the distance store. Across processes that store must be durable — a
  // RAM store dies with the killed run, and resuming against a fresh one
  // would silently continue from an uninitialized matrix.
  GAPSP_CHECK(opts.checkpoint_path.empty() ||
                  args.get_or("store", "ram") == "file",
              "--checkpoint/--resume need a durable store: add "
              "--store file --store-path P (the file is kept across runs)");
  const std::string store_path = args.get_or("store-path", "apsp_dist.bin");
  std::unique_ptr<core::DistStore> store;
  if (args.get_or("store", "ram") == "file") {
    // With a checkpoint in play the store must survive both the interrupted
    // run (exception unwinds this unique_ptr) and the resume run.
    const bool keep = args.has("keep-store") || !opts.checkpoint_path.empty();
    store = core::make_file_store(g.num_vertices(), store_path, keep);
    // A serving/resuming setup keeps state next to the store: reuse the
    // calibration sidecar a previous run saved so the selector's warm-up
    // solves are skipped.
    if (core::load_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: reused " << store_path << ".cal\n";
    }
  } else {
    store = core::make_ram_store(g.num_vertices());
  }

  core::SelectorReport report;
  core::ApspResult r;
  const int devices = static_cast<int>(args.get_int_or("devices", 1));
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
  } else if (args.has("per-component")) {
    auto comp = core::solve_apsp_per_component(g, opts, *store, sel);
    std::cout << "per-component: " << comp.num_components
              << " components, largest " << comp.largest_component << "\n";
    r = std::move(comp.result);
  } else {
    r = core::solve_apsp(g, opts, *store, &report, sel);
  }

  std::cout << "algorithm: " << core::algorithm_name(r.used);
  if (opts.algorithm == core::Algorithm::kAuto && devices == 1 &&
      !args.has("per-component")) {
    std::cout << " (selected; density " << report.density_percent << "%)";
  }
  std::cout << "\nsimulated time: " << r.metrics.sim_seconds * 1e3
            << " ms (kernels " << r.metrics.kernel_seconds * 1e3
            << " ms, transfers " << r.metrics.transfer_seconds * 1e3
            << " ms)\ntransfer overlap: "
            << r.metrics.hidden_transfer_seconds * 1e3 << " ms hidden, "
            << r.metrics.exposed_transfer_seconds * 1e3 << " ms exposed\n";
  const std::size_t wire_raw =
      r.metrics.bytes_h2d_raw + r.metrics.bytes_d2h_raw;
  const std::size_t wire = r.metrics.bytes_h2d_wire + r.metrics.bytes_d2h_wire;
  if (wire > 0) {
    std::cout << "transfer compression: " << (wire_raw >> 10) << " KiB -> "
              << (wire >> 10) << " KiB on the wire ("
              << static_cast<double>(wire_raw) / static_cast<double>(wire)
              << "x), decode busy " << r.metrics.decode_seconds * 1e3
              << " ms in " << r.metrics.decodes << " kernels\n";
  }
  std::cout << "device traffic: "
            << (r.metrics.bytes_h2d >> 10) << " KiB h2d in "
            << r.metrics.transfers_h2d << " transfers, "
            << (r.metrics.bytes_d2h >> 10) << " KiB d2h in "
            << r.metrics.transfers_d2h << " transfers\n"
            << "device peak memory: " << (r.metrics.device_peak_bytes >> 10)
            << " KiB of " << (opts.device.memory_bytes >> 10) << " KiB";
  if (r.metrics.pinned_peak_bytes > 0) {
    std::cout << " (+" << (r.metrics.pinned_peak_bytes >> 10)
              << " KiB pinned staging)";
  }
  std::cout << "\n";
  if (!r.metrics.kernel_variant.empty()) {
    std::cout << "kernel engine: " << r.metrics.kernel_variant
              << " microkernel, "
              << (opts.kernel_threads == 1
                      ? std::string("serial")
                      : opts.kernel_threads == 0
                            ? std::string("pooled")
                            : std::to_string(opts.kernel_threads) +
                                  "-thread")
              << " grid execution (" << core::simd_lane_isa() << " lanes, "
              << std::fixed << std::setprecision(2)
              << core::kernel_variant_rel_speed(
                     core::parse_kernel_variant(r.metrics.kernel_variant))
              << "x vs naive)\n";
    std::cout.unsetf(std::ios::fixed);
  }
  if (r.metrics.johnson_batch_size > 0) {
    std::cout << "johnson: bat=" << r.metrics.johnson_batch_size << ", "
              << r.metrics.johnson_num_batches << " batches, "
              << r.metrics.child_kernels << " child kernels\n";
  }
  if (r.metrics.boundary_k > 0) {
    std::cout << "boundary: k=" << r.metrics.boundary_k << ", "
              << r.metrics.boundary_nodes << " boundary vertices\n";
  }
  if (r.metrics.faults_injected > 0 || r.metrics.degradations > 0) {
    std::cout << "recovery: " << r.metrics.faults_injected
              << " faults injected, " << r.metrics.transfer_retries
              << " transfer retries, " << r.metrics.kernel_retries
              << " kernel retries, " << r.metrics.decode_retries
              << " decode retries ("
              << r.metrics.retry_backoff_seconds * 1e3 << " ms backoff), "
              << r.metrics.degradations << " degradations\n";
  }
  if (r.metrics.checkpoints_written > 0 || r.metrics.resumed_progress > 0) {
    std::cout << "checkpoint: " << r.metrics.checkpoints_written
              << " written, resumed past " << r.metrics.resumed_progress
              << " completed units\n";
  }

  if (const auto q = args.get("query"); q.has_value()) {
    std::istringstream qs(*q);
    std::string item;
    while (std::getline(qs, item, ';')) {
      const auto [u, v] = parse_pair(item);
      const dist_t d = store->at(r.stored_id(u), r.stored_id(v));
      std::cout << "dist(" << u << ", " << v << ") = ";
      if (d >= kInf) {
        std::cout << "unreachable\n";
      } else {
        std::cout << d << "\n";
      }
    }
  }
  if (const auto p = args.get("path"); p.has_value()) {
    const auto [u, v] = parse_pair(*p);
    const core::PathExtractor extractor(g, *store, r);
    const auto path = extractor.path(u, v);
    std::cout << "path(" << u << " -> " << v << "): ";
    if (path.empty()) {
      std::cout << "unreachable\n";
    } else {
      for (std::size_t i = 0; i < path.size(); ++i) {
        std::cout << (i == 0 ? "" : " -> ") << path[i];
      }
      std::cout << "  (length " << extractor.walk_length(path) << ")\n";
    }
  }
  if (args.has("verify")) {
    const auto rep = core::verify_result(g, *store, r, 8, opts.seed);
    std::cout << "verify: " << (rep.ok ? "OK" : "FAILED") << " ("
              << rep.rows_checked << " rows, " << rep.entries_checked
              << " entries)\n";
    if (!rep.ok) {
      std::cerr << rep.detail;
      return 3;
    }
  }
  if (const auto save = args.get("save"); save.has_value()) {
    core::save_distances(*store, r, *save);
    const double mib = static_cast<double>(g.num_vertices()) *
                       g.num_vertices() * sizeof(dist_t) / (1 << 20);
    std::cout << "distances: " << mib << " MiB -> " << *save << "\n";
  }
  if (args.has("keep-store") && args.get_or("store", "ram") == "file") {
    if (core::save_calibration(opts, store_path + ".cal")) {
      std::cout << "calibration: saved " << store_path << ".cal\n";
    }
    if (!args.has("no-compress-store")) {
      // The solve loop always writes the raw store (blocked FW rewrites
      // every tile O(n_d) times); compression happens here, at the sink,
      // once the matrix is final. Close the raw store first so buffered
      // writes are flushed before compaction re-reads the file.
      store.reset();
      const auto cs = core::compact_store(store_path, store_path);
      std::remove(core::checksum_sidecar_path(store_path).c_str());
      r.metrics.store_raw_bytes = static_cast<std::size_t>(cs.raw_bytes);
      r.metrics.store_compressed_bytes =
          static_cast<std::size_t>(cs.compressed_bytes);
      r.metrics.store_tiles = cs.tiles;
      r.metrics.store_inf_tiles = cs.inf_tiles;
      r.metrics.store_compact_seconds = cs.seconds;
      std::cout << "store compressed: " << (cs.raw_bytes >> 10) << " KiB -> "
                << (cs.compressed_bytes >> 10) << " KiB (" << cs.ratio()
                << "x, " << cs.inf_tiles << "/" << cs.tiles
                << " all-kInf tiles) in " << cs.seconds * 1e3 << " ms\n";
    } else {
      // The raw kept store has no framing to catch bit rot: write the
      // GAPSPSM1 checksum sidecar so the serving tier can verify every
      // cache-miss read (DESIGN.md §13). Close first to flush writes.
      store.reset();
      const auto ro = core::open_file_store(store_path);
      const auto sums = core::compute_store_checksums(*ro);
      core::write_store_checksums(sums,
                                  core::checksum_sidecar_path(store_path));
      std::cout << "store checksums: " << sums.sums.size() << " tile sums -> "
                << core::checksum_sidecar_path(store_path) << "\n";
    }
    std::cout << "store kept: " << store_path
              << " (serve it with: apsp_cli query --store-path ...)\n";
  }
  if (const auto tpath = args.get("trace"); tpath.has_value()) {
    std::ofstream out(*tpath);
    GAPSP_CHECK(out.good(), "cannot open " + *tpath);
    trace.write_chrome_trace(out);
    std::cout << "timeline: " << trace.events().size() << " events -> "
              << *tpath << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (!args.positional().empty() && args.positional().front() == "query") {
      const auto unknown = args.unknown(
          {"store-path", "point", "row", "batch", "cache-mb", "block",
           "shards", "threads", "repeat", "retries", "max-queue",
           "no-verify-sums", "repair", "generate", "input", "seed",
           "fault-store-read", "fault-seed", "route", "shard",
           "no-verify-shard", "worker-retries", "worker-timeout-ms",
           "kill-worker"});
      if (!unknown.empty()) {
        std::cerr << "unknown query flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_query(args);
    }
    if (!args.positional().empty() && args.positional().front() == "shard") {
      const auto unknown = args.unknown({"store-path", "shards", "block"});
      if (!unknown.empty()) {
        std::cerr << "unknown shard flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_shard(args);
    }
    if (!args.positional().empty() && args.positional().front() == "serve") {
      const auto unknown = args.unknown(
          {"store-path", "shard", "cache-mb", "block", "shards", "threads",
           "retries", "no-verify-shard", "exit-after"});
      if (!unknown.empty()) {
        std::cerr << "unknown serve flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_serve(args);
    }
    if (!args.positional().empty() && args.positional().front() == "scrub") {
      const auto unknown = args.unknown(
          {"store-path", "repair", "generate", "input", "seed", "retries",
           "write-sums", "block", "fault-store-read", "fault-seed"});
      if (!unknown.empty()) {
        std::cerr << "unknown scrub flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_scrub(args);
    }
    if (!args.positional().empty() && args.positional().front() == "update") {
      const auto unknown = args.unknown(
          {"store-path", "updates", "update-threshold", "checkpoint",
           "checkpoint-every", "resume", "block", "generate", "input",
           "seed", "save-graph"});
      if (!unknown.empty()) {
        std::cerr << "unknown update flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_update(args);
    }
    if (!args.positional().empty() && args.positional().front() == "info") {
      const auto unknown = args.unknown({"store-path"});
      if (!unknown.empty()) {
        std::cerr << "unknown info flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_info(args);
    }
    if (!args.positional().empty() &&
        args.positional().front() == "compact") {
      const auto unknown = args.unknown({"store-path", "out", "block"});
      if (!unknown.empty()) {
        std::cerr << "unknown compact flag(s):";
        for (const auto& f : unknown) std::cerr << " --" << f;
        std::cerr << "\n";
        return 2;
      }
      return run_compact(args);
    }
    const auto unknown = args.unknown(
        {"input", "generate", "seed", "algorithm", "device", "memory-mb",
         "components", "no-batching", "no-overlap", "no-dp",
         "sparse-threshold", "dense-threshold", "store", "store-path",
         "keep-store", "no-compress-store", "store-ratio", "query", "path",
         "trace", "stats", "sssp-kernel", "partitioner", "devices",
         "per-component", "save", "verify", "fault-seed", "fault-h2d",
         "fault-d2h", "fault-kernel", "fault-alloc", "fault-decode",
         "kill-device", "retries", "checkpoint", "resume", "kernel-variant",
         "kernel-threads", "transfer-compression"});
    if (!unknown.empty()) {
      std::cerr << "unknown flag(s):";
      for (const auto& f : unknown) std::cerr << " --" << f;
      std::cerr << "\n";
      return 2;
    }
    return run(args);
  } catch (const gapsp::CorruptError& e) {
    // Data failed an integrity check — retrying is useless; scrub instead.
    std::cerr << "corrupt store: " << e.what()
              << " (run `apsp_cli scrub --store-path ...` to locate and "
                 "repair the damage)\n";
    return 4;
  } catch (const gapsp::IoError& e) {
    // Host I/O failure (missing/truncated file, sick disk) — distinct exit
    // code so serving wrappers can tell an infrastructure fault from a
    // usage error.
    std::cerr << "io error: " << e.what()
              << " (check --store-path and that the file is readable)\n";
    return 4;
  } catch (const gapsp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
