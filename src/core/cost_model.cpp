#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "core/apsp_common.h"  // weight_block
#include "core/dist_store.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"
#include "core/transfer_codec.h"
#include "graph/generators.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace gapsp::core {

double compressed_link_bandwidth(const sim::DeviceSpec& spec,
                                 double wire_ratio) {
  const double decode_rate = spec.decode_gbps * 1e9;
  if (wire_ratio <= 1.0 || decode_rate <= 0.0) return spec.link_bandwidth;
  // Per raw byte: 1/R of it crosses the link, all of it passes the decode
  // kernel — the effective rate is the harmonic combination.
  return 1.0 /
         (1.0 / (wire_ratio * spec.link_bandwidth) + 1.0 / decode_rate);
}

double estimate_transfer_ratio(const graph::CsrGraph& g,
                               const ApspOptions& opts) {
  const WirePolicy policy =
      wire_policy(opts.device, opts.transfer_compression);
  if (!policy.enabled) return 1.0;
  // Probe the same tiles the drivers stage: weight blocks, through the
  // codec's own per-tile decision (whole-tile probe, slice frames, fallback
  // threshold). A handful of sampled block-rows is representative because
  // the z1 ratio is driven by the kInf density, which is uniform across an
  // adjacency-structured matrix.
  const vidx_t n = g.num_vertices();
  const vidx_t rows = std::min<vidx_t>(n, 64);
  const int blocks = n > rows ? 4 : 1;
  std::vector<dist_t> tile(static_cast<std::size_t>(rows) * n);
  SlicedFrames frames;
  double raw_total = 0.0, wire_total = 0.0;
  for (int i = 0; i < blocks; ++i) {
    const vidx_t row0 = static_cast<vidx_t>(
        static_cast<std::int64_t>(i) * (n - rows) / std::max(1, blocks - 1));
    weight_block(g, row0, 0, rows, n, tile.data(),
                 static_cast<std::size_t>(n));
    const std::size_t raw = tile.size() * sizeof(dist_t);
    const bool wins = encode_slices(tile.data(), raw, policy.max_wire_frac,
                                    opts.kernel_threads, frames);
    raw_total += static_cast<double>(raw);
    wire_total += static_cast<double>(wins ? frames.wire_bytes : raw);
  }
  return wire_total > 0.0 ? raw_total / wire_total : 1.0;
}

double fw_transfer_model(vidx_t n, const sim::DeviceSpec& spec, bool overlap,
                         double out_bytes_per_element, double wire_ratio) {
  const vidx_t b = fw_block_size(spec, n, fw_resident_blocks(overlap));
  const double nd = std::ceil(static_cast<double>(n) / b);
  // Working tiles (3b²) bounce over the device link at the raw element
  // size; only the n² output stream lands in the (possibly compressed)
  // store sink.
  const double bytes =
      nd * (3.0 * sizeof(dist_t) * static_cast<double>(b) * b +
            out_bytes_per_element * static_cast<double>(n) * n);
  return bytes / compressed_link_bandwidth(spec, wire_ratio);
}

double johnson_transfer_model(vidx_t n, const sim::DeviceSpec& spec,
                              double out_bytes_per_element,
                              double wire_ratio) {
  return out_bytes_per_element * static_cast<double>(n) * n /
         compressed_link_bandwidth(spec, wire_ratio);
}

double boundary_transfer_model(const BoundaryPlan& plan, vidx_t n,
                               const sim::DeviceSpec& spec,
                               double out_bytes_per_element,
                               double wire_ratio) {
  // Output volume is n² either way; batching turns it into ~k/N_row large
  // transfers. Model the transfer count from the staging capacity.
  const double total_bytes =
      out_bytes_per_element * static_cast<double>(n) * n;
  double transfers = static_cast<double>(plan.k) * plan.k;  // naive fallback
  if (plan.staging_rows > 0) {
    transfers = std::ceil(static_cast<double>(n) / plan.staging_rows);
  }
  return transfers * spec.transfer_latency_s +
         total_bytes / compressed_link_bandwidth(spec, wire_ratio);
}

double boundary_nop(vidx_t n, int k, double avg_boundary) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double b = avg_boundary;
  return dn * dn * dn / (dk * dk) + std::pow(dk * b, 3.0) +
         dn * dk * b * b + dn * dn * b;
}

int boundary_bucket(vidx_t n, vidx_t nb, int num_buckets) {
  const double ideal = std::pow(static_cast<double>(n), 0.75);
  const double ratio = std::max(1.0, static_cast<double>(nb) / ideal);
  const int bucket = static_cast<int>(std::floor(std::log2(ratio)));
  return std::clamp(bucket, 0, num_buckets - 1);
}

namespace {

constexpr int kNumBuckets = 6;

/// The probes' options, built from the fields of calibration_cache_key
/// alone so that one key always names one table: the device, overlap,
/// batching and the FW sub-tile. Everything else stays at its default (no
/// faults, no checkpoint, no trace, the default seed, k and partitioner).
/// The probes keep only modeled kernel seconds, which depend only on block
/// shapes, so they run charge-only with the codec off.
ApspOptions probe_options(const ApspOptions& key_opts) {
  ApspOptions opts;
  opts.device = key_opts.device;
  opts.overlap_transfers = key_opts.overlap_transfers;
  opts.batch_transfers = key_opts.batch_transfers;
  opts.fw_tile = key_opts.fw_tile;
  opts.transfer_compression = TransferCompression::kOff;
  opts.charge_only = true;
  return opts;
}

Calibration run_calibration(const ApspOptions& key_opts) {
  Calibration cal;
  const ApspOptions opts = probe_options(key_opts);

  // --- FW reference runs: random graphs, the FW cost only depends on n.
  // Two sizes give the power-law fit (paper: single point, exponent 3 —
  // valid asymptotically; at scaled sizes the measured exponent is lower).
  {
    const vidx_t na = 384, nb = 768;
    auto run_fw = [&](vidx_t n) {
      auto g = graph::make_erdos_renyi(n, 4 * n, 7001);
      auto store = make_ram_store(g.num_vertices());
      return ooc_floyd_warshall(g, opts, *store).metrics.kernel_seconds;
    };
    const double ta = run_fw(na);
    const double tb = run_fw(nb);
    cal.fw_n0 = nb;
    cal.fw_t0 = tb;
    cal.fw_exponent = std::clamp(
        std::log(tb / ta) / std::log(static_cast<double>(nb) / na), 1.0, 3.0);
  }

  // --- Boundary reference runs on small-separator (road) graphs, again a
  // two-point power-law fit (paper: single point, exponent 3/2) ---
  double fallback_c_unit = 0.0;
  auto run_bnd = [&](vidx_t side, double* c_unit_out) {
    auto g = graph::make_road(side, side, 7002);
    auto store = make_ram_store(g.num_vertices());
    const BoundaryPlan plan = plan_boundary(g, opts);
    const ApspResult r = ooc_boundary(g, opts, plan, *store);
    if (c_unit_out != nullptr) {
      const double b =
          static_cast<double>(plan.nb) / static_cast<double>(plan.k);
      *c_unit_out = r.metrics.kernel_seconds /
                    boundary_nop(g.num_vertices(), plan.k, b);
    }
    return r.metrics.kernel_seconds;
  };
  // Try successively smaller reference pairs until one fits the device; a
  // device too small for all of them leaves bnd_t0 = 0 and the estimator
  // reports boundary infeasible.
  cal.bnd_n0 = 900;
  cal.bnd_t0 = 0.0;
  for (const auto& [small_side, big_side] :
       {std::pair<vidx_t, vidx_t>{24, 36}, {18, 27}, {13, 19}}) {
    try {
      const double ta = run_bnd(small_side, nullptr);
      const double tb = run_bnd(big_side, &fallback_c_unit);
      cal.bnd_n0 = big_side * big_side;
      cal.bnd_t0 = tb;
      cal.bnd_exponent = std::clamp(
          std::log(tb / ta) /
              std::log(static_cast<double>(big_side) * big_side /
                       (static_cast<double>(small_side) * small_side)),
          0.5, 3.0);
      break;
    } catch (const Error&) {
      continue;
    }
  }

  // --- c_unit buckets: meshes with increasing long-range rewiring give
  // increasing boundary counts; record time-per-operation per bucket ---
  cal.c_unit.assign(kNumBuckets, 0.0);
  std::vector<int> samples(kNumBuckets, 0);
  const double rewires[] = {0.0, 0.02, 0.05, 0.10, 0.20, 0.35};
  for (double rw : rewires) {
    auto g = graph::make_mesh(700, 12, 7003, rw);
    BoundaryPlan plan;
    try {
      plan = plan_boundary(g, opts);
    } catch (const Error&) {
      continue;  // this training point does not fit the device — skip
    }
    auto store = make_ram_store(g.num_vertices());
    ApspResult r;
    try {
      r = ooc_boundary(g, opts, plan, *store);
    } catch (const Error&) {
      continue;
    }
    const double b =
        static_cast<double>(plan.nb) / static_cast<double>(plan.k);
    const double nop = boundary_nop(g.num_vertices(), plan.k, b);
    const int bucket = boundary_bucket(g.num_vertices(), plan.nb, kNumBuckets);
    cal.c_unit[bucket] += r.metrics.kernel_seconds / nop;
    ++samples[bucket];
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    if (samples[i] > 0) cal.c_unit[i] /= samples[i];
  }
  // Fill untrained buckets from the nearest trained one; if no training
  // point fit the device, fall back to the per-op cost of the road
  // reference run.
  for (int i = 0; i < kNumBuckets; ++i) {
    if (cal.c_unit[i] != 0.0) continue;
    for (int d = 1; d < kNumBuckets; ++d) {
      const int lo = i - d, hi = i + d;
      if (lo >= 0 && cal.c_unit[lo] != 0.0) {
        cal.c_unit[i] = cal.c_unit[lo];
        break;
      }
      if (hi < kNumBuckets && cal.c_unit[hi] != 0.0) {
        cal.c_unit[i] = cal.c_unit[hi];
        break;
      }
    }
    if (cal.c_unit[i] == 0.0) cal.c_unit[i] = fallback_c_unit;
  }
  return cal;
}

}  // namespace

namespace {

std::mutex& calibration_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, Calibration>& calibration_table() {
  static std::map<std::string, Calibration> cache;
  return cache;
}

long long g_calibration_runs = 0;  // guarded by calibration_mutex()

constexpr char kCalMagic[8] = {'G', 'A', 'P', 'S', 'C', 'A', 'L', '1'};

}  // namespace

std::string calibration_cache_key(const ApspOptions& opts) {
  // The probes run on options built from this key's fields alone
  // (probe_options), so one key names one table — keying on the device
  // alone would let two configs on the same device share one table (e.g.
  // overlap on/off changes block sizes). Nothing else reaches a probe: the
  // Johnson queue factor, the codec mode (the probes run codec-off) and the
  // kernel variant (the probes record modeled kernel seconds, which no
  // variant changes) share one table. Keys that still named the queue
  // factor ("/qf") and the codec mode ("/tc") match no key built here, so a
  // sidecar written under one is ignored and the probes re-run once.
  return opts.device.name + "/" + std::to_string(opts.device.memory_bytes) +
         "/ov" + std::to_string(opts.overlap_transfers ? 1 : 0) + "/bt" +
         std::to_string(opts.batch_transfers ? 1 : 0) + "/ft" +
         std::to_string(opts.fw_tile);
}

const Calibration& calibrate(const ApspOptions& opts) {
  const std::string key = calibration_cache_key(opts);
  std::lock_guard<std::mutex> lk(calibration_mutex());
  auto& cache = calibration_table();
  auto it = cache.find(key);
  if (it == cache.end()) {
    ++g_calibration_runs;
    it = cache.emplace(key, run_calibration(opts)).first;
  }
  return it->second;
}

bool save_calibration(const ApspOptions& opts, const std::string& path) {
  const std::string key = calibration_cache_key(opts);
  Calibration cal;
  {
    std::lock_guard<std::mutex> lk(calibration_mutex());
    const auto it = calibration_table().find(key);
    if (it == calibration_table().end()) return false;
    cal = it->second;
  }
  // Same-machine binary sidecar, checksummed like GAPSPCK1: the table is a
  // cache, so any doubt on read just means re-running the probes.
  std::vector<std::uint8_t> buf;
  const auto put = [&buf](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + bytes);
  };
  put(kCalMagic, sizeof(kCalMagic));
  const std::uint64_t key_len = key.size();
  put(&key_len, sizeof(key_len));
  put(key.data(), key.size());
  put(&cal.fw_t0, sizeof(cal.fw_t0));
  const std::int64_t fw_n0 = cal.fw_n0;
  put(&fw_n0, sizeof(fw_n0));
  put(&cal.fw_exponent, sizeof(cal.fw_exponent));
  put(&cal.bnd_t0, sizeof(cal.bnd_t0));
  const std::int64_t bnd_n0 = cal.bnd_n0;
  put(&bnd_n0, sizeof(bnd_n0));
  put(&cal.bnd_exponent, sizeof(cal.bnd_exponent));
  const std::uint64_t buckets = cal.c_unit.size();
  put(&buckets, sizeof(buckets));
  put(cal.c_unit.data(), cal.c_unit.size() * sizeof(double));
  const std::uint64_t sum = util::fnv1a(buf.data(), buf.size());
  put(&sum, sizeof(sum));
  // Captured as pointer + length: a captured `buf` reference makes GCC 12
  // flag the puts above with a false -Wstringop-overflow.
  const std::uint8_t* data = buf.data();
  const std::size_t len = buf.size();
  util::atomic_replace(path, [data, len](util::File& f) {
    f.pwrite_exact(data, len, 0);
  });
  return true;
}

bool is_calibration_sidecar(const std::string& path) {
  const auto f = util::File::open_if_present(path);
  char magic[sizeof(kCalMagic)] = {};
  if (!f || f->size() < sizeof(magic)) return false;
  f->pread_exact(magic, sizeof(magic), 0);
  return std::memcmp(magic, kCalMagic, sizeof(kCalMagic)) == 0;
}

bool load_calibration(const ApspOptions& opts, const std::string& path) {
  std::vector<std::uint8_t> buf;
  {
    const auto f = util::File::open_if_present(path);
    if (!f) return false;  // no sidecar: calibrate() will probe
    buf.resize(static_cast<std::size_t>(f->size()));
    f->pread_exact(buf.data(), buf.size(), 0);
  }

  std::size_t pos = 0;
  const auto take = [&](void* p, std::size_t bytes) {
    if (buf.size() - pos < bytes) return false;
    std::memcpy(p, buf.data() + pos, bytes);
    pos += bytes;
    return true;
  };
  char magic[8];
  if (buf.size() < sizeof(std::uint64_t) ||
      !take(magic, sizeof(magic)) ||
      std::memcmp(magic, kCalMagic, sizeof(kCalMagic)) != 0) {
    return false;
  }
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, buf.data() + body, sizeof(stored_sum));
  if (util::fnv1a(buf.data(), body) != stored_sum) return false;

  std::uint64_t key_len = 0;
  if (!take(&key_len, sizeof(key_len)) || key_len > body - pos) return false;
  std::string key(reinterpret_cast<const char*>(buf.data() + pos),
                  static_cast<std::size_t>(key_len));
  pos += static_cast<std::size_t>(key_len);
  if (key != calibration_cache_key(opts)) return false;  // other config

  Calibration cal;
  std::int64_t fw_n0 = 0, bnd_n0 = 0;
  std::uint64_t buckets = 0;
  if (!take(&cal.fw_t0, sizeof(cal.fw_t0)) ||
      !take(&fw_n0, sizeof(fw_n0)) ||
      !take(&cal.fw_exponent, sizeof(cal.fw_exponent)) ||
      !take(&cal.bnd_t0, sizeof(cal.bnd_t0)) ||
      !take(&bnd_n0, sizeof(bnd_n0)) ||
      !take(&cal.bnd_exponent, sizeof(cal.bnd_exponent)) ||
      !take(&buckets, sizeof(buckets)) ||
      buckets > (body - pos) / sizeof(double)) {
    return false;
  }
  cal.fw_n0 = static_cast<vidx_t>(fw_n0);
  cal.bnd_n0 = static_cast<vidx_t>(bnd_n0);
  cal.c_unit.resize(static_cast<std::size_t>(buckets));
  if (!take(cal.c_unit.data(), cal.c_unit.size() * sizeof(double)) ||
      pos != body) {
    return false;
  }

  std::lock_guard<std::mutex> lk(calibration_mutex());
  calibration_table()[key] = std::move(cal);
  return true;
}

void clear_calibration_cache() {
  std::lock_guard<std::mutex> lk(calibration_mutex());
  calibration_table().clear();
}

long long calibration_runs() {
  std::lock_guard<std::mutex> lk(calibration_mutex());
  return g_calibration_runs;
}

CostBreakdown estimate_fw(const graph::CsrGraph& g, const ApspOptions& opts) {
  const Calibration& cal = calibrate(opts);
  const double scale =
      static_cast<double>(g.num_vertices()) / static_cast<double>(cal.fw_n0);
  CostBreakdown cost;
  cost.compute_s = cal.fw_t0 * std::pow(scale, cal.fw_exponent);
  cost.transfer_s =
      fw_transfer_model(g.num_vertices(), opts.device, opts.overlap_transfers,
                        opts.store_bytes_per_element,
                        estimate_transfer_ratio(g, opts));
  cost.overlapped = opts.overlap_transfers;
  return cost;
}

std::int64_t johnson_num_batches(vidx_t n, int bat) {
  GAPSP_CHECK(bat > 0, "batch size must be positive");
  // 64-bit on purpose: n + bat - 1 overflows a 32-bit vidx_t for n near the
  // type's maximum with a small batch size.
  return (static_cast<std::int64_t>(n) + bat - 1) / bat;
}

CostBreakdown estimate_johnson(const graph::CsrGraph& g,
                               const ApspOptions& opts, int sample_batches) {
  int bat = 0;
  try {
    bat = johnson_batch_size(opts.device, g, opts.johnson_queue_factor,
                             opts.overlap_transfers ? 2 : 1);
  } catch (const Error&) {
    // Not even one SSSP instance fits the device: infeasible, like
    // estimate_boundary when no k fits — never an exception the selector
    // has to survive.
    CostBreakdown cost;
    cost.feasible = false;
    cost.compute_s = cost.transfer_s = std::numeric_limits<double>::infinity();
    return cost;
  }
  const std::int64_t nb = johnson_num_batches(g.num_vertices(), bat);
  // Randomly choose up to `sample_batches` distinct batches (paper: k = 5).
  Rng rng(opts.seed ^ 0x5eedULL);
  std::vector<int> chosen;
  if (nb <= sample_batches) {
    for (int i = 0; i < static_cast<int>(nb); ++i) chosen.push_back(i);
  } else {
    while (static_cast<int>(chosen.size()) < sample_batches) {
      const int c = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(nb)));
      if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) {
        chosen.push_back(c);
      }
    }
  }
  // Sampling is an internal probe: keep it out of the user's timeline, and
  // run it fault-free like the calibration probes, so the estimate (and
  // the pick) does not depend on the fault plan the solve then meets.
  ApspOptions sample_opts = opts;
  sample_opts.trace = nullptr;
  sample_opts.faults = nullptr;
  sample_opts.fault_injector = nullptr;
  const JohnsonSample sample = johnson_sample_batches(g, sample_opts, chosen);
  CostBreakdown cost;
  cost.compute_s = sample.kernel_seconds * static_cast<double>(nb) /
                   static_cast<double>(std::max(1, sample.sampled));
  cost.transfer_s = johnson_transfer_model(g.num_vertices(), opts.device,
                                           opts.store_bytes_per_element,
                                           estimate_transfer_ratio(g, opts));
  cost.overlapped = opts.overlap_transfers;
  return cost;
}

CostBreakdown estimate_boundary(const graph::CsrGraph& g,
                                const ApspOptions& opts) {
  CostBreakdown cost;
  BoundaryPlan plan;
  try {
    plan = plan_boundary(g, opts);
  } catch (const Error&) {
    cost.feasible = false;
    cost.compute_s = cost.transfer_s = std::numeric_limits<double>::infinity();
    return cost;
  }
  const Calibration& cal = calibrate(opts);
  const vidx_t n = g.num_vertices();
  const double ideal = std::pow(static_cast<double>(n), 0.75);
  // Small-separator test on the plan's own partition (k = √n/4): the road
  // family sits near 1.2·n^(3/4) boundary vertices, the mesh family at 4+.
  const bool small_sep =
      static_cast<double>(plan.nb) < 2.5 * ideal && cal.bnd_t0 > 0.0;
  if (small_sep) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(cal.bnd_n0);
    cost.compute_s = cal.bnd_t0 * std::pow(scale, cal.bnd_exponent);
  } else {
    const double b =
        static_cast<double>(plan.nb) / static_cast<double>(plan.k);
    const int bucket = boundary_bucket(n, plan.nb, kNumBuckets);
    if (cal.c_unit[bucket] <= 0.0) {
      cost.feasible = false;
      cost.compute_s = cost.transfer_s =
          std::numeric_limits<double>::infinity();
      return cost;
    }
    cost.compute_s = boundary_nop(n, plan.k, b) * cal.c_unit[bucket];
  }
  cost.transfer_s = boundary_transfer_model(plan, n, opts.device,
                                            opts.store_bytes_per_element,
                                            estimate_transfer_ratio(g, opts));
  // Overlap only helps when the batched D2H path is actually in use.
  cost.overlapped = opts.overlap_transfers && opts.batch_transfers &&
                    plan.staging_rows > 0;
  return cost;
}

IncrementalCost estimate_incremental(vidx_t n, eidx_t m, std::size_t sources,
                                     std::size_t damaged_rows,
                                     std::size_t tiles_touched, vidx_t tile,
                                     const sim::DeviceSpec& spec,
                                     double wire_ratio) {
  IncrementalCost cost;
  if (n <= 0 || spec.compute_ops_per_s <= 0.0) return cost;
  const double dn = static_cast<double>(n);
  const double k = static_cast<double>(sources);
  const double dr = static_cast<double>(damaged_rows);
  const double tiles = static_cast<double>(tiles_touched);
  const double tb = static_cast<double>(tile) * static_cast<double>(tile);

  // Damaged rows re-run SSSP: ~ (m + n·log₂n) relaxations each, charged
  // like a Johnson mini-batch at peak scalar throughput.
  const double log_n = dn > 1.0 ? std::log2(dn) : 1.0;
  cost.sssp_s =
      dr * (static_cast<double>(m) + dn * log_n) / spec.compute_ops_per_s;
  // Seed closure (k³), the two panel products (2·n·k²), and the per-tile
  // relaxations (tile²·k each), all in minplus_ops add+compare convention.
  cost.closure_s = 2.0 * k * k * k / spec.compute_ops_per_s;
  cost.panel_s = 2.0 * 2.0 * dn * k * k / spec.compute_ops_per_s;
  cost.tile_s = tiles * 2.0 * tb * k / spec.compute_ops_per_s;

  // Wire traffic: seed row+column panels and damaged rows move once, every
  // touched tile moves twice (read + write-back), all at the effective
  // (possibly compressed) link rate plus per-transfer latency.
  const double bytes = sizeof(dist_t) *
                       (2.0 * k * dn + dr * dn + 2.0 * tiles * tb);
  const double link = compressed_link_bandwidth(spec, wire_ratio);
  cost.transfer_s =
      bytes / link +
      (2.0 * k + dr + 2.0 * tiles) * spec.transfer_latency_s;
  return cost;
}

double incremental_full_solve_model(vidx_t n, const sim::DeviceSpec& spec,
                                    double wire_ratio) {
  if (n <= 0 || spec.compute_ops_per_s <= 0.0) return 0.0;
  const double dn = static_cast<double>(n);
  return 2.0 * dn * dn * dn / spec.compute_ops_per_s +
         fw_transfer_model(n, spec, /*overlap=*/false, sizeof(dist_t),
                           wire_ratio);
}

}  // namespace gapsp::core
