// apsp_perf — the repository benchmark. One process runs one workload with a
// single closed-loop client thread over the library's global pool: the next
// operation starts only when the previous one returned. Only calls into the
// library's public functions are timed; every answer is checked against
// Dijkstra; every metric is printed as one `name value unit` line, and
// facts about the machine as `# key value` lines. perf/README.md has the
// workloads, the metric dictionary and how to read the trace.
//
//   apsp_perf --workload solve-dense --seed 1 --seconds 22 [--trace FILE]
//
// Without --trace the run prints the end-to-end metrics. With it, measured
// operations alternate between traced and untraced (the difference is
// trace.overhead), the run then makes the counterfactual calls behind the
// per-layer split, prints the per-layer metrics, and writes its host spans
// and the simulated device lanes as one Chrome trace to FILE.
//
// Exit status: 0 when every answer was right, 3 when a check found a wrong
// distance (the metrics are still printed), 1 on any error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/apsp.h"
#include "core/compressed_store.h"
#include "core/cost_model.h"
#include "core/incremental.h"
#include "core/kernel_engine.h"
#include "core/tile_reader.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "sssp/dijkstra.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace gapsp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Setup is repeated this many times per run and setup_s is the median, so
/// one slow repetition does not move the metric.
constexpr int kSetupReps = 3;
/// A run measures at least this many operations, however long they take.
constexpr long kMinOps = 3;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void emit(std::string_view name, double value, std::string_view unit) {
  std::printf("%.*s %.12g %.*s\n", static_cast<int>(name.size()), name.data(),
              value, static_cast<int>(unit.size()), unit.data());
}

void fact(std::string_view key, const std::string& value) {
  std::printf("# %.*s %s\n", static_cast<int>(key.size()), key.data(),
              value.c_str());
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return service::latency_percentile(v, q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Within-run spread: interquartile range over the median.
double iqr_frac(const std::vector<double>& v) {
  return ratio(quantile(v, 0.75) - quantile(v, 0.25), median(v));
}

/// Simulated seconds during which at least one device lane was busy.
double device_busy(const sim::TraceRecorder& rec) {
  std::vector<std::pair<double, double>> spans;
  for (const sim::TraceEvent& e : rec.events()) {
    if (e.kind != sim::TraceEvent::Kind::kFault) {
      spans.emplace_back(e.start_s, e.end_s);
    }
  }
  std::sort(spans.begin(), spans.end());
  double busy = 0.0, lo = 0.0, hi = 0.0;
  for (const auto& [start, end] : spans) {
    if (start > hi) {
      busy += hi - lo;
      lo = start;
      hi = end;
    } else {
      hi = std::max(hi, end);
    }
  }
  return busy + hi - lo;
}

// ---- host spans ----------------------------------------------------------

/// In-memory span recorder around the benchmark's own calls into the
/// library. Single client thread, so no locking. Spans nest through a stack
/// of open spans; `request` is the index of the measured operation the spans
/// belong to, -1 outside them.
class Tracer {
 public:
  bool on = false;
  long request = -1;

  int open(std::string_view name) {
    if (!on) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::string(name), now_us(), 0.0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  /// Keeps one solve's simulated device timeline for the trace file.
  void add_device_timeline(std::string label, sim::TraceRecorder rec) {
    device_.emplace_back(std::move(label), std::move(rec));
  }

  /// Chrome trace: host spans in process 1 on the wall clock, each device
  /// timeline in its own process (2, 3, …) on the simulated clock.
  void write(const std::string& path) const {
    std::ofstream out(path);
    GAPSP_CHECK(out.good(), "cannot write trace " + path);
    out << "{\"traceEvents\":[\n" << process_name(1, "host spans (wall clock)");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << ",\n{\"name\":\"" << escape(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" << s.start_us
          << ",\"dur\":" << s.end_us - s.start_us << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}}";
    }
    int pid = 2;
    for (const auto& [label, rec] : device_) {
      out << ",\n" << process_name(pid, label + " (simulated clock)");
      for (const sim::TraceEvent& e : rec.events()) {
        out << ",\n{\"name\":\"" << escape(e.name) << "\",\"cat\":\""
            << kind_name(e.kind) << "\",\"ph\":\"X\",\"pid\":" << pid
            << ",\"tid\":" << e.stream << ",\"ts\":" << e.start_s * 1e6
            << ",\"dur\":" << e.duration_s() * 1e6 << "}";
      }
      ++pid;
    }
    out << "\n]}\n";
    GAPSP_CHECK(out.good(), "failed writing trace " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    long request = -1;
  };

  static double now_us() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
  }
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  static std::string process_name(int pid, const std::string& name) {
    return "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
           escape(name) + "\"}}";
  }
  static const char* kind_name(sim::TraceEvent::Kind kind) {
    switch (kind) {
      case sim::TraceEvent::Kind::kKernel:
        return "kernel";
      case sim::TraceEvent::Kind::kH2D:
        return "h2d";
      case sim::TraceEvent::Kind::kD2H:
        return "d2h";
      case sim::TraceEvent::Kind::kDecode:
        return "decode";
      case sim::TraceEvent::Kind::kFault:
        return "fault";
    }
    return "?";
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::pair<std::string, sim::TraceRecorder>> device_;
};

Tracer g_tracer;

/// Runs `fn`, returns its wall seconds, and records it as a span while
/// tracing is on.
template <class F>
double timed(std::string_view name, F&& fn) {
  const int id = g_tracer.open(name);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_since(t0);
  g_tracer.close(id);
  return s;
}

// ---- per-run scratch directory ---------------------------------------------

/// Stores live in a fresh directory under the system temp dir (TMPDIR),
/// removed when the run ends.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "apsp_perf-XXXXXX").string();
    GAPSP_CHECK(mkdtemp(tmpl.data()) != nullptr,
                "cannot create a scratch directory in " +
                    fs::temp_directory_path().string());
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// ---- workloads -------------------------------------------------------------

/// Wall seconds of one setup, split by what it did.
struct SetupTimes {
  double generate = 0.0;
  double autotune = 0.0;
  double calibrate = 0.0;
  double build = 0.0;
  double compact = 0.0;
  double warmup = 0.0;
  double total = 0.0;
};

struct OpResult {
  double seconds = 0.0;  ///< time inside the library's public calls only
  bool ok = true;
};

/// The selector bands of `apsp_cli` (its --dense-threshold and
/// --sparse-threshold defaults), pinned here so the benchmark does not move
/// when a tool's defaults do.
core::SelectorOptions selector_options() {
  core::SelectorOptions sel;
  sel.dense_percent = 4.0;
  sel.sparse_percent = 0.8;
  return sel;
}

/// Re-measures the kernel autotuner and, when the workload runs the
/// selector, the cost-model calibration, so every setup pays both in full.
void tune(SetupTimes& t, const core::ApspOptions& opts, bool calibrate) {
  t.autotune =
      timed("autotune_kernel_variant", [] { core::autotune_kernel_variant(); });
  if (calibrate) {
    core::clear_calibration_cache();
    t.calibrate = timed("calibrate", [&] { core::calibrate(opts); });
  }
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and artifacts from scratch; the last setup's state is
  /// what the measured phase runs on.
  virtual void setup(SetupTimes& t) = 0;
  /// One operation: untimed input generation, the timed public calls, then
  /// untimed checks.
  virtual OpResult op(long i) = 0;
  /// Checks after the measured phase.
  virtual void finish() {}
  /// Traced runs: counterfactual calls and the workload's per-layer metrics.
  /// `op_s` holds every measured operation's seconds.
  virtual void layers(const std::vector<double>& op_s) = 0;

  long long mismatches() const { return mismatches_; }
  double verify_seconds() const { return verify_s_; }

 protected:
  /// Counts entries of `got` that differ from Dijkstra from `source`.
  void check_row(const graph::CsrGraph& g, vidx_t source,
                 const std::vector<dist_t>& got) {
    std::vector<dist_t> want;
    verify_s_ +=
        timed("sssp::dijkstra", [&] { want = sssp::dijkstra(g, source); });
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (got[v] != want[v]) ++mismatches_;
    }
  }
  /// verify_result over `rows` sampled rows; false on any mismatch.
  bool verify(const graph::CsrGraph& g, const core::DistStore& store,
              const core::ApspResult& result, int rows, std::uint64_t seed) {
    core::VerifyReport rep;
    verify_s_ += timed("verify_result", [&] {
      rep = core::verify_result(g, store, result, rows, seed);
    });
    mismatches_ += rep.mismatches;
    if (!rep.ok) std::cerr << rep.detail;
    return rep.ok;
  }

  long long mismatches_ = 0;
  double verify_s_ = 0.0;
};

// -- solve-dense / solve-sparse: solve_apsp(kAuto) passes over fixed graphs --

class SolveWorkload : public Workload {
 public:
  struct Spec {
    std::string name;
    std::function<graph::CsrGraph(std::uint64_t seed)> make;
  };

  SolveWorkload(std::vector<Spec> specs, std::uint64_t seed,
                const TempDir& dir)
      : specs_(std::move(specs)), seed_(seed), dir_(dir) {}

  void setup(SetupTimes& t) override {
    inputs_.clear();
    tune(t, opts_, /*calibrate=*/true);
    t.generate = timed("generate graphs", [&] {
      for (const Spec& s : specs_) {
        Input& in = inputs_.emplace_back();
        in.name = s.name;
        in.g = s.make(seed_);
      }
    });
    // One warm-up solve per graph into its file-backed store.
    t.build = timed("build stores", [&] {
      for (Input& in : inputs_) {
        in.store = core::make_file_store(in.g.num_vertices(),
                                         dir_.file(in.name + ".bin"));
        timed("solve_apsp " + in.name, [&] {
          in.result = core::solve_apsp(in.g, opts_, *in.store, nullptr, sel_);
        });
      }
    });
    for (const Input& in : inputs_) {
      fact("selected." + in.name, core::algorithm_name(in.result.used));
    }
  }

  OpResult op(long i) override {
    OpResult r;
    for (Input& in : inputs_) {
      const double s = timed("solve_apsp " + in.name, [&] {
        in.result = core::solve_apsp(in.g, opts_, *in.store, nullptr, sel_);
      });
      in.solve_s.push_back(s);
      r.seconds += s;
    }
    for (Input& in : inputs_) {
      const bool ok = verify(in.g, *in.store, in.result, 8,
                             seed_ + static_cast<std::uint64_t>(i));
      r.ok = r.ok && ok;
    }
    return r;
  }

  void layers(const std::vector<double>& op_s) override;

 private:
  struct Input {
    std::string name;
    graph::CsrGraph g;
    std::unique_ptr<core::DistStore> store;
    core::ApspResult result;  ///< the last measured pass
    std::vector<double> solve_s;
  };

  /// One more pass over every graph with `o`; returns its wall seconds and
  /// its total modeled seconds.
  std::pair<double, double> pass(const core::ApspOptions& o,
                                 std::string_view label) {
    double wall = 0.0, sim_s = 0.0;
    for (Input& in : inputs_) {
      core::ApspResult r;
      wall += timed(std::string(label) + " " + in.name, [&] {
        r = core::solve_apsp(in.g, o, *in.store, nullptr, sel_);
      });
      sim_s += r.metrics.sim_seconds;
    }
    return {wall, sim_s};
  }

  std::vector<Spec> specs_;
  std::uint64_t seed_;
  const TempDir& dir_;
  core::ApspOptions opts_;
  core::SelectorOptions sel_ = selector_options();
  std::vector<Input> inputs_;
};

void SolveWorkload::layers(const std::vector<double>& op_s) {
  const double pass_s = median(op_s);
  constexpr core::Algorithm kAlgos[] = {core::Algorithm::kBlockedFloydWarshall,
                                        core::Algorithm::kJohnson,
                                        core::Algorithm::kBoundary};
  constexpr const char* kAlgoKey[] = {"fw", "johnson", "boundary"};

  double algo_s[3] = {}, est_sum[3] = {}, act_sum[3] = {};
  double select_s = 0.0, chosen_sim = 0.0, best_sim = 0.0;
  double makespan = 0, kernel = 0, decode = 0, hidden = 0, exposed = 0,
         idle = 0, h2d = 0, d2h = 0, kernels = 0, transfers = 0, h2d_b = 0,
         d2h_b = 0, ops = 0, peak = 0, raw_b = 0, wire_b = 0;

  for (Input& in : inputs_) {
    const int ci = static_cast<int>(
        std::find(std::begin(kAlgos), std::end(kAlgos), in.result.used) -
        std::begin(kAlgos));
    algo_s[ci] += median(in.solve_s);

    // The simulated device split, from one more solve with a timeline.
    sim::TraceRecorder rec;
    core::ApspOptions traced = opts_;
    traced.trace = &rec;
    core::ApspResult r;
    timed("solve_apsp (device timeline) " + in.name, [&] {
      r = core::solve_apsp(in.g, traced, *in.store, nullptr, sel_);
    });
    const core::ApspMetrics& m = r.metrics;
    makespan += m.sim_seconds;
    kernel += m.kernel_seconds;
    decode += m.decode_seconds;
    hidden += m.hidden_transfer_seconds;
    exposed += m.exposed_transfer_seconds;
    idle += m.sim_seconds - device_busy(rec);
    h2d += rec.total(sim::TraceEvent::Kind::kH2D);
    d2h += rec.total(sim::TraceEvent::Kind::kD2H);
    kernels += static_cast<double>(m.kernels);
    transfers += static_cast<double>(m.transfers_h2d + m.transfers_d2h);
    h2d_b += static_cast<double>(m.bytes_h2d);
    d2h_b += static_cast<double>(m.bytes_d2h);
    ops += m.total_ops;
    peak = std::max(peak, static_cast<double>(m.device_peak_bytes));
    raw_b += static_cast<double>(m.bytes_h2d_raw + m.bytes_d2h_raw);
    wire_b += static_cast<double>(m.bytes_h2d_wire + m.bytes_d2h_wire);
    g_tracer.add_device_timeline(in.name + " " + core::algorithm_name(r.used),
                                 std::move(rec));

    select_s += timed("select_algorithm " + in.name,
                      [&] { core::select_algorithm(in.g, opts_, sel_); });

    // Every algorithm's estimate against its own modeled solve time.
    double actual[3] = {};
    bool feasible[3] = {};
    for (int a = 0; a < 3; ++a) {
      core::CostBreakdown est;
      try {
        timed(std::string("estimate_") + kAlgoKey[a] + " " + in.name, [&] {
          est = a == 0   ? core::estimate_fw(in.g, opts_)
                : a == 1 ? core::estimate_johnson(in.g, opts_)
                         : core::estimate_boundary(in.g, opts_);
        });
      } catch (const Error&) {
        est.feasible = false;
      }
      if (!est.feasible) continue;
      if (a == ci) {
        actual[a] = m.sim_seconds;
      } else {
        core::ApspOptions o = opts_;
        o.algorithm = kAlgos[a];
        try {
          core::ApspResult alt;
          timed(std::string("solve_apsp (") + kAlgoKey[a] + ") " + in.name,
                [&] { alt = core::solve_apsp(in.g, o, *in.store); });
          actual[a] = alt.metrics.sim_seconds;
        } catch (const Error&) {
          continue;  // the estimate was feasible, the plan is not
        }
      }
      feasible[a] = true;
      est_sum[a] += est.total();
      act_sum[a] += actual[a];
    }
    double best = m.sim_seconds;
    for (int a = 0; a < 3; ++a) {
      if (feasible[a]) best = std::min(best, actual[a]);
    }
    chosen_sim += m.sim_seconds;
    best_sim += best;
  }

  // Counterfactual passes: transfer compression off, then serial kernels.
  core::ApspOptions off = opts_;
  off.transfer_compression = core::TransferCompression::kOff;
  std::vector<double> off_s;
  double off_sim = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto [wall, sim_s] = pass(off, "solve_apsp (codec off)");
    off_s.push_back(wall);
    off_sim = sim_s;
  }
  core::ApspOptions serial = opts_;
  serial.kernel_threads = 1;
  const double serial_s = pass(serial, "solve_apsp (serial)").first;
  const double codec_host_s = pass_s - median(off_s);

  for (int a = 0; a < 3; ++a) {
    emit(std::string("solve.") + kAlgoKey[a] + "_s", algo_s[a], "s");
    // The metric is the size of the error; its sign goes in a fact line.
    const double err = ratio(est_sum[a] - act_sum[a], act_sum[a]);
    emit(std::string("selector.est_error.") + kAlgoKey[a], std::abs(err),
         "ratio");
    fact(std::string("est_error_signed.") + kAlgoKey[a], std::to_string(err));
  }
  emit("selector.select_s", select_s, "s");
  emit("selector.regret", ratio(chosen_sim, best_sim), "ratio");
  emit("solve.serial_s", serial_s, "s");
  emit("thread_pool.solve_speedup", ratio(serial_s, pass_s), "ratio");
  emit("solve.other_s", pass_s - select_s - codec_host_s, "s");
  emit("kernel_engine.host_gops", ratio(ops, pass_s) / 1e9, "Gop/s");
  emit("transfer_codec.host_s", codec_host_s, "s");
  emit("transfer_codec.sim_saved_ms", (off_sim - makespan) * 1e3, "ms");
  emit("transfer_codec.wire_ratio", ratio(raw_b, wire_b), "ratio");
  emit("sim.makespan_ms", makespan * 1e3, "ms");
  emit("sim.kernel_ms", kernel * 1e3, "ms");
  emit("sim.h2d_ms", h2d * 1e3, "ms");
  emit("sim.d2h_ms", d2h * 1e3, "ms");
  emit("sim.decode_ms", decode * 1e3, "ms");
  emit("sim.hidden_ms", hidden * 1e3, "ms");
  emit("sim.exposed_ms", exposed * 1e3, "ms");
  emit("sim.idle_ms", idle * 1e3, "ms");
  emit("sim.kernels", kernels, "count");
  emit("sim.transfers", transfers, "count");
  emit("sim.h2d_mib", h2d_b / kMiB, "MiB");
  emit("sim.d2h_mib", d2h_b / kMiB, "MiB");
  emit("sim.gops", ratio(ops, makespan) / 1e9, "Gop/s");
  emit("sim.device_peak_mib", peak / kMiB, "MiB");
}

// -- serve-miss: run_batch over a compacted kept store -----------------------

class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, const TempDir& dir)
      : seed_(seed), path_(dir.file("serve.bin")) {}

  void setup(SetupTimes& t) override {
    engine_.reset();
    store_.reset();
    fs::remove(path_);  // the previous set-up's compacted store
    tune(t, opts_, /*calibrate=*/true);
    t.generate =
        timed("make_road", [&] { g_ = graph::make_road(64, 64, seed_); });
    // The `apsp_cli --store file --keep-store` flow: solve into a kept raw
    // file, then compact it in place to GAPSPZ1.
    core::Algorithm used = core::Algorithm::kAuto;
    t.build = timed("build store", [&] {
      auto raw = core::make_file_store(g_.num_vertices(), path_, true);
      timed("solve_apsp road64", [&] {
        const core::ApspResult r =
            core::solve_apsp(g_, opts_, *raw, nullptr, selector_options());
        perm_ = r.perm;
        used = r.used;
      });
    });
    t.compact =
        timed("compact_store", [&] { core::compact_store(path_, path_); });
    t.warmup = timed("warm cache", [&] {
      store_ = core::open_store(path_);
      service::QueryEngineOptions qopt;
      qopt.cache_bytes = kCacheBytes;
      engine_ = std::make_unique<service::QueryEngine>(*store_, qopt, perm_);
      warm(*engine_);
    });
    fact("selected.road64", core::algorithm_name(used));
    rng_ = Rng(seed_ ^ 0x5e7e5e7eULL);
    before_cache_ = engine_->cache_stats();
    before_service_ = engine_->service_stats();
  }

  OpResult op(long) override {
    const std::vector<service::Query> q = request();
    service::BatchReport rep;
    OpResult r;
    r.seconds = timed("run_batch", [&] { rep = engine_->run_batch(q); });
    for (const service::QueryResult& res : rep.results) {
      if (res.status != service::QueryStatus::kOk) r.ok = false;
    }
    return r;
  }

  void finish() override {
    Rng pick(seed_ ^ 0xc4ec4ULL);
    for (int k = 0; k < 16; ++k) {
      const auto u = static_cast<vidx_t>(
          pick.next_below(static_cast<std::uint64_t>(g_.num_vertices())));
      std::vector<dist_t> row;
      verify_s_ += timed("QueryEngine::row", [&] { row = engine_->row(u); });
      check_row(g_, u, row);
    }
  }

  void layers(const std::vector<double>& op_s) override;

 private:
  static constexpr int kPointsPerRequest = 16;
  /// A quarter of the 64 MiB decoded matrix, so most tile lookups miss.
  static constexpr std::size_t kCacheBytes = std::size_t{16} << 20;

  /// One point query per cache tile.
  static void warm(const service::QueryEngine& e) {
    std::vector<service::Query> q;
    for (vidx_t r = 0; r < e.n(); r += 256) {
      for (vidx_t c = 0; c < e.n(); c += 256) {
        q.push_back({service::QueryKind::kPoint, r, c});
      }
    }
    timed("run_batch (warm-up)", [&] { e.run_batch(q); });
  }

  /// Uniform point queries.
  std::vector<service::Query> request() {
    std::vector<service::Query> q(kPointsPerRequest);
    const auto n = static_cast<std::uint64_t>(g_.num_vertices());
    for (service::Query& x : q) {
      x.u = static_cast<vidx_t>(rng_.next_below(n));
      x.v = static_cast<vidx_t>(rng_.next_below(n));
    }
    return q;
  }

  std::uint64_t seed_;
  std::string path_;
  core::ApspOptions opts_;
  graph::CsrGraph g_;
  std::vector<vidx_t> perm_;
  std::unique_ptr<core::DistStore> store_;
  std::unique_ptr<service::QueryEngine> engine_;
  Rng rng_;
  core::CacheStats before_cache_;
  service::ServiceStats before_service_;
};

void ServeWorkload::layers(const std::vector<double>& op_s) {
  const core::CacheStats c = engine_->cache_stats();
  const service::ServiceStats s = engine_->service_stats();
  const auto reqs = static_cast<double>(op_s.size());
  const auto hits = static_cast<double>(c.hits - before_cache_.hits);
  const auto misses = static_cast<double>(c.misses - before_cache_.misses);
  const auto negative =
      static_cast<double>(c.negative_loads - before_cache_.negative_loads);
  const double reads = misses - negative;
  const double p50_ms = median(op_s) * 1e3;

  // The same 64 sampled cache tiles, read directly and then through the
  // checked reader, on this one thread. The compressed store memoizes the
  // last tile it decoded, so the two passes run one after the other.
  const vidx_t n = store_->n();
  const vidx_t tile = store_->tile_size() > 0 ? store_->tile_size() : 256;
  const auto per_side = static_cast<std::uint64_t>((n + tile - 1) / tile);
  struct Tile {
    vidx_t bi, bj, r0, c0, rows, cols;
  };
  std::vector<Tile> tiles;
  Rng pick(seed_ ^ 0x711eULL);
  for (int k = 0; k < 64; ++k) {
    const auto bi = static_cast<vidx_t>(pick.next_below(per_side));
    const auto bj = static_cast<vidx_t>(pick.next_below(per_side));
    const vidx_t r0 = bi * tile, c0 = bj * tile;
    tiles.push_back(
        {bi, bj, r0, c0, std::min(tile, n - r0), std::min(tile, n - c0)});
  }
  std::vector<dist_t> buf(static_cast<std::size_t>(tile) * tile);
  std::vector<double> direct_s, reader_s;
  for (const Tile& t : tiles) {
    direct_s.push_back(timed("DistStore::read_block", [&] {
      store_->read_block(t.r0, t.c0, t.rows, t.cols, buf.data(),
                         static_cast<std::size_t>(t.cols));
    }));
  }
  core::CheckedTileReader reader(*store_, core::StoreChecksums{},
                                 core::TileReaderOptions{});
  for (const Tile& t : tiles) {
    reader_s.push_back(timed("CheckedTileReader::read_tile", [&] {
      reader.read_tile(t.bi, t.bj, t.r0, t.c0, t.rows, t.cols, buf.data());
    }));
  }
  const double read_tile_ms = median(reader_s) * 1e3;

  // Fan-out baseline: the same kind of requests on a one-thread engine.
  service::QueryEngineOptions one;
  one.cache_bytes = kCacheBytes;
  one.max_threads = 1;
  const service::QueryEngine serial(*store_, one, perm_);
  warm(serial);
  std::vector<double> serial_s;
  const auto t0 = Clock::now();
  while (serial_s.size() < 10000 && seconds_since(t0) < 2.0) {
    const std::vector<service::Query> q = request();
    serial_s.push_back(
        timed("run_batch (one thread)", [&] { serial.run_batch(q); }));
  }
  const double serial_ms = median(serial_s) * 1e3;

  emit("dist_store.read_tile_ms", median(direct_s) * 1e3, "ms");
  emit("tile_reader.read_tile_ms", read_tile_ms, "ms");
  emit("tile_reader.reads", reads, "count");
  emit("tile_reader.retries",
       static_cast<double>(s.retries - before_service_.retries), "count");
  emit("tile_reader.busy_frac",
       ratio(reads * read_tile_ms / 1e3, sum(op_s)), "ratio");
  emit("block_cache.hit_rate", ratio(hits, hits + misses), "ratio");
  emit("block_cache.misses_per_request", ratio(misses, reqs), "count");
  emit("block_cache.evictions_per_request",
       ratio(static_cast<double>(c.evictions - before_cache_.evictions), reqs),
       "count");
  emit("block_cache.negative_loads", negative, "count");
  emit("block_cache.resident_mib", static_cast<double>(c.bytes_cached) / kMiB,
       "MiB");
  emit("query_engine.serial_request_ms", serial_ms, "ms");
  emit("thread_pool.request_speedup", ratio(serial_ms, p50_ms), "ratio");
  emit("query_engine.other_ms", p50_ms - ratio(misses, reqs) * read_tile_ms,
       "ms");
  emit("service.degraded",
       static_cast<double>(s.degraded - before_service_.degraded), "count");
  emit("service.shed", static_cast<double>(s.shed - before_service_.shed),
       "count");
}

// -- update-stream: delta repair of a kept raw store -------------------------

class UpdateWorkload : public Workload {
 public:
  UpdateWorkload(std::uint64_t seed, const TempDir& dir)
      : seed_(seed), dir_(dir) {
    opts_.algorithm = core::Algorithm::kBlockedFloydWarshall;
  }

  void setup(SetupTimes& t) override {
    store_.reset();
    // The explicit algorithm skips the selector, so nothing calibrates.
    tune(t, opts_, /*calibrate=*/false);
    t.generate =
        timed("make_road", [&] { cur_ = graph::make_road(48, 48, seed_); });
    t.build = timed("build store", [&] {
      store_ = core::make_file_store(cur_.num_vertices(),
                                     dir_.file("update.bin"));
      timed("solve_apsp road48",
            [&] { core::solve_apsp(cur_, opts_, *store_); });
    });
    rng_ = Rng(seed_ ^ 0x0bda7eULL);
  }

  OpResult op(long i) override {
    const std::vector<core::EdgeUpdate> batch = make_batch();
    std::unique_ptr<core::IncrementalEngine> engine;
    core::UpdateOutcome out;
    OpResult r;
    r.seconds = timed("IncrementalEngine::apply_in_place", [&] {
      engine = std::make_unique<core::IncrementalEngine>(cur_);
      out = engine->apply_in_place(*store_, batch);
    });
    // The engine refers to cur_, so it goes before cur_ is replaced.
    graph::CsrGraph next = engine->updated_graph();
    engine.reset();
    cur_ = std::move(next);
    outcomes_.push_back(out);
    if (i % 20 == 19) {
      r.ok = verify(cur_, *store_, {}, 16,
                    seed_ + static_cast<std::uint64_t>(i));
    }
    return r;
  }

  void finish() override { verify(cur_, *store_, {}, 16, seed_ ^ 0xf1aULL); }

  void layers(const std::vector<double>& op_s) override {
    auto mean_of = [&](auto field) {
      double s = 0.0;
      for (const core::UpdateOutcome& o : outcomes_) {
        s += static_cast<double>(field(o));
      }
      return ratio(s, static_cast<double>(outcomes_.size()));
    };
    const double probe = mean_of([](const auto& o) { return o.probe_seconds; });
    const double sssp = mean_of([](const auto& o) { return o.sssp_seconds; });
    const double panel = mean_of([](const auto& o) { return o.panel_seconds; });
    const double tile = mean_of([](const auto& o) { return o.tile_seconds; });
    const double apply = ratio(sum(op_s), static_cast<double>(op_s.size()));

    auto full = core::make_file_store(cur_.num_vertices(),
                                      dir_.file("resolve.bin"));
    const double resolve_s = timed("solve_apsp (full re-solve)", [&] {
      core::solve_apsp(cur_, opts_, *full);
    });

    emit("incremental.probe_ms", probe * 1e3, "ms");
    emit("incremental.sssp_ms", sssp * 1e3, "ms");
    emit("incremental.panel_ms", panel * 1e3, "ms");
    emit("incremental.tile_ms", tile * 1e3, "ms");
    emit("incremental.other_ms", (apply - probe - sssp - panel - tile) * 1e3,
         "ms");
    emit("incremental.sources",
         mean_of([](const auto& o) { return o.sources; }), "count");
    emit("incremental.damaged_rows",
         mean_of([](const auto& o) { return o.damaged_rows; }), "count");
    emit("incremental.tiles_candidate",
         mean_of([](const auto& o) { return o.tiles_candidate; }), "count");
    emit("incremental.tiles_touched",
         mean_of([](const auto& o) { return o.tiles_touched; }), "count");
    emit("incremental.full_solves",
         mean_of([](const auto& o) { return o.full_solve ? 1 : 0; }), "count");
    emit("incremental.modeled_repair_ms",
         mean_of([](const auto& o) { return o.modeled_repair_seconds; }) * 1e3,
         "ms");
    emit("incremental.modeled_full_ms",
         mean_of([](const auto& o) { return o.modeled_full_seconds; }) * 1e3,
         "ms");
    emit("incremental.resolve_s", resolve_s, "s");
    emit("incremental.speedup", ratio(resolve_s, apply), "ratio");
  }

 private:
  /// Four undirected edges of the current graph (eight arcs): two raised by
  /// 1..30, two halved.
  std::vector<core::EdgeUpdate> make_batch() {
    std::vector<core::EdgeUpdate> batch;
    const auto n = static_cast<std::uint64_t>(cur_.num_vertices());
    for (int k = 0; k < 4; ++k) {
      vidx_t u = 0;
      do {
        u = static_cast<vidx_t>(rng_.next_below(n));
      } while (cur_.out_degree(u) == 0);
      const auto e = static_cast<std::size_t>(
          rng_.next_below(static_cast<std::uint64_t>(cur_.out_degree(u))));
      const vidx_t v = cur_.neighbors(u)[e];
      const dist_t w = cur_.weights(u)[e];
      const dist_t nw = k < 2 ? w + 1 + static_cast<dist_t>(rng_.next_below(30))
                              : std::max<dist_t>(1, w / 2);
      batch.push_back({u, v, nw});
      batch.push_back({v, u, nw});
    }
    return batch;
  }

  std::uint64_t seed_;
  const TempDir& dir_;
  core::ApspOptions opts_;
  graph::CsrGraph cur_;
  std::unique_ptr<core::DistStore> store_;
  Rng rng_;
  std::vector<core::UpdateOutcome> outcomes_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const TempDir& dir) {
  using Spec = SolveWorkload::Spec;
  if (name == "solve-dense") {
    return std::make_unique<SolveWorkload>(
        std::vector<Spec>{{"dense1500",
                           [](std::uint64_t s) {
                             return graph::make_dense(1500, 8.0, s);
                           }}},
        seed, dir);
  }
  if (name == "solve-sparse") {
    return std::make_unique<SolveWorkload>(
        std::vector<Spec>{{"road48",
                           [](std::uint64_t s) {
                             return graph::make_road(48, 48, s);
                           }},
                          {"mesh2000",
                           [](std::uint64_t s) {
                             return graph::make_mesh(2000, 10, s);
                           }}},
        seed, dir);
  }
  if (name == "serve-miss") {
    return std::make_unique<ServeWorkload>(seed, dir);
  }
  if (name == "update-stream") {
    return std::make_unique<UpdateWorkload>(seed, dir);
  }
  throw Error("unknown --workload " + name +
              " (solve-dense, solve-sparse, serve-miss, update-stream)");
}

// ---- machine facts ---------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string loadavg() {
  double load = 0.0;
  return getloadavg(&load, 1) == 1 ? std::to_string(load) : "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Heap bytes the program holds between operations (in-use arena bytes
/// plus mmapped chunks), without the free space the allocator keeps.
double heap_mib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / kMiB;
}

int run(const Args& args) {
  GAPSP_CHECK(args.unknown({"workload", "seed", "seconds", "trace"}).empty() &&
                  args.positional().empty(),
              "usage: apsp_perf --workload W --seed S --seconds N "
              "[--trace FILE]");
  const std::string name = args.get_or("workload", "");
  const long long seed = args.get_int_or("seed", 1);
  const double seconds = args.get_double_or("seconds", 10.0);
  GAPSP_CHECK(seed >= 0, "--seed must be >= 0");
  GAPSP_CHECK(seconds > 0.0, "--seconds must be > 0");
  const std::optional<std::string> trace_path = args.get("trace");
  const bool tracing = trace_path.has_value();

  TempDir dir;
  const auto w = make_workload(name, static_cast<std::uint64_t>(seed), dir);
  fact("workload", name);
  fact("seed", std::to_string(seed));
  fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  fact("pool_threads", std::to_string(ThreadPool::global().size()));
  fact("cpu_model", cpu_model());
  fact("loadavg_start", loadavg());

  g_tracer.on = tracing;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes t;
    t.total = timed("setup", [&] { w->setup(t); });
    setups.push_back(t);
    setup_total.push_back(t.total);
  }
  // The median set-up, whose split the traced run reports.
  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total < b.total;
            });
  const SetupTimes& mid = setups[setups.size() / 2];

  // The closed loop. A traced run records spans on even operations only, so
  // the odd ones measure the same work untraced.
  std::vector<double> op_s, traced_s, untraced_s;
  long long failed = 0;
  const auto start = Clock::now();
  for (long i = 0; i < kMinOps || seconds_since(start) < seconds; ++i) {
    g_tracer.on = tracing && i % 2 == 0;
    g_tracer.request = i;
    OpResult r;
    timed("request", [&] { r = w->op(i); });
    op_s.push_back(r.seconds);
    (i % 2 == 0 ? traced_s : untraced_s).push_back(r.seconds);
    if (!r.ok) ++failed;
  }
  g_tracer.on = tracing;
  g_tracer.request = -1;
  const double peak_mib = peak_rss_mib();
  const double held_mib = heap_mib();
  timed("final checks", [&] { w->finish(); });

  if (!tracing) {
    emit("setup_s", mid.total, "s");
    emit("ops_per_s", ratio(static_cast<double>(op_s.size()), sum(op_s)),
         "1/s");
    emit("op_p50_ms", median(op_s) * 1e3, "ms");
    emit("op_p90_ms", quantile(op_s, 0.9) * 1e3, "ms");
  } else {
    timed("per-layer analysis", [&] { w->layers(op_s); });
    emit("graph.generate_s", mid.generate, "s");
    emit("kernel_engine.autotune_s", mid.autotune, "s");
    emit("kernel_engine.rel_speed",
         core::kernel_variant_rel_speed(core::KernelVariant::kAuto), "ratio");
    emit("cost_model.calibrate_s", mid.calibrate, "s");
    emit("store.build_s", mid.build, "s");
    emit("compressed_store.compact_s", mid.compact, "s");
    emit("query_engine.warmup_s", mid.warmup, "s");
    emit("setup.residual_s",
         mid.total - mid.generate - mid.autotune - mid.calibrate - mid.build -
             mid.compact - mid.warmup,
         "s");
    emit("process.peak_rss_mib", peak_mib, "MiB");
    emit("process.heap_mib", held_mib, "MiB");
    emit("verify.s", w->verify_seconds(), "s");
    emit("verify.mismatches", static_cast<double>(w->mismatches()), "count");
    emit("trace.overhead", ratio(median(traced_s), median(untraced_s)) - 1.0,
         "ratio");
  }
  emit("op_ms.iqr", iqr_frac(op_s), "ratio");
  emit("setup_s.iqr", iqr_frac(setup_total), "ratio");
  std::printf("attempted %zu count\nfailed %lld count\ncorrect %d bool\n",
              op_s.size(), failed, w->mismatches() == 0 ? 1 : 0);
  fact("kernel_variant",
       core::kernel_variant_name(core::resolved_kernel_variant()));
  fact("loadavg_end", loadavg());
  if (tracing) g_tracer.write(*trace_path);
  return w->mismatches() == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "apsp_perf: " << e.what() << "\n";
    return 1;
  }
}
