// Microbenchmarks (google-benchmark) of the primitive kernels behind every
// experiment: dense min-plus tiles, in-place FW, Near-Far SSSP rounds, the
// k-way partitioner, plus ablations over the Near-Far Δ and the dynamic-
// parallelism degree threshold.
//
// Besides the google-benchmark suite, `--ablation` runs the kernel-engine
// ablation (naive vs simd microkernel × grid-execution threads on the
// blocked-FW path), prints the table behind EXPERIMENTS.md §"Microkernel
// ablation" and writes BENCH_kernels.json. `--assert-min-speedup=R`
// additionally exits non-zero unless the best simd blocked-FW row is at
// least R× naive-serial, and `--assert-simd-speedup=R` requires serial simd
// to beat serial naive by R× on blocked FW — the CI perf-smoke guards
// against microkernel regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/device_kernels.h"
#include "core/kernel_engine.h"
#include "core/minplus.h"
#include "graph/generators.h"
#include "partition/kway.h"
#include "sssp/dijkstra.h"
#include "sssp/near_far.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace gapsp;

std::vector<dist_t> random_tile(vidx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dist_t> m(static_cast<std::size_t>(n) * n);
  for (auto& x : m) x = static_cast<dist_t>(rng.next_in(1, 1000));
  return m;
}

void BM_MinPlusTile(benchmark::State& state) {
  const vidx_t n = static_cast<vidx_t>(state.range(0));
  auto a = random_tile(n, 1), b = random_tile(n, 2), c = random_tile(n, 3);
  for (auto _ : state) {
    core::minplus_accum(c.data(), n, a.data(), n, b.data(), n, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_MinPlusTile)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_FwInplace(benchmark::State& state) {
  const vidx_t n = static_cast<vidx_t>(state.range(0));
  const auto original = random_tile(n, 4);
  for (auto _ : state) {
    auto m = original;
    core::fw_inplace(m.data(), n, n);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_FwInplace)->Arg(64)->Arg(128)->Arg(256);

constexpr core::KernelVariant kVariants[] = {core::KernelVariant::kNaive,
                                             core::KernelVariant::kSimd};

void BM_MinPlusVariant(benchmark::State& state) {
  // Microkernel variant sweep: the ratio between rows (same size) is the
  // vector register-tile payoff, independent of the thread pool.
  const core::KernelVariant v = kVariants[state.range(0)];
  const vidx_t n = static_cast<vidx_t>(state.range(1));
  auto a = random_tile(n, 1), b = random_tile(n, 2), c = random_tile(n, 3);
  for (auto _ : state) {
    core::minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(), n, n,
                                n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(core::kernel_variant_name(v));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_MinPlusVariant)->ArgsProduct({{0, 1}, {64, 128, 256}});

void BM_BlockedFwVariantThreads(benchmark::State& state) {
  // The full simulated blocked-FW path (diag / panels / update grid
  // launches) under an explicit variant × grid-thread setting. Results and
  // the simulated timeline are identical across all rows; only host
  // wall-clock moves.
  const core::KernelVariant v = kVariants[state.range(0)];
  const int threads = static_cast<int>(state.range(1));
  const vidx_t n = 512;
  core::set_kernel_variant(v);
  const auto original = random_tile(n, 5);
  for (auto _ : state) {
    sim::Device dev(sim::DeviceSpec::v100_scaled(std::size_t{64} << 20));
    dev.set_kernel_threads(threads);
    auto m = dev.alloc<dist_t>(original.size(), "fw matrix");
    std::copy(original.begin(), original.end(), m.data());
    core::dev_blocked_fw(dev, sim::kDefaultStream, m.data(), n, n,
                         core::kDeviceTile);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetLabel(std::string(core::kernel_variant_name(v)) + "/t" +
                 std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long long>(n) *
                          n * n);
  core::set_kernel_variant(core::KernelVariant::kAuto);
}
BENCHMARK(BM_BlockedFwVariantThreads)->ArgsProduct({{0, 1}, {1, 0}});

void BM_DijkstraRoad(benchmark::State& state) {
  const auto g = graph::make_road(40, 40, 5);
  vidx_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sssp::dijkstra(g, src).data());
    src = (src + 37) % g.num_vertices();
  }
}
BENCHMARK(BM_DijkstraRoad);

void BM_NearFarDeltaSweep(benchmark::State& state) {
  // Δ sensitivity ablation: too small -> many phases, too large -> extra
  // relaxation work (Bellman-Ford-like).
  const auto g = graph::make_mesh(1200, 16, 6);
  std::vector<dist_t> out(g.num_vertices());
  sssp::NearFarConfig cfg;
  cfg.delta = static_cast<dist_t>(state.range(0));
  long long relax = 0;
  for (auto _ : state) {
    const auto st = sssp::near_far_sssp(g, 0, out, cfg);
    relax += st.relaxations;
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["relax/iter"] =
      static_cast<double>(relax) / state.iterations();
}
BENCHMARK(BM_NearFarDeltaSweep)->Arg(5)->Arg(25)->Arg(50)->Arg(200)->Arg(2000);

void BM_NearFarHeavyThreshold(benchmark::State& state) {
  // Dynamic-parallelism threshold ablation on a scale-free graph: how much
  // of the traversal work is classified as "heavy" per threshold.
  const auto g = graph::make_rmat(11, 16000, 7);
  std::vector<dist_t> out(g.num_vertices());
  sssp::NearFarConfig cfg;
  cfg.heavy_degree_threshold = static_cast<int>(state.range(0));
  long long heavy = 0, total = 0;
  for (auto _ : state) {
    const auto st = sssp::near_far_sssp(g, 0, out, cfg);
    heavy += st.heavy_relaxations;
    total += st.relaxations;
  }
  state.counters["heavy_share"] =
      total == 0 ? 0.0 : static_cast<double>(heavy) / static_cast<double>(total);
}
BENCHMARK(BM_NearFarHeavyThreshold)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_KwayPartition(benchmark::State& state) {
  const auto g = graph::make_road(45, 45, 8);
  part::PartitionOptions opts;
  opts.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto p = part::kway_partition(g, opts);
    benchmark::DoNotOptimize(p.edge_cut);
  }
}
BENCHMARK(BM_KwayPartition)->Arg(4)->Arg(11)->Arg(32);

struct AblationRow {
  std::string kernel;
  std::string variant;
  int threads = 1;
  vidx_t n = 0;
  double seconds = 0.0;
  double gops = 0.0;
};

double best_of(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, run());
  return best;
}

/// Kernel-engine ablation: microkernel alone (n=64, the device tile blocked
/// FW launches, and n=256) and the full blocked-FW launch path (n=512) for
/// each variant × thread setting. Returns the rows and prints the table.
std::vector<AblationRow> run_ablation() {
  using clock = std::chrono::steady_clock;
  std::vector<AblationRow> rows;
  const std::size_t pool = ThreadPool::global().size();

  // ---- microkernel, serial (variant effect in isolation) ----
  for (const vidx_t n : {vidx_t{64}, vidx_t{256}}) {
    // Each sample covers (256/n)³ calls, so a 64³ tile is timed over a span
    // as long as one 256³ call instead of at the clock's noise floor.
    const int calls = (256 / n) * (256 / n) * (256 / n);
    auto a = random_tile(n, 1), b = random_tile(n, 2), c0 = random_tile(n, 3);
    for (const core::KernelVariant v : kVariants) {
      auto c = c0;
      const double s = best_of(5, [&] {
        c = c0;
        const auto t0 = clock::now();
        for (int i = 0; i < calls; ++i) {
          core::minplus_accum_variant(v, c.data(), n, a.data(), n, b.data(),
                                      n, n, n, n);
        }
        return std::chrono::duration<double>(clock::now() - t0).count() /
               calls;
      });
      rows.push_back({"minplus", core::kernel_variant_name(v), 1, n, s,
                      2.0 * n * n * n / s / 1e9});
    }
  }

  // ---- blocked FW through the simulator, variant × threads ----
  {
    const vidx_t n = 512;
    const auto original = random_tile(n, 5);
    for (const core::KernelVariant v : kVariants) {
      for (const int threads : {1, 0}) {
        core::set_kernel_variant(v);
        const double s = best_of(3, [&] {
          sim::Device dev(
              sim::DeviceSpec::v100_scaled(std::size_t{64} << 20));
          dev.set_kernel_threads(threads);
          auto m = dev.alloc<dist_t>(original.size(), "fw matrix");
          std::copy(original.begin(), original.end(), m.data());
          const auto t0 = clock::now();
          core::dev_blocked_fw(dev, sim::kDefaultStream, m.data(), n, n,
                               core::kDeviceTile);
          return std::chrono::duration<double>(clock::now() - t0).count();
        });
        rows.push_back({"blocked_fw", core::kernel_variant_name(v),
                        threads == 0 ? static_cast<int>(pool) : threads, n, s,
                        2.0 * n * n * n / s / 1e9});
      }
    }
    core::set_kernel_variant(core::KernelVariant::kAuto);
  }

  std::cout << "kernel engine ablation (pool: " << pool << " threads, "
            << core::simd_lane_isa() << " lanes)\n"
            << "kernel       variant    threads       n       ms    GOP/s\n";
  for (const auto& r : rows) {
    std::printf("%-12s %-10s %7d %7d %8.3f %8.2f\n", r.kernel.c_str(),
                r.variant.c_str(), r.threads, static_cast<int>(r.n),
                r.seconds * 1e3, r.gops);
  }
  const core::KernelVariant resolved = core::autotune_kernel_variant();
  std::cout << "auto resolves to: " << core::kernel_variant_name(resolved)
            << " (" << core::kernel_variant_rel_speed(resolved)
            << "x vs naive on the 128^3 shape)\n";
  return rows;
}

/// Serial blocked-FW seconds of `variant` among the rows.
double serial_fw_seconds(const std::vector<AblationRow>& rows,
                         const std::string& variant) {
  for (const auto& r : rows) {
    if (r.kernel == "blocked_fw" && r.variant == variant && r.threads == 1) {
      return r.seconds;
    }
  }
  return 0.0;
}

void write_json(const std::vector<AblationRow>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "  {\"kernel\": \"" << r.kernel << "\", \"variant\": \""
        << r.variant << "\", \"threads\": " << r.threads
        << ", \"n\": " << r.n << ", \"seconds\": " << r.seconds
        << ", \"gops\": " << r.gops << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  std::cout << rows.size() << " rows -> " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool ablation = false;
  double min_speedup = 0.0;
  double simd_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ablation") == 0) ablation = true;
    if (std::strncmp(argv[i], "--assert-min-speedup=", 21) == 0) {
      ablation = true;
      min_speedup = std::stod(argv[i] + 21);
    }
    if (std::strncmp(argv[i], "--assert-simd-speedup=", 22) == 0) {
      ablation = true;
      simd_speedup = std::stod(argv[i] + 22);
    }
  }
  if (ablation) {
    const auto rows = run_ablation();
    write_json(rows, "BENCH_kernels.json");
    if (min_speedup > 0.0) {
      // Guard: the best simd blocked-FW configuration must beat the naive
      // serial one by at least the requested factor.
      double best_simd = 1e300;
      for (const auto& r : rows) {
        if (r.kernel == "blocked_fw" && r.variant == "simd") {
          best_simd = std::min(best_simd, r.seconds);
        }
      }
      const double speedup = serial_fw_seconds(rows, "naive") / best_simd;
      std::cout << "speedup (best simd vs naive serial): " << speedup
                << "x (required >= " << min_speedup << "x)\n";
      if (speedup < min_speedup) {
        std::cerr << "FAILED: kernel engine speedup below threshold\n";
        return 1;
      }
    }
    if (simd_speedup > 0.0) {
      // Guard: the vector microkernel must beat the scalar oracle on the
      // serial blocked-FW path, so a build that lost its vector backend
      // fails here.
      const double speedup =
          serial_fw_seconds(rows, "naive") / serial_fw_seconds(rows, "simd");
      std::cout << "speedup (simd vs naive, serial blocked FW): "
                << speedup << "x (required >= " << simd_speedup << "x)\n";
      if (speedup < simd_speedup) {
        std::cerr << "FAILED: simd microkernel speedup below threshold\n";
        return 1;
      }
    }
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
