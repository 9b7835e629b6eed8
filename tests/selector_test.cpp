#include <gtest/gtest.h>

#include <limits>

#include "core/apsp.h"
#include "core/cost_model.h"
#include "core/selector.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gapsp::core {
namespace {

ApspOptions sel_opts() {
  ApspOptions o;
  o.device = sim::DeviceSpec::v100_scaled(2u << 20);
  o.fw_tile = 32;
  return o;
}

/// Thresholds scaled to this test's graph sizes (density ~ c/n; see
/// DESIGN.md — the paper's 1%/0.01% assume n ≈ 10⁵).
SelectorOptions scaled_thresholds() {
  SelectorOptions s;
  s.dense_percent = 4.0;
  s.sparse_percent = 0.8;
  return s;
}

TEST(Selector, DenseBandConsidersFwAndJohnson) {
  const auto g = graph::make_dense(300, 12.0, 91);  // > 4% density
  const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
  EXPECT_TRUE(report.estimate(Algorithm::kBlockedFloydWarshall).considered);
  EXPECT_TRUE(report.estimate(Algorithm::kJohnson).considered);
  EXPECT_FALSE(report.estimate(Algorithm::kBoundary).considered);
}

TEST(Selector, SparseBandConsidersBoundaryAndJohnson) {
  const auto g = graph::make_road(30, 30, 92);  // density well below 0.8%
  ASSERT_LT(g.density_percent(), 0.8);
  const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
  EXPECT_FALSE(report.estimate(Algorithm::kBlockedFloydWarshall).considered);
  EXPECT_TRUE(report.estimate(Algorithm::kBoundary).considered);
}

TEST(Selector, MiddleBandAlwaysJohnson) {
  const auto g = graph::make_mesh(400, 8, 93);  // density between bands
  ASSERT_GT(g.density_percent(), 0.8);
  ASSERT_LT(g.density_percent(), 4.0);
  const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
  EXPECT_EQ(report.chosen, Algorithm::kJohnson);
  EXPECT_FALSE(report.estimate(Algorithm::kBlockedFloydWarshall).considered);
  EXPECT_FALSE(report.estimate(Algorithm::kBoundary).considered);
}

TEST(Selector, ChoosesBoundaryForSmallSeparatorGraph) {
  // Needs a zoo-scale road graph: below n ≈ 1000 the fixed launch overheads
  // of the per-component FW kernels make Johnson genuinely faster, and the
  // selector (correctly) picks it.
  const auto g = graph::make_road(38, 38, 94);
  auto opts = sel_opts();
  opts.device = sim::DeviceSpec::v100_scaled();  // 8 MiB
  const auto report = select_algorithm(g, opts, scaled_thresholds());
  EXPECT_EQ(report.chosen, Algorithm::kBoundary);
}

TEST(Selector, PickIgnoresTheFaultPlan) {
  // Regression: the calibration probes and Johnson's sampled batches ran
  // under the caller's fault plan, so with no retries a probe fault marked
  // a candidate infeasible and moved the pick (road 32×32: boundary became
  // johnson, which then exited 0 where --algorithm boundary exited 1). The
  // solve meets the plan; the estimates must not.
  sim::FaultPlan plan;
  plan.p_kernel = 0.2;
  ApspOptions faulty;  // the scaled V100 apsp_cli runs on
  faulty.faults = &plan;
  faulty.retry.max_retries = 0;
  const graph::CsrGraph graphs[] = {graph::make_road(32, 32, 1),
                                    graph::make_mesh(1500, 8, 99, 0.1)};
  for (const auto& g : graphs) {
    clear_calibration_cache();  // the faulted selection calibrates first
    const auto with = select_algorithm(g, faulty, scaled_thresholds());
    const auto without =
        select_algorithm(g, ApspOptions{}, scaled_thresholds());
    EXPECT_EQ(with.chosen, without.chosen) << g.num_vertices();
    ASSERT_EQ(with.estimates.size(), without.estimates.size());
    for (std::size_t i = 0; i < with.estimates.size(); ++i) {
      const auto& a = with.estimates[i];
      const auto& b = without.estimates[i];
      EXPECT_EQ(a.algo, b.algo);
      EXPECT_EQ(a.considered, b.considered);
      EXPECT_EQ(a.cost.feasible, b.cost.feasible) << algorithm_name(a.algo);
      EXPECT_EQ(a.cost.compute_s, b.cost.compute_s) << algorithm_name(a.algo);
      EXPECT_EQ(a.cost.transfer_s, b.cost.transfer_s)
          << algorithm_name(a.algo);
    }
  }
}

TEST(Selector, ChosenMatchesArgminOfEstimates) {
  for (std::uint64_t seed : {95u, 96u, 97u}) {
    const auto g = graph::make_road(20, 21, seed);
    const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
    double best = std::numeric_limits<double>::infinity();
    Algorithm arg = Algorithm::kJohnson;
    for (const auto& e : report.estimates) {
      if (e.considered && e.cost.feasible && e.cost.total() < best) {
        best = e.cost.total();
        arg = e.algo;
      }
    }
    EXPECT_EQ(report.chosen, arg);
  }
}

TEST(Selector, InfeasibleBoundaryFallsBackToJohnson) {
  const auto g = graph::make_mesh(600, 14, 98, 0.3);
  auto opts = sel_opts();
  opts.device = test::tiny_device(64u << 10);
  SelectorOptions st;
  st.sparse_percent = 100.0;  // force the sparse band
  // Johnson may not fit either on 64 KiB; use a size where it does.
  opts.device = test::tiny_device(900u << 10);
  const auto report = select_algorithm(g, opts, st);
  if (!report.estimate(Algorithm::kBoundary).cost.feasible) {
    EXPECT_EQ(report.chosen, Algorithm::kJohnson);
  }
}

TEST(Selector, InfeasibleJohnsonFallsBackToFeasibleFw) {
  // Regression: the selector seeded `best` from the Johnson estimate without
  // a feasibility check, so when the CSR itself outgrew the device (Johnson
  // infeasible — pre-fix estimate_johnson even threw out of the planner) the
  // selector either crashed or pinned the choice on an unrunnable algorithm
  // instead of falling back to the feasible FW estimate.
  const auto g = graph::make_dense(300, 12.0, 91);  // dense band
  auto opts = sel_opts();
  opts.device = test::tiny_device(64u << 10);  // CSR > 0.95 * 64 KiB
  const auto report = select_algorithm(g, opts, scaled_thresholds());
  EXPECT_FALSE(report.estimate(Algorithm::kJohnson).cost.feasible);
  ASSERT_TRUE(
      report.estimate(Algorithm::kBlockedFloydWarshall).cost.feasible);
  EXPECT_EQ(report.chosen, Algorithm::kBlockedFloydWarshall);
}

TEST(Selector, AllInfeasibleStillReturnsAnAlgorithm) {
  // When nothing fits, the selector must still name a deterministic last
  // resort (Johnson) rather than crash or return kAuto.
  const auto g = graph::make_dense(300, 12.0, 91);
  auto opts = sel_opts();
  opts.device = test::tiny_device(1u << 10);  // 1 KiB: nothing is feasible
  const auto report = select_algorithm(g, opts, scaled_thresholds());
  for (const auto& e : report.estimates) {
    if (e.considered) {
      EXPECT_FALSE(e.cost.feasible);
    }
  }
  EXPECT_EQ(report.chosen, Algorithm::kJohnson);
}

TEST(Selector, ReportDensityMatchesGraph) {
  const auto g = graph::make_road(15, 15, 99);
  const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
  EXPECT_DOUBLE_EQ(report.density_percent, g.density_percent());
}

TEST(Selector, NeverReturnsAuto) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto g = graph::make_erdos_renyi(200, 700 * seed, seed);
    const auto report = select_algorithm(g, sel_opts(), scaled_thresholds());
    EXPECT_NE(report.chosen, Algorithm::kAuto);
  }
}

TEST(SolveApsp, AutoRunsSelectorAndSolves) {
  const auto g = graph::make_road(14, 14, 100);
  auto store = make_ram_store(g.num_vertices());
  SelectorReport report;
  auto opts = sel_opts();
  const auto r = solve_apsp(g, opts, *store, &report, scaled_thresholds());
  EXPECT_EQ(r.used, report.chosen);
  test::expect_store_matches_reference(g, *store, r);
}

TEST(SolveApsp, ExplicitAlgorithmBypassesSelector) {
  const auto g = graph::make_erdos_renyi(120, 500, 101);
  auto opts = sel_opts();
  opts.algorithm = Algorithm::kJohnson;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, opts, *store);
  EXPECT_EQ(r.used, Algorithm::kJohnson);
}

TEST(SolveApsp, EmptyGraphRejected) {
  graph::CsrGraph g;
  auto store = make_ram_store(0);
  auto opts = sel_opts();
  EXPECT_THROW(solve_apsp(g, opts, *store), Error);
}

TEST(SolveApsp, AlgorithmNames) {
  EXPECT_STREQ(algorithm_name(Algorithm::kAuto), "auto");
  EXPECT_STREQ(algorithm_name(Algorithm::kJohnson), "johnson");
  EXPECT_STREQ(algorithm_name(Algorithm::kBoundary), "boundary");
  EXPECT_STREQ(algorithm_name(Algorithm::kBlockedFloydWarshall),
               "blocked-floyd-warshall");
}

}  // namespace
}  // namespace gapsp::core
