#include "core/apsp.h"

#include <memory>

#include "core/apsp_common.h"
#include "core/ooc_boundary.h"
#include "core/ooc_fw.h"
#include "core/ooc_johnson.h"

namespace gapsp::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto:
      return "auto";
    case Algorithm::kBlockedFloydWarshall:
      return "blocked-floyd-warshall";
    case Algorithm::kJohnson:
      return "johnson";
    case Algorithm::kBoundary:
      return "boundary";
  }
  return "?";
}

const char* sssp_kernel_name(SsspKernel k) {
  switch (k) {
    case SsspKernel::kNearFar:
      return "near-far";
    case SsspKernel::kDeltaStepping:
      return "delta-stepping";
    case SsspKernel::kBellmanFord:
      return "bellman-ford";
  }
  return "?";
}

namespace {

ApspResult dispatch(const graph::CsrGraph& g, const ApspOptions& opts,
                    DistStore& store, Algorithm algo) {
  switch (algo) {
    case Algorithm::kBlockedFloydWarshall:
      return ooc_floyd_warshall(g, opts, store);
    case Algorithm::kJohnson:
      return ooc_johnson(g, opts, store);
    case Algorithm::kBoundary:
      return ooc_boundary(g, opts, store);
    case Algorithm::kAuto:
      break;
  }
  throw Error("selector returned kAuto");
}

}  // namespace

ApspResult solve_apsp(const graph::CsrGraph& g, const ApspOptions& opts,
                      DistStore& store, SelectorReport* report,
                      const SelectorOptions& sel) {
  GAPSP_CHECK(g.num_vertices() > 0, "empty graph");
  // A charge-only run leaves the store without distances; only the cost
  // model's probes ask for one, and they call the drivers directly.
  GAPSP_CHECK(!opts.charge_only,
              "solve_apsp computes distances; charge-only runs are for "
              "calibration probes");
  Algorithm algo = opts.algorithm;
  if (algo == Algorithm::kAuto) {
    const SelectorReport r = select_algorithm(g, opts, sel);
    if (report != nullptr) *report = r;
    algo = r.chosen;
  }

  // Graceful degradation on capacity exhaustion: an OOM (from the allocator
  // or an injected alloc fault) shrinks the plan and re-runs — first by
  // giving up transfer overlap (frees the double buffers), then by
  // pretending the device is smaller so the blocking gets finer. The fault
  // injector is materialized once and shared across attempts so scripted
  // one-shot faults stay consumed instead of re-firing every retry.
  ApspOptions run_opts = opts;
  std::unique_ptr<sim::FaultInjector> shared_injector;
  if (opts.faults != nullptr && opts.fault_injector == nullptr) {
    shared_injector = std::make_unique<sim::FaultInjector>(*opts.faults);
    run_opts.faults = nullptr;
    run_opts.fault_injector = shared_injector.get();
  }
  int degradations = 0;
  for (;;) {
    try {
      ApspResult result = dispatch(g, run_opts, store, algo);
      result.metrics.degradations = degradations;
      // The device metrics only saw the final attempt; the injector counted
      // every fault across all of them (e.g. the alloc fault that triggered
      // a degradation).
      if (run_opts.fault_injector != nullptr) {
        result.metrics.faults_injected = run_opts.fault_injector->injected();
      }
      return result;
    } catch (const sim::OomError&) {
      if (degradations >= opts.max_degradations) throw;
    } catch (const sim::FaultError& e) {
      if (e.op() != sim::FaultOp::kAlloc ||
          degradations >= opts.max_degradations) {
        throw;
      }
    }
    ++degradations;
    if (run_opts.overlap_transfers) {
      run_opts.overlap_transfers = false;
    } else {
      run_opts.device.memory_bytes =
          run_opts.device.memory_bytes / 4 * 3;
    }
  }
}

}  // namespace gapsp::core
