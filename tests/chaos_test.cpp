// Chaos suite for fault injection + recovery (DESIGN.md §8).
//
// The contract under test: with a fault plan attached, every run either
// completes with distances bit-identical to a fault-free run, or surfaces a
// typed sim::FaultError — and the recovery layers (retry, degradation,
// checkpoint/resume, multi-device failover) turn as many of the latter into
// the former as the fault model allows. Zero-fault runs with injection
// compiled in must not perturb the simulated timeline at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/multi_device.h"
#include "core/ooc_fw.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

using test::expect_store_matches_reference;
using test::tiny_device;

ApspOptions chaos_opts(Algorithm algo, std::size_t mem) {
  ApspOptions o;
  o.device = tiny_device(mem);
  o.fw_tile = 32;
  o.algorithm = algo;
  return o;
}

std::string ck_path(const char* tag) {
  return ::testing::TempDir() + "gapsp_chaos_" + tag + ".ck";
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

/// Seed offset for the randomized schedules, settable from CI so the chaos
/// job explores a different slice of the schedule space per matrix entry.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("GAPSP_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

void expect_bit_identical(const DistStore& sa, const ApspResult& ra,
                          const DistStore& sb, const ApspResult& rb) {
  ASSERT_EQ(sa.n(), sb.n());
  ASSERT_EQ(ra.perm, rb.perm);
  const vidx_t n = sa.n();
  std::vector<dist_t> a(static_cast<std::size_t>(n));
  std::vector<dist_t> b(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    sa.read_block(r, 0, 1, n, a.data(), a.size());
    sb.read_block(r, 0, 1, n, b.data(), b.size());
    ASSERT_EQ(a, b) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Zero-fault parity: injection compiled in and attached, but an empty plan —
// the timeline and every counter must match a run without any injector.
// ---------------------------------------------------------------------------

class ZeroFaultParity : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ZeroFaultParity, EmptyPlanDoesNotPerturbTimeline) {
  const auto g = graph::make_erdos_renyi(120, 600, 501);
  const auto opts = chaos_opts(GetParam(), 256u << 10);

  auto s_plain = make_ram_store(g.num_vertices());
  const auto plain = solve_apsp(g, opts, *s_plain);

  sim::FaultPlan empty;  // all probabilities zero, nothing scripted
  ApspOptions with = opts;
  with.faults = &empty;
  auto s_inj = make_ram_store(g.num_vertices());
  const auto inj = solve_apsp(g, with, *s_inj);

  EXPECT_EQ(inj.metrics.faults_injected, 0);
  EXPECT_EQ(inj.metrics.transfer_retries, 0);
  EXPECT_EQ(inj.metrics.kernel_retries, 0);
  EXPECT_EQ(inj.metrics.retry_backoff_seconds, 0.0);
  EXPECT_EQ(inj.metrics.degradations, 0);
  EXPECT_DOUBLE_EQ(inj.metrics.sim_seconds, plain.metrics.sim_seconds);
  EXPECT_DOUBLE_EQ(inj.metrics.kernel_seconds, plain.metrics.kernel_seconds);
  EXPECT_DOUBLE_EQ(inj.metrics.transfer_seconds,
                   plain.metrics.transfer_seconds);
  EXPECT_EQ(inj.metrics.bytes_h2d, plain.metrics.bytes_h2d);
  EXPECT_EQ(inj.metrics.bytes_d2h, plain.metrics.bytes_d2h);
  EXPECT_EQ(inj.metrics.kernels, plain.metrics.kernels);
  expect_bit_identical(*s_plain, plain, *s_inj, inj);
}

TEST_P(ZeroFaultParity, CheckpointingDoesNotPerturbTimeline) {
  const auto g = graph::make_erdos_renyi(120, 600, 502);
  const auto opts = chaos_opts(GetParam(), 256u << 10);

  auto s_plain = make_ram_store(g.num_vertices());
  const auto plain = solve_apsp(g, opts, *s_plain);

  ApspOptions with = opts;
  with.checkpoint_path = ck_path("parity");
  auto s_ck = make_ram_store(g.num_vertices());
  const auto ck = solve_apsp(g, with, *s_ck);

  // Checkpoint writes are host-side sidecar I/O: same simulated makespan.
  EXPECT_DOUBLE_EQ(ck.metrics.sim_seconds, plain.metrics.sim_seconds);
  EXPECT_GT(ck.metrics.checkpoints_written, 0);
  EXPECT_FALSE(file_exists(with.checkpoint_path))
      << "checkpoint must be removed after a successful run";
  expect_bit_identical(*s_plain, plain, *s_ck, ck);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ZeroFaultParity,
                         ::testing::Values(Algorithm::kBlockedFloydWarshall,
                                           Algorithm::kJohnson,
                                           Algorithm::kBoundary));

// ---------------------------------------------------------------------------
// Transient faults: bounded retry-with-backoff absorbs them; the distances
// are still exact and the backoff shows up on the simulated timeline.
// ---------------------------------------------------------------------------

TEST(ChaosRetry, TransientFaultsAreRetriedBitIdentical) {
  const auto g = graph::make_erdos_renyi(120, 600, 503);
  const auto opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 128u << 10);

  auto s_clean = make_ram_store(g.num_vertices());
  const auto clean = solve_apsp(g, opts, *s_clean);

  sim::FaultPlan plan;
  plan.scripted.push_back({.op = sim::FaultOp::kH2D, .nth = 3});
  plan.scripted.push_back({.op = sim::FaultOp::kD2H, .nth = 2});
  plan.scripted.push_back({.op = sim::FaultOp::kKernel, .nth = 4});
  ApspOptions faulty = opts;
  faulty.faults = &plan;
  auto s_faulty = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, faulty, *s_faulty);

  EXPECT_EQ(r.metrics.faults_injected, 3);
  EXPECT_EQ(r.metrics.transfer_retries, 2);
  EXPECT_EQ(r.metrics.kernel_retries, 1);
  EXPECT_GT(r.metrics.retry_backoff_seconds, 0.0);
  // Backoff is idle stream time: the faulty makespan can only grow.
  EXPECT_GE(r.metrics.sim_seconds, clean.metrics.sim_seconds);
  expect_bit_identical(*s_clean, clean, *s_faulty, r);
}

TEST(ChaosRetry, ExhaustedRetriesSurfaceTypedError) {
  const auto g = graph::make_erdos_renyi(90, 400, 504);
  sim::FaultPlan plan;
  plan.scripted.push_back({.op = sim::FaultOp::kH2D, .nth = 1});
  ApspOptions opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 256u << 10);
  opts.faults = &plan;
  opts.retry.max_retries = 0;  // transient, but no retry budget
  auto store = make_ram_store(g.num_vertices());
  try {
    solve_apsp(g, opts, *store);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.op(), sim::FaultOp::kH2D);
    EXPECT_TRUE(e.transient());
  }
}

TEST(ChaosRetry, NonTransientFaultIsNotRetried) {
  const auto g = graph::make_erdos_renyi(90, 400, 505);
  sim::FaultPlan plan;
  plan.scripted.push_back(
      {.op = sim::FaultOp::kKernel, .nth = 2, .transient = false});
  ApspOptions opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 256u << 10);
  opts.faults = &plan;
  auto store = make_ram_store(g.num_vertices());
  try {
    solve_apsp(g, opts, *store);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.op(), sim::FaultOp::kKernel);
    EXPECT_FALSE(e.transient());
  }
}

TEST(ChaosRetry, KillAtSimTimeFires) {
  const auto g = graph::make_erdos_renyi(120, 600, 515);
  const auto opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 128u << 10);
  auto s_clean = make_ram_store(g.num_vertices());
  const auto clean = solve_apsp(g, opts, *s_clean);

  sim::FaultPlan plan;
  plan.kill_device = 0;
  plan.kill_at_s = clean.metrics.sim_seconds / 2;  // mid-run, in sim time
  ApspOptions faulty = opts;
  faulty.faults = &plan;
  auto store = make_ram_store(g.num_vertices());
  try {
    solve_apsp(g, faulty, *store);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.op(), sim::FaultOp::kDeviceLost);
    EXPECT_FALSE(e.transient());
  }
}

// ---------------------------------------------------------------------------
// Degradation: an injected alloc fault (device OOM) makes solve_apsp shrink
// the plan and re-run instead of failing.
// ---------------------------------------------------------------------------

TEST(ChaosDegrade, AllocFaultDegradesAndCompletes) {
  const auto g = graph::make_erdos_renyi(120, 600, 506);
  const auto opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 128u << 10);

  auto s_clean = make_ram_store(g.num_vertices());
  const auto clean = solve_apsp(g, opts, *s_clean);

  sim::FaultPlan plan;
  plan.scripted.push_back({.op = sim::FaultOp::kAlloc, .nth = 1});
  ApspOptions faulty = opts;
  faulty.faults = &plan;
  auto store = make_ram_store(g.num_vertices());
  const auto r = solve_apsp(g, faulty, *store);

  EXPECT_EQ(r.metrics.degradations, 1);
  EXPECT_EQ(r.metrics.faults_injected, 1);
  expect_store_matches_reference(g, *store, r);
  // Distances agree with the full-plan run even though the re-plan differs.
  expect_bit_identical(*s_clean, clean, *store, r);
}

TEST(ChaosDegrade, DegradationBudgetExhaustedRethrows) {
  const auto g = graph::make_erdos_renyi(90, 400, 507);
  sim::FaultPlan plan;
  plan.p_alloc = 1.0;  // every allocation fails: no plan can survive
  ApspOptions opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 256u << 10);
  opts.faults = &plan;
  opts.max_degradations = 2;
  auto store = make_ram_store(g.num_vertices());
  try {
    solve_apsp(g, opts, *store);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.op(), sim::FaultOp::kAlloc);
    EXPECT_FALSE(e.transient());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: kill the device at op K for a sweep of K, resume each
// interrupted run from the sidecar, and require bit-identical distances.
// ---------------------------------------------------------------------------

/// Sweeps a device-kill across the whole op stream with stride `stride`
/// (stride 1 interrupts after *every* gated op, which covers every round
/// boundary). Each interrupted run is resumed fault-free from the sidecar
/// and must reproduce the reference run bit-for-bit. The sweep ends when a
/// kill lands beyond the op stream and the run completes untouched.
void kill_resume_sweep(Algorithm algo, const graph::CsrGraph& g,
                       std::size_t mem, long long stride, const char* tag) {
  const std::string path = ck_path(tag);
  ApspOptions clean = chaos_opts(algo, mem);
  auto s_ref = make_ram_store(g.num_vertices());
  const ApspResult ref = solve_apsp(g, clean, *s_ref);

  int interruptions = 0;
  bool saw_resumed_progress = false;
  for (long long kill = 1;; kill += stride) {
    ASSERT_LT(kill, 1000000) << "kill sweep failed to terminate";
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions faulty = clean;
    faulty.faults = &plan;
    faulty.checkpoint_path = path;
    auto store = make_ram_store(g.num_vertices());
    try {
      const ApspResult done = solve_apsp(g, faulty, *store);
      // The kill op lies beyond the run's op stream: nothing fired.
      EXPECT_EQ(done.metrics.faults_injected, 0);
      expect_bit_identical(*s_ref, ref, *store, done);
      break;
    } catch (const sim::FaultError& e) {
      ASSERT_EQ(e.op(), sim::FaultOp::kDeviceLost);
      ++interruptions;
    }
    ApspOptions rec = clean;
    rec.checkpoint_path = path;
    rec.resume = true;
    const ApspResult resumed = solve_apsp(g, rec, *store);
    saw_resumed_progress |= resumed.metrics.resumed_progress > 0;
    expect_bit_identical(*s_ref, ref, *store, resumed);
    EXPECT_FALSE(file_exists(path));
  }
  EXPECT_GT(interruptions, 0) << "sweep never actually killed the device";
  EXPECT_TRUE(saw_resumed_progress)
      << "no interruption landed past the first checkpoint";
}

TEST(ChaosResume, FwKilledAtEveryOpResumesBitIdentical) {
  // Small enough that stride 1 interrupts after every single gated op.
  const auto g = graph::make_erdos_renyi(90, 400, 508);
  kill_resume_sweep(Algorithm::kBlockedFloydWarshall, g, 64u << 10, 1, "fw");
}

TEST(ChaosResume, JohnsonKillSweepResumesBitIdentical) {
  const auto g = graph::make_erdos_renyi(120, 500, 509);
  kill_resume_sweep(Algorithm::kJohnson, g, 256u << 10, 3, "johnson");
}

TEST(ChaosResume, BoundaryKillSweepResumesBitIdentical) {
  const auto g = graph::make_road(10, 10, 510);
  kill_resume_sweep(Algorithm::kBoundary, g, 2u << 20, 3, "boundary");
}

TEST(ChaosResume, KinfHeavySweepResumesThroughCompressedSidecars) {
  // Disconnected graph → the boundary dist2/dist3 blobs (and the matrix
  // itself) are dominated by kInf runs, so every sidecar this sweep writes
  // stores its payload as a z1 frame (checkpoint.cpp compresses at the
  // sink). The sweep proves resume from *compressed* checkpoints is
  // bit-identical to the fault-free run across every interruption point.
  const auto g = graph::make_erdos_renyi(110, 150, 512, /*connect=*/false);
  kill_resume_sweep(Algorithm::kBoundary, g, 2u << 20, 3, "zck");
}

TEST(ChaosResume, RealRunSidecarStoresCompressedPayload) {
  // Interrupt a kInf-heavy boundary run mid-flight and inspect the sidecar
  // it left behind: once a checkpoint carries host-side intermediates, the
  // file on disk must be smaller than the raw payload read_checkpoint
  // hands back — i.e. the compression sink is live in the real pipeline,
  // not just in the unit round-trip.
  const auto g = graph::make_erdos_renyi(120, 160, 513, /*connect=*/false);
  const std::string path = ck_path("zsize");
  ApspOptions clean = chaos_opts(Algorithm::kBoundary, 2u << 20);
  bool inspected = false;
  for (long long kill = 1; !inspected; kill += 2) {
    ASSERT_LT(kill, 1000000) << "no checkpoint with a payload ever appeared";
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions faulty = clean;
    faulty.faults = &plan;
    faulty.checkpoint_path = path;
    auto store = make_ram_store(g.num_vertices());
    try {
      solve_apsp(g, faulty, *store);
      break;  // kill landed past the op stream; nothing more to inspect
    } catch (const sim::FaultError&) {
    }
    Checkpoint ck;
    if (file_exists(path) && read_checkpoint(path, &ck) &&
        !ck.payload.empty()) {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 0, SEEK_END);
      const auto sidecar_bytes = static_cast<std::size_t>(std::ftell(f));
      std::fclose(f);
      EXPECT_LT(sidecar_bytes, ck.payload.size())
          << "sidecar stored the payload raw despite kInf-run content";
      inspected = true;
    }
    std::remove(path.c_str());
  }
  std::remove(path.c_str());
  EXPECT_TRUE(inspected) << "sweep completed before any payload checkpoint";
}

TEST(ChaosResume, CrossProcessResumeViaDurableFileStore) {
  // Simulate a process death: the interrupted run's FileStore object is
  // destroyed (keep_file=true, so the raw matrix file survives) and the
  // resume builds a NEW FileStore over the kept file. Adopting the on-disk
  // matrix instead of truncating it is what makes the checkpoint's
  // durability argument hold across processes — the sidecar only records
  // progress, the store holds the completed rounds.
  const std::string ck = ck_path("xproc");
  const std::string dist = ::testing::TempDir() + "gapsp_chaos_xproc.bin";
  const auto g = graph::make_erdos_renyi(90, 400, 514);
  const ApspOptions clean =
      chaos_opts(Algorithm::kBlockedFloydWarshall, 64u << 10);
  auto s_ref = make_ram_store(g.num_vertices());
  const ApspResult ref = solve_apsp(g, clean, *s_ref);

  bool resumed_past_round = false;
  // Dense enough that some kill lands between the first checkpoint and the
  // end of the op stream (the compressed transfer path gates two ops per
  // staged tile, which compresses that window).
  for (long long kill = 8; kill <= 4096 && !resumed_past_round;
       kill += std::max<long long>(4, kill / 4)) {
    std::remove(ck.c_str());
    std::remove(dist.c_str());
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions faulty = clean;
    faulty.faults = &plan;
    faulty.checkpoint_path = ck;
    bool died = false;
    {
      auto store = make_file_store(g.num_vertices(), dist, /*keep_file=*/true);
      try {
        solve_apsp(g, faulty, *store);
      } catch (const sim::FaultError&) {
        died = true;
      }
    }  // "process" exits here: the store object is gone, the file remains
    if (!died) break;                // kill op beyond the op stream
    if (!file_exists(ck)) continue;  // died before the first checkpoint
    auto store = make_file_store(g.num_vertices(), dist, /*keep_file=*/true);
    ApspOptions rec = clean;
    rec.checkpoint_path = ck;
    rec.resume = true;
    const ApspResult resumed = solve_apsp(g, rec, *store);
    resumed_past_round = resumed.metrics.resumed_progress > 0;
    expect_bit_identical(*s_ref, ref, *store, resumed);
    EXPECT_FALSE(file_exists(ck));
  }
  EXPECT_TRUE(resumed_past_round)
      << "no kill in the sweep left a usable checkpoint";
  std::remove(dist.c_str());
}

/// Interrupts `algo` until its sidecar records at least `min_progress`
/// units, replaces the sidecar with one keyed by the fingerprint formula
/// that sidecars have always carried — fnv1a over the int64 shape
/// {n, aux0, aux1, extra...} seeded with graph_fingerprint — and expects
/// the run to resume past exactly that progress, bit-identical.
void expect_formula_sidecar_resumes(Algorithm algo, const graph::CsrGraph& g,
                                    std::size_t mem, long long min_progress,
                                    const char* tag) {
  const std::string path = ck_path(tag);
  const ApspOptions clean = chaos_opts(algo, mem);
  auto s_ref = make_ram_store(g.num_vertices());
  const ApspResult ref = solve_apsp(g, clean, *s_ref);
  const ApspMetrics& m = ref.metrics;
  std::vector<std::int64_t> shape = {g.num_vertices()};
  if (algo == Algorithm::kBlockedFloydWarshall) {
    shape.insert(shape.end(),
                 {fw_block_size(clean.device, g.num_vertices(),
                                fw_resident_blocks(clean.overlap_transfers)),
                  m.fw_num_blocks});
  } else if (algo == Algorithm::kJohnson) {
    shape.insert(shape.end(), {m.johnson_batch_size, m.johnson_num_batches});
  } else {
    shape.insert(shape.end(),
                 {m.boundary_k, m.boundary_nodes,
                  plan_boundary(g, clean).max_comp,
                  static_cast<std::int64_t>(clean.seed)});
  }
  for (long long kill = 1;; ++kill) {
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions faulty = clean;
    faulty.faults = &plan;
    faulty.checkpoint_path = path;
    auto store = make_ram_store(g.num_vertices());
    try {
      solve_apsp(g, faulty, *store);
      FAIL() << "no interruption left a sidecar past " << min_progress;
    } catch (const sim::FaultError&) {
    }
    Checkpoint real;
    if (!read_checkpoint(path, &real) || real.progress < min_progress) continue;
    Checkpoint formula;
    formula.algorithm = static_cast<std::uint32_t>(algo);
    formula.fingerprint =
        util::fnv1a(shape.data(), shape.size() * sizeof(std::int64_t),
                    graph_fingerprint(g));
    formula.n = g.num_vertices();
    formula.progress = real.progress;
    formula.aux0 = shape[1];
    formula.aux1 = shape[2];
    formula.payload = real.payload;
    EXPECT_EQ(real.fingerprint, formula.fingerprint);
    write_checkpoint(path, formula);
    ApspOptions rec = clean;
    rec.checkpoint_path = path;
    rec.resume = true;
    const ApspResult resumed = solve_apsp(g, rec, *store);
    EXPECT_EQ(resumed.metrics.resumed_progress, formula.progress);
    expect_bit_identical(*s_ref, ref, *store, resumed);
    EXPECT_FALSE(file_exists(path));
    return;
  }
}

TEST(ChaosResume, SidecarsOfTheFingerprintFormulaResume) {
  expect_formula_sidecar_resumes(Algorithm::kBlockedFloydWarshall,
                                 graph::make_erdos_renyi(90, 400, 515),
                                 64u << 10, 1, "formula_fw");
  expect_formula_sidecar_resumes(Algorithm::kJohnson,
                                 graph::make_erdos_renyi(120, 500, 516),
                                 256u << 10, 1, "formula_johnson");
  // Step 3's sidecar carries dist2 and the solved boundary matrix.
  expect_formula_sidecar_resumes(Algorithm::kBoundary,
                                 graph::make_road(10, 10, 517), 2u << 20, 3,
                                 "formula_boundary");
}

/// Forwards to a RAM store and records, at each flush(), the progress the
/// checkpoint sidecar at `sidecar` held at that moment (-1: none yet).
class FlushRecordingStore final : public DistStore {
 public:
  FlushRecordingStore(vidx_t n, std::string sidecar)
      : DistStore(n), inner_(make_ram_store(n)), sidecar_(std::move(sidecar)) {}

  void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                   const dist_t* src, std::size_t src_ld) override {
    inner_->write_block(row0, col0, rows, cols, src, src_ld);
  }
  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    inner_->read_block(row0, col0, rows, cols, dst, dst_ld);
  }
  void flush() override {
    Checkpoint ck;
    seen.push_back(read_checkpoint(sidecar_, &ck) ? ck.progress : -1);
  }

  std::vector<std::int64_t> seen;

 private:
  std::unique_ptr<DistStore> inner_;
  std::string sidecar_;
};

TEST(ChaosResume, StoreFlushesBeforeEverySidecarWrite) {
  // DistStore::flush() is the durability boundary a checkpoint must not
  // pass: every driver flushes once per sidecar write, before it, so each
  // flush sees the sidecar of the previous progress point.
  struct Case {
    Algorithm algo;
    graph::CsrGraph g;
    std::size_t mem;
    const char* tag;
  };
  for (const Case& c : {
           Case{Algorithm::kBlockedFloydWarshall,
                graph::make_erdos_renyi(90, 400, 518), 64u << 10,
                "flush_fw"},
           Case{Algorithm::kJohnson, graph::make_erdos_renyi(120, 500, 519),
                256u << 10, "flush_johnson"},
           Case{Algorithm::kBoundary, graph::make_road(10, 10, 520), 2u << 20,
                "flush_boundary"},
       }) {
    const std::string path = ck_path(c.tag);
    std::remove(path.c_str());
    ApspOptions o = chaos_opts(c.algo, c.mem);
    o.checkpoint_path = path;
    FlushRecordingStore store(c.g.num_vertices(), path);
    const auto r = solve_apsp(c.g, o, store);
    expect_store_matches_reference(c.g, store, r);

    // The progress points each driver records: FW rounds 1..n_d, Johnson
    // batches 1..n_b, boundary steps 2 and 3.
    std::vector<std::int64_t> progress;
    if (c.algo == Algorithm::kBlockedFloydWarshall) {
      for (int k = 1; k <= r.metrics.fw_num_blocks; ++k) progress.push_back(k);
    } else if (c.algo == Algorithm::kJohnson) {
      for (int b = 1; b <= r.metrics.johnson_num_batches; ++b) {
        progress.push_back(b);
      }
    } else {
      progress = {2, 3};
    }
    ASSERT_EQ(r.metrics.checkpoints_written,
              static_cast<long long>(progress.size()))
        << c.tag;
    std::vector<std::int64_t> expected = {-1};
    expected.insert(expected.end(), progress.begin(), progress.end() - 1);
    EXPECT_EQ(store.seen, expected) << c.tag;
    EXPECT_FALSE(file_exists(path)) << c.tag;
  }
}

TEST(ChaosResume, MismatchedCheckpointStartsFresh) {
  // Interrupt a run on graph A so its checkpoint survives, then point a run
  // on graph B at the same sidecar: the fingerprint must reject it and the
  // B run must start fresh and still be correct.
  const std::string path = ck_path("mismatch");
  const auto a = graph::make_erdos_renyi(90, 400, 511);
  const auto b = graph::make_erdos_renyi(90, 450, 512);

  // Push the kill later until the death happens after at least one round
  // checkpoint landed on disk.
  bool have_checkpoint = false;
  for (long long kill = 8; kill <= 4096 && !have_checkpoint;
       kill += std::max<long long>(4, kill / 4)) {
    sim::FaultPlan plan;
    plan.kill_device = 0;
    plan.kill_at_op = kill;
    ApspOptions opts = chaos_opts(Algorithm::kBlockedFloydWarshall, 64u << 10);
    opts.faults = &plan;
    opts.checkpoint_path = path;
    auto sa = make_ram_store(a.num_vertices());
    EXPECT_THROW(solve_apsp(a, opts, *sa), sim::FaultError);
    have_checkpoint = file_exists(path);
  }
  ASSERT_TRUE(have_checkpoint);

  ApspOptions rec = chaos_opts(Algorithm::kBlockedFloydWarshall, 64u << 10);
  rec.checkpoint_path = path;
  rec.resume = true;
  auto sb = make_ram_store(b.num_vertices());
  const auto r = solve_apsp(b, rec, *sb);
  EXPECT_EQ(r.metrics.resumed_progress, 0);
  expect_store_matches_reference(b, *sb, r);
}

TEST(ChaosResume, CorruptCheckpointIsRejected) {
  const std::string path = ck_path("corrupt");
  Checkpoint ck;
  ck.algorithm = 1;
  ck.fingerprint = 42;
  ck.n = 8;
  ck.progress = 3;
  write_checkpoint(path, ck);
  Checkpoint back;
  ASSERT_TRUE(read_checkpoint(path, &back));
  EXPECT_EQ(back.fingerprint, 42u);
  EXPECT_EQ(back.progress, 3);

  // Flip one byte: the trailing checksum must reject the file.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
  const unsigned char junk = 0xA5;
  ASSERT_EQ(std::fwrite(&junk, 1, 1, f), 1u);
  std::fclose(f);
  EXPECT_FALSE(read_checkpoint(path, &back));

  // Truncation must be rejected too.
  std::FILE* t = std::fopen(path.c_str(), "wb");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(std::fwrite("GAPSPCK1", 1, 8, t), 8u);
  std::fclose(t);
  EXPECT_FALSE(read_checkpoint(path, &back));
  remove_checkpoint(path);
}

// ---------------------------------------------------------------------------
// Multi-device failover: kill one device at op K for a sweep of K — the run
// must complete on the survivors with bit-identical distances and report
// the failover in its metrics.
// ---------------------------------------------------------------------------

TEST(ChaosFailover, KilledDeviceFailsOverBitIdentical) {
  const auto g = graph::make_road(12, 12, 513);
  ApspOptions opts = chaos_opts(Algorithm::kBoundary, 4u << 20);
  opts.num_components = 6;

  auto s_ref = make_ram_store(g.num_vertices());
  const auto ref = ooc_boundary_multi(g, opts, 3, *s_ref);
  ASSERT_TRUE(ref.multi.failed_devices.empty());

  bool saw_failover_work = false;
  int deaths = 0;
  for (long long kill = 1;; kill += 4) {
    ASSERT_LT(kill, 1000000) << "failover sweep failed to terminate";
    sim::FaultPlan plan;
    plan.kill_device = 1;
    plan.kill_at_op = kill;
    ApspOptions faulty = opts;
    faulty.faults = &plan;
    auto store = make_ram_store(g.num_vertices());
    const auto r = ooc_boundary_multi(g, faulty, 3, *store);
    expect_bit_identical(*s_ref, ref.result, *store, r.result);
    if (r.multi.failed_devices.empty()) break;  // kill beyond the op stream
    ++deaths;
    ASSERT_EQ(r.multi.failed_devices, std::vector<int>{1});
    EXPECT_GE(r.multi.failover_cost_s, 0.0);
    saw_failover_work |= r.multi.failover_components > 0;
  }
  EXPECT_GT(deaths, 0);
  EXPECT_TRUE(saw_failover_work)
      << "no death left unfinished components to re-run";
}

TEST(ChaosFailover, AllDevicesLostSurfacesTypedError) {
  const auto g = graph::make_road(10, 10, 514);
  sim::FaultPlan plan;
  plan.kill_device = 0;
  plan.kill_at_op = 1;
  ApspOptions opts = chaos_opts(Algorithm::kBoundary, 4u << 20);
  opts.num_components = 4;
  opts.faults = &plan;
  auto store = make_ram_store(g.num_vertices());
  try {
    ooc_boundary_multi(g, opts, 1, *store);
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.op(), sim::FaultOp::kDeviceLost);
  }
}

// ---------------------------------------------------------------------------
// Randomized fault schedules (seed matrix via GAPSP_CHAOS_SEED): every run
// either completes bit-identical to its clean twin or throws FaultError.
// ---------------------------------------------------------------------------

class ChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSchedule, RandomScheduleCompletesExactlyOrFailsTyped) {
  Rng rng(0xC0FFEE + chaos_seed() * 7919 +
                static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto g = graph::make_erdos_renyi(
      100 + static_cast<vidx_t>(rng.next_below(60)),
      450 + static_cast<eidx_t>(rng.next_below(300)), rng.next_u64());
  const Algorithm algos[] = {Algorithm::kBlockedFloydWarshall,
                             Algorithm::kJohnson, Algorithm::kBoundary};
  ApspOptions opts = chaos_opts(algos[rng.next_below(3)],
                                (128u << 10) << rng.next_below(3));
  opts.overlap_transfers = rng.next_bool(0.5);

  auto s_clean = make_ram_store(g.num_vertices());
  ApspResult clean;
  try {
    clean = solve_apsp(g, opts, *s_clean);
  } catch (const Error&) {
    return;  // infeasible configuration — nothing to chaos-test
  }

  sim::FaultPlan plan;
  plan.seed = rng.next_u64();
  plan.p_h2d = rng.next_double() * 0.02;
  plan.p_d2h = rng.next_double() * 0.02;
  plan.p_kernel = rng.next_double() * 0.01;
  if (rng.next_bool(0.3)) {
    plan.kill_device = 0;
    plan.kill_at_op = 1 + static_cast<long long>(rng.next_below(400));
  }
  ApspOptions faulty = opts;
  faulty.faults = &plan;
  faulty.retry.max_retries = static_cast<int>(rng.next_below(4));
  auto store = make_ram_store(g.num_vertices());
  try {
    const ApspResult r = solve_apsp(g, faulty, *store);
    expect_bit_identical(*s_clean, clean, *store, r);
  } catch (const sim::FaultError&) {
    // Typed failure is an acceptable outcome; anything else would have
    // escaped this catch and failed the test.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSchedule, ::testing::Range(0, 24));

}  // namespace
}  // namespace gapsp::core
