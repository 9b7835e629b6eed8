#include "core/ooc_johnson.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/checkpoint.h"
#include "core/transfer_codec.h"
#include "sim/stream_pipeline.h"
#include "sssp/bellman_ford.h"
#include "sssp/delta_stepping.h"
#include "sssp/near_far.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

// Cost coefficients of the irregular MSSP kernel. One relax is a CSR edge
// read plus an atomicMin on a random dist entry plus worklist bookkeeping;
// uncoalesced accesses make the kernel strongly memory-bound.
constexpr double kOpsPerRelax = 4.0;
constexpr double kBytesPerRelax = 64.0;
constexpr double kIrregularEfficiency = 0.20;
// Child kernels of the dynamic-parallelism path traverse equally-partitioned
// edge-list chunks: the gathered per-vertex edge lists stream coalesced and
// the grid is full, so only the scattered distance updates pay an
// irregularity tax — roughly half of peak instead of a fifth.
constexpr double kChildEfficiency = 0.48;

class JohnsonRunner {
 public:
  JohnsonRunner(const graph::CsrGraph& g, const ApspOptions& opts)
      : g_(g), opts_(opts), dev_(opts.device), faults_(dev_, opts),
        pipe_(dev_, opts.overlap_transfers),
        codec_(dev_, opts.transfer_compression) {
    dev_.set_trace(opts.trace);
    configure_kernels(dev_, opts);
    bat_ = johnson_batch_size(dev_.spec(), g, opts.johnson_queue_factor,
                              opts.overlap_transfers ? 2 : 1);
    nb_ = static_cast<int>(
        (static_cast<std::int64_t>(g.num_vertices()) + bat_ - 1) / bat_);
    dg_ = upload_graph(dev_, pipe_.compute_stream(), g);
    rows_.emplace(pipe_,
                  static_cast<std::size_t>(bat_) * g.num_vertices(),
                  "dist rows");
    const auto queue_elems = static_cast<std::size_t>(
        opts.johnson_queue_factor * static_cast<double>(g.num_edges()) * bat_);
    // The worklists are scratch of the running batch only — the writeback
    // never touches them, so they stay single-buffered.
    worklists_ = dev_.alloc<dist_t>(queue_elems, "near/far worklists");
  }

  int bat() const { return bat_; }
  int num_batches() const { return nb_; }
  sim::Device& device() { return dev_; }

  /// Ends the pipelined phase: waits out the last writeback.
  void finish() {
    pipe_.drain();
    dev_.synchronize();
  }

  struct BatchTimes {
    double kernel_s = 0.0;
    double transfer_s = 0.0;
  };

  /// Runs batch `bi` (sources [bi·bat, ...)); returns simulated seconds of
  /// the MSSP kernel and the result transfer. Rows land in `store` if
  /// non-null. With overlap_transfers the previous batch's rows drain on the
  /// D2H lane while this batch's MSSP kernel runs.
  BatchTimes run_batch(int bi, DistStore* store) {
    const vidx_t n = g_.num_vertices();
    const vidx_t s0 = static_cast<vidx_t>(bi) * bat_;
    const vidx_t cnt = std::min<vidx_t>(bat_, n - s0);
    GAPSP_CHECK(cnt > 0, "empty batch");
    // The kernel (on compute) waits until the slot's previous writeback
    // drained before it may rewrite the rows.
    const int slot = rows_->acquire(pipe_.compute_stream());
    dist_t* dist_rows = rows_->device_ptr(slot);

    sssp::NearFarConfig nf;
    nf.delta = opts_.delta;
    nf.heavy_degree_threshold =
        opts_.dynamic_parallelism ? opts_.heavy_degree_threshold : 0;

    // Per-instance work counters, filled by whichever SSSP kernel runs.
    struct InstanceStats {
      long long relax = 0;
      long long heavy = 0;
      long long processed = 0;  ///< worklist pops / bucket entries
    };
    std::vector<InstanceStats> stats(static_cast<std::size_t>(cnt));
    const SsspKernel kernel = opts_.sssp_kernel;
    const double kernel_s = dev_.launch(
        pipe_.compute_stream(), "MSSP", [&](sim::LaunchCtx& ctx) {
          // One SSSP instance per thread block (Algorithm 2's MSSP kernel).
          ThreadPool::global().parallel_for(
              static_cast<std::size_t>(cnt), [&](std::size_t i) {
                std::span<dist_t> row(
                    dist_rows + i * static_cast<std::size_t>(n),
                    static_cast<std::size_t>(n));
                const vidx_t src = s0 + static_cast<vidx_t>(i);
                switch (kernel) {
                  case SsspKernel::kNearFar: {
                    const auto st = sssp::near_far_sssp(g_, src, row, nf);
                    stats[i] = {st.relaxations, st.heavy_relaxations,
                                st.vertices_processed};
                    break;
                  }
                  case SsspKernel::kDeltaStepping: {
                    const auto r = sssp::delta_stepping(g_, src, opts_.delta);
                    std::copy(r.dist.begin(), r.dist.end(), row.begin());
                    // Full delta-stepping: same relaxation work, but every
                    // bucket processed costs device-wide reorganization
                    // (compaction + scan) — the "expensive organization"
                    // of Sec. II-B / [24].
                    stats[i] = {r.relaxations, 0,
                                static_cast<long long>(r.buckets_processed) *
                                    256};
                    break;
                  }
                  case SsspKernel::kBellmanFord: {
                    const auto r = sssp::bellman_ford(g_, src);
                    std::copy(r.dist.begin(), r.dist.end(), row.begin());
                    // Redundant whole-edge-list sweeps: far more relax work,
                    // counted honestly from the functional run.
                    stats[i] = {r.relaxations, 0, r.rounds};
                    break;
                  }
                }
              });
          long long relax = 0, heavy = 0, processed = 0;
          for (const auto& st : stats) {
            relax += st.relax;
            heavy += st.heavy;
            processed += st.processed;
          }
          const long long light = relax - heavy;
          if (heavy > 0) {
            // Dynamic parallelism: a child kernel gathers the heavy edge
            // lists, a second one traverses the equal-size partitions at
            // full occupancy (Sec. III-B).
            sim::KernelProfile gather;
            gather.ops = static_cast<double>(heavy);
            gather.bytes = 8.0 * static_cast<double>(heavy);
            gather.blocks = dev_.spec().max_active_blocks;
            ctx.child_launch(gather);
            sim::KernelProfile traverse;
            traverse.ops = kOpsPerRelax * static_cast<double>(heavy);
            traverse.bytes = kBytesPerRelax * static_cast<double>(heavy);
            traverse.blocks = dev_.spec().max_active_blocks;
            traverse.efficiency = kChildEfficiency;
            ctx.child_launch(traverse);
          }
          sim::KernelProfile p;
          p.ops = kOpsPerRelax * static_cast<double>(light) +
                  2.0 * static_cast<double>(processed);
          p.bytes = kBytesPerRelax * static_cast<double>(light) +
                    sizeof(dist_t) * 2.0 * static_cast<double>(n) * cnt;
          p.blocks = static_cast<int>(cnt);
          switch (kernel) {
            case SsspKernel::kNearFar:
              p.efficiency = kIrregularEfficiency;
              break;
            case SsspKernel::kDeltaStepping:
              // Bucket reorganization adds divergence on top of the
              // irregular relaxations.
              p.efficiency = 0.15;
              break;
            case SsspKernel::kBellmanFord:
              // Whole-edge-list sweeps are regular and coalesce well — the
              // (much larger) relax count is the real cost.
              p.efficiency = 0.35;
              break;
          }
          return p;
        });

    const std::size_t bytes =
        static_cast<std::size_t>(cnt) * static_cast<std::size_t>(n) *
        sizeof(dist_t);
    const sim::Event drained = codec_.stage_out(
        pipe_, rows_->host_ptr(slot), dist_rows, bytes, pipe_.computed());
    if (store != nullptr) {
      store->write_block(s0, 0, cnt, n, rows_->host_ptr(slot),
                         static_cast<std::size_t>(n));
    }
    rows_->release(slot, drained);
    // Report what the timeline was actually charged: the wire bytes of the
    // frame plus the on-device encode when the batch compressed, so sampled
    // estimates see the compressed regime (DESIGN.md §14).
    double transfer_s =
        dev_.transfer_time(codec_.last_wire_bytes(), /*pinned=*/true);
    if (codec_.last_wire_bytes() != bytes) transfer_s += dev_.decode_time(bytes);
    return BatchTimes{kernel_s, transfer_s};
  }

 private:
  const graph::CsrGraph& g_;
  ApspOptions opts_;
  sim::Device dev_;
  // Attached before upload_graph in the ctor body so even the CSR upload is
  // subject to the fault schedule.
  FaultScope faults_;
  sim::StreamPipeline pipe_;
  TransferCodec codec_;
  DeviceGraph dg_;
  // Deferred because its size depends on bat_, computed in the ctor body.
  std::optional<sim::PingPong<dist_t>> rows_;
  sim::DeviceBuffer<dist_t> worklists_;
  int bat_ = 0;
  int nb_ = 0;
};

}  // namespace

int johnson_batch_size(const sim::DeviceSpec& spec, const graph::CsrGraph& g,
                       double queue_factor, int row_buffers) {
  const double L = 0.95 * static_cast<double>(spec.memory_bytes);
  const double S =
      static_cast<double>(g.offsets().size() * sizeof(eidx_t) +
                          static_cast<std::size_t>(g.num_edges()) *
                              (sizeof(vidx_t) + sizeof(dist_t)));
  // Only the dist rows double up under overlap; the worklists belong to the
  // running batch alone.
  const double per_instance =
      sizeof(dist_t) * (row_buffers * static_cast<double>(g.num_vertices()) +
                        queue_factor * static_cast<double>(g.num_edges()));
  const double bat = (L - S) / per_instance;
  GAPSP_CHECK(bat >= 1.0,
              "graph too large for even one SSSP instance on " + spec.name);
  return static_cast<int>(
      std::min<double>(bat, static_cast<double>(g.num_vertices())));
}

ApspResult ooc_johnson(const graph::CsrGraph& g, const ApspOptions& opts,
                       DistStore& store) {
  Timer wall;
  GAPSP_CHECK(store.n() == g.num_vertices(), "store size mismatch");
  JohnsonRunner runner(g, opts);

  // Per-batch checkpointing: each batch fully overwrites its block of rows
  // in the store, so completed-batch count is the whole recovery state.
  const bool use_ck = !opts.checkpoint_path.empty();
  std::uint64_t fp = 0;
  int start_bi = 0;
  long long ck_written = 0;
  if (use_ck) {
    fp = graph_fingerprint(g);
    const std::int64_t shape[3] = {g.num_vertices(), runner.bat(),
                                   runner.num_batches()};
    fp = util::fnv1a(shape, sizeof(shape), fp);
    Checkpoint ck;
    if (opts.resume && read_checkpoint(opts.checkpoint_path, &ck) &&
        ck.algorithm == static_cast<std::uint32_t>(Algorithm::kJohnson) &&
        ck.fingerprint == fp && ck.n == g.num_vertices() &&
        ck.aux0 == runner.bat() && ck.aux1 == runner.num_batches()) {
      start_bi = static_cast<int>(
          std::clamp<std::int64_t>(ck.progress, 0, runner.num_batches()));
    }
  }

  for (int bi = start_bi; bi < runner.num_batches(); ++bi) {
    runner.run_batch(bi, &store);
    if (use_ck) {
      Checkpoint ck;
      ck.algorithm = static_cast<std::uint32_t>(Algorithm::kJohnson);
      ck.fingerprint = fp;
      ck.n = g.num_vertices();
      ck.progress = bi + 1;
      ck.aux0 = runner.bat();
      ck.aux1 = runner.num_batches();
      write_checkpoint(opts.checkpoint_path, ck);
      ++ck_written;
    }
  }
  runner.finish();
  if (use_ck) remove_checkpoint(opts.checkpoint_path);
  ApspResult result;
  result.used = Algorithm::kJohnson;
  result.metrics = metrics_from_device(runner.device(), wall.seconds());
  result.metrics.johnson_batch_size = runner.bat();
  result.metrics.johnson_num_batches = runner.num_batches();
  result.metrics.checkpoints_written = ck_written;
  result.metrics.resumed_progress = start_bi;
  return result;
}

JohnsonSample johnson_sample_batches(const graph::CsrGraph& g,
                                     const ApspOptions& opts,
                                     std::span<const int> batches) {
  JohnsonRunner runner(g, opts);
  JohnsonSample sample;
  sample.bat = runner.bat();
  sample.num_batches = runner.num_batches();
  for (int bi : batches) {
    GAPSP_CHECK(bi >= 0 && bi < runner.num_batches(), "batch index range");
    const auto times = runner.run_batch(bi, nullptr);
    sample.kernel_seconds += times.kernel_s;
    sample.transfer_seconds += times.transfer_s;
    ++sample.sampled;
  }
  runner.finish();
  return sample;
}

}  // namespace gapsp::core
