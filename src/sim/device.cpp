#include "sim/device.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace gapsp::sim {

void Device::fault_gate(FaultOp op, StreamId s, const char* what) {
  if (injector_ == nullptr) return;
  for (int attempt = 0;; ++attempt) {
    try {
      injector_->on_op(op, std::max(host_time_, stream_ready_[s]), what);
      return;
    } catch (const FaultError& e) {
      ++metrics_.faults_injected;
      const bool retryable = e.transient() && attempt < retry_.max_retries;
      // Failure is detected at issue time; a retried attempt charges the
      // backoff wait to the issuing stream's clock (idle, not busy — it can
      // hide nothing), so retries lengthen the simulated makespan honestly.
      double backoff = 0.0;
      if (retryable) {
        backoff = retry_.backoff_s;
        for (int i = 0; i < attempt; ++i) backoff *= retry_.backoff_multiplier;
      }
      const double start = std::max(stream_ready_[s], host_time_);
      if (trace_ != nullptr) {
        TraceEvent ev;
        ev.name = std::string("fault:") + fault_op_name(e.op()) +
                  (retryable ? " (retry)" : " (fatal)");
        ev.kind = TraceEvent::Kind::kFault;
        ev.stream = s;
        ev.start_s = start;
        ev.end_s = start + backoff;
        trace_->record(std::move(ev));
      }
      if (!retryable) throw;
      stream_ready_[s] = start + backoff;
      metrics_.retry_backoff_seconds += backoff;
      if (op == FaultOp::kKernel) {
        ++metrics_.kernel_retries;
      } else if (op == FaultOp::kDecode) {
        ++metrics_.decode_retries;
      } else {
        ++metrics_.transfer_retries;
      }
    }
  }
}

void LaunchCtx::child_launch(const KernelProfile& profile) {
  child_seconds_ += dev_.spec().child_launch_s + dev_.kernel_time(profile);
  ++children_;
}

StreamId Device::create_stream() {
  // New streams become usable from "now" on the host timeline.
  stream_ready_.push_back(host_time_);
  stream_busy_.push_back(0.0);
  return static_cast<StreamId>(stream_ready_.size() - 1);
}

Event Device::record_event(StreamId s) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id");
  return Event{stream_ready_[s]};
}

void Device::wait_event(StreamId s, const Event& e) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id");
  stream_ready_[s] = std::max(stream_ready_[s], e.time);
}

void Device::synchronize() {
  for (double t : stream_ready_) host_time_ = std::max(host_time_, t);
  metrics_.sim_seconds = host_time_;
}

void Device::advance_to(double t) {
  host_time_ = std::max(host_time_, t);
  for (double& ready : stream_ready_) ready = std::max(ready, t);
  metrics_.sim_seconds = std::max(metrics_.sim_seconds, host_time_);
}

void Device::stream_synchronize(StreamId s) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id");
  host_time_ = std::max(host_time_, stream_ready_[s]);
  metrics_.sim_seconds = std::max(metrics_.sim_seconds, host_time_);
}

double Device::kernel_time(const KernelProfile& p) const {
  // Occupancy: a grid with fewer blocks than the device can keep resident
  // only reaches a proportional fraction of peak throughput.
  const double occupancy =
      std::clamp(static_cast<double>(std::max(1, p.blocks)) /
                     static_cast<double>(std::max(1, spec_.max_active_blocks)),
                 0.0, 1.0);
  const double eff = std::clamp(p.efficiency, 1e-3, 1.0) * occupancy;
  const double compute = p.ops / (spec_.compute_ops_per_s * eff);
  const double memory = p.bytes / (spec_.mem_bandwidth * eff);
  return std::max(compute, memory);
}

double Device::transfer_time(std::size_t bytes, bool pinned) const {
  const double bw =
      spec_.link_bandwidth * (pinned ? 1.0 : spec_.pageable_penalty);
  return spec_.transfer_latency_s + static_cast<double>(bytes) / bw;
}

void Device::do_copy(StreamId s, void* dst, const void* src, std::size_t bytes,
                     bool async, bool pinned, bool to_device) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id");
  fault_gate(to_device ? FaultOp::kH2D : FaultOp::kD2H, s,
             to_device ? "memcpy_h2d" : "memcpy_d2h");
  if (bytes > 0 && !charge_only_) std::memcpy(dst, src, bytes);
  const double dur = transfer_time(bytes, pinned);
  const double start = std::max(stream_ready_[s], host_time_);
  stream_ready_[s] = start + dur;
  stream_busy_[s] += dur;
  intervals_.push_back({start, start + dur, /*transfer=*/true});
  metrics_.transfer_seconds += dur;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.name = to_device ? "h2d" : "d2h";
    e.kind = to_device ? TraceEvent::Kind::kH2D : TraceEvent::Kind::kD2H;
    e.stream = s;
    e.start_s = start;
    e.end_s = start + dur;
    e.bytes = static_cast<double>(bytes);
    trace_->record(std::move(e));
  }
  if (to_device) {
    metrics_.bytes_h2d += bytes;
    ++metrics_.transfers_h2d;
  } else {
    metrics_.bytes_d2h += bytes;
    ++metrics_.transfers_d2h;
  }
  if (!async) {
    host_time_ = stream_ready_[s];
    metrics_.sim_seconds = std::max(metrics_.sim_seconds, host_time_);
  }
}

void Device::memcpy_h2d(StreamId s, void* dst, const void* src,
                        std::size_t bytes, bool async, bool pinned) {
  do_copy(s, dst, src, bytes, async, pinned, /*to_device=*/true);
}

void Device::memcpy_d2h(StreamId s, void* dst, const void* src,
                        std::size_t bytes, bool async, bool pinned) {
  do_copy(s, dst, src, bytes, async, pinned, /*to_device=*/false);
}

double Device::decode_time(std::size_t raw_bytes) const {
  GAPSP_CHECK(spec_.decode_gbps > 0.0,
              "compressed transfer on a device without a decode rate");
  return static_cast<double>(raw_bytes) / (spec_.decode_gbps * 1e9);
}

void Device::note_z1_fallback(bool to_device, std::size_t bytes) {
  if (to_device) {
    metrics_.bytes_h2d_raw += bytes;
    metrics_.bytes_h2d_wire += bytes;
  } else {
    metrics_.bytes_d2h_raw += bytes;
    metrics_.bytes_d2h_wire += bytes;
  }
}

void Device::copy_z1(StreamId s, bool to_device, std::size_t wire_bytes,
                     std::size_t raw_bytes,
                     const std::function<void()>& materialize, bool async) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id");
  // Both gates pass before any payload moves — same discipline as launch():
  // a fault on the wire or mid-decode retries the whole tile, and partial
  // decode output is never published.
  fault_gate(to_device ? FaultOp::kH2D : FaultOp::kD2H, s,
             to_device ? "z1 wire h2d" : "z1 wire d2h");
  fault_gate(FaultOp::kDecode, s, to_device ? "z1 decode" : "z1 encode");
  if (materialize) materialize();
  const double wire_s = transfer_time(wire_bytes, /*pinned=*/true);
  const double dec_s = decode_time(raw_bytes);
  const double start = std::max(stream_ready_[s], host_time_);
  // H2D decodes after the wire arrives; D2H encodes before the wire leaves.
  const double mid = start + (to_device ? wire_s : dec_s);
  const double end = mid + (to_device ? dec_s : wire_s);
  const double wire_start = to_device ? start : mid;
  const double dec_start = to_device ? mid : start;
  stream_ready_[s] = end;
  stream_busy_[s] += end - start;
  intervals_.push_back({wire_start, wire_start + wire_s, /*transfer=*/true});
  intervals_.push_back({dec_start, dec_start + dec_s, /*transfer=*/false});
  metrics_.transfer_seconds += wire_s;
  metrics_.decode_seconds += dec_s;
  ++metrics_.decodes;
  if (to_device) {
    metrics_.bytes_h2d += raw_bytes;  // logical bytes, mode-invariant
    ++metrics_.transfers_h2d;
    metrics_.bytes_h2d_raw += raw_bytes;
    metrics_.bytes_h2d_wire += wire_bytes;
  } else {
    metrics_.bytes_d2h += raw_bytes;
    ++metrics_.transfers_d2h;
    metrics_.bytes_d2h_raw += raw_bytes;
    metrics_.bytes_d2h_wire += wire_bytes;
  }
  if (trace_ != nullptr) {
    TraceEvent wire_ev;
    wire_ev.name = to_device ? "h2d.z1" : "d2h.z1";
    wire_ev.kind = to_device ? TraceEvent::Kind::kH2D : TraceEvent::Kind::kD2H;
    wire_ev.stream = s;
    wire_ev.start_s = wire_start;
    wire_ev.end_s = wire_start + wire_s;
    wire_ev.bytes = static_cast<double>(wire_bytes);
    trace_->record(std::move(wire_ev));
    TraceEvent dec_ev;  // decode-busy span: device compute on the timeline
    dec_ev.name = to_device ? "z1_decode" : "z1_encode";
    dec_ev.kind = TraceEvent::Kind::kDecode;
    dec_ev.stream = s;
    dec_ev.start_s = dec_start;
    dec_ev.end_s = dec_start + dec_s;
    dec_ev.bytes = static_cast<double>(raw_bytes);
    trace_->record(std::move(dec_ev));
  }
  if (!async) {
    host_time_ = stream_ready_[s];
    metrics_.sim_seconds = std::max(metrics_.sim_seconds, host_time_);
  }
}

double Device::launch(StreamId s, const std::string& name,
                      const std::function<KernelProfile(LaunchCtx&)>& body) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id: " + name);
  GAPSP_CHECK(!charge_only_,
              "kernel " + name +
                  " learns its profile by running; a charge-only device "
                  "cannot launch it");
  // The gate runs before the body: a failed launch has no side effects, so
  // a retry simply re-executes the (idempotent, min-plus monotone) kernel.
  fault_gate(FaultOp::kKernel, s, name.c_str());
  LaunchCtx ctx(*this);
  const KernelProfile profile = body(ctx);  // real work happens here
  return charge_kernel(s, name, profile, ctx.child_seconds(), ctx.children_);
}

double Device::launch_grid(StreamId s, const std::string& name, int grid,
                           const std::function<void(int)>& block_body,
                           const std::function<KernelProfile()>& profile) {
  GAPSP_CHECK(s >= 0 && s < static_cast<StreamId>(stream_ready_.size()),
              "bad stream id: " + name);
  // Same gate, retry replay, tracing and charge as launch(): a grid launch
  // is indistinguishable from a serial launch on the simulated timeline.
  fault_gate(FaultOp::kKernel, s, name.c_str());
  // A charge-only device runs no block: the profile is declared apart from
  // the work.
  const int blocks = charge_only_ ? 0 : grid;
  if (blocks <= 1 || kernel_threads_ == 1) {
    for (int b = 0; b < blocks; ++b) block_body(b);
  } else {
    ThreadPool::global().parallel_for(
        static_cast<std::size_t>(blocks),
        [&](std::size_t b) { block_body(static_cast<int>(b)); },
        /*grain=*/1,
        /*max_threads=*/kernel_threads_ <= 0
            ? 0
            : static_cast<std::size_t>(kernel_threads_));
  }
  return charge_kernel(s, name, profile(), 0.0, 0);
}

double Device::charge_kernel(StreamId s, const std::string& name,
                             const KernelProfile& profile,
                             double child_seconds, long long children) {
  const double dur =
      spec_.kernel_launch_s + kernel_time(profile) + child_seconds;
  const double start = std::max(stream_ready_[s], host_time_);
  stream_ready_[s] = start + dur;
  stream_busy_[s] += dur;
  intervals_.push_back({start, start + dur, /*transfer=*/false});
  metrics_.kernel_seconds += dur;
  metrics_.total_ops += profile.ops;
  ++metrics_.kernels;
  metrics_.child_kernels += children;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.name = name;
    e.kind = TraceEvent::Kind::kKernel;
    e.stream = s;
    e.start_s = start;
    e.end_s = start + dur;
    e.ops = profile.ops;
    e.bytes = profile.bytes;
    e.child_kernels = static_cast<int>(children);
    trace_->record(std::move(e));
  }
  return dur;
}

DeviceReservation Device::reserve(std::size_t bytes, const char* what) {
  fault_gate(FaultOp::kAlloc, kDefaultStream, what);
  if (used_bytes_ + bytes > spec_.memory_bytes) {
    throw OomError(std::string("device out of memory allocating ") + what +
                   ": " + std::to_string(bytes) + " bytes requested, " +
                   std::to_string(spec_.memory_bytes - used_bytes_) +
                   " available on " + spec_.name);
  }
  used_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, used_bytes_);
  return DeviceReservation(this, bytes);
}

void Device::release_bytes(std::size_t bytes) {
  GAPSP_CHECK(bytes <= used_bytes_, "device allocator underflow");
  used_bytes_ -= bytes;
}

DeviceReservation& DeviceReservation::operator=(
    DeviceReservation&& other) noexcept {
  if (this != &other) {
    release();
    dev_ = std::exchange(other.dev_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

void DeviceReservation::release() {
  if (dev_ != nullptr) dev_->release_bytes(bytes_);
  dev_ = nullptr;
  bytes_ = 0;
}

void Device::note_pinned_alloc(std::size_t bytes) {
  pinned_bytes_ += bytes;
  pinned_peak_bytes_ = std::max(pinned_peak_bytes_, pinned_bytes_);
}

void Device::note_pinned_release(std::size_t bytes) {
  GAPSP_CHECK(bytes <= pinned_bytes_, "pinned staging accounting underflow");
  pinned_bytes_ -= bytes;
}

DeviceMetrics Device::metrics() const {
  DeviceMetrics m = metrics_;  // includes the fault/retry counters
  m.peak_bytes = peak_bytes_;
  m.pinned_peak_bytes = pinned_peak_bytes_;
  m.stream_busy_seconds = stream_busy_;
  double makespan = host_time_;
  for (double t : stream_ready_) makespan = std::max(makespan, t);
  m.sim_seconds = makespan;

  // Hidden vs exposed transfer time: a transfer is hidden to the extent its
  // interval intersects kernel execution (necessarily on another stream —
  // one stream never runs two operations at once). Merge the kernel
  // intervals, then measure each transfer's intersection with the union.
  std::vector<Interval> kernels;
  for (const Interval& iv : intervals_) {
    if (!iv.transfer) kernels.push_back(iv);
  }
  std::sort(kernels.begin(), kernels.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> merged;
  for (const Interval& iv : kernels) {
    if (!merged.empty() && iv.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  double hidden = 0.0;
  for (const Interval& iv : intervals_) {
    if (!iv.transfer) continue;
    // Binary search to the first merged kernel interval that could overlap.
    auto it = std::upper_bound(
        merged.begin(), merged.end(), iv.start,
        [](double t, const Interval& k) { return t < k.end; });
    for (; it != merged.end() && it->start < iv.end; ++it) {
      hidden += std::max(0.0, std::min(iv.end, it->end) -
                                  std::max(iv.start, it->start));
    }
  }
  m.hidden_transfer_seconds = hidden;
  m.exposed_transfer_seconds = std::max(0.0, m.transfer_seconds - hidden);
  return m;
}

}  // namespace gapsp::sim
