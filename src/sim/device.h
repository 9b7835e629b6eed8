// Functional GPU device simulator.
//
// Kernels are ordinary C++ callables that run on the host and produce real
// results; the simulator's job is (a) to enforce the device memory capacity,
// so out-of-core algorithms cannot cheat, and (b) to maintain a discrete-
// event timeline that charges every kernel launch and host<->device transfer
// a cost derived from the DeviceSpec. Streams and events follow CUDA
// semantics: async operations advance only their stream's clock, blocking
// operations join the host clock to the stream, and `synchronize()` is the
// makespan over all streams. See DESIGN.md §2 for why this substitution
// preserves the paper's behaviour.
//
// A charge-only device (set_charge_only) keeps the timeline and skips the
// work: grid launches charge their declared profile without running a
// block, and copies charge without moving bytes. Fault gates, stream
// clocks, busy intervals, allocations and every DeviceMetrics counter
// behave exactly as in an executing run, so a driver whose charges depend
// only on shapes produces the same metrics either way. The cost model's
// calibration probes run in this mode (DESIGN.md §2).
#pragma once

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sim/device_spec.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "util/common.h"

namespace gapsp::sim {

/// Typed out-of-memory error from the device allocator, so recovery layers
/// can tell capacity exhaustion (degrade the plan and retry) apart from
/// contract violations (propagate).
class OomError : public Error {
 public:
  explicit OomError(const std::string& what) : Error(what) {}
};

/// Cost declaration for one kernel: how much scalar work it did, how many
/// device-memory bytes it touched, over how many thread blocks, and how
/// regular its control flow was (1 = perfectly regular).
struct KernelProfile {
  double ops = 0.0;
  double bytes = 0.0;
  int blocks = 1;
  double efficiency = 1.0;
};

using StreamId = int;
constexpr StreamId kDefaultStream = 0;

/// A recorded point on a stream's timeline (CUDA event analogue).
struct Event {
  double time = 0.0;
};

struct DeviceMetrics {
  double sim_seconds = 0.0;       ///< host clock after the last synchronize()
  double kernel_seconds = 0.0;    ///< sum of kernel durations
  double transfer_seconds = 0.0;  ///< sum of transfer durations
  /// Transfer time that ran concurrently with kernel execution on another
  /// stream ("hidden") vs transfer time the timeline actually pays for
  /// ("exposed"). hidden + exposed == transfer_seconds.
  double hidden_transfer_seconds = 0.0;
  double exposed_transfer_seconds = 0.0;
  /// Busy (occupied) seconds per stream, indexed by StreamId.
  std::vector<double> stream_busy_seconds;
  std::size_t bytes_h2d = 0;
  std::size_t bytes_d2h = 0;
  long long transfers_h2d = 0;
  long long transfers_d2h = 0;
  /// Compressed transfer path (DESIGN.md §14), per lane: logical payload
  /// bytes routed through the TransferCodec (raw) vs bytes actually charged
  /// on the link (wire). A raw-fallback tile counts equally on both sides,
  /// so raw/wire is the end-to-end wire ratio; bytes_h2d/d2h above stay in
  /// logical bytes either way, invariant under the compression mode.
  std::size_t bytes_h2d_raw = 0;
  std::size_t bytes_h2d_wire = 0;
  std::size_t bytes_d2h_raw = 0;
  std::size_t bytes_d2h_wire = 0;
  /// Busy seconds and launch count of the modeled on-device z1 decode
  /// (H2D side) / encode (D2H side) kernels.
  double decode_seconds = 0.0;
  long long decodes = 0;
  long long kernels = 0;
  long long child_kernels = 0;
  double total_ops = 0.0;
  std::size_t peak_bytes = 0;     ///< high-water mark of device allocations
  /// High-water mark of registered pinned-host staging (see
  /// Device::note_pinned_alloc) — what cudaHostAlloc would have reserved.
  std::size_t pinned_peak_bytes = 0;
  /// Fault injection / recovery counters (all zero when no FaultInjector is
  /// attached or the plan never fires).
  long long faults_injected = 0;   ///< FaultErrors raised by this device
  long long transfer_retries = 0;  ///< transient h2d/d2h faults retried
  long long kernel_retries = 0;    ///< transient launch faults retried
  long long decode_retries = 0;    ///< transient decode/encode faults retried
  double retry_backoff_seconds = 0.0;  ///< stream time spent backing off
  /// Name of the min-plus microkernel variant the kernel engine ran with
  /// (set via Device::note_kernel_variant; empty when never noted). The
  /// variant affects host wall-clock only, never the simulated timeline.
  std::string kernel_variant;
};

class Device;

/// Handed to a kernel body; lets it launch dynamic-parallelism children.
/// Child kernels execute inline (the body just does the work) but are
/// charged separately, at their own occupancy — which is the whole point of
/// the paper's dynamic-parallelism optimization for high-degree vertices.
class LaunchCtx {
 public:
  void child_launch(const KernelProfile& profile);
  double child_seconds() const { return child_seconds_; }

 private:
  friend class Device;
  explicit LaunchCtx(const Device& dev) : dev_(dev) {}
  const Device& dev_;
  double child_seconds_ = 0.0;
  long long children_ = 0;
};

/// A capacity charge: counts its bytes against DeviceSpec::memory_bytes
/// until released or destroyed. Device::reserve hands out one with no
/// memory behind it, for device scratch that the simulator never reads or
/// writes on the host (Johnson's Near/Far worklists); every DeviceBuffer
/// holds one for its own bytes.
class DeviceReservation {
 public:
  DeviceReservation() = default;
  DeviceReservation(DeviceReservation&& other) noexcept {
    *this = std::move(other);
  }
  DeviceReservation& operator=(DeviceReservation&& other) noexcept;
  DeviceReservation(const DeviceReservation&) = delete;
  DeviceReservation& operator=(const DeviceReservation&) = delete;
  ~DeviceReservation() { release(); }

  void release();

 private:
  friend class Device;
  DeviceReservation(Device* dev, std::size_t bytes)
      : dev_(dev), bytes_(bytes) {}
  Device* dev_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Capacity-tracked device allocation. Holds real host memory (the simulator
/// computes real results) but counts against DeviceSpec::memory_bytes.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  T* data() { return storage_.data(); }
  const T* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  std::size_t bytes() const { return storage_.size() * sizeof(T); }
  T& operator[](std::size_t i) { return storage_[i]; }
  const T& operator[](std::size_t i) const { return storage_[i]; }

  void release() {
    reservation_.release();
    storage_.clear();
    storage_.shrink_to_fit();
  }

 private:
  friend class Device;
  DeviceBuffer(DeviceReservation reservation, std::size_t count)
      : reservation_(std::move(reservation)), storage_(count) {}
  DeviceReservation reservation_;
  std::vector<T> storage_;
};

class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }

  // ---- memory ----

  /// Allocates `count` elements of T. Throws gapsp::Error when the request
  /// would exceed the device capacity.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count, const char* what = "buffer") {
    return DeviceBuffer<T>(reserve(count * sizeof(T), what), count);
  }

  /// Charges `bytes` of device memory without allocating any: the same
  /// allocation fault gate, capacity check (OomError) and peak as alloc.
  DeviceReservation reserve(std::size_t bytes, const char* what);

  std::size_t used_bytes() const { return used_bytes_; }
  std::size_t free_bytes() const { return spec_.memory_bytes - used_bytes_; }

  /// Pinned-host staging accounting. Pinned memory is a host-side resource
  /// (cudaHostAlloc), so it does not count against device capacity, but the
  /// overlap machinery stages every transfer through it — the high-water
  /// mark is reported in DeviceMetrics::pinned_peak_bytes.
  void note_pinned_alloc(std::size_t bytes);
  void note_pinned_release(std::size_t bytes);
  std::size_t pinned_bytes() const { return pinned_bytes_; }

  // ---- streams & events ----

  /// Creates an additional stream; stream 0 always exists.
  StreamId create_stream();
  Event record_event(StreamId s);
  /// Makes stream `s` wait until `e` (cross-stream dependency).
  void wait_event(StreamId s, const Event& e);
  /// Joins the host clock to all stream clocks (cudaDeviceSynchronize).
  void synchronize();
  /// Joins the host clock to one stream (cudaStreamSynchronize).
  void stream_synchronize(StreamId s);

  /// Advances the host clock and every stream clock to at least `t` —
  /// models a synchronization barrier across multiple devices.
  void advance_to(double t);

  double now() const { return host_time_; }

  // ---- transfers ----

  /// Host-to-device copy of `bytes` from `src` to `dst` (real memcpy plus a
  /// timeline charge; the charge alone on a charge-only device). `async`
  /// follows cudaMemcpyAsync semantics; `pinned` selects full link
  /// bandwidth vs the pageable penalty.
  void memcpy_h2d(StreamId s, void* dst, const void* src, std::size_t bytes,
                  bool async = false, bool pinned = false);
  void memcpy_d2h(StreamId s, void* dst, const void* src, std::size_t bytes,
                  bool async = false, bool pinned = false);

  /// Compressed transfer (pinned staging implied): charges `wire_bytes` on
  /// the link lane of stream `s` plus a modeled on-device z1 decode (H2D)
  /// or encode (D2H) of `raw_bytes` at spec().decode_gbps. The functional
  /// payload movement is performed by `materialize`, which runs exactly
  /// once, after every fault gate has passed — a mid-decode fault therefore
  /// retries the whole tile and never publishes partial output. The decode
  /// occupies the stream as kernel time (it can hide other lanes'
  /// transfers); the wire span is charged as transfer time.
  void copy_z1(StreamId s, bool to_device, std::size_t wire_bytes,
               std::size_t raw_bytes, const std::function<void()>& materialize,
               bool async = false);

  /// Accounts a raw-fallback tile on the compressed path's per-lane
  /// raw/wire counters (the copy itself went through memcpy_h2d/d2h).
  void note_z1_fallback(bool to_device, std::size_t bytes);

  /// Modeled duration of the on-device z1 decode/encode of `raw_bytes`.
  double decode_time(std::size_t raw_bytes) const;

  // ---- kernels ----

  /// Launches a kernel on stream `s` whose cost is only known from its work
  /// (Johnson's MSSP). The body executes immediately (it must perform the
  /// real computation) and returns its KernelProfile; the timeline charge
  /// is derived from that profile plus any dynamic-parallelism children
  /// launched through the ctx. Returns the simulated kernel duration in
  /// seconds. Throws Error on a charge-only device, which cannot learn the
  /// profile without running the body.
  double launch(StreamId s, const std::string& name,
                const std::function<KernelProfile(LaunchCtx&)>& body);

  /// Grid launch form for kernels whose cost follows from their shape:
  /// `block_body(b)` performs the real work of thread block b in [0, grid),
  /// and `profile` declares the charge apart from that work. Blocks must
  /// own disjoint outputs, so serial and parallel execution are
  /// bit-identical — the thread pool only changes host wall-clock, never
  /// results. `profile` is evaluated once on the calling thread after every
  /// block finished (deterministic ops/bytes accounting), and the timeline
  /// charge is exactly that of an equivalent serial launch(). A charge-only
  /// device runs no block and charges the same profile. Honors
  /// set_kernel_threads().
  double launch_grid(StreamId s, const std::string& name, int grid,
                     const std::function<void(int)>& block_body,
                     const std::function<KernelProfile()>& profile);

  /// Charge-only mode (see the header comment): launch_grid and the memcpy
  /// forms charge without running blocks or moving bytes, and launch()
  /// throws. Set it before the first launch or copy.
  void set_charge_only(bool on) { charge_only_ = on; }
  bool charge_only() const { return charge_only_; }

  /// Host threads used to execute a launch_grid's blocks and the slice
  /// frames of a TransferCodec on this device: 0 = the whole global pool,
  /// 1 = serial. Purely a wall-clock knob.
  void set_kernel_threads(int threads) { kernel_threads_ = threads; }
  int kernel_threads() const { return kernel_threads_; }

  /// Records the microkernel-variant name reported in DeviceMetrics.
  void note_kernel_variant(const std::string& name) {
    metrics_.kernel_variant = name;
  }

  // ---- modeled costs (exposed for the Sec. IV cost models) ----

  /// Duration of a kernel with the given profile at its declared occupancy.
  double kernel_time(const KernelProfile& p) const;
  /// Duration of one transfer of `bytes`.
  double transfer_time(std::size_t bytes, bool pinned) const;

  DeviceMetrics metrics() const;

  /// Attaches a timeline recorder (nullptr detaches). Not owned.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // ---- fault injection & recovery ----

  /// Attaches a fault injector (nullptr detaches). Not owned; the injector
  /// may outlive retries and re-plans so scripted faults stay consumed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  /// Bounded retry-with-backoff applied to transient transfer/kernel faults
  /// before they propagate as FaultError.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  /// True once the attached injector killed this device; every further
  /// transfer/launch/alloc throws FaultError(kDeviceLost).
  bool lost() const { return injector_ != nullptr && injector_->device_killed(); }

 private:
  friend class DeviceReservation;

  void release_bytes(std::size_t bytes);
  void do_copy(StreamId s, void* dst, const void* src, std::size_t bytes,
               bool async, bool pinned, bool to_device);
  /// Charges one kernel of `profile` plus `child_seconds` of dynamic-
  /// parallelism children on stream `s`; the shared tail of launch() and
  /// launch_grid().
  double charge_kernel(StreamId s, const std::string& name,
                       const KernelProfile& profile, double child_seconds,
                       long long children);

  /// Consults the fault injector before an operation on stream `s`. Retries
  /// transient faults under retry_ (charging backoff to the stream clock and
  /// recording each fault in the trace) and rethrows when the fault is not
  /// transient or the retry budget is exhausted. Returns once the operation
  /// may proceed.
  void fault_gate(FaultOp op, StreamId s, const char* what);

  /// A busy interval on a stream's timeline, kept so metrics() can compute
  /// how much transfer time was hidden under concurrent kernel execution.
  struct Interval {
    double start = 0.0;
    double end = 0.0;
    bool transfer = false;
  };

  DeviceSpec spec_;
  std::size_t used_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t pinned_bytes_ = 0;
  std::size_t pinned_peak_bytes_ = 0;

  double host_time_ = 0.0;
  std::vector<double> stream_ready_{0.0};  // stream 0
  std::vector<double> stream_busy_{0.0};   // occupied seconds per stream
  std::vector<Interval> intervals_;
  DeviceMetrics metrics_{};
  TraceRecorder* trace_ = nullptr;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  int kernel_threads_ = 0;
  bool charge_only_ = false;
};

}  // namespace gapsp::sim
