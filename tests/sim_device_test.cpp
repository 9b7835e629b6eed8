#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/device.h"
#include "sim/device_spec.h"

namespace gapsp::sim {
namespace {

DeviceSpec small_spec() {
  DeviceSpec s = DeviceSpec::v100().with_memory(1 << 20);  // 1 MiB
  return s;
}

TEST(DeviceSpec, PresetsMatchTableII) {
  const auto v = DeviceSpec::v100();
  const auto k = DeviceSpec::k80();
  EXPECT_GT(v.compute_ops_per_s, k.compute_ops_per_s);
  EXPECT_GT(v.mem_bandwidth, k.mem_bandwidth);
  EXPECT_NEAR(v.link_bandwidth, 11.75e9, 1e6);  // paper-measured
  EXPECT_NEAR(k.link_bandwidth, 7.23e9, 1e6);
}

TEST(DeviceSpec, WithMemoryOnlyChangesCapacity) {
  const auto v = DeviceSpec::v100();
  const auto s = v.with_memory(123);
  EXPECT_EQ(s.memory_bytes, 123u);
  EXPECT_EQ(s.compute_ops_per_s, v.compute_ops_per_s);
}

TEST(Device, AllocationTracksUsage) {
  Device dev(small_spec());
  EXPECT_EQ(dev.used_bytes(), 0u);
  auto buf = dev.alloc<dist_t>(1000);
  EXPECT_EQ(dev.used_bytes(), 4000u);
  buf.release();
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(Device, AllocationFailsOverCapacity) {
  Device dev(small_spec());
  EXPECT_THROW(dev.alloc<dist_t>((1 << 20) / 4 + 1), Error);
  // Partial fill, then overflow.
  auto a = dev.alloc<dist_t>(200000);  // 800 KB
  EXPECT_THROW(dev.alloc<dist_t>(100000), Error);  // +400 KB > 1 MiB
}

TEST(Device, BufferMoveTransfersOwnership) {
  Device dev(small_spec());
  auto a = dev.alloc<dist_t>(100);
  auto b = std::move(a);
  EXPECT_EQ(dev.used_bytes(), 400u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move) — spec'd empty
  b.release();
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(Device, BufferMoveAssignReleasesOldAllocation) {
  Device dev(small_spec());
  auto a = dev.alloc<dist_t>(100);   // 400 B
  auto b = dev.alloc<dist_t>(1000);  // 4000 B
  EXPECT_EQ(dev.used_bytes(), 4400u);
  a = std::move(b);  // a's original 400 B must be returned, not leaked
  EXPECT_EQ(dev.used_bytes(), 4000u);
  EXPECT_EQ(a.size(), 1000u);
  a.release();
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(Device, BufferDoubleReleaseIsIdempotent) {
  Device dev(small_spec());
  auto a = dev.alloc<dist_t>(100);
  a.release();
  a.release();  // second release (and the destructor later) must be a no-op
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(Device, UsedBytesExactUnderExceptionUnwinding) {
  // Recovery re-plans on the same Device after faults: a leak in the
  // unwinding path would masquerade as a shrunken device and degrade every
  // subsequent attempt. Throw mid-scope and check the ledger returns to its
  // prior state exactly.
  Device dev(small_spec());
  auto outer = dev.alloc<dist_t>(5000);
  const std::size_t before = dev.used_bytes();
  try {
    auto a = dev.alloc<dist_t>(10000);
    auto b = std::move(a);         // moved-from + owner in flight
    auto c = dev.alloc<dist_t>(1); // distinct small allocation
    b.release();                   // early release before the throw
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(dev.used_bytes(), before);
  outer.release();
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST(Device, UsedBytesExactWhenAllocFaultUnwinds) {
  // An injected alloc fault throws out of Device::alloc — buffers already
  // live in the failing scope unwind through ~DeviceBuffer and the ledger
  // must balance so a degraded retry sees the full capacity again.
  Device dev(small_spec());
  FaultPlan plan;
  FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  {
    FaultPlan scripted;
    scripted.scripted.push_back({.op = FaultOp::kAlloc, .nth = 2});
    FaultInjector one_shot(scripted);
    dev.set_fault_injector(&one_shot);
    try {
      auto a = dev.alloc<dist_t>(1000);
      auto b = dev.alloc<dist_t>(1000);  // the scripted fault fires here
      FAIL() << "expected FaultError";
    } catch (const FaultError& e) {
      EXPECT_EQ(e.op(), FaultOp::kAlloc);
    }
  }
  dev.set_fault_injector(nullptr);
  EXPECT_EQ(dev.used_bytes(), 0u);
  auto again = dev.alloc<dist_t>((1 << 20) / sizeof(dist_t));  // full capacity
  EXPECT_EQ(dev.used_bytes(), static_cast<std::size_t>(1 << 20));
}

TEST(Device, PeakBytesHighWaterMark) {
  Device dev(small_spec());
  {
    auto a = dev.alloc<dist_t>(100000);
    auto b = dev.alloc<dist_t>(50000);
  }
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_EQ(dev.metrics().peak_bytes, 600000u);
}

TEST(Device, ReservationChargesCapacityWithoutMemory) {
  // A reservation counts like alloc of the same size: over capacity throws
  // OomError, release (explicit, by move-assign, or by destruction) returns
  // the bytes, and the peak counts it.
  Device dev(small_spec());
  EXPECT_THROW(dev.reserve((1 << 20) + 1, "too much"), OomError);
  EXPECT_EQ(dev.used_bytes(), 0u);
  {
    auto a = dev.reserve(600000, "worklists");
    EXPECT_EQ(dev.used_bytes(), 600000u);
    EXPECT_THROW(dev.alloc<dist_t>(150000), OomError);  // +600 KB > 1 MiB
    auto b = dev.alloc<dist_t>(50000);                  // +200 KB fits
    auto c = std::move(a);
    EXPECT_EQ(dev.used_bytes(), 800000u);
    c = dev.reserve(1000, "more");  // charged before c's 600 KB go back
    EXPECT_EQ(dev.used_bytes(), 201000u);
    c.release();
    c.release();
    EXPECT_EQ(dev.used_bytes(), 200000u);
  }
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_EQ(dev.metrics().peak_bytes, 801000u);
}

TEST(Device, ReservationPassesTheAllocFaultGate) {
  // Reservations count as allocations for scripted Nth-alloc faults, as the
  // buffer they replace did.
  Device dev(small_spec());
  FaultPlan scripted;
  scripted.scripted.push_back({.op = FaultOp::kAlloc, .nth = 2});
  FaultInjector inj(scripted);
  dev.set_fault_injector(&inj);
  auto a = dev.alloc<dist_t>(10);
  try {
    auto r = dev.reserve(1000, "worklists");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.op(), FaultOp::kAlloc);
  }
  dev.set_fault_injector(nullptr);
  EXPECT_EQ(dev.used_bytes(), 40u);
}

TEST(Device, TransferTimeHasLatencyPlusBandwidth) {
  Device dev(small_spec());
  const auto& sp = dev.spec();
  const double t = dev.transfer_time(1 << 20, /*pinned=*/true);
  EXPECT_NEAR(t, sp.transfer_latency_s + (1 << 20) / sp.link_bandwidth, 1e-12);
}

TEST(Device, PageablePenaltySlowsTransfers) {
  Device dev(small_spec());
  EXPECT_GT(dev.transfer_time(1 << 20, false), dev.transfer_time(1 << 20, true));
}

TEST(Device, MemcpyMovesRealData) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(4);
  const std::vector<dist_t> src{1, 2, 3, 4};
  dev.memcpy_h2d(kDefaultStream, buf.data(), src.data(), 16);
  std::vector<dist_t> dst(4, 0);
  dev.memcpy_d2h(kDefaultStream, dst.data(), buf.data(), 16);
  EXPECT_EQ(dst, src);
}

TEST(Device, SyncCopyAdvancesHostClock) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(1024);
  std::vector<dist_t> host(1024);
  const double before = dev.now();
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 4096,
                 /*async=*/false);
  EXPECT_GT(dev.now(), before);
}

TEST(Device, AsyncCopyDoesNotAdvanceHostClock) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(1024);
  std::vector<dist_t> host(1024);
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 4096,
                 /*async=*/true);
  EXPECT_EQ(dev.now(), 0.0);
  dev.synchronize();
  EXPECT_GT(dev.now(), 0.0);
}

TEST(Device, KernelTimeComputeVsMemoryBound) {
  Device dev(small_spec());
  const auto& sp = dev.spec();
  KernelProfile compute_bound;
  compute_bound.ops = 1e9;
  compute_bound.bytes = 1;
  compute_bound.blocks = sp.max_active_blocks;
  EXPECT_NEAR(dev.kernel_time(compute_bound), 1e9 / sp.compute_ops_per_s,
              1e-9);
  KernelProfile memory_bound;
  memory_bound.ops = 1;
  memory_bound.bytes = 1e9;
  memory_bound.blocks = sp.max_active_blocks;
  EXPECT_NEAR(dev.kernel_time(memory_bound), 1e9 / sp.mem_bandwidth, 1e-9);
}

TEST(Device, OccupancyPenalizesSmallGrids) {
  Device dev(small_spec());
  KernelProfile p;
  p.ops = 1e9;
  p.blocks = dev.spec().max_active_blocks / 4;
  const double quarter = dev.kernel_time(p);
  p.blocks = dev.spec().max_active_blocks;
  const double full = dev.kernel_time(p);
  EXPECT_NEAR(quarter, 4.0 * full, full * 1e-6);
}

TEST(Device, EfficiencyDiscountsThroughput) {
  Device dev(small_spec());
  KernelProfile p;
  p.ops = 1e9;
  p.blocks = dev.spec().max_active_blocks;
  const double base = dev.kernel_time(p);
  p.efficiency = 0.5;
  EXPECT_NEAR(dev.kernel_time(p), 2.0 * base, base * 1e-6);
}

TEST(Device, LaunchRunsBodyAndCharges) {
  Device dev(small_spec());
  bool ran = false;
  const double dur = dev.launch(kDefaultStream, "k", [&](LaunchCtx&) {
    ran = true;
    KernelProfile p;
    p.ops = 1e6;
    p.blocks = dev.spec().max_active_blocks;
    return p;
  });
  EXPECT_TRUE(ran);
  EXPECT_GT(dur, 0.0);
  EXPECT_EQ(dev.metrics().kernels, 1);
  EXPECT_GT(dev.metrics().kernel_seconds, 0.0);
}

TEST(Device, ChildLaunchAddsCostAndCount) {
  Device dev(small_spec());
  KernelProfile child;
  child.ops = 1e6;
  child.blocks = dev.spec().max_active_blocks;
  const double with_child = dev.launch(kDefaultStream, "k", [&](LaunchCtx& c) {
    c.child_launch(child);
    return KernelProfile{};
  });
  EXPECT_GT(with_child, dev.spec().kernel_launch_s);
  EXPECT_EQ(dev.metrics().child_kernels, 1);
}

TEST(Device, StreamsOverlapInTimeline) {
  // Two equal async copies: on one stream they serialize, on two they
  // overlap and the makespan is halved (same start time).
  const std::size_t bytes = 1 << 18;
  std::vector<dist_t> host(bytes / 4);

  Device serial(small_spec());
  auto b1 = serial.alloc<dist_t>(bytes / 4);
  serial.memcpy_h2d(kDefaultStream, b1.data(), host.data(), bytes, true);
  serial.memcpy_h2d(kDefaultStream, b1.data(), host.data(), bytes, true);
  serial.synchronize();

  Device parallel(small_spec());
  auto b2 = parallel.alloc<dist_t>(bytes / 4);
  const StreamId s2 = parallel.create_stream();
  parallel.memcpy_h2d(kDefaultStream, b2.data(), host.data(), bytes, true);
  parallel.memcpy_h2d(s2, b2.data(), host.data(), bytes, true);
  parallel.synchronize();

  EXPECT_NEAR(parallel.now() * 2.0, serial.now(), serial.now() * 1e-6);
}

TEST(Device, EventsOrderAcrossStreams) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(1024);
  std::vector<dist_t> host(1024);
  const StreamId s2 = dev.create_stream();
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 4096, true);
  const Event e = dev.record_event(kDefaultStream);
  dev.wait_event(s2, e);
  dev.memcpy_d2h(s2, host.data(), buf.data(), 4096, true);
  dev.synchronize();
  // Total must be at least the serialized duration of both copies.
  EXPECT_GE(dev.now(), 2 * dev.transfer_time(4096, false) - 1e-12);
}

TEST(Device, MetricsCountTransfers) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(64);
  std::vector<dist_t> host(64);
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 256);
  dev.memcpy_d2h(kDefaultStream, host.data(), buf.data(), 256);
  dev.memcpy_d2h(kDefaultStream, host.data(), buf.data(), 128);
  const auto m = dev.metrics();
  EXPECT_EQ(m.transfers_h2d, 1);
  EXPECT_EQ(m.transfers_d2h, 2);
  EXPECT_EQ(m.bytes_h2d, 256u);
  EXPECT_EQ(m.bytes_d2h, 384u);
}

TEST(Device, AdvanceToActsAsBarrier) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(1024);
  std::vector<dist_t> host(1024);
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 4096);
  const double before = dev.now();
  dev.advance_to(before + 1.0);
  EXPECT_NEAR(dev.now(), before + 1.0, 1e-12);
  // New work starts after the barrier on every stream.
  const StreamId s2 = dev.create_stream();
  dev.memcpy_h2d(s2, buf.data(), host.data(), 4096, true);
  dev.synchronize();
  EXPECT_GT(dev.now(), before + 1.0);
}

TEST(Device, AdvanceToNeverMovesBackwards) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(64);
  std::vector<dist_t> host(64);
  dev.memcpy_h2d(kDefaultStream, buf.data(), host.data(), 256);
  const double t = dev.now();
  dev.advance_to(t / 2);
  EXPECT_EQ(dev.now(), t);
}

TEST(Device, InvalidStreamRejected) {
  Device dev(small_spec());
  auto buf = dev.alloc<dist_t>(16);
  std::vector<dist_t> host(16);
  EXPECT_THROW(dev.memcpy_h2d(99, buf.data(), host.data(), 64), Error);
  EXPECT_THROW(dev.record_event(5), Error);
}

}  // namespace
}  // namespace gapsp::sim
