// Shared helpers for the gapsp test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "graph/csr_graph.h"
#include "sim/trace.h"
#include "sssp/dijkstra.h"
#include "util/common.h"
#include "util/rng.h"

namespace gapsp::test {

/// Reference APSP row via Dijkstra.
inline std::vector<dist_t> ref_row(const graph::CsrGraph& g, vidx_t src) {
  return sssp::dijkstra(g, src);
}

/// Asserts that a solved store matches Dijkstra on every row (small
/// graphs) — the master correctness oracle.
inline void expect_store_matches_reference(const graph::CsrGraph& g,
                                           const core::DistStore& store) {
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t u = 0; u < n; ++u) {
    const auto ref = ref_row(g, u);
    store.read_block(u, 0, 1, n, row.data(), row.size());
    for (vidx_t v = 0; v < n; ++v) {
      ASSERT_EQ(ref[v], row[v]) << "dist(" << u << "," << v << ") mismatch";
    }
  }
}

/// Spot-check `samples` random rows instead of all n (larger graphs).
inline void expect_store_rows_match(const graph::CsrGraph& g,
                                    const core::DistStore& store, int samples,
                                    std::uint64_t seed = 42) {
  Rng rng(seed);
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (int s = 0; s < samples; ++s) {
    const vidx_t u = static_cast<vidx_t>(rng.next_below(n));
    const auto ref = ref_row(g, u);
    store.read_block(u, 0, 1, n, row.data(), row.size());
    for (vidx_t v = 0; v < n; ++v) {
      ASSERT_EQ(ref[v], row[v]) << "dist(" << u << "," << v << ") mismatch";
    }
  }
}

/// A small device so out-of-core paths trigger even on tiny test graphs.
inline sim::DeviceSpec tiny_device(std::size_t bytes = 256u << 10) {
  return sim::DeviceSpec::v100().with_memory(bytes);
}

inline std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

inline std::string hex(double v) {
  return hex(std::bit_cast<std::uint64_t>(v));
}

/// The whole matrix, row-major: two stores hold the same distances in the
/// same order exactly when these compare equal.
inline std::vector<dist_t> store_rows(const core::DistStore& store) {
  const vidx_t n = store.n();
  std::vector<dist_t> out(static_cast<std::size_t>(n) * n);
  store.read_block(0, 0, n, n, out.data(), static_cast<std::size_t>(n));
  return out;
}

/// FNV-1a over a run's recorded timeline: per event, its name, kind,
/// stream, the bit patterns of start and end, ops, bytes and child kernels.
inline std::uint64_t trace_hash(const sim::TraceRecorder& trace) {
  std::uint64_t h = util::fnv1a("gapsp", 5);
  auto fold = [&h](const auto& v) { h = util::fnv1a(&v, sizeof(v), h); };
  for (const sim::TraceEvent& e : trace.events()) {
    h = util::fnv1a(e.name.data(), e.name.size(), h);
    fold(static_cast<int>(e.kind));
    fold(e.stream);
    fold(std::bit_cast<std::uint64_t>(e.start_s));
    fold(std::bit_cast<std::uint64_t>(e.end_s));
    fold(std::bit_cast<std::uint64_t>(e.ops));
    fold(std::bit_cast<std::uint64_t>(e.bytes));
    fold(e.child_kernels);
  }
  return h;
}

/// The timeline's hash and event count, as the bit-identity gates pin it.
inline std::string trace_digest(const sim::TraceRecorder& trace) {
  return hex(trace_hash(trace)) + " (" +
         std::to_string(trace.events().size()) + " events)";
}

/// trace_hash continued over every stored row, with the event count: a
/// run's timeline and its store in one pinned hex string.
inline std::string run_digest(const sim::TraceRecorder& trace,
                              const core::DistStore& store) {
  std::uint64_t h = trace_hash(trace);
  const vidx_t n = store.n();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    store.read_block(r, 0, 1, n, row.data(), row.size());
    h = util::fnv1a(row.data(), row.size() * sizeof(dist_t), h);
  }
  return hex(h) + " (" + std::to_string(trace.events().size()) + " events)";
}

}  // namespace gapsp::test
