#include "core/component_solver.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/apsp_common.h"
#include "graph/graph_stats.h"
#include "util/timer.h"

namespace gapsp::core {
namespace {

/// A DistStore view that maps a group's local ids onto a row/column window
/// of the parent store.
class WindowStore final : public DistStore {
 public:
  WindowStore(DistStore& parent, vidx_t offset, vidx_t n)
      : DistStore(n), parent_(parent), offset_(offset) {}

  void write_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                   const dist_t* src, std::size_t src_ld) override {
    check_block(row0, col0, rows, cols);
    parent_.write_block(offset_ + row0, offset_ + col0, rows, cols, src,
                        src_ld);
  }

  void read_block(vidx_t row0, vidx_t col0, vidx_t rows, vidx_t cols,
                  dist_t* dst, std::size_t dst_ld) const override {
    check_block(row0, col0, rows, cols);
    parent_.read_block(offset_ + row0, offset_ + col0, rows, cols, dst,
                       dst_ld);
  }

  void flush() override { parent_.flush(); }

 private:
  DistStore& parent_;
  vidx_t offset_;
};

}  // namespace

ComponentResult solve_apsp_per_component(const graph::CsrGraph& g,
                                         const ApspOptions& opts,
                                         DistStore& store,
                                         const SelectorOptions& sel,
                                         const ComponentSolverOptions& cs) {
  Timer wall;
  const vidx_t n = g.num_vertices();
  GAPSP_CHECK(store.n() == n, "store size mismatch");
  const auto label = graph::component_labels(g);
  vidx_t num_comp = 0;
  for (vidx_t l : label) num_comp = std::max(num_comp, l + 1);

  ComponentResult out;
  out.num_components = static_cast<int>(num_comp);

  std::vector<vidx_t> comp_size(static_cast<std::size_t>(num_comp), 0);
  for (vidx_t l : label) ++comp_size[l];
  for (vidx_t s : comp_size) {
    out.largest_component = std::max(out.largest_component, s);
  }

  // ---- form solve groups: big components alone, small ones packed ----
  std::vector<vidx_t> order(static_cast<std::size_t>(num_comp));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](vidx_t a, vidx_t b) { return comp_size[a] > comp_size[b]; });
  std::vector<std::vector<vidx_t>> groups;  // component ids per group
  for (vidx_t c : order) {
    bool packed = false;
    // Small components append to the current pack (descending order means
    // packs only ever contain small components).
    if (comp_size[c] < cs.small_threshold && !groups.empty() &&
        comp_size[groups.back().front()] < cs.small_threshold) {
      auto& last = groups.back();
      vidx_t last_size = 0;
      for (vidx_t lc : last) last_size += comp_size[lc];
      if (last_size + comp_size[c] <= cs.group_target) {
        last.push_back(c);
        packed = true;
      }
    }
    if (!packed) groups.push_back({c});
  }
  out.num_groups = static_cast<int>(groups.size());

  // ---- group-contiguous renumbering (perm[v] = v's solve-order id) ----
  std::vector<vidx_t> perm(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<vidx_t>> members(static_cast<std::size_t>(num_comp));
  for (vidx_t v = 0; v < n; ++v) members[label[v]].push_back(v);
  std::vector<vidx_t> group_offset;
  std::vector<vidx_t> group_size;
  {
    vidx_t at = 0;
    for (const auto& grp : groups) {
      group_offset.push_back(at);
      vidx_t sz = 0;
      for (vidx_t c : grp) {
        for (vidx_t v : members[c]) perm[v] = at + sz++;
      }
      group_size.push_back(sz);
      at += sz;
    }
    GAPSP_CHECK(at == n, "group renumbering did not cover all vertices");
  }

  // ---- solve each group through its store window ----
  out.result.used = opts.algorithm;
  ApspMetrics& agg = out.result.metrics;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const vidx_t ng = group_size[gi];
    const vidx_t off = group_offset[gi];
    WindowStore window(store, off, ng);
    if (ng == 1) {
      const dist_t zero = 0;
      window.write_block(0, 0, 1, 1, &zero, 1);
      out.per_group.push_back(Algorithm::kAuto);
      continue;
    }
    std::vector<graph::Edge> edges;
    for (vidx_t c : groups[gi]) {
      for (vidx_t v : members[c]) {
        const auto nbr = g.neighbors(v);
        const auto wts = g.weights(v);
        for (std::size_t e = 0; e < nbr.size(); ++e) {
          edges.push_back(
              graph::Edge{perm[v] - off, perm[nbr[e]] - off, wts[e]});
        }
      }
    }
    const graph::CsrGraph sub =
        graph::CsrGraph::from_edges(ng, std::move(edges), false);
    const ApspResult r = solve_apsp(sub, opts, window, nullptr, sel);
    out.per_group.push_back(r.used);
    if (ng == out.largest_component) out.result.used = r.used;
    // Groups run one after another: their times add, their peaks do not.
    add_counters(agg, r.metrics);
    agg.sim_seconds += r.metrics.sim_seconds;
    agg.device_peak_bytes =
        std::max(agg.device_peak_bytes, r.metrics.device_peak_bytes);
    agg.pinned_peak_bytes =
        std::max(agg.pinned_peak_bytes, r.metrics.pinned_peak_bytes);
  }

  // ---- land every solve-order row at its original row ----
  // Solve-order row s belongs at row inv_perm[s]. Walking each cycle of
  // that row permutation reads a row before the row landed on it is
  // written, so every row is read once (its group window) and written once
  // (full width, kInf outside the group) in place.
  std::vector<vidx_t> inv_perm(static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) inv_perm[perm[v]] = v;
  const vidx_t widest =
      n == 0 ? 0 : *std::max_element(group_size.begin(), group_size.end());
  std::vector<dist_t> held(static_cast<std::size_t>(widest));
  std::vector<dist_t> next(held.size());
  std::vector<dist_t> landed;
  std::vector<char> was_read(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> group_of;  // solve-order row -> group
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    group_of.insert(group_of.end(), group_size[gi], static_cast<vidx_t>(gi));
  }
  auto read_window = [&](vidx_t s, std::vector<dist_t>& dst) {
    const vidx_t gi = group_of[s];
    store.read_block(s, group_offset[gi], 1, group_size[gi], dst.data(),
                     dst.size());
    was_read[s] = 1;
  };
  for (vidx_t start = 0; start < n; ++start) {
    if (was_read[start]) continue;
    read_window(start, held);
    for (vidx_t s = start;;) {
      const vidx_t t = inv_perm[s];
      if (!was_read[t]) read_window(t, next);
      const vidx_t gi = group_of[s];
      land_rows(store, perm, inv_perm, s, 1, held.data(), held.size(),
                group_offset[gi], group_size[gi], landed);
      if (t == start) break;
      held.swap(next);
      s = t;
    }
  }
  agg.wall_seconds = wall.seconds();
  return out;
}

}  // namespace gapsp::core
