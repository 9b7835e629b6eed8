#include "core/incremental.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/cost_model.h"
#include "core/minplus.h"
#include "sssp/dijkstra.h"
#include "util/thread_pool.h"

namespace gapsp::core {
namespace {

// GAPSPCK1 `algorithm` tag of a delta checkpoint — outside the
// core::Algorithm range so a solver checkpoint can never be mistaken for a
// delta sidecar (or vice versa).
constexpr std::uint32_t kDeltaAlgorithm = 0x494E4331;  // "INC1"

// Elements of dirty-tile compute per thread-pool chunk (one 256² tile).
constexpr std::size_t kWalkChunkElems = std::size_t{1} << 16;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

std::uint64_t arc_key(vidx_t u, vidx_t v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

bool has_zero_weight_arc(const graph::CsrGraph& g) {
  for (const dist_t w : g.edge_weights()) {
    if (w == 0) return true;
  }
  return false;
}

// Monotone bucket queue (Dial): SWSF-FP pops keys in nondecreasing order,
// so a cursor over per-key buckets replaces the O(log q) heap with O(1)
// array ops. Buckets grow lazily to the largest key actually seen; a key
// past kMaxKey reports failure and the caller re-runs that row with a
// fresh Dijkstra (possible only with extreme weights, never with the
// road/mesh/er suites).
class BucketQueue {
 public:
  static constexpr dist_t kMaxKey = 1 << 20;

  [[nodiscard]] bool push(dist_t key, vidx_t v) {
    if (key > kMaxKey) return false;
    const auto k = static_cast<std::size_t>(key);
    if (k >= buckets_.size()) buckets_.resize(k + 1);
    buckets_[k].push_back(v);
    if (k < cursor_) cursor_ = k;  // defensive: monotone by the invariant
    ++size_;
    return true;
  }
  bool empty() const { return size_ == 0; }
  std::pair<dist_t, vidx_t> pop() {
    while (buckets_[cursor_].empty()) ++cursor_;
    const vidx_t v = buckets_[cursor_].back();
    buckets_[cursor_].pop_back();
    --size_;
    return {static_cast<dist_t>(cursor_), v};
  }
  /// Ready the queue for another row, keeping bucket capacity (the repair
  /// loop reuses one queue across every row it repairs — per-row
  /// construction/destruction of the bucket array would dominate small
  /// regions). Buckets may hold leftovers after a bailed run.
  void reset() {
    if (size_ != 0) {
      for (auto& b : buckets_) b.clear();
      size_ = 0;
    }
    cursor_ = 0;
  }

 private:
  std::vector<std::vector<vidx_t>> buckets_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

// Dynamic SWSF-FP (Ramalingam–Reps) repair of one SSSP row after weight
// increases: `d` holds the row's exact pre-update distances by vertex and is
// repaired in place to the exact distances of `mid`. Output-sensitive — the
// queue only ever holds vertices whose distance actually depends on an
// increased arc, so cost scales with the row's affected region, not with
// the graph (a fresh Dijkstra pays O(m log n) per row even when a single
// entry changed). Requires strictly positive arc weights: zero-weight ties
// break the monotone queue-order argument, so the caller falls back to a
// fresh Dijkstra for such graphs. Returns false when a queue key overflowed
// the bucket range — `d` is then garbage and the caller must recompute the
// row from scratch.
[[nodiscard]] bool repair_row_swsf(const graph::CsrGraph& mid,
                                   const graph::CsrGraph& rev, vidx_t src,
                                   std::span<const EdgeUpdate> increases,
                                   std::span<const dist_t> w_old,
                                   std::span<dist_t> d,
                                   std::vector<dist_t>& rhs, BucketQueue& pq) {
  // rhs(v) = best distance v can claim through its current in-neighbors
  // (post-increase weights). The pre-update row is consistent under the OLD
  // weights, and a non-tight arc's increase cannot change its head's rhs,
  // so initializing rhs = d and recomputing only at tight heads is exact.
  rhs.assign(d.begin(), d.end());
  pq.reset();
  const auto recompute_rhs = [&](vidx_t v) -> dist_t {
    if (v == src) return 0;
    dist_t best = kInf;
    const auto xs = rev.neighbors(v);
    const auto ws = rev.weights(v);
    for (std::size_t e = 0; e < xs.size(); ++e) {
      best = std::min(
          best, sat_add(d[static_cast<std::size_t>(xs[e])], ws[e]));
    }
    return best;
  };
  bool ok = true;
  const auto touch = [&](vidx_t v) {
    const std::size_t i = v;
    if (rhs[i] != d[i]) ok = ok && pq.push(std::min(rhs[i], d[i]), v);
  };
  // Only heads whose arc was tight for this row can have lost their
  // distance; everything else is untouched by construction.
  for (std::size_t a = 0; a < increases.size(); ++a) {
    const EdgeUpdate& up = increases[a];
    const dist_t du = d[static_cast<std::size_t>(up.u)];
    if (du < kInf &&
        sat_add(du, w_old[a]) == d[static_cast<std::size_t>(up.v)]) {
      rhs[static_cast<std::size_t>(up.v)] = recompute_rhs(up.v);
      touch(up.v);
    }
  }
  while (ok && !pq.empty()) {
    const auto [k, v] = pq.pop();
    dist_t& dv = d[static_cast<std::size_t>(v)];
    const dist_t rv = rhs[static_cast<std::size_t>(v)];
    if (dv == rv) continue;  // consistent: lazily-deleted stale entry
    const dist_t key = std::min(dv, rv);
    if (k < key) {  // key rose after insertion: re-queue in order
      ok = ok && pq.push(key, v);
      continue;
    }
    const auto ys = mid.neighbors(v);
    const auto yw = mid.weights(v);
    if (dv > rv) {
      dv = rv;  // overconsistent: settle downward, lower successors' rhs
      for (std::size_t e = 0; e < ys.size(); ++e) {
        const std::size_t y = ys[e];
        const dist_t cand = sat_add(dv, yw[e]);
        if (cand < rhs[y]) {
          rhs[y] = cand;
          touch(ys[e]);
        }
      }
    } else {
      const dist_t old = dv;
      dv = kInf;  // underconsistent: detach, let it re-derive a distance
      touch(v);
      // Only successors whose rhs went THROUGH v can be affected.
      for (std::size_t e = 0; e < ys.size(); ++e) {
        const std::size_t y = ys[e];
        if (y != static_cast<std::size_t>(src) &&
            rhs[y] == sat_add(old, yw[e])) {
          rhs[y] = recompute_rhs(ys[e]);
          touch(ys[e]);
        }
      }
    }
  }
  return ok;
}

// Weight of arc u->v in g, kInf when absent. CSR collapses parallel arcs
// and sorts every neighbor list (CsrGraph::from_edges), so one binary
// search finds it.
dist_t arc_weight(const graph::CsrGraph& g, vidx_t u, vidx_t v) {
  const auto nbrs = g.neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInf;
  return g.weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

// True when every arc u->v of weight w has a twin v->u of weight w:
// O(m log d). The exact APSP matrix of such a graph is symmetric.
bool is_symmetric(const graph::CsrGraph& g) {
  for (vidx_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      if (arc_weight(g, nbrs[e], u) != ws[e]) return false;
    }
  }
  return true;
}

// Overwrites `count` elements at dst with src; true when any differed. An
// unchanged row costs one compare and no write.
bool land(dist_t* dst, const dist_t* src, std::size_t count) {
  if (std::memcmp(dst, src, count * sizeof(dist_t)) == 0) return false;
  std::memcpy(dst, src, count * sizeof(dist_t));
  return true;
}

}  // namespace

std::vector<EdgeUpdate> read_edge_updates(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open update file: " + path);
  std::vector<EdgeUpdate> updates;
  std::string line;
  long long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string u_tok, v_tok, w_tok;
    if (!(ls >> u_tok >> v_tok >> w_tok)) {
      throw Error("malformed update line " + std::to_string(lineno) + ": " +
                  line);
    }
    const std::string where = " on update line " + std::to_string(lineno);
    constexpr vidx_t kMaxId = std::numeric_limits<vidx_t>::max();
    EdgeUpdate up;
    up.u = static_cast<vidx_t>(util::parse_int(u_tok, "u" + where, 0, kMaxId));
    up.v = static_cast<vidx_t>(util::parse_int(v_tok, "v" + where, 0, kMaxId));
    up.w = w_tok == "inf" || w_tok == "x" || w_tok == "-1"
               ? kInf
               : static_cast<dist_t>(util::parse_int(
                     w_tok, "weight (or inf/x/-1 to delete)" + where, 0,
                     kInf - 1));
    updates.push_back(up);
  }
  return updates;
}

graph::CsrGraph apply_edge_updates(const graph::CsrGraph& g,
                                   std::span<const EdgeUpdate> updates) {
  const vidx_t n = g.num_vertices();
  std::unordered_map<std::uint64_t, dist_t> patch;
  patch.reserve(updates.size());
  for (const EdgeUpdate& up : updates) {
    GAPSP_CHECK(up.u >= 0 && up.u < n && up.v >= 0 && up.v < n,
                "edge update endpoint out of range");
    GAPSP_CHECK(up.w >= 0, "negative update weight");
    patch[arc_key(up.u, up.v)] = up.w;  // last update of an arc wins
  }
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()) + patch.size());
  for (vidx_t u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      if (patch.count(arc_key(u, nbrs[e])) != 0) continue;  // replaced below
      edges.push_back({u, nbrs[e], ws[e]});
    }
  }
  for (const auto& [key, w] : patch) {
    if (w >= kInf) continue;  // delete
    edges.push_back({static_cast<vidx_t>(key >> 32),
                     static_cast<vidx_t>(key & 0xffffffffu), w});
  }
  return graph::CsrGraph::from_edges(n, std::move(edges), false);
}

std::uint64_t incremental_fingerprint(const graph::CsrGraph& g,
                                      std::span<const EdgeUpdate> updates,
                                      vidx_t tile, double damage_threshold) {
  std::uint64_t fp = graph_fingerprint(g);
  for (const EdgeUpdate& up : updates) {
    fp = util::fnv1a(&up.u, sizeof(up.u), fp);
    fp = util::fnv1a(&up.v, sizeof(up.v), fp);
    fp = util::fnv1a(&up.w, sizeof(up.w), fp);
  }
  fp = util::fnv1a(&tile, sizeof(tile), fp);
  fp = util::fnv1a(&damage_threshold, sizeof(damage_threshold), fp);
  return fp;
}

struct IncrementalEngine::Classified {
  // Deduped non-noop updates in first-seen arc order (deterministic).
  std::vector<EdgeUpdate> decreases;      // new weight (< old)
  std::vector<EdgeUpdate> increases;      // new weight (> old)
  std::vector<dist_t> increases_w_old;    // parallel to `increases`
  std::vector<EdgeUpdate> all;            // every deduped non-noop update
};

IncrementalEngine::IncrementalEngine(const graph::CsrGraph& g,
                                     IncrementalOptions opt)
    : g_(g), opt_(std::move(opt)) {
  GAPSP_CHECK(opt_.tile > 0, "incremental tile must be positive");
  GAPSP_CHECK(opt_.checkpoint_every_tiles > 0,
              "checkpoint interval must be positive");
  symmetric_ = is_symmetric(g_);
}

void IncrementalEngine::classify(std::span<const EdgeUpdate> updates,
                                 Classified& out,
                                 UpdateOutcome& outcome) const {
  const vidx_t n = g_.num_vertices();
  // Dedup keeping the LAST update per arc but the FIRST-seen arc order, so
  // the batch digest — and with it every downstream decision — is
  // deterministic in the input order.
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::vector<EdgeUpdate> deduped;
  for (const EdgeUpdate& up : updates) {
    GAPSP_CHECK(up.u >= 0 && up.u < n && up.v >= 0 && up.v < n,
                "edge update endpoint out of range");
    GAPSP_CHECK(up.w >= 0, "negative update weight");
    const auto [it, inserted] = index.try_emplace(arc_key(up.u, up.v),
                                                  deduped.size());
    if (inserted) {
      deduped.push_back(up);
    } else {
      deduped[it->second].w = up.w;
    }
  }
  for (EdgeUpdate up : deduped) {
    if (up.w >= kInf) up.w = kInf;
    if (up.u == up.v) {  // self-loops never enter a shortest path
      ++outcome.noops;
      continue;
    }
    const dist_t w_old = arc_weight(g_, up.u, up.v);
    if (up.w == w_old) {
      ++outcome.noops;
      continue;
    }
    out.all.push_back(up);
    if (up.w < w_old) {
      out.decreases.push_back(up);
      ++outcome.decreases;
    } else {
      out.increases.push_back(up);
      out.increases_w_old.push_back(w_old);
      ++outcome.increases;
    }
  }
}

UpdateOutcome IncrementalEngine::apply(const DistStore& pristine,
                                       std::span<const EdgeUpdate> updates,
                                       const TileSink& sink) {
  const double t_start = now_s();
  const vidx_t n = g_.num_vertices();
  GAPSP_CHECK(pristine.n() == n, "store dimension does not match the graph");

  UpdateOutcome outcome;
  Classified cls;
  classify(updates, cls, outcome);
  g_final_ = apply_edge_updates(g_, cls.all);

  vidx_t tile = opt_.tile;
  if (pristine.tile_size() > 0) tile = pristine.tile_size();
  if (tile > n && n > 0) tile = n;
  const vidx_t nb = n > 0 ? (n + tile - 1) / tile : 0;
  outcome.tiles_total = static_cast<long long>(nb) * nb;

  // Fingerprint the RAW batch, not the classified one: callers gating their
  // own resume logic (apsp_cli's keep-the-tmp-copy decision) can only hash
  // what they passed in, and a fingerprint mismatch between the engine and
  // its caller makes the caller re-copy the pristine matrix over tiles the
  // checkpoint then skips — silent stale data on resume.
  const std::uint64_t fp =
      incremental_fingerprint(g_, updates, tile, opt_.damage_threshold);

  // Pristine columns by vertex, each read at most once per apply and
  // shared by the probe, its refinement and the decrease panel. On a
  // symmetric graph the stored column IS the stored row, so it is one
  // contiguous read instead of n strided element reads.
  std::unordered_map<vidx_t, std::vector<dist_t>> col_cache;
  const auto column = [&](vidx_t c) -> const std::vector<dist_t>& {
    auto it = col_cache.find(c);
    if (it != col_cache.end()) return it->second;
    std::vector<dist_t> col(static_cast<std::size_t>(n));
    if (symmetric_) {
      pristine.read_block(c, 0, 1, n, col.data(), static_cast<std::size_t>(n));
    } else {
      pristine.read_block(0, c, n, 1, col.data(), 1);
    }
    return col_cache.emplace(c, std::move(col)).first->second;
  };

  // ---- Phase A: increase probe ---------------------------------------
  // DR = rows whose stored distances may have used an increased arc. One
  // column per distinct arc endpoint; conservative superset of the truly
  // damaged rows.
  const double t_probe = now_s();
  std::vector<std::uint8_t> damaged_row(static_cast<std::size_t>(n), 0);
  for (std::size_t a = 0; a < cls.increases.size(); ++a) {
    const EdgeUpdate& up = cls.increases[a];
    const dist_t w_old = cls.increases_w_old[a];
    const std::vector<dist_t>& col_u = column(up.u);
    const std::vector<dist_t>& col_v = column(up.v);
    for (vidx_t i = 0; i < n; ++i) {
      const dist_t du = col_u[static_cast<std::size_t>(i)];
      if (du < kInf && sat_add(du, w_old) == col_v[static_cast<std::size_t>(i)]) {
        damaged_row[static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  std::size_t probe_hits = 0;
  for (vidx_t i = 0; i < n; ++i) {
    probe_hits += damaged_row[static_cast<std::size_t>(i)] != 0;
  }

  // g_mid (increases applied) is needed by the refinement below and by the
  // phase-B row recomputes; build it once.
  graph::CsrGraph g_mid;
  graph::CsrGraph rev_mid;
  const graph::CsrGraph* mid = &g_;
  if (!cls.increases.empty()) {
    g_mid = apply_edge_updates(g_, cls.increases);
    mid = &g_mid;
    rev_mid = g_mid.transpose();
  }

  // ---- Probe refinement ----------------------------------------------
  // The equality test fires on every shortest-path tie, and road-like
  // graphs with small integer weights tie constantly — the superset can
  // approach n while the truly damaged set stays tiny (and the damage
  // threshold then tips a cheap repair into a full re-solve). When the
  // batch has fewer distinct increased-arc heads than probe hits, compute
  // the exact new column of each head (one reverse-graph Dijkstra over
  // g_mid per head) and keep only rows whose head column actually grew.
  // Exact: a changed pair (i,j) has an old shortest path through some
  // increased arc; take the LAST such arc (u,v) on it — the suffix v→j
  // avoids every increased arc and survives in g_mid, so
  // d_mid(i,j) <= d_mid(i,v) + d_old(v,j), and row i can only change if
  // some head column d_mid(i,v) grew.
  std::vector<vidx_t> heads;
  if (probe_hits > 0) {
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
    for (const EdgeUpdate& up : cls.increases) {
      if (!seen[static_cast<std::size_t>(up.v)]) {
        seen[static_cast<std::size_t>(up.v)] = 1;
        heads.push_back(up.v);
      }
    }
  }
  if (!heads.empty() && heads.size() < probe_hits) {
    // One exact new column per head, filled in parallel, merged serially.
    std::vector<dist_t> new_cols(heads.size() * static_cast<std::size_t>(n));
    ThreadPool::global().parallel_for(
        heads.size(),
        [&](std::size_t h) {
          const std::size_t len = static_cast<std::size_t>(n);
          const std::span<dist_t> col(new_cols.data() + h * len, len);
          sssp::dijkstra_into(rev_mid, heads[h], col);
        },
        1);
    std::fill(damaged_row.begin(), damaged_row.end(), 0);
    for (std::size_t h = 0; h < heads.size(); ++h) {
      // Every head is an increased arc's endpoint: the probe read it.
      const std::vector<dist_t>& old_col = column(heads[h]);
      const dist_t* col = new_cols.data() + h * static_cast<std::size_t>(n);
      for (std::size_t x = 0; x < static_cast<std::size_t>(n); ++x) {
        if (col[x] != old_col[x]) damaged_row[x] = 1;
      }
    }
  }

  std::vector<vidx_t> dr;
  for (vidx_t i = 0; i < n; ++i) {
    if (damaged_row[static_cast<std::size_t>(i)]) dr.push_back(i);
  }
  outcome.damaged_rows = static_cast<long long>(dr.size());
  outcome.probe_seconds = now_s() - t_probe;

  const bool full_solve =
      !cls.increases.empty() &&
      static_cast<double>(dr.size()) >
          opt_.damage_threshold * static_cast<double>(n);
  outcome.full_solve = full_solve;

  // ---- Delta checkpoint: match an existing sidecar -------------------
  // The sidecar records progress only. The damaged rows, the mode and every
  // tile's bytes are deterministic functions of the pristine store, the
  // graph and the batch, so a resumed run recomputes them; aux1 binds the
  // damaged-row set on top of the fingerprint.
  const auto dr_hash = static_cast<std::int64_t>(
      util::fnv1a(dr.data(), dr.size() * sizeof(vidx_t)));
  long long start_tile = 0;
  if (opt_.resume && !opt_.checkpoint_path.empty()) {
    Checkpoint ck;
    if (read_checkpoint(opt_.checkpoint_path, &ck) &&
        ck.algorithm == kDeltaAlgorithm && ck.fingerprint == fp &&
        ck.n == n && ck.aux0 == tile && ck.aux1 == dr_hash) {
      start_tile = ck.progress;
    }
  }

  // ---- Phase B: SSSP row repair over g_mid (increases only) ----------
  // g_mid's exact distances differ from the pristine store only on DR
  // rows; recomputing exactly those rows yields exact APSP of g_mid, the
  // input the decrease phase needs.
  const double t_sssp = now_s();
  std::vector<int> dr_index(static_cast<std::size_t>(n), -1);
  for (std::size_t a = 0; a < dr.size(); ++a) {
    dr_index[static_cast<std::size_t>(dr[a])] = static_cast<int>(a);
  }
  // Repaired rows, one length-n row per DR entry. Every row is read before
  // use, so the buffer starts uninitialized.
  const std::size_t dr_elems = dr.size() * static_cast<std::size_t>(n);
  const auto dr_rows = std::make_unique_for_overwrite<dist_t[]>(dr_elems);
  if (!full_solve && !dr.empty()) {
    // Load the old rows as the repair input. Consecutive damaged rows own
    // consecutive slots, so each run of them within a tile row lands
    // straight in its slots with one read — one pread on a raw file store.
    // A tiled store is read one stored tile column at a time, so every run
    // of a tile row decodes from the store's one-tile memo instead of
    // decoding the whole band again.
    const vidx_t chunk = pristine.tile_size() > 0 ? tile : n;
    for (std::size_t a = 0; a < dr.size();) {
      const vidx_t band_end = (dr[a] / tile + 1) * tile;
      std::size_t end = a;
      while (end < dr.size() && dr[end] < band_end) ++end;
      for (vidx_t c0 = 0; c0 < n; c0 += chunk) {
        const vidx_t cols = std::min(chunk, n - c0);
        for (std::size_t b = a; b < end;) {
          std::size_t e = b + 1;
          while (e < end && dr[e] == dr[e - 1] + 1) ++e;
          pristine.read_block(
              dr[b], c0, static_cast<vidx_t>(e - b), cols,
              dr_rows.get() + b * static_cast<std::size_t>(n) + c0,
              static_cast<std::size_t>(n));
          b = e;
        }
      }
      a = end;
    }
    // Zero-weight arcs break SWSF's queue-order argument; such graphs
    // recompute every row by Dijkstra instead.
    const bool swsf = !has_zero_weight_arc(*mid);
    ThreadPool::global().parallel_for(
        dr.size(),
        [&](std::size_t a) {
          const std::span<dist_t> row(
              dr_rows.get() + a * static_cast<std::size_t>(n),
              static_cast<std::size_t>(n));
          // Per-thread scratch: one queue/rhs pair serves every row a
          // worker repairs, so a row whose region is a handful of
          // vertices is not charged a fresh allocation round-trip.
          static thread_local std::vector<dist_t> rhs_scratch;
          static thread_local BucketQueue pq_scratch;
          // A bucket-key overflow (extreme weight range) leaves the row
          // part-repaired garbage: recompute it whole.
          if (!swsf ||
              !repair_row_swsf(*mid, rev_mid, dr[a], cls.increases,
                               cls.increases_w_old, row, rhs_scratch,
                               pq_scratch)) {
            sssp::dijkstra_into(*mid, dr[a], row);
          }
        },
        1);
  }
  outcome.sssp_seconds = now_s() - t_sssp;

  auto write_delta_checkpoint = [&](long long progress) {
    // The durability boundary: the sink holds every tile this checkpoint
    // claims, and the hook is where an fsync of the sink's file goes.
    if (opt_.sync_before_checkpoint) opt_.sync_before_checkpoint();
    Checkpoint ck;
    ck.algorithm = kDeltaAlgorithm;
    ck.fingerprint = fp;
    ck.n = n;
    ck.progress = progress;
    ck.aux0 = tile;
    ck.aux1 = dr_hash;
    write_checkpoint(opt_.checkpoint_path, ck);
    ++outcome.checkpoints_written;
  };

  // ---- Tile walk (repair and full-solve fallback alike) ----------------
  // Per tile row:
  //   1. read the candidate tiles once, one read per run of adjacent
  //      candidates, into a rows×n span (each tile at its own column
  //      offset, leading dimension n);
  //   2. compute the candidates across the pool: compute(bi, bj, tile,
  //      scratch) rewrites its tile in the span, with one tile of
  //      per-worker scratch, and reports whether the tile's bytes changed.
  //      It runs on pool workers and must not throw;
  //   3. serially and in (bi, bj) order, hand each run of adjacent changed
  //      tiles to the sink in one call. A run is cut at every checkpoint
  //      boundary, so a checkpoint only claims tiles the sink holds.
  const auto extent = [&](vidx_t b) { return std::min(tile, n - b * tile); };
  // Tiles per pool chunk: at least kWalkChunkElems elements, so waking a
  // worker is repaid (a row of small tiles computes inline).
  const std::size_t grain = std::max<std::size_t>(
      1, kWalkChunkElems / (static_cast<std::size_t>(tile) * tile));
  const auto walk = [&](const auto& is_candidate, const auto& compute) {
    const double t_tiles = now_s();
    const bool checkpointing = !opt_.checkpoint_path.empty();
    const auto ld = static_cast<std::size_t>(n);
    // Only the candidate tiles of a row are ever read back out of it.
    const auto span = std::make_unique_for_overwrite<dist_t[]>(
        static_cast<std::size_t>(tile) * ld);
    std::vector<vidx_t> todo;  // candidate tile columns left to compute
    std::vector<std::uint8_t> changed;
    long long idx = 0;  // candidates completed, the checkpoint progress
    for (vidx_t bi = 0; bi < nb; ++bi) {
      todo.clear();
      for (vidx_t bj = 0; bj < nb; ++bj) {
        if (!is_candidate(bi, bj)) continue;
        ++outcome.tiles_candidate;
        if (idx < start_tile) {
          ++idx;
          ++outcome.tiles_resumed;
        } else {
          todo.push_back(bj);
        }
      }
      if (todo.empty()) continue;
      const vidx_t r0 = bi * tile;
      const vidx_t rows = extent(bi);
      for (std::size_t a = 0; a < todo.size();) {
        std::size_t b = a + 1;  // todo[a, b): adjacent tile columns
        while (b < todo.size() && todo[b] == todo[b - 1] + 1) ++b;
        const vidx_t c0 = todo[a] * tile;
        const vidx_t c1 = todo[b - 1] * tile + extent(todo[b - 1]);
        pristine.read_block(r0, c0, rows, c1 - c0, span.get() + c0, ld);
        a = b;
      }
      changed.assign(todo.size(), 0);
      ThreadPool::global().parallel_for(
          todo.size(),
          [&](std::size_t a) {
            static thread_local std::vector<dist_t> scratch;
            scratch.resize(static_cast<std::size_t>(tile) * tile);
            changed[a] = compute(bi, todo[a],
                                 span.get() +
                                     static_cast<std::size_t>(todo[a]) * tile,
                                 scratch.data());
          },
          grain);
      // Emit. The open run is todo[first, first + count).
      std::size_t first = 0;
      std::size_t count = 0;
      const auto flush = [&] {
        if (count == 0) return;
        const vidx_t last = todo[first + count - 1];
        TileRun run;
        run.bi = bi;
        run.bj = todo[first];
        run.tiles = static_cast<vidx_t>(count);
        run.row0 = r0;
        run.col0 = run.bj * tile;
        run.rows = rows;
        run.cols = last * tile + extent(last) - run.col0;
        run.data = span.get() + run.col0;
        run.ld = ld;
        sink(run);
        outcome.tiles_touched += static_cast<long long>(count);
        count = 0;
      };
      for (std::size_t a = 0; a < todo.size(); ++a) {
        if (!changed[a] || (count > 0 && todo[a] != todo[a - 1] + 1)) flush();
        if (changed[a] && count++ == 0) first = a;
        ++idx;
        if (checkpointing && idx % opt_.checkpoint_every_tiles == 0) {
          flush();
          write_delta_checkpoint(idx);
        }
      }
      flush();
    }
    outcome.tile_seconds = now_s() - t_tiles;
    if (checkpointing) remove_checkpoint(opt_.checkpoint_path);
  };

  // ---- Fallback: full re-solve ---------------------------------------
  if (full_solve) {
    if (!opt_.checkpoint_path.empty() && start_tile == 0) {
      write_delta_checkpoint(0);
    }
    // Every solver writes original vertex order; an auto solve runs the
    // blocked FW that modeled_full_seconds prices, with no selector run.
    auto fresh = make_ram_store(n);
    ApspOptions sopt = opt_.solve_opts;
    if (sopt.algorithm == Algorithm::kAuto) {
      sopt.algorithm = Algorithm::kBlockedFloydWarshall;
    }
    sopt.checkpoint_path.clear();
    sopt.resume = false;
    solve_apsp(g_final_, sopt, *fresh);
    // Every tile is a candidate; the fresh solve supplies its new bytes.
    walk([](vidx_t, vidx_t) { return true; },
         [&](vidx_t bi, vidx_t bj, dist_t* t, dist_t* scratch) {
           const vidx_t rows = extent(bi), cols = extent(bj);
           fresh->read_block(bi * tile, bj * tile, rows, cols, scratch,
                             static_cast<std::size_t>(cols));
           bool changed = false;
           for (vidx_t r = 0; r < rows; ++r) {
             changed |= land(t + static_cast<std::size_t>(r) * n,
                             scratch + static_cast<std::size_t>(r) * cols,
                             static_cast<std::size_t>(cols));
           }
           return changed;
         });
    outcome.modeled_full_seconds =
        incremental_full_solve_model(n, opt_.solve_opts.device);
    outcome.modeled_repair_seconds = outcome.modeled_full_seconds;
    outcome.seconds = now_s() - t_start;
    return outcome;
  }

  // ---- Phase C: decrease repair seeds --------------------------------
  // S = endpoints of decreased arcs; panels are read from the
  // pristine store and patched with the phase-B rows so everything below
  // speaks exact g_mid distances.
  const double t_panel = now_s();
  std::vector<vidx_t> seeds;  // sorted unique vertex ids
  {
    std::vector<std::uint8_t> in_s(static_cast<std::size_t>(n), 0);
    for (const EdgeUpdate& up : cls.decreases) {
      in_s[static_cast<std::size_t>(up.u)] = 1;
      in_s[static_cast<std::size_t>(up.v)] = 1;
    }
    for (vidx_t i = 0; i < n; ++i) {
      if (in_s[static_cast<std::size_t>(i)]) seeds.push_back(i);
    }
  }
  const std::size_t k = seeds.size();
  outcome.sources = static_cast<long long>(k);
  std::vector<int> seed_index(static_cast<std::size_t>(n), -1);
  for (std::size_t a = 0; a < k; ++a) {
    seed_index[static_cast<std::size_t>(seeds[a])] = static_cast<int>(a);
  }

  // R (k×n): rows of D_mid at the seeds.  Cc (n×k): columns of D_mid. A
  // seed outside DR keeps its pristine row, which on a symmetric graph is
  // the column just read.
  std::vector<dist_t> R(k * static_cast<std::size_t>(n));
  std::vector<dist_t> Cc(static_cast<std::size_t>(n) * k);
  for (std::size_t a = 0; a < k; ++a) {
    const vidx_t s = seeds[a];
    const std::vector<dist_t>& col = column(s);
    for (vidx_t i = 0; i < n; ++i) {
      Cc[static_cast<std::size_t>(i) * k + a] =
          col[static_cast<std::size_t>(i)];
    }
    dist_t* row = R.data() + a * static_cast<std::size_t>(n);
    const int di = dr_index[static_cast<std::size_t>(s)];
    if (di >= 0) {
      std::memcpy(row,
                  dr_rows.get() +
                      static_cast<std::size_t>(di) * static_cast<std::size_t>(n),
                  static_cast<std::size_t>(n) * sizeof(dist_t));
    } else if (symmetric_) {
      std::memcpy(row, col.data(), static_cast<std::size_t>(n) * sizeof(dist_t));
    } else {
      pristine.read_block(s, 0, 1, n, row, static_cast<std::size_t>(n));
    }
  }
  for (std::size_t di = 0; di < dr.size() && k > 0; ++di) {
    const dist_t* row = dr_rows.get() + di * static_cast<std::size_t>(n);
    dist_t* dst = Cc.data() + static_cast<std::size_t>(dr[di]) * k;
    for (std::size_t a = 0; a < k; ++a) {
      dst[a] = row[static_cast<std::size_t>(seeds[a])];
    }
  }

  // Seed closure M* — D_mid between seeds, improved by the decreased arcs,
  // transitively closed so one panel product covers arc chains.
  std::vector<dist_t> M(k * k);
  for (std::size_t a = 0; a < k; ++a) {
    const dist_t* row = R.data() + a * static_cast<std::size_t>(n);
    for (std::size_t b = 0; b < k; ++b) {
      M[a * k + b] = row[static_cast<std::size_t>(seeds[b])];
    }
  }
  for (const EdgeUpdate& up : cls.decreases) {
    const std::size_t a = static_cast<std::size_t>(
        seed_index[static_cast<std::size_t>(up.u)]);
    const std::size_t b = static_cast<std::size_t>(
        seed_index[static_cast<std::size_t>(up.v)]);
    M[a * k + b] = std::min(M[a * k + b], up.w);
  }
  if (k > 0) {
    fw_inplace(M.data(), k, static_cast<vidx_t>(k));
  }

  // L = Cc ⊗ M* (n×k) and R' = M* ⊗ R (k×n); the rows/columns they improve
  // are the affected sets — everything else provably keeps its value.
  std::vector<dist_t> L = Cc;
  std::vector<dist_t> Rp = R;
  if (k > 0 && n > 0) {
    minplus_accum(L.data(), k, Cc.data(), k, M.data(), k, n,
                  static_cast<vidx_t>(k), static_cast<vidx_t>(k));
    minplus_accum(Rp.data(), static_cast<std::size_t>(n), M.data(), k,
                  R.data(), static_cast<std::size_t>(n),
                  static_cast<vidx_t>(k), static_cast<vidx_t>(k), n);
  }
  std::vector<std::uint8_t> ar(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> ac(static_cast<std::size_t>(n), 0);
  for (vidx_t i = 0; i < n; ++i) {
    const dist_t* li = L.data() + static_cast<std::size_t>(i) * k;
    const dist_t* ci = Cc.data() + static_cast<std::size_t>(i) * k;
    for (std::size_t a = 0; a < k; ++a) {
      if (li[a] < ci[a]) {
        ar[static_cast<std::size_t>(i)] = 1;
        break;
      }
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    const dist_t* ra = R.data() + a * static_cast<std::size_t>(n);
    const dist_t* pa = Rp.data() + a * static_cast<std::size_t>(n);
    for (vidx_t j = 0; j < n; ++j) {
      if (pa[static_cast<std::size_t>(j)] < ra[static_cast<std::size_t>(j)]) {
        ac[static_cast<std::size_t>(j)] = 1;
      }
    }
  }
  for (const auto& f : ar) outcome.affected_rows += f;
  for (const auto& f : ac) outcome.affected_cols += f;
  outcome.panel_seconds = now_s() - t_panel;

  // Dirty-tile frontier at block granularity.
  std::vector<std::uint8_t> dr_tile(static_cast<std::size_t>(nb), 0);
  std::vector<std::uint8_t> ar_tile(static_cast<std::size_t>(nb), 0);
  std::vector<std::uint8_t> ac_tile(static_cast<std::size_t>(nb), 0);
  for (vidx_t i = 0; i < n; ++i) {
    const std::size_t b = static_cast<std::size_t>(i / tile);
    if (dr_index[static_cast<std::size_t>(i)] >= 0) dr_tile[b] = 1;
    if (ar[static_cast<std::size_t>(i)]) ar_tile[b] = 1;
    if (ac[static_cast<std::size_t>(i)]) ac_tile[b] = 1;
  }

  if (!opt_.checkpoint_path.empty() && start_tile == 0) {
    write_delta_checkpoint(0);
  }

  // ---- Dirty-tile walk ------------------------------------------------
  // A tile is a candidate when its tile row holds a damaged row or it lies
  // in the AR×AC frontier.
  walk(
      [&](vidx_t bi, vidx_t bj) {
        return dr_tile[static_cast<std::size_t>(bi)] ||
               (ar_tile[static_cast<std::size_t>(bi)] &&
                ac_tile[static_cast<std::size_t>(bj)]);
      },
      [&](vidx_t bi, vidx_t bj, dist_t* t, dist_t* scratch) {
        const vidx_t r0 = bi * tile, c0 = bj * tile;
        const vidx_t rows = extent(bi), cols = extent(bj);
        // The tile's rows of exact g_mid values: the phase-B row where it
        // has one, the pristine row (in the span) otherwise.
        const auto mid_row = [&](vidx_t r) -> const dist_t* {
          const int di = dr_index[static_cast<std::size_t>(r0 + r)];
          if (di < 0) return t + static_cast<std::size_t>(r) * n;
          return dr_rows.get() +
                 static_cast<std::size_t>(di) * static_cast<std::size_t>(n) +
                 c0;
        };
        bool changed = false;
        if (!(ar_tile[static_cast<std::size_t>(bi)] &&
              ac_tile[static_cast<std::size_t>(bj)])) {
          // Only the phase-B rows can differ: land them in place.
          for (vidx_t r = 0; r < rows; ++r) {
            if (dr_index[static_cast<std::size_t>(r0 + r)] >= 0) {
              changed |= land(t + static_cast<std::size_t>(r) * n, mid_row(r),
                              static_cast<std::size_t>(cols));
            }
          }
          return changed;
        }
        // Decrease relaxation T = min(T_mid, L[rows,:] ⊗ R[:,cols]) on a
        // packed copy (the span's rows lie n apart), then land each row.
        for (vidx_t r = 0; r < rows; ++r) {
          std::memcpy(scratch + static_cast<std::size_t>(r) * cols, mid_row(r),
                      static_cast<std::size_t>(cols) * sizeof(dist_t));
        }
        minplus_accum(scratch, static_cast<std::size_t>(cols),
                      L.data() + static_cast<std::size_t>(r0) * k, k,
                      R.data() + c0, static_cast<std::size_t>(n), rows,
                      static_cast<vidx_t>(k), cols);
        for (vidx_t r = 0; r < rows; ++r) {
          changed |= land(t + static_cast<std::size_t>(r) * n,
                          scratch + static_cast<std::size_t>(r) * cols,
                          static_cast<std::size_t>(cols));
        }
        return changed;
      });

  const IncrementalCost cost = estimate_incremental(
      n, g_final_.num_edges(), k, dr.size(),
      static_cast<std::size_t>(outcome.tiles_touched), tile,
      opt_.solve_opts.device);
  outcome.modeled_repair_seconds = cost.total();
  outcome.modeled_full_seconds =
      incremental_full_solve_model(n, opt_.solve_opts.device);
  outcome.seconds = now_s() - t_start;
  return outcome;
}

UpdateOutcome IncrementalEngine::apply_in_place(
    DistStore& store, std::span<const EdgeUpdate> updates) {
  return apply(store, updates, [&store](const TileRun& run) {
    store.write_block(run.row0, run.col0, run.rows, run.cols, run.data,
                      run.ld);
  });
}

}  // namespace gapsp::core
