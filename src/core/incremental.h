// Incremental APSP: delta-repair of a kept distance store after a batch of
// edge-weight updates, instead of a full O(n³/p) re-solve.
//
// The kept store is the expensive artifact; a batch of edge changes perturbs
// only the rows/columns reachable through the changed arcs (RAPID-Graph's
// recursive DP-block framing is exactly what makes localized repair legal).
// The engine splits a batch into the two monotone halves and repairs each
// with the cheapest exact method:
//
//   Increases/deletes (distances can only grow) — one min-plus probe of the
//   changed endpoints' columns finds the conservatively-damaged row set
//   DR = { i : D(i,u) + w_old == D(i,v) for some increased arc (u,v) }.
//   A shortest path i→j through arc (u,v) makes its prefix i→u→v a shortest
//   i→v path, so every truly damaged row passes the test (predecessor-free:
//   no parent pointers kept, one column read per distinct arc endpoint).
//   The equality fires on every tie, so when the batch has fewer distinct
//   arc heads than probe hits the set is refined exactly: one reverse-graph
//   SSSP per head yields the new column d_mid(·,v), and a row can only
//   change if some head column grew (the last increased arc on a changed
//   path leaves an unchanged suffix). Damaged rows are repaired in place by
//   dynamic SWSF-FP (Ramalingam–Reps) over the graph with only the
//   increases applied — output-sensitive, so a row that lost one entry pays
//   for one entry, not a fresh Dijkstra (graphs with zero-weight arcs fall
//   back to per-row Dijkstra). An optional damage threshold
//   (|DR| > damage_threshold · n) can still force a full layout-preserving
//   re-solve.
//
//   Decreases/inserts (distances can only shrink) — bounded repair. With S
//   = the stored endpoints of decreased arcs (k = |S|), close the k×k
//   seed matrix M[a][b] = min(D(S_a,S_b), w_new(S_a→S_b)) with one in-place
//   Floyd–Warshall, then
//
//     D' = min(D, D[:,S] ⊗ M* ⊗ D[S,:])
//
//   is exact: any shortest path of the updated graph decomposes into
//   maximal old-distance segments separated by decreased arcs, whose
//   endpoints all lie in S. Rows/columns whose panel product does not
//   improve (affected sets AR/AC) provably cannot change — the min-plus
//   relaxation is applied only to tiles in AR×AC, the dirty-tile frontier
//   tracked at the store's block granularity.
//
// A mixed batch runs increases first (producing exact distances of the
// intermediate graph g_mid) and then the decrease repair on top, so each
// phase's exactness argument applies verbatim.
//
// I/O shape. The store is touched in rows and bands, never element by
// element or tile row by tile row:
//   - columns (probe, refinement, decrease panel) are read at most once per
//     apply and shared between the phases. On a symmetric pre-update graph
//     (every arc has a twin of equal weight, checked by the constructor) a
//     stored column equals the stored row under any simultaneous
//     permutation, so it is read as one contiguous row; other graphs read
//     the n-element column;
//   - phase B reads each run of consecutive damaged rows straight into its
//     repair slots;
//   - the dirty-tile walk reads each tile row's candidate tiles once (one
//     read per run of adjacent candidates) into a rows×n span, computes the
//     candidates across the thread pool, writes the rows that changed back
//     into the span, and emits each run of adjacent changed tiles with one
//     sink call.
//
// Crash tolerance reuses the GAPSPCK1 sidecar (checkpoint.h): every emitted
// tile is a pure function of the *pristine* store plus the deterministic
// phase-B rows (stored in the checkpoint payload), so a resumed run skips
// completed tiles and recomputes in-flight ones bit-identically. No run
// crosses a checkpoint boundary, so a checkpoint only claims tiles the sink
// already holds. Callers repairing on-disk stores therefore write into a
// copy and never mutate the pristine matrix until the atomic rename
// (apsp_cli update does exactly that).
//
// The repair is charged by the cost model's estimate_incremental term
// (cost_model.h): touched-tile bytes over the (optionally compressed)
// host link plus the closure/panel/tile min-plus op counts. See DESIGN.md
// §16 for the full semantics and the sidecar-invalidation matrix.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/apsp_options.h"
#include "core/dist_store.h"
#include "graph/csr_graph.h"
#include "util/common.h"

namespace gapsp::core {

/// One edge-weight update: set the weight of directed arc u→v to `w`.
/// An arc absent from the graph is inserted; w >= kInf deletes it. Callers
/// with undirected graphs supply both directions. Within a batch the last
/// update of an arc wins.
struct EdgeUpdate {
  vidx_t u = 0;
  vidx_t v = 0;
  dist_t w = 0;
};

/// Parses a text update file: one `u v w` triple per line, `#` comments and
/// blank lines skipped; `w` may be `inf`, `x`, or `-1` for delete. Throws
/// IoError when the file is unreadable, Error naming the line on a
/// malformed line, a vertex id outside [0, 2³¹) or a numeric weight that is
/// negative or >= kInf (a delete must be spelled out, never overflowed into).
std::vector<EdgeUpdate> read_edge_updates(const std::string& path);

/// The graph after applying `updates` to `g` (directed arc semantics above).
graph::CsrGraph apply_edge_updates(const graph::CsrGraph& g,
                                   std::span<const EdgeUpdate> updates);

struct IncrementalOptions {
  /// Increase repair falls back to a full re-solve when the damaged row
  /// count exceeds this fraction of n (`apsp_cli update --update-threshold`).
  /// 0 forces the fallback whenever any row is damaged; >= 1 disables it.
  /// Disabled by default: phase-B repair is output-sensitive (SWSF-FP), so
  /// the damaged-row FRACTION no longer predicts repair cost — on road-like
  /// graphs a two-arc batch legitimately damages most rows by one entry
  /// each. The knob remains for operators who want to cap repair work.
  double damage_threshold = 1.0;

  /// Dirty-tile granularity when the store itself is untiled (a tiled
  /// backend's own tile size always wins, so emitted tiles line up with the
  /// GAPSPZ1 directory / cache grid).
  vidx_t tile = 256;

  /// GAPSPCK1 delta sidecar path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path` when it matches this (graph, updates,
  /// tile, threshold) configuration; otherwise start fresh.
  bool resume = false;
  /// Candidate tiles between checkpoint rewrites; no emitted run crosses a
  /// multiple of it while checkpointing.
  long long checkpoint_every_tiles = 64;
  /// Called immediately before every checkpoint write, after the sink has
  /// received every tile the checkpoint claims: the durability boundary.
  /// The file-backed stores write positionally and DistStore::flush() is a
  /// no-op, so a landed run already survives SIGKILL; this hook is where an
  /// fsync for power-loss durability will go (`apsp_cli update` passes the
  /// tmp store's flush).
  std::function<void()> sync_before_checkpoint;

  /// Options of the full-solve fallback (algorithm kAuto is forced to
  /// blocked FW so the store layout — identity permutation — is preserved).
  ApspOptions solve_opts;
};

/// What one apply() did, for CLI/bench reporting and cost-model comparison.
struct UpdateOutcome {
  bool full_solve = false;  ///< damage threshold tripped
  long long decreases = 0;  ///< deduped arcs whose weight dropped (or new)
  long long increases = 0;  ///< deduped arcs whose weight rose (or deleted)
  long long noops = 0;      ///< deduped arcs whose weight did not change
  long long sources = 0;    ///< |S|, decrease-repair seed set
  long long damaged_rows = 0;   ///< |DR|, increase-probe hits
  long long affected_rows = 0;  ///< |AR|
  long long affected_cols = 0;  ///< |AC|
  long long tiles_total = 0;    ///< tiles of the full matrix
  long long tiles_candidate = 0;  ///< tiles the frontier marked dirty
  long long tiles_touched = 0;    ///< tiles whose bytes actually changed
  long long tiles_resumed = 0;    ///< candidates skipped via checkpoint
  long long checkpoints_written = 0;
  double seconds = 0;        ///< host wall-clock of the whole apply
  double probe_seconds = 0;  ///< increase-probe column scans
  double sssp_seconds = 0;   ///< phase-B row recomputes
  double panel_seconds = 0;  ///< closure + L/R panel products
  double tile_seconds = 0;   ///< dirty-tile reads + min-plus + emits
  /// Cost-model charge of this repair (estimate_incremental) vs a modeled
  /// full blocked-FW re-solve on the same device — the selector-facing
  /// "was the delta path worth it" comparison.
  double modeled_repair_seconds = 0;
  double modeled_full_seconds = 0;
};

/// Fingerprint binding a delta checkpoint to (graph, update batch, tile,
/// threshold); a resume with any mismatch starts fresh.
std::uint64_t incremental_fingerprint(const graph::CsrGraph& g,
                                      std::span<const EdgeUpdate> updates,
                                      vidx_t tile, double damage_threshold);

class IncrementalEngine {
 public:
  /// `g` is the PRE-update graph the store was solved from; `perm` the
  /// solver's vertex permutation (stored index = perm[vertex], empty =
  /// identity — boundary-solved stores pass ApspResult::perm). The graph is
  /// captured by reference and must outlive the engine. Checks in
  /// O(m log d) whether `g` is symmetric, which lets apply() read columns
  /// as rows.
  explicit IncrementalEngine(const graph::CsrGraph& g,
                             IncrementalOptions opt = {},
                             std::vector<vidx_t> perm = {});

  /// A run of `tiles` horizontally adjacent changed tiles of tile row `bi`,
  /// starting at tile column `bj`: the final contents of the rows×cols
  /// block at (row0, col0), stored coordinates, row-major in `data` with
  /// leading dimension `ld`. `data` is valid only during the sink call.
  struct TileRun {
    vidx_t bi = 0;
    vidx_t bj = 0;
    vidx_t tiles = 0;
    vidx_t row0 = 0;
    vidx_t col0 = 0;
    vidx_t rows = 0;
    vidx_t cols = 0;
    const dist_t* data = nullptr;
    std::size_t ld = 0;
  };

  /// Receives every tile whose bytes changed, as runs in deterministic
  /// (bi, bj) order. A run is maximal within its tile row, except that
  /// while checkpointing no run crosses a multiple of checkpoint_every_tiles
  /// in candidate order (so with 1 every run is a single tile).
  using TileSink = std::function<void(const TileRun&)>;

  /// Repairs the matrix in `pristine` (the exact APSP of `g`, read-only —
  /// never written) against `updates`, streaming every changed tile to
  /// `sink`. Deterministic: same (graph, store, updates, options) produce
  /// the same run sequence bit-for-bit, which is what makes checkpointed
  /// resume sound. Throws Error on negative update weights or dimension
  /// mismatch, IoError/CorruptError from the store.
  UpdateOutcome apply(const DistStore& pristine,
                      std::span<const EdgeUpdate> updates,
                      const TileSink& sink);

  /// Convenience for writable stores: apply() with a sink that lands each
  /// run with one write_block (one pwrite on a raw file store when the run
  /// is full-width). Sound in place because every store read precedes the
  /// writes it could observe: the probe, phase B and the panels read before
  /// the walk writes anything; a tile row's span is read before any of its
  /// runs is written; tile rows are disjoint; and no later phase reads an
  /// earlier tile row. NOT crash-safe (a killed in-place repair leaves a
  /// store that is neither old nor new); callers wanting resume must repair
  /// into a copy like `apsp_cli update`.
  UpdateOutcome apply_in_place(DistStore& store,
                               std::span<const EdgeUpdate> updates);

  /// The updated graph built by the last apply() (g with the batch applied).
  const graph::CsrGraph& updated_graph() const { return g_final_; }

 private:
  struct Classified;
  void classify(std::span<const EdgeUpdate> updates, Classified& out,
                UpdateOutcome& outcome) const;

  const graph::CsrGraph& g_;
  IncrementalOptions opt_;
  std::vector<vidx_t> perm_;      // empty = identity
  std::vector<vidx_t> inv_perm_;  // stored index -> original vertex
  bool symmetric_ = false;        // every arc has an equal-weight twin
  graph::CsrGraph g_final_;
};

}  // namespace gapsp::core
