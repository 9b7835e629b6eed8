// Block-granular read cache over a solved distance store.
//
// The solved n×n matrix is orders of magnitude larger than the input
// (dist_store.h) and, for the file-backed store, lives on disk — a service
// answering millions of point queries cannot afford a seek+read per element.
// The cache holds square tiles of the matrix keyed on (row_block, col_block)
// in a sharded LRU: per-shard locking keeps concurrent readers from
// serializing on one global mutex, and a byte budget (not an entry count)
// bounds host memory no matter how ragged the edge tiles are.
//
// Lives in core (it depends only on util). The query service
// (service/query_engine.h) is its user: point, row, block and batch
// queries, and path extraction through the engine, read through it
// instead of paying DistStore::at() per element.
//
// Negative-tile support: kInf-dominated matrices (road-like, disconnected)
// are mostly tiles in which every element is kInf. A loader that recognizes
// such a tile — from the compressed store's directory for free, or by
// scanning what it just read — returns the one shared constant tile
// registered via set_negative_tile(); entries backed by it charge zero
// bytes against the budget, so a huge unreachable region never evicts real
// data.
//
// Recycled miss buffers: make_tile hands a loader a buffer of exactly the
// tile's size from a free list, so a miss does not allocate and zero-fill a
// fresh tile that the read then overwrites whole. The tile's shared_ptr
// deleter puts the buffer back on the list when its last holder (a cache
// entry, an overlay, a reader) drops it, so an eviction still never
// invalidates a tile in use. The list keeps at most one shard's byte budget
// of buffers (the oldest go first), so cache and list together stay within
// (1 + 1/shards) × capacity plus whatever evicted tiles readers still hold.
// Lock order: the list's lock is a leaf. Shards release the entries they
// evict or replace only after their own lock drops, so a deleter never
// runs under a shard lock.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/tile_error.h"
#include "util/common.h"

namespace gapsp::core {

/// Aggregate cache counters, summed over shards.
struct CacheStats {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  /// Misses whose loader resolved to the shared all-kInf tile; those
  /// entries are cached at zero byte cost.
  long long negative_loads = 0;
  /// Tiles currently quarantined (loader raised a persistent TileError).
  long long quarantined_tiles = 0;
  /// Misses answered by an existing quarantine mark without re-reading.
  long long quarantine_hits = 0;
  std::size_t bytes_cached = 0;
  std::size_t capacity_bytes = 0;
  /// make_tile calls the free list could not serve with a buffer of their
  /// size, so they allocated (and zero-filled) a new one.
  long long fresh_buffers = 0;
  /// Bytes of buffers on the free list now (at most one shard's budget).
  std::size_t free_bytes = 0;

  double hit_rate() const {
    const auto total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A cached block. Immutable once published and shared with readers, so an
/// eviction never invalidates a tile a query is still copying from.
using BlockData = std::shared_ptr<const std::vector<dist_t>>;

class BlockCache {
 public:
  /// `capacity_bytes` is split across `shards` independent LRU lists, the
  /// division remainder going to the leading shards so no byte of budget is
  /// lost to truncation.
  explicit BlockCache(std::size_t capacity_bytes, int shards = 8);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Registers the shared all-kInf tile. A loader returning exactly this
  /// pointer marks its block negative: cached, but charged no bytes. Set it
  /// before the first get_or_load and never change it mid-flight.
  void set_negative_tile(BlockData tile) { negative_ = std::move(tile); }
  const BlockData& negative_tile() const { return negative_; }

  using Loader = std::function<BlockData()>;
  using TileFill = std::function<void(dist_t*)>;

  /// A tile of exactly `elems` elements written by `fill`, for a loader to
  /// return or for publish(). The buffer comes from the free list when one
  /// of that size is there, so `fill` must overwrite every element or throw;
  /// a buffer whose fill threw goes back to the list, never into the cache.
  /// A tile that fills all-kInf comes back as the negative tile, if one is
  /// set. Call it holding no lock: the buffer of a fill that threw or
  /// collapsed is dropped inside, and dropping takes the list's lock.
  BlockData make_tile(std::size_t elems, const TileFill& fill);

  /// Returns the block keyed (row_block, col_block), invoking `loader` on a
  /// miss and caching its result. The loader runs outside the shard lock so
  /// a slow disk read never blocks hits on the same shard; when two threads
  /// race on one key the first published copy wins and the loser's load is
  /// discarded. Eviction pops least-recently-used entries until the shard is
  /// back under budget, but always keeps the entry just inserted (a single
  /// over-budget block is served, not thrashed).
  ///
  /// Failure semantics: if the loader throws but a racing thread has
  /// meanwhile published a valid copy of the same key, that copy is served
  /// and the exception is swallowed (the data exists; the loser's read
  /// outcome is irrelevant). Otherwise a TileError{kCorrupt,kTransient}
  /// from the loader marks the key quarantined — later misses on it throw
  /// TileError(kQuarantined) without re-reading the sick byte range — and
  /// every loader exception (quarantining or not) propagates to the caller.
  BlockData get_or_load(vidx_t row_block, vidx_t col_block,
                        const Loader& loader);

  /// Force-publishes a block (repair path): clears any quarantine mark for
  /// the key and replaces whatever the cache holds for it.
  void publish(vidx_t row_block, vidx_t col_block, BlockData data);

  bool is_quarantined(vidx_t row_block, vidx_t col_block) const;

  /// Drops every quarantine mark (e.g. after an offline scrub repaired the
  /// store). Returns the number of marks cleared.
  long long clear_quarantine();

  CacheStats stats() const;

  /// Drops every entry; counters and quarantine marks keep accumulating.
  /// Buffers no reader holds return to the free list, up to its bound.
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    BlockData data;
    std::size_t bytes = 0;  ///< charged size (0 for the negative tile)
  };
  struct Shard {
    mutable std::mutex mu;
    std::size_t capacity = 0;  ///< this shard's slice of the byte budget
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::unordered_set<std::uint64_t> quarantined;
    std::size_t bytes = 0;
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;
    long long negative_loads = 0;
    long long quarantine_hits = 0;
  };

  static std::uint64_t key_of(vidx_t row_block, vidx_t col_block) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row_block))
            << 32) |
           static_cast<std::uint32_t>(col_block);
  }

  Shard& shard_of(std::uint64_t key);
  const Shard& shard_of(std::uint64_t key) const;
  /// Inserts at LRU front and moves over-budget entries into `evicted`.
  /// Caller holds s.mu and drops `evicted` only after releasing it.
  BlockData insert_locked(Shard& s, std::uint64_t key, BlockData data,
                          std::size_t size, std::list<Entry>& evicted);

  /// make_tile's recycled buffers; shared with each tile's deleter, so a
  /// tile that outlives the cache still has a list to return to.
  struct FreeList;

  std::size_t capacity_bytes_;
  std::vector<Shard> shards_;
  BlockData negative_;
  std::shared_ptr<FreeList> free_;
};

}  // namespace gapsp::core
