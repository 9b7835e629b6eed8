#include "core/block_cache.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <string>

namespace gapsp::core {

struct BlockCache::FreeList {
  using Buffer = std::unique_ptr<std::vector<dist_t>>;

  explicit FreeList(std::size_t capacity) : capacity(capacity) {}

  /// A listed buffer of exactly `elems` elements (the newest such), or null.
  Buffer take(std::size_t elems) {
    std::lock_guard<std::mutex> lk(mu);
    for (auto it = buffers.end(); it != buffers.begin();) {
      --it;
      if ((*it)->size() == elems) {
        Buffer out = std::move(*it);
        buffers.erase(it);
        bytes -= elems * sizeof(dist_t);
        return out;
      }
    }
    return nullptr;
  }

  /// Lists `buf`, dropping the oldest buffers to stay within `capacity`; a
  /// buffer larger than the whole bound is freed. Runs in a deleter, so a
  /// failure to list frees the buffer instead of throwing.
  void give_back(Buffer buf) noexcept {
    const std::size_t size = buf->size() * sizeof(dist_t);
    if (size > capacity) return;
    std::lock_guard<std::mutex> lk(mu);
    while (bytes + size > capacity) {
      bytes -= buffers.front()->size() * sizeof(dist_t);
      buffers.erase(buffers.begin());
    }
    try {
      buffers.push_back(std::move(buf));
    } catch (const std::bad_alloc&) {
      return;
    }
    bytes += size;
  }

  const std::size_t capacity;  ///< bytes: one shard's budget
  std::mutex mu;
  std::vector<Buffer> buffers;  ///< oldest first
  std::size_t bytes = 0;
  std::atomic<long long> fresh{0};
};

BlockCache::BlockCache(std::size_t capacity_bytes, int shards)
    : capacity_bytes_(capacity_bytes) {
  GAPSP_CHECK(shards > 0, "cache needs at least one shard");
  shards_ = std::vector<Shard>(static_cast<std::size_t>(shards));
  // Spread the budget's division remainder over the leading shards instead
  // of truncating it away: with the single floored quotient, S−1 shards'
  // worth of bytes could go unused and any capacity below the shard count
  // degenerated to all-zero budgets that evicted every tile as oversize.
  const std::size_t base = capacity_bytes_ / shards_.size();
  const std::size_t rem = capacity_bytes_ % shards_.size();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = base + (i < rem ? 1 : 0);
  }
  free_ = std::make_shared<FreeList>(shards_[0].capacity);
}

BlockData BlockCache::make_tile(std::size_t elems, const TileFill& fill) {
  FreeList::Buffer buf = free_->take(elems);
  if (buf == nullptr) {
    buf = std::make_unique<std::vector<dist_t>>(elems);
    free_->fresh.fetch_add(1, std::memory_order_relaxed);
  }
  dist_t* const dst = buf->data();
  // From here the deleter owns the buffer: once the last holder drops the
  // tile (or fill throws), it goes back on the list.
  const BlockData tile(buf.release(),
                       [list = free_](const std::vector<dist_t>* done) {
                         list->give_back(FreeList::Buffer(
                             const_cast<std::vector<dist_t>*>(done)));
                       });
  fill(dst);
  // Scan-on-load: an all-kInf tile collapses to the shared negative tile
  // instead of occupying cache budget.
  if (negative_ != nullptr &&
      std::all_of(dst, dst + elems, [](dist_t d) { return d == kInf; })) {
    return negative_;
  }
  return tile;
}

BlockCache::Shard& BlockCache::shard_of(std::uint64_t key) {
  // Fibonacci mixing so block-diagonal access patterns spread over shards.
  const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 32;
  return shards_[static_cast<std::size_t>(h) % shards_.size()];
}

const BlockCache::Shard& BlockCache::shard_of(std::uint64_t key) const {
  const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 32;
  return shards_[static_cast<std::size_t>(h) % shards_.size()];
}

BlockData BlockCache::insert_locked(Shard& s, std::uint64_t key,
                                    BlockData data, std::size_t size,
                                    std::list<Entry>& evicted) {
  s.lru.push_front(Entry{key, data, size});
  s.index.emplace(key, s.lru.begin());
  s.bytes += size;
  while (s.bytes > s.capacity && s.lru.size() > 1) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    s.index.erase(victim.key);
    evicted.splice(evicted.end(), s.lru, std::prev(s.lru.end()));
    ++s.evictions;
  }
  return data;
}

BlockData BlockCache::get_or_load(vidx_t row_block, vidx_t col_block,
                                  const Loader& loader) {
  const std::uint64_t key = key_of(row_block, col_block);
  Shard& s = shard_of(key);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.index.find(key);
    if (it != s.index.end()) {
      ++s.hits;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return it->second->data;
    }
    ++s.misses;
    if (s.quarantined.count(key) != 0) {
      ++s.quarantine_hits;
      throw TileError(TileFailure::kQuarantined, row_block, col_block,
                      "tile (" + std::to_string(row_block) + "," +
                          std::to_string(col_block) + ") is quarantined");
    }
  }

  BlockData data;
  try {
    data = loader();
  } catch (...) {
    std::lock_guard<std::mutex> lk(s.mu);
    // A racing thread may have published a valid copy while our load was
    // failing — serve it rather than poisoning the caller (and never
    // quarantine a key the cache can demonstrably serve).
    const auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return it->second->data;
    }
    try {
      throw;
    } catch (const TileError& e) {
      // Persistent damage (corrupt payload, retries exhausted): remember it
      // so later misses skip the doomed read. Shed/quarantined kinds carry
      // no new evidence about the bytes on disk and leave the mark alone.
      if (e.kind() == TileFailure::kCorrupt ||
          e.kind() == TileFailure::kTransient) {
        s.quarantined.insert(key);
      }
      throw;
    }
  }
  GAPSP_CHECK(data != nullptr, "cache loader returned no block");
  const bool negative = negative_ != nullptr && data == negative_;
  const std::size_t size = negative ? 0 : data->size() * sizeof(dist_t);

  // Declared before the lock so evicted entries (and a losing `data`) are
  // dropped after it is released.
  std::list<Entry> evicted;
  std::lock_guard<std::mutex> lk(s.mu);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // A racing thread loaded and published the same key first; serve its
    // copy so every reader of one block shares one allocation.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->data;
  }
  if (negative) ++s.negative_loads;
  // A successful load is fresh evidence the tile is readable again.
  s.quarantined.erase(key);
  return insert_locked(s, key, std::move(data), size, evicted);
}

void BlockCache::publish(vidx_t row_block, vidx_t col_block, BlockData data) {
  GAPSP_CHECK(data != nullptr, "cannot publish a null block");
  const std::uint64_t key = key_of(row_block, col_block);
  Shard& s = shard_of(key);
  const bool negative = negative_ != nullptr && data == negative_;
  const std::size_t size = negative ? 0 : data->size() * sizeof(dist_t);

  std::list<Entry> dropped;  // the replaced and evicted entries, unlocked
  std::lock_guard<std::mutex> lk(s.mu);
  s.quarantined.erase(key);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    s.bytes -= it->second->bytes;
    dropped.splice(dropped.end(), s.lru, it->second);
    s.index.erase(it);
  }
  insert_locked(s, key, std::move(data), size, dropped);
}

bool BlockCache::is_quarantined(vidx_t row_block, vidx_t col_block) const {
  const std::uint64_t key = key_of(row_block, col_block);
  const Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lk(s.mu);
  return s.quarantined.count(key) != 0;
}

long long BlockCache::clear_quarantine() {
  long long cleared = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    cleared += static_cast<long long>(s.quarantined.size());
    s.quarantined.clear();
  }
  return cleared;
}

CacheStats BlockCache::stats() const {
  CacheStats out;
  out.capacity_bytes = capacity_bytes_;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.negative_loads += s.negative_loads;
    out.quarantined_tiles += static_cast<long long>(s.quarantined.size());
    out.quarantine_hits += s.quarantine_hits;
    out.bytes_cached += s.bytes;
  }
  out.fresh_buffers = free_->fresh.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(free_->mu);
  out.free_bytes = free_->bytes;
  return out;
}

void BlockCache::clear() {
  for (Shard& s : shards_) {
    std::list<Entry> dropped;  // released after the lock, like evictions
    std::lock_guard<std::mutex> lk(s.mu);
    dropped.swap(s.lru);
    s.index.clear();
    s.bytes = 0;
  }
}

}  // namespace gapsp::core
