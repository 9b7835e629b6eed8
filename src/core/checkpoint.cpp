#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "core/compressed_store.h"
#include "util/file_io.h"

namespace gapsp::core {
namespace {

constexpr char kMagic[8] = {'G', 'A', 'P', 'S', 'P', 'C', 'K', '1'};

/// flags bit: the stored payload is a z1 frame (compressed_store.h) and
/// must be decompressed on read. Boundary dist2/dist3 blobs are distance
/// data with long kInf runs — compressing them cuts chaos-resume I/O.
constexpr std::uint32_t kPayloadCompressed = 1u << 0;

/// Fixed-size portion of the sidecar, written raw (checkpoints are consumed
/// on the machine that wrote them, like CUDA's binary dumps).
struct Header {
  char magic[8];
  std::uint32_t algorithm;
  std::uint32_t flags;
  std::uint64_t fingerprint;
  std::int64_t n;
  std::int64_t progress;
  std::int64_t aux0;
  std::int64_t aux1;
  std::uint64_t payload_bytes;  ///< bytes stored on disk (post-compression)
};
static_assert(sizeof(Header) == 64, "sidecar header layout drifted");

}  // namespace

std::uint64_t graph_fingerprint(const graph::CsrGraph& g) {
  const std::int64_t shape[2] = {g.num_vertices(), g.num_edges()};
  std::uint64_t h = util::fnv1a(shape, sizeof(shape));
  h = util::fnv1a(g.offsets().data(), g.offsets().size_bytes(), h);
  h = util::fnv1a(g.targets().data(), g.targets().size_bytes(), h);
  h = util::fnv1a(g.edge_weights().data(), g.edge_weights().size_bytes(), h);
  return h;
}

void write_checkpoint(const std::string& path, const Checkpoint& ck) {
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.algorithm = ck.algorithm;
  h.fingerprint = ck.fingerprint;
  h.n = ck.n;
  h.progress = ck.progress;
  h.aux0 = ck.aux0;
  h.aux1 = ck.aux1;
  // Compress the payload at this sink when it pays for itself; a payload
  // that random data defeats is stored raw so the sidecar never grows.
  const std::vector<std::uint8_t>* body = &ck.payload;
  std::vector<std::uint8_t> z;
  if (!ck.payload.empty()) {
    z = z1_compress(ck.payload.data(), ck.payload.size());
    if (z.size() < ck.payload.size()) {
      body = &z;
      h.flags |= kPayloadCompressed;
    }
  }
  h.payload_bytes = body->size();
  // Content checksum over header+payload so a torn write is detected on
  // read instead of resuming from garbage progress.
  const std::uint64_t sum = util::fnv1a(
      body->data(), body->size(), util::fnv1a(&h, sizeof(h)));

  // The sidecar at `path` is either the previous complete checkpoint or the
  // new complete one, never a partial write (a crash mid-checkpoint must not
  // poison resume).
  util::atomic_replace(path, [&](util::File& file) {
    file.pwrite_exact(&h, sizeof(h), 0);
    file.pwrite_exact(body->data(), body->size(), sizeof(h));
    file.pwrite_exact(&sum, sizeof(sum), sizeof(h) + body->size());
  });
}

bool read_checkpoint(const std::string& path, Checkpoint* ck) {
  Header h{};
  std::vector<std::uint8_t> payload;
  try {
    const auto file = util::File::open_if_present(path);
    if (!file) return false;  // no sidecar: start fresh
    // Bound the payload by the actual file size before allocating. The
    // subtraction cannot wrap once the fixed parts are known to fit.
    constexpr std::uint64_t kFixedBytes =
        sizeof(Header) + sizeof(std::uint64_t);
    const std::uint64_t size = file->size();
    if (size < kFixedBytes) return false;
    file->pread_exact(&h, sizeof(h), 0);
    if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) return false;
    if (h.payload_bytes != size - kFixedBytes) return false;
    payload.resize(static_cast<std::size_t>(h.payload_bytes));
    file->pread_exact(payload.data(), payload.size(), sizeof(Header));
    std::uint64_t stored_sum = 0;
    file->pread_exact(&stored_sum, sizeof(stored_sum),
                      sizeof(Header) + payload.size());
    const std::uint64_t sum = util::fnv1a(payload.data(), payload.size(),
                                          util::fnv1a(&h, sizeof(h)));
    if (sum != stored_sum) return false;  // torn/corrupt sidecar
    if ((h.flags & ~kPayloadCompressed) != 0) return false;  // unknown flags
    if ((h.flags & kPayloadCompressed) != 0) {
      std::vector<std::uint8_t> raw(static_cast<std::size_t>(
          z1_raw_size(payload.data(), payload.size())));
      z1_decompress(payload.data(), payload.size(), raw.data(), raw.size());
      payload = std::move(raw);
    }
  } catch (const IoError&) {
    return false;  // unreadable or corrupt frame: start fresh, like any damage
  }

  ck->algorithm = h.algorithm;
  ck->fingerprint = h.fingerprint;
  ck->n = h.n;
  ck->progress = h.progress;
  ck->aux0 = h.aux0;
  ck->aux1 = h.aux1;
  ck->payload = std::move(payload);
  return true;
}

void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());  // ENOENT is fine
}

}  // namespace gapsp::core
