#include "core/z1_codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/common.h"

namespace gapsp::core {
namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u64 raw_len + u64 checksum
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

// Transform tags, in bits 32–33 of the raw_len word; a row-delta frame
// keeps its row width (in 32-bit elements) in bits 34–63.
enum Tag : std::uint32_t {
  kUntagged = 0,
  kPlain = 1,
  kPlanes = 2,
  kRowDelta = 3,
};
constexpr int kTagShift = 32;
constexpr int kRowShift = 34;

// Probe tuning: inputs below kProbeMinLen skip the probe (compressing them
// is cheaper than being wrong), larger ones are sampled at ~kProbeSamples
// points. The entropy threshold sits near 8 bits/byte so only genuinely
// structureless data is rejected — a borderline tile still gets the full
// match pass rather than forfeiting ratio.
constexpr std::size_t kProbeMinLen = 1024;
constexpr std::size_t kProbeSamples = 4096;
constexpr double kProbeEntropyBits = 7.2;

/// One scratch buffer per thread for the byte planes a frame is matched
/// over (encode) or decoded into (decode); the two never nest.
thread_local std::vector<std::uint8_t> tls_planes;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

std::size_t hash32(std::uint32_t v) {
  return static_cast<std::size_t>((v * 2654435761u) >> (32 - kHashBits));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void put_len_extension(std::vector<std::uint8_t>& out, std::size_t rem) {
  while (rem >= 255) {
    out.push_back(255);
    rem -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(rem));
}

/// One sequence: literals then (unless final) a back-reference match.
void emit_sequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
                   std::size_t nlit, std::size_t match_len,
                   std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(nlit, 15);
  std::size_t match_nib = 0;
  if (match_len > 0) {
    match_nib = std::min<std::size_t>(match_len - kMinMatch, 15);
  }
  out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) put_len_extension(out, nlit - 15);
  out.insert(out.end(), lit, lit + nlit);
  if (match_len == 0) return;  // final literal-only sequence: stream ends here
  out.push_back(static_cast<std::uint8_t>(offset & 0xff));
  out.push_back(static_cast<std::uint8_t>(offset >> 8));
  if (match_nib == 15) put_len_extension(out, match_len - kMinMatch - 15);
}

[[noreturn]] void bad_frame(const char* what) {
  // Typed CorruptError (not plain IoError): a malformed frame is persistent
  // damage — the serving tier quarantines/repairs instead of retrying.
  throw CorruptError(std::string("z1 frame: ") + what);
}

/// How many leading bytes of `a` and `b` agree, up to `limit`, compared a
/// word at a time.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t diff = load64(a + n) ^ load64(b + n);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return n + static_cast<std::size_t>(bits / 8);
    }
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

std::uint32_t zigzag(std::uint32_t d) { return (d << 1) ^ (0u - (d >> 31)); }
std::uint32_t unzigzag(std::uint32_t z) { return (z >> 1) ^ (0u - (z & 1)); }

/// The `elems` 32-bit words at `src` as four byte planes at `planes` (every
/// word's low byte, then every second byte, ...). With `row` > 0, each word
/// from the second row on first becomes the zigzag of its difference from
/// the word one row above, mod 2^32.
void split_planes(const std::uint8_t* src, std::size_t elems,
                  std::size_t row, std::uint8_t* planes) {
  const std::size_t head = row == 0 ? elems : row;
#pragma omp simd
  for (std::size_t i = 0; i < elems; ++i) {
    std::uint32_t v = load32(src + 4 * i);
    if (i >= head) v = zigzag(v - load32(src + 4 * (i - row)));
    planes[i] = static_cast<std::uint8_t>(v);
    planes[elems + i] = static_cast<std::uint8_t>(v >> 8);
    planes[2 * elems + i] = static_cast<std::uint8_t>(v >> 16);
    planes[3 * elems + i] = static_cast<std::uint8_t>(v >> 24);
  }
}

/// Inverse of split_planes, into `dst`: the first row, then each row from
/// the complete row above it.
void join_planes(const std::uint8_t* planes, std::size_t elems,
                 std::size_t row, std::uint8_t* dst) {
  const auto word = [planes, elems](std::size_t i) {
    return static_cast<std::uint32_t>(planes[i]) |
           static_cast<std::uint32_t>(planes[elems + i]) << 8 |
           static_cast<std::uint32_t>(planes[2 * elems + i]) << 16 |
           static_cast<std::uint32_t>(planes[3 * elems + i]) << 24;
  };
  const std::size_t head = row == 0 ? elems : row;
#pragma omp simd
  for (std::size_t i = 0; i < head; ++i) store32(dst + 4 * i, word(i));
  for (std::size_t r0 = head; r0 < elems; r0 += row) {
    const std::size_t r1 = std::min(elems, r0 + row);
#pragma omp simd
    for (std::size_t i = r0; i < r1; ++i) {
      store32(dst + 4 * i, unzigzag(word(i)) + load32(dst + 4 * (i - row)));
    }
  }
}

/// Greedy LZ over `len` bytes at `src`, appended to `out` as sequences.
void lz_compress(const std::uint8_t* src, std::size_t len,
                 std::vector<std::uint8_t>& out) {
  std::vector<std::uint32_t> table(1u << kHashBits, 0);  // position + 1
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  // Matches must not start within the last kMinMatch bytes (nothing to
  // compare a 4-byte probe against); those trail out as final literals.
  const std::size_t match_limit = len >= kMinMatch ? len - kMinMatch + 1 : 0;
  while (pos < match_limit) {
    std::size_t match_pos = 0;
    bool found = false;
    // Fast path for 4-byte-periodic runs: a tile of kInf (or any constant
    // dist_t region, or a run of zeros in a byte plane) matches itself at
    // offset 4, so long runs are consumed without probing the hash table
    // at every byte.
    if (pos >= 4 && load32(src + pos) == load32(src + pos - 4)) {
      match_pos = pos - 4;
      found = true;
    } else {
      const std::uint32_t v = load32(src + pos);
      const std::size_t h = hash32(v);
      const std::uint32_t cand = table[h];
      table[h] = static_cast<std::uint32_t>(pos + 1);
      if (cand != 0) {
        const std::size_t c = cand - 1;
        if (pos - c <= kMaxOffset && load32(src + c) == v) {
          match_pos = c;
          found = true;
        }
      }
    }
    if (!found) {
      ++pos;
      continue;
    }
    const std::size_t match_len =
        kMinMatch + common_prefix(src + match_pos + kMinMatch,
                                  src + pos + kMinMatch, len - pos - kMinMatch);
    emit_sequence(out, src + lit_start, pos - lit_start, match_len,
                  pos - match_pos);
    // Seed the table at the match head so the next occurrence of this
    // content is findable; skipping the interior keeps compression O(len).
    if (pos + match_len < match_limit) {
      table[hash32(load32(src + pos))] = static_cast<std::uint32_t>(pos + 1);
    }
    pos += match_len;
    lit_start = pos;
  }
  // The stream must end with a literal-only sequence (possibly empty): the
  // decoder recognizes the end of the frame as "input exhausted right after
  // the literals".
  emit_sequence(out, src + lit_start, len - lit_start, 0, 0);
}

/// Copies a `len`-byte match from `offset` bytes back, a word at a time
/// where the offset allows. The caller has checked that the source lies in
/// produced output and the destination inside the buffer.
void copy_match(std::uint8_t* d, std::size_t offset, std::size_t len) {
  if (offset >= 8) {
    // Each 8-byte load ends at or before the store it feeds begins.
    for (; len >= 8; d += 8, len -= 8) {
      std::memcpy(d, d - offset, 8);
    }
  } else if (offset == 4) {
    // The 4-byte period of kInf runs and zero planes, replicated.
    const std::uint64_t word = load32(d - 4) * 0x100000001ULL;
    for (; len >= 8; d += 8, len -= 8) std::memcpy(d, &word, 8);
  }
  // Short offsets copy the run they are producing, byte by byte.
  for (; len > 0; ++d, --len) *d = *(d - offset);
}

/// Decodes the sequences in [ip, end) into exactly `dst_len` bytes.
void lz_decompress(const std::uint8_t* ip, const std::uint8_t* const end,
                   std::uint8_t* dst, std::size_t dst_len) {
  std::size_t op = 0;

  // Bounds-checked 255-continuation length reader. The accumulated value is
  // capped by the output that could still legally be produced, so a
  // malicious run of 0xff bytes cannot overflow the accumulator.
  const auto read_extension = [&](std::size_t base) -> std::size_t {
    std::size_t v = base;
    while (true) {
      if (ip >= end) bad_frame("truncated length");
      const std::uint8_t b = *ip++;
      v += b;
      if (v > dst_len) bad_frame("length exceeds output");
      if (b != 255) return v;
    }
  };

  if (dst_len == 0) {
    if (ip != end) bad_frame("trailing bytes after empty frame");
    return;
  }
  while (true) {
    if (ip >= end) bad_frame("missing final sequence");
    const std::uint8_t token = *ip++;
    std::size_t nlit = token >> 4;
    if (nlit == 15) nlit = read_extension(15);
    if (nlit > static_cast<std::size_t>(end - ip)) bad_frame("literals overrun input");
    if (nlit > dst_len - op) bad_frame("literals overrun output");
    if (nlit <= 16 && end - ip >= 16 && dst_len - op >= 16) {
      // A fixed 16-byte copy beats a call for the short literal runs most
      // sequences carry. The bytes past nlit lie inside the output, and
      // the sequences after this one overwrite them.
      std::memcpy(dst + op, ip, 16);
    } else {
      std::memcpy(dst + op, ip, nlit);
    }
    ip += nlit;
    op += nlit;
    if (ip == end) break;  // final sequence carries no match
    if (end - ip < 2) bad_frame("truncated offset");
    const std::size_t offset =
        static_cast<std::size_t>(ip[0]) | (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) bad_frame("offset outside produced output");
    std::size_t match_len = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15) match_len = read_extension(match_len);
    if (match_len > dst_len - op) bad_frame("match overruns output");
    copy_match(dst + op, offset, match_len);
    op += match_len;
  }
  if (op != dst_len) bad_frame("short output");
}

/// A validated frame header.
struct FrameHeader {
  std::uint64_t raw_len = 0;
  Tag tag = kUntagged;
  std::size_t row = 0;  ///< row width in elements (kRowDelta only)
  std::uint64_t checksum = 0;
};

FrameHeader read_header(const std::uint8_t* frame, std::size_t frame_len) {
  if (frame_len < kFrameHeaderBytes) bad_frame("truncated header");
  const std::uint64_t word = get_u64(frame);
  FrameHeader h;
  h.raw_len = word & 0xffffffffULL;
  h.tag = static_cast<Tag>((word >> kTagShift) & 3);
  h.row = static_cast<std::size_t>(word >> kRowShift);
  h.checksum = get_u64(frame + 8);
  if (h.tag == kUntagged && (word >> kTagShift) != 0) {
    bad_frame("high bits set on an untagged frame");
  }
  if (h.tag != kRowDelta && h.row != 0) {
    bad_frame("row width on a frame without row delta");
  }
  if ((h.tag == kPlanes || h.tag == kRowDelta) && h.raw_len % 4 != 0) {
    bad_frame("byte planes of a length that is not a multiple of 4");
  }
  if (h.tag == kRowDelta && (h.row == 0 || h.row >= h.raw_len / 4)) {
    bad_frame("row width outside the element count");
  }
  // No sequence byte decodes to more than 255 bytes (one match-length
  // continuation), so a larger raw_len is forged.
  if (h.raw_len / 255 > frame_len - kFrameHeaderBytes) {
    bad_frame("raw length exceeds what the frame can decode to");
  }
  return h;
}

}  // namespace

bool z1_probe_compressible(const void* src_v, std::size_t len) {
  if (len < kProbeMinLen) return true;
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  // Odd stride so the samples rotate through the byte lanes of any 4-byte
  // element structure instead of pinning to one lane.
  const std::size_t stride =
      std::max<std::size_t>(1, len / kProbeSamples) | 1u;
  std::uint32_t hist[256] = {};
  std::size_t count = 0;
  std::size_t periodic = 0;
  for (std::size_t i = 0; i < len; i += stride) {
    ++hist[src[i]];
    ++count;
    if (i >= 4 && src[i] == src[i - 4]) ++periodic;
  }
  // 4-byte-periodic mass (kInf runs, constant dist_t regions) compresses
  // regardless of what the byte histogram says.
  if (periodic * 2 >= count) return true;
  double entropy = 0.0;
  for (std::uint32_t c : hist) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(count);
    entropy -= p * std::log2(p);
  }
  return entropy < kProbeEntropyBits;
}

void z1_compress(const void* src_v, std::size_t len,
                 std::vector<std::uint8_t>& out, std::size_t row_elems) {
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  GAPSP_CHECK(len < (1ull << 32) - 2, "z1 input too large");
  out.clear();
  out.reserve(kFrameHeaderBytes + len / 4 + 64);
  const bool compressible = len > 0 && z1_probe_compressible(src, len);
  std::uint64_t word = len | std::uint64_t{kPlain} << kTagShift;
  const std::uint8_t* body = src;
  if (compressible && len % 4 == 0) {
    const std::size_t elems = len / 4;
    const std::size_t row = row_elems < elems ? row_elems : 0;
    word = len | std::uint64_t{row == 0 ? kPlanes : kRowDelta} << kTagShift |
           std::uint64_t{row} << kRowShift;
    tls_planes.resize(len);
    split_planes(src, elems, row, tls_planes.data());
    body = tls_planes.data();
  }
  put_u64(out, word);
  put_u64(out, util::word_hash(src, len));
  if (len == 0) return;
  if (!compressible) {
    // Incompressible early-out: one literal-only sequence, no matching.
    emit_sequence(out, src, len, 0, 0);
    return;
  }
  lz_compress(body, len, out);
}

std::vector<std::uint8_t> z1_compress(const void* src, std::size_t len,
                                      std::size_t row_elems) {
  std::vector<std::uint8_t> out;
  z1_compress(src, len, out, row_elems);
  return out;
}

std::uint64_t z1_raw_size(const std::uint8_t* frame, std::size_t frame_len) {
  return read_header(frame, frame_len).raw_len;
}

void z1_decompress(const std::uint8_t* frame, std::size_t frame_len,
                   void* dst_v, std::size_t dst_len) {
  const FrameHeader h = read_header(frame, frame_len);
  if (h.raw_len != dst_len) bad_frame("destination size mismatch");
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  const std::uint8_t* body = frame + kFrameHeaderBytes;
  const std::uint8_t* end = frame + frame_len;
  if (h.tag == kPlanes || h.tag == kRowDelta) {
    tls_planes.resize(dst_len);
    lz_decompress(body, end, tls_planes.data(), dst_len);
    join_planes(tls_planes.data(), dst_len / 4, h.row, dst);
  } else {
    lz_decompress(body, end, dst, dst_len);
  }
  // The checksum covers the raw output, so it checks the inverse transform
  // as well as the sequences.
  const std::uint64_t sum = h.tag == kUntagged ? util::fnv1a(dst, dst_len)
                                               : util::word_hash(dst, dst_len);
  if (sum != h.checksum) bad_frame("content checksum mismatch");
}

}  // namespace gapsp::core
