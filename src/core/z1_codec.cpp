#include "core/z1_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/common.h"

namespace gapsp::core {
namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u64 raw_len + u64 checksum
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

// Probe tuning: inputs below kProbeMinLen skip the probe (compressing them
// is cheaper than being wrong), larger ones are sampled at ~kProbeSamples
// points. The entropy threshold sits near 8 bits/byte so only genuinely
// structureless data is rejected — a borderline tile still gets the full
// match pass rather than forfeiting ratio.
constexpr std::size_t kProbeMinLen = 1024;
constexpr std::size_t kProbeSamples = 4096;
constexpr double kProbeEntropyBits = 7.2;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
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

std::size_t z1_max_compressed_size(std::size_t len) {
  // Literal-only frame: header, token, 255-continuation extension, literals.
  return kFrameHeaderBytes + 1 + (len / 255 + 1) + len;
}

void z1_compress(const void* src_v, std::size_t len,
                 std::vector<std::uint8_t>& out) {
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  out.clear();
  out.reserve(kFrameHeaderBytes + len / 4 + 64);
  GAPSP_CHECK(len < (1ull << 32) - 2, "z1 input too large");
  put_u64(out, len);
  put_u64(out, util::fnv1a(src, len));
  if (len == 0) return;

  if (!z1_probe_compressible(src, len)) {
    // Incompressible early-out: one literal-only sequence, no matching.
    emit_sequence(out, src, len, 0, 0);
    return;
  }

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
    // dist_t region) matches itself at offset 4, so long runs are consumed
    // without probing the hash table at every byte.
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
    std::size_t match_len = kMinMatch;
    while (pos + match_len < len &&
           src[match_pos + match_len] == src[pos + match_len]) {
      ++match_len;
    }
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

std::vector<std::uint8_t> z1_compress(const void* src, std::size_t len) {
  std::vector<std::uint8_t> out;
  z1_compress(src, len, out);
  return out;
}

std::uint64_t z1_raw_size(const std::uint8_t* frame, std::size_t frame_len) {
  if (frame_len < kFrameHeaderBytes) bad_frame("truncated header");
  // No sequence byte decodes to more than 255 bytes (one match-length
  // continuation), so a larger raw_len is forged.
  const std::uint64_t raw_len = get_u64(frame);
  if (raw_len / 255 > frame_len - kFrameHeaderBytes) {
    bad_frame("raw length exceeds what the frame can decode to");
  }
  return raw_len;
}

void z1_decompress(const std::uint8_t* frame, std::size_t frame_len,
                   void* dst_v, std::size_t dst_len) {
  if (frame_len < kFrameHeaderBytes) bad_frame("truncated header");
  const std::uint64_t raw_len = get_u64(frame);
  const std::uint64_t want_sum = get_u64(frame + 8);
  if (raw_len != dst_len) bad_frame("destination size mismatch");
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  const std::uint8_t* ip = frame + kFrameHeaderBytes;
  const std::uint8_t* const end = frame + frame_len;
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

  if (raw_len == 0) {
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
    std::memcpy(dst + op, ip, nlit);
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
    // Byte-by-byte on purpose: offsets shorter than the match length copy
    // the run they are producing (the kInf fast path emits offset 4).
    const std::uint8_t* from = dst + op - offset;
    for (std::size_t i = 0; i < match_len; ++i) dst[op + i] = from[i];
    op += match_len;
  }
  if (op != raw_len) bad_frame("short output");
  if (util::fnv1a(dst, dst_len) != want_sum) {
    bad_frame("content checksum mismatch");
  }
}

}  // namespace gapsp::core
