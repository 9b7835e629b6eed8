// Reference z1 decoder for the equivalence tests: the straightforward
// three-pass form (LZ sequences into byte planes, a separate plane join,
// then util::word_hash over the output) with a byte-serial pattern build
// for match offsets 2–7 and 8-byte match copies from offset 8 on. The
// library keeps one decoder, core::z1_decompress; this copy lives only in
// the tests, which require the library to decode every frame to the same
// bytes and to reject exactly the frames this one rejects.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/z1_codec.h"
#include "util/common.h"

namespace gapsp::test {
namespace z1_reference {

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

[[noreturn]] inline void bad_frame(const char* what) {
  throw CorruptError(std::string("z1 reference frame: ") + what);
}

inline std::uint32_t unzigzag(std::uint32_t z) {
  return (z >> 1) ^ (0u - (z & 1));
}

/// Copies a `len`-byte match from `offset` bytes back, with `room` bytes
/// of output from `d` on; the caller has checked the source and `len`.
inline void copy_match(std::uint8_t* d, std::size_t offset, std::size_t len,
                       std::size_t room) {
  if (offset == 1) {
    std::memset(d, d[-1], len);
    return;
  }
  std::uint8_t* const end = d + len;
  std::uint8_t* const stop =
      room - len >= 7 ? end : end - std::min<std::size_t>(len, 7);
  if (offset >= 8) {
    for (; d < stop; d += 8) std::memcpy(d, d - offset, 8);
  } else {
    const std::uint8_t* const src = d - offset;
    std::uint8_t pattern[8];
    for (std::size_t i = 0; i < 8; ++i) pattern[i] = src[i % offset];
    const std::size_t step = 8 - 8 % offset;
    for (; d < stop; d += step) std::memcpy(d, pattern, 8);
  }
  for (; d < end; ++d) *d = *(d - offset);
}

/// Decodes the sequences in [ip, end) into exactly `dst_len` bytes.
inline void lz_decompress(const std::uint8_t* ip,
                          const std::uint8_t* const end, std::uint8_t* dst,
                          std::size_t dst_len) {
  std::size_t op = 0;
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
    if (nlit > static_cast<std::size_t>(end - ip)) {
      bad_frame("literals overrun input");
    }
    if (nlit > dst_len - op) bad_frame("literals overrun output");
    if (nlit <= 16 && end - ip >= 16 && dst_len - op >= 16) {
      std::memcpy(dst + op, ip, 16);
    } else {
      std::memcpy(dst + op, ip, nlit);
    }
    ip += nlit;
    op += nlit;
    if (ip == end) break;
    if (end - ip < 2) bad_frame("truncated offset");
    const std::size_t offset = static_cast<std::size_t>(ip[0]) |
                               (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) bad_frame("offset outside produced output");
    std::size_t match_len = (token & 0x0f) + 4;
    if ((token & 0x0f) == 15) match_len = read_extension(match_len);
    if (match_len > dst_len - op) bad_frame("match overruns output");
    copy_match(dst + op, offset, match_len, dst_len - op);
    op += match_len;
  }
  if (op != dst_len) bad_frame("short output");
}

/// The inverse of the encoder's plane split, into `dst`: the first row,
/// then each row from the complete row above it.
inline void join_planes(const std::uint8_t* planes, std::size_t elems,
                        std::size_t row, std::uint8_t* dst) {
  const auto word = [planes, elems](std::size_t i) {
    return static_cast<std::uint32_t>(planes[i]) |
           static_cast<std::uint32_t>(planes[elems + i]) << 8 |
           static_cast<std::uint32_t>(planes[2 * elems + i]) << 16 |
           static_cast<std::uint32_t>(planes[3 * elems + i]) << 24;
  };
  const std::size_t head = row == 0 ? elems : row;
  for (std::size_t i = 0; i < head; ++i) store32(dst + 4 * i, word(i));
  for (std::size_t i = head; i < elems; ++i) {
    store32(dst + 4 * i, unzigzag(word(i)) + load32(dst + 4 * (i - row)));
  }
}

/// Decodes a whole frame into `dst` (`dst_len` bytes). The header rules
/// are the library's own (core::z1_raw_size validates them); everything
/// after the header is this file's.
inline void decompress(const std::uint8_t* frame, std::size_t frame_len,
                       void* dst_v, std::size_t dst_len) {
  if (core::z1_raw_size(frame, frame_len) != dst_len) {
    bad_frame("destination size mismatch");
  }
  std::uint64_t word = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&word, frame, sizeof(word));
  std::memcpy(&checksum, frame + 8, sizeof(checksum));
  const std::uint64_t tag = (word >> 32) & 3;
  const std::size_t row = static_cast<std::size_t>(word >> 34);
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  const std::uint8_t* body = frame + 16;
  const std::uint8_t* end = frame + frame_len;
  if (tag == 2 || tag == 3) {
    std::vector<std::uint8_t> planes(dst_len);
    lz_decompress(body, end, planes.data(), dst_len);
    join_planes(planes.data(), dst_len / 4, row, dst);
  } else {
    lz_decompress(body, end, dst, dst_len);
  }
  const std::uint64_t sum = tag == 0 ? util::fnv1a(dst, dst_len)
                                     : util::word_hash(dst, dst_len);
  if (sum != checksum) bad_frame("content checksum mismatch");
}

}  // namespace z1_reference
}  // namespace gapsp::test
