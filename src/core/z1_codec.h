// The z1 codec: a hand-rolled LZ4-style byte compressor shared by the
// GAPSPZ1 at-rest store (compressed_store.h) and the compressed host↔device
// transfer path (transfer_codec.h). Factored out of the store so working
// tiles of any size/alignment can ride the same frames.
//
// Frame layout:
//   frame := u64 raw_len | u64 fnv1a(raw) | sequences
//   sequence := token (hi nibble literal count, lo nibble match length − 4,
//               15 = extended by 255-continuation bytes) | literal-length
//               extension | literals | u16 LE offset | match-length extension
// The final sequence is literals only: the stream ends immediately after
// them. Matches are greedy hash-probed with a fast path for 4-byte-periodic
// runs (kInf blocks match themselves at offset 4 without hashing every
// position). Decoding is strictly bounds-checked: truncated or corrupt
// frames throw CorruptError and never read or write out of bounds.
//
// Incompressible early-out: before the greedy match, the encoder runs a
// cheap sampled-entropy probe (z1_probe_compressible). Tiles the probe
// rejects — R-MAT-dense weight blocks, random payloads — are emitted as a
// single literal-only sequence without ever probing the hash table, so a
// raw-fallback decision upstream pays the probe, not a full compression.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gapsp::core {

/// Cheap compressibility probe: samples up to a few KiB of `src` at an even
/// stride and estimates the byte entropy plus the 4-byte-periodic run mass.
/// Returns false when the sample says the greedy matcher cannot win (near
/// 8 bits/byte and no periodic structure). Conservative on purpose: a false
/// "compressible" costs one wasted match pass, a false "incompressible"
/// would forfeit real ratio, so the threshold sits close to 8 bits.
bool z1_probe_compressible(const void* src, std::size_t len);

/// Compresses `len` bytes at `src` into a self-describing z1 frame,
/// replacing the contents of `out` (capacity is reused across calls).
/// Applies the incompressible early-out: rejected inputs become a
/// literal-only frame (slightly larger than raw) without any matching.
void z1_compress(const void* src, std::size_t len,
                 std::vector<std::uint8_t>& out);

/// Convenience form returning a fresh frame.
std::vector<std::uint8_t> z1_compress(const void* src, std::size_t len);

/// Worst-case frame size for `len` raw bytes (literal-only frame plus
/// header and length-extension overhead) — what a reused output buffer
/// must be able to hold.
std::size_t z1_max_compressed_size(std::size_t len);

/// Decompressed size recorded in a frame header, safe to size a buffer
/// from. Throws CorruptError when the frame is too short to carry a header,
/// or when the size exceeds the 255 bytes per sequence byte that any frame
/// of this length can decode to.
std::uint64_t z1_raw_size(const std::uint8_t* frame, std::size_t frame_len);

/// Decompresses a frame into `dst` (`dst_len` must equal z1_raw_size).
/// Throws CorruptError on truncation, malformed sequences, or a content
/// checksum mismatch — never reads past `frame + frame_len` or writes past
/// `dst + dst_len`.
void z1_decompress(const std::uint8_t* frame, std::size_t frame_len,
                   void* dst, std::size_t dst_len);

}  // namespace gapsp::core
