// The z1 codec: a hand-rolled LZ4-style byte compressor shared by the
// GAPSPZ1 at-rest store (compressed_store.h) and the compressed host↔device
// transfer path (transfer_codec.h). Factored out of the store so working
// tiles of any size/alignment can ride the same frames.
//
// Frame layout:
//   frame := u64 raw_len word | u64 checksum | sequences
//   raw_len word := bits 0–31 raw length (inputs are checked below 2^32)
//                 | bits 32–33 transform tag | bits 34–63 row width
//   sequence := token (hi nibble literal count, lo nibble match length − 4,
//               15 = extended by 255-continuation bytes) | literal-length
//               extension | literals | u16 LE offset | match-length extension
// The final sequence is literals only: the stream ends immediately after
// them.
//
// Transform tags (what the sequences decode to, and the checksum):
//   tag  name       sequences decode to                     checksum
//   0    untagged   the raw bytes                           fnv1a(raw)
//   1    plain      the raw bytes                           word_hash(raw)
//   2    planes     the four byte planes of the raw words   word_hash(raw)
//   3    row delta  planes of the zigzag row deltas         word_hash(raw)
// The row width (in 32-bit elements) is nonzero only under tag 3, and lies
// in [1, raw_len / 4). Under tags 2 and 3, raw_len is a multiple of 4. A
// header that breaks any of these rules is corrupt. The encoder never
// writes tag 0; every frame written before tags existed is tag 0 (its high
// bits are zero) and decodes exactly as it always did.
//
// The encoder follows one fixed rule: input the probe below rejects, or
// whose length is not a multiple of 4, is tagged plain; all other input is
// split into its four byte planes (a distance tile's high bytes are nearly
// constant, so each plane compresses far better than the interleaved
// words); and when the caller passes a row width below the element count,
// each row first becomes the zigzag-coded difference from the row above,
// mod 2^32 so kInf and every other word inverts exactly. Nearby vertices
// have nearby distance rows (|d(u,x) − d(v,x)| ≤ d(u,v)), so on a road
// tile those deltas are mostly tiny.
//
// Matches are greedy hash-probed with a fast path for 4-byte-periodic runs
// (kInf blocks and zero planes match themselves at offset 4 without hashing
// every position). Decoding copies matches without dividing: offset 1 as a
// memset, offsets 2–7 from one 8-byte pattern built by doubling the period
// and stored at a step from a table, 8-byte words from offset 8, and
// 16-byte chunks from offset 16 (a match of up to 32 bytes with 32 bytes
// of room is two fixed copies). Under tags 2 and 3, one pass then joins
// the planes, undoes the row delta, stores the words and feeds the word
// hash 16 words at a time, so the output is produced and checksummed
// together. On x86-64 a group wholly in the head row, or wholly below it
// with a row width of at least 16 (so it reads only earlier groups), is
// joined with SSE2, the x86-64 baseline; the group that holds the head
// row's end, every group of a row narrower than 16 words, and every group
// on another target are joined in vector loops over row spans no word of
// which reads another. Decoding is strictly bounds-checked per sequence:
// truncated or corrupt frames throw CorruptError and never read or write
// out of bounds.
// The checksum covers the raw output, so it also checks the inverse
// transform.
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
/// `row_elems` is the row width, in 32-bit elements, of the matrix the
/// input holds row-major (0 = no row structure): it turns on the row delta
/// when it is below the element count. Applies the incompressible
/// early-out: rejected inputs become a literal-only frame (slightly larger
/// than raw) without any matching.
void z1_compress(const void* src, std::size_t len,
                 std::vector<std::uint8_t>& out, std::size_t row_elems = 0);

/// Convenience form returning a fresh frame.
std::vector<std::uint8_t> z1_compress(const void* src, std::size_t len,
                                      std::size_t row_elems = 0);

/// Decompressed size recorded in a frame header, safe to size a buffer
/// from. Throws CorruptError when the frame is too short to carry a header,
/// when the header breaks a tag rule above, or when the size exceeds the
/// 255 bytes per sequence byte that any frame of this length can decode to.
std::uint64_t z1_raw_size(const std::uint8_t* frame, std::size_t frame_len);

/// Decompresses a frame into `dst` (`dst_len` must equal z1_raw_size).
/// Throws CorruptError on truncation, malformed sequences, or a content
/// checksum mismatch — never reads past `frame + frame_len` or writes past
/// `dst + dst_len`.
void z1_decompress(const std::uint8_t* frame, std::size_t frame_len,
                   void* dst, std::size_t dst_len);

}  // namespace gapsp::core
