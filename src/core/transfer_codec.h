// Compressed host↔device transfer path: z1 tiles through the pinned
// staging lanes with decompress-on-device.
//
// The out-of-core drivers are transfer-bound — the O(n_d·n²) movement term
// is what the PR-1 overlap engine can only hide, never shrink — while the
// tiles they ship raw every round compress 60×/5.4× at rest (GAPSPZ1, the
// kInf-heavy road and R-MAT families of bench_store_compression).
// This layer moves the compression onto the wire: each staged tile is
// z1-encoded on the host into a pinned wire buffer, charged on the link at
// its *wire* size, and materialized on device by a modeled decode kernel
// running at DeviceSpec::decode_gbps (Device::copy_z1). D2H returns encode
// on device and decode on the host side of the staging buffer. Transfer
// time becomes a function of tile entropy instead of n².
//
// Slices: a staged tile travels as independent ordinary z1 frames
// (u64 raw_len word | u64 word_hash(raw) | sequences, z1_codec.h), one per
// kTransferSliceBytes (64 KiB) of raw payload, the last one ragged. A
// slice carries no row width, so it is coded as byte planes without the
// row delta. Slices are what let the host codec run in parallel: they
// encode, decode and verify across ThreadPool::global() with the fan-out
// capped at Device::kernel_threads() (1 = the calling thread only),
// instead of one whole-tile frame on the solve thread. 64 KiB is the
// independent-chunk size GPU LZ decoders are built around (nvCOMP's
// batched LZ4 defaults to it), and it equals z1's u16 match window, so on
// the wire slicing costs only a 16-byte header and a cold match window
// per slice. The cold windows make one thread encode about 30 % slower
// than one frame per tile, which a pool of four threads more than repays.
// The wire size and the fallback test are sums over the slice frames, and
// neither depends on the thread count.
//
// Raw fallback: a tile only rides the compressed path when its frames beat
// the raw transfer under the device's own rates — the threshold
// wire < raw · (1 − link_bandwidth / decode_rate) is derived ("autotuned")
// from the attached DeviceSpec (wire_policy), and the sampled-entropy probe
// rejects incompressible tiles as a whole before any slice is matched.
// Fallback tiles go through the ordinary pinned lanes and are counted on
// both sides of the per-lane raw/wire byte split in DeviceMetrics, so the
// reported wire ratio is end-to-end honest.
//
// Held frames: the encoder is a pure function of its input, so a tile
// staged back in unchanged encodes into the frames its last stage-out
// shipped. stage_out can hand those frames to the caller, and stage_in can
// take them instead of the bytes: the same stage_in_z1 charge and the same
// per-slice decode and checksums, without the read-back and the encode.
// The blocked FW driver keeps them for the blocks of block row and column
// k and k+1 (ooc_fw.h).
//
// Failure semantics: the frames are the real carrier (the device buffer is
// produced by actually decoding them), and Device::copy_z1 runs its fault
// gates before materializing — a mid-decode fault retries the whole tile
// and never publishes a partial decode. See DESIGN.md §14.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stream_pipeline.h"

namespace gapsp::core {

enum class TransferCompression {
  kAuto,  ///< on when the device's decode rate beats its host link
  kOn,    ///< force the compressed path (per-tile raw fallback still applies)
  kOff,   ///< legacy raw transfers only
};

const char* transfer_compression_name(TransferCompression mode);

/// Parses "auto" | "on" | "off". Unknown names are hard errors (throws
/// gapsp::Error), matching the --kernel-variant convention.
TransferCompression parse_transfer_compression(const std::string& name);

/// Raw bytes per slice frame of the compressed transfer path.
inline constexpr std::size_t kTransferSliceBytes = std::size_t{64} << 10;

/// Whether `mode` engages the compressed path on a device at all, and the
/// autotuned per-tile fallback threshold: a tile rides compressed iff
/// wire < raw · max_wire_frac.
struct WirePolicy {
  bool enabled = false;
  double max_wire_frac = 0.0;
};

WirePolicy wire_policy(const sim::DeviceSpec& spec, TransferCompression mode);

/// A tile encoded for the wire: one z1 frame per kTransferSliceBytes slice.
struct SlicedFrames {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t wire_bytes = 0;  ///< sum of the frame sizes (0 = not encoded)
};

/// The compressed path's per-tile decision, shared by TransferCodec and
/// estimate_transfer_ratio so the selector prices exactly what the drivers
/// ship. Probes the whole tile, then encodes it slice by slice into `out`
/// across up to `threads` pool threads (0 = the whole pool, 1 = the calling
/// thread). Returns true when the frames beat raw · max_wire_frac; false
/// means the tile ships raw (probe rejected, empty, or frames too large).
bool encode_slices(const void* src, std::size_t bytes, double max_wire_frac,
                   int threads, SlicedFrames& out);

/// Decodes and verifies every frame of `in` into the `bytes` at `dst` (the
/// size `in` was encoded from), across up to `threads` pool threads. A bad
/// frame throws CorruptError on the calling thread once all slices ran.
void decode_slices(const SlicedFrames& in, void* dst, std::size_t bytes,
                   int threads);

class TransferCodec {
 public:
  /// Throws Error when `mode` engages the compressed path on a charge-only
  /// device (sim::Device::set_charge_only).
  TransferCodec(sim::Device& dev, TransferCompression mode);
  ~TransferCodec();
  TransferCodec(const TransferCodec&) = delete;
  TransferCodec& operator=(const TransferCodec&) = delete;

  /// True when tiles are considered for the compressed path at all.
  bool enabled() const { return policy_.enabled; }

  // ---- staged (async pinned-lane) transfers ----

  /// Stage `bytes` of pinned host `src` into device `dst` through `pipe`'s
  /// H2D lane, compressed when the frames win. Drop-in replacement for
  /// StreamPipeline::stage_in.
  sim::Event stage_in(sim::StreamPipeline& pipe, void* dst, const void* src,
                      std::size_t bytes);

  /// Stage `bytes` into device `dst` from `held`, frames an earlier
  /// stage_out shipped for those same bytes. The encoder is a pure function
  /// of its input, so this charges and decodes exactly what stage_in of the
  /// bytes would (the same wire size, per-slice decode and checksums)
  /// without reading or encoding them. A corrupt frame throws CorruptError.
  sim::Event stage_in(sim::StreamPipeline& pipe, void* dst,
                      const SlicedFrames& held, std::size_t bytes);

  /// Stage `bytes` of device `src` into pinned host `dst` through `pipe`'s
  /// D2H lane (encode-on-device when the frames win), ordered after `after`.
  /// Drop-in replacement for StreamPipeline::stage_out. When `shipped` is
  /// given and the tile rode the compressed path, the frames it shipped are
  /// swapped into *shipped (its old contents become the codec's next wire
  /// buffer); a tile that went raw leaves *shipped as it was.
  sim::Event stage_out(sim::StreamPipeline& pipe, void* dst, const void* src,
                       std::size_t bytes, sim::Event after,
                       SlicedFrames* shipped = nullptr);

  // ---- synchronous transfers (multi-device path) ----

  void h2d(sim::StreamId s, void* dst, const void* src, std::size_t bytes,
           bool pinned);
  void d2h(sim::StreamId s, void* dst, const void* src, std::size_t bytes,
           bool pinned);

 private:
  /// Encodes `src` into the wire frames; true when they beat the raw
  /// transfer under the autotuned threshold.
  bool encode_wins(const void* src, std::size_t bytes);
  /// Decodes `frames` into `dst` (copy_z1's materialize).
  void decode_into(const SlicedFrames& frames, void* dst,
                   std::size_t bytes) const;

  sim::Device* dev_;
  WirePolicy policy_;
  SlicedFrames wire_;  ///< pinned wire staging (accounted)
  std::size_t pinned_noted_ = 0;
};

}  // namespace gapsp::core
