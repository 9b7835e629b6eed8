#include "core/transfer_codec.h"

#include <algorithm>
#include <exception>
#include <functional>

#include "core/z1_codec.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace gapsp::core {
namespace {

/// Per-thread encode target. A worker emits its frame here and then swaps
/// it into its slot: emitting straight into adjacent SlicedFrames::frames
/// entries would bounce the shared cache lines holding their headers
/// between workers on every push_back.
thread_local std::vector<std::uint8_t> tls_frame;

std::size_t slice_count(std::size_t bytes) {
  return (bytes + kTransferSliceBytes - 1) / kTransferSliceBytes;
}

std::size_t slice_len(std::size_t bytes, std::size_t i) {
  return std::min(kTransferSliceBytes, bytes - i * kTransferSliceBytes);
}

/// Runs fn(i) for every slice, fanned out like Device::launch_grid: up to
/// `threads` pool threads (0 = the whole pool, 1 = the caller alone). An
/// exception escaping a pool worker would terminate the process, so each
/// slice's is captured and the first is rethrown on the caller.
void for_each_slice(std::size_t count, int threads,
                    const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(count);
  const auto guarded = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (count <= 1 || threads == 1) {
    for (std::size_t i = 0; i < count; ++i) guarded(i);
  } else {
    ThreadPool::global().parallel_for(
        count, guarded, /*grain=*/1,
        /*max_threads=*/threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

const char* transfer_compression_name(TransferCompression mode) {
  switch (mode) {
    case TransferCompression::kAuto:
      return "auto";
    case TransferCompression::kOn:
      return "on";
    case TransferCompression::kOff:
      return "off";
  }
  return "?";
}

TransferCompression parse_transfer_compression(const std::string& name) {
  if (name == "auto") return TransferCompression::kAuto;
  if (name == "on") return TransferCompression::kOn;
  if (name == "off") return TransferCompression::kOff;
  throw Error("unknown --transfer-compression '" + name +
              "' (expected auto|on|off)");
}

WirePolicy wire_policy(const sim::DeviceSpec& spec, TransferCompression mode) {
  const double decode_rate = spec.decode_gbps * 1e9;
  WirePolicy policy;
  switch (mode) {
    case TransferCompression::kOff:
      policy.enabled = false;
      break;
    case TransferCompression::kOn:
      policy.enabled = decode_rate > 0.0;
      break;
    case TransferCompression::kAuto:
      // Worth trying only when the decode kernel outruns the host link —
      // otherwise even a free frame loses to the raw transfer.
      policy.enabled = decode_rate > spec.link_bandwidth;
      break;
  }
  // Autotuned per-tile fallback threshold, from the attached device's own
  // rates: compressed wins iff wire/link + raw/decode < raw/link, i.e.
  // wire < raw · (1 − link/decode). Forcing the path on a device whose
  // decode cannot beat the link degenerates to always-fallback (frac 0).
  if (policy.enabled) {
    policy.max_wire_frac =
        std::max(0.0, 1.0 - spec.link_bandwidth / decode_rate);
  }
  return policy;
}

bool encode_slices(const void* src, std::size_t bytes, double max_wire_frac,
                   int threads, SlicedFrames& out) {
  out.wire_bytes = 0;
  // Sampled-entropy early-out over the whole tile: incompressible tiles
  // skip the greedy match entirely and take the raw path at probe cost.
  if (bytes == 0 || !z1_probe_compressible(src, bytes)) return false;
  const auto* p = static_cast<const std::uint8_t*>(src);
  const std::size_t count = slice_count(bytes);
  out.frames.resize(count);
  for_each_slice(count, threads, [&](std::size_t i) {
    z1_compress(p + i * kTransferSliceBytes, slice_len(bytes, i), tls_frame);
    tls_frame.swap(out.frames[i]);
  });
  for (const auto& frame : out.frames) out.wire_bytes += frame.size();
  return static_cast<double>(out.wire_bytes) <
         max_wire_frac * static_cast<double>(bytes);
}

void decode_slices(const SlicedFrames& in, void* dst, std::size_t bytes,
                   int threads) {
  GAPSP_CHECK(in.frames.size() == slice_count(bytes),
              "slice frames do not cover the destination");
  auto* d = static_cast<std::uint8_t*>(dst);
  for_each_slice(in.frames.size(), threads, [&](std::size_t i) {
    const auto& frame = in.frames[i];
    z1_decompress(frame.data(), frame.size(), d + i * kTransferSliceBytes,
                  slice_len(bytes, i));
  });
}

TransferCodec::TransferCodec(sim::Device& dev, TransferCompression mode)
    : dev_(&dev), policy_(wire_policy(dev.spec(), mode)) {}

TransferCodec::~TransferCodec() {
  if (pinned_noted_ > 0) dev_->note_pinned_release(pinned_noted_);
}

bool TransferCodec::encode_wins(const void* src, std::size_t bytes) {
  last_wire_bytes_ = bytes;
  if (!policy_.enabled) return false;
  const bool wins = encode_slices(src, bytes, policy_.max_wire_frac,
                                  dev_->kernel_threads(), wire_);
  // The frames model a pinned staging area (they are DMA'd from it), so
  // the high-water mark of their total is accounted like the ping-pong
  // buffers — by size, which does not depend on which worker's buffer
  // ended up in which slot.
  if (wire_.wire_bytes > pinned_noted_) {
    dev_->note_pinned_alloc(wire_.wire_bytes - pinned_noted_);
    pinned_noted_ = wire_.wire_bytes;
  }
  if (wins) last_wire_bytes_ = wire_.wire_bytes;
  return wins;
}

void TransferCodec::decode_into(void* dst, std::size_t bytes) const {
  decode_slices(wire_, dst, bytes, dev_->kernel_threads());
}

sim::Event TransferCodec::stage_in(sim::StreamPipeline& pipe, void* dst,
                                   const void* src, std::size_t bytes) {
  if (!encode_wins(src, bytes)) {
    if (enabled()) dev_->note_z1_fallback(/*to_device=*/true, bytes);
    return pipe.stage_in(dst, src, bytes);
  }
  // The frames are the real carrier: the device buffer is produced by
  // decoding them, so a codec defect surfaces as wrong distances, not
  // silent drift.
  return pipe.stage_in_z1(wire_.wire_bytes, bytes,
                          [this, dst, bytes] { decode_into(dst, bytes); });
}

sim::Event TransferCodec::stage_out(sim::StreamPipeline& pipe, void* dst,
                                    const void* src, std::size_t bytes,
                                    sim::Event after) {
  if (!encode_wins(src, bytes)) {
    if (enabled()) dev_->note_z1_fallback(/*to_device=*/false, bytes);
    return pipe.stage_out(dst, src, bytes, after);
  }
  return pipe.stage_out_z1(
      wire_.wire_bytes, bytes, [this, dst, bytes] { decode_into(dst, bytes); },
      after);
}

void TransferCodec::h2d(sim::StreamId s, void* dst, const void* src,
                        std::size_t bytes, bool pinned) {
  if (!encode_wins(src, bytes)) {
    if (enabled()) dev_->note_z1_fallback(/*to_device=*/true, bytes);
    dev_->memcpy_h2d(s, dst, src, bytes, /*async=*/false, pinned);
    return;
  }
  dev_->copy_z1(s, /*to_device=*/true, wire_.wire_bytes, bytes,
                [this, dst, bytes] { decode_into(dst, bytes); });
}

void TransferCodec::d2h(sim::StreamId s, void* dst, const void* src,
                        std::size_t bytes, bool pinned) {
  if (!encode_wins(src, bytes)) {
    if (enabled()) dev_->note_z1_fallback(/*to_device=*/false, bytes);
    dev_->memcpy_d2h(s, dst, src, bytes, /*async=*/false, pinned);
    return;
  }
  dev_->copy_z1(s, /*to_device=*/false, wire_.wire_bytes, bytes,
                [this, dst, bytes] { decode_into(dst, bytes); });
}

}  // namespace gapsp::core
