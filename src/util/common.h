// Common scalar types and checked helpers shared by every gapsp module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gapsp {

/// Distance value type. The paper uses `int` distances so that the Johnson
/// implementation can rely on atomicMin; we keep the same width.
using dist_t = std::int32_t;

/// Vertex / edge index types. 32-bit indices are sufficient for every graph
/// this reproduction handles and halve the memory traffic of the kernels.
using vidx_t = std::int32_t;
using eidx_t = std::int64_t;

/// "Infinite" distance sentinel. Chosen so that kInf + (max edge weight)
/// cannot overflow a dist_t when computed through sat_add().
inline constexpr dist_t kInf = std::numeric_limits<dist_t>::max() / 4;

/// Saturating addition for path relaxation: any sum involving an unreachable
/// distance stays unreachable instead of wrapping around.
[[nodiscard]] constexpr dist_t sat_add(dist_t a, dist_t b) noexcept {
  if (a >= kInf || b >= kInf) return kInf;
  return a + b;
}

/// min-plus "multiply-accumulate" used by every dense kernel.
[[nodiscard]] constexpr dist_t min_plus(dist_t acc, dist_t a, dist_t b) noexcept {
  const dist_t sum = sat_add(a, b);
  return sum < acc ? sum : acc;
}

/// Exception raised for violated runtime contracts (bad arguments, resource
/// exhaustion in the device simulator, malformed input files, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Error from host filesystem I/O (short writes, failed flush/seek, …), so
/// callers can distinguish a sick disk from a logic bug and react (retry on
/// other storage, fail the checkpoint but keep computing, …).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Data failed an integrity check: a checksum mismatch, a malformed
/// compressed frame, a directory that contradicts itself. Unlike a plain
/// IoError (which may be a transient hiccup worth retrying), corruption is
/// persistent — the fault-tolerant serving tier quarantines or repairs the
/// damaged tile instead of retrying it (core/tile_reader.h).
class CorruptError : public IoError {
 public:
  explicit CorruptError(const std::string& what) : IoError(what) {}
};

namespace detail {
[[noreturn]] void fail_check(const char* expr, const std::string& msg,
                             const std::source_location& loc);
}  // namespace detail

namespace util {
/// FNV-1a over a byte range: the checksum of every on-disk format and of
/// the solve fingerprints. Pass the previous hash as `seed` to fold more
/// bytes into it.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// 64-bit hash that reads a range as native-order 64-bit words in four
/// independent lanes (32 bytes per step), then folds the lanes, the tail
/// and the length through a final avalanche. The content checksum of tagged
/// z1 frames (core/z1_codec.h): an order of magnitude faster than the
/// byte-serial fnv1a on a distance tile. On-disk checksums depend on it, so
/// util_test pins known answers.
std::uint64_t word_hash(const void* data, std::size_t bytes);

/// The one place outside text becomes a number. The whole of `text` must be
/// a base-10 integer: an optional '-' and digits, with no '+', spaces, radix
/// prefix or trailing junk. A value outside [lo, hi], or past long long,
/// throws gapsp::Error naming `what` (a flag, a file line) and the range.
long long parse_int(std::string_view text, std::string_view what,
                    long long lo = std::numeric_limits<long long>::min(),
                    long long hi = std::numeric_limits<long long>::max());

/// parse_int for a finite decimal number ("0.25", "4", "1e-3"), in [lo, hi].
double parse_double(std::string_view text, std::string_view what,
                    double lo = std::numeric_limits<double>::lowest(),
                    double hi = std::numeric_limits<double>::max());
}  // namespace util

/// Contract check that stays enabled in release builds. Use for conditions
/// that depend on user input or on resource limits.
#define GAPSP_CHECK(cond, msg)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::gapsp::detail::fail_check(#cond, (msg),                           \
                                  std::source_location::current());       \
    }                                                                     \
  } while (false)

}  // namespace gapsp
