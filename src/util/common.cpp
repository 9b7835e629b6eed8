#include "util/common.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>

namespace gapsp::util {
namespace {

/// " in [lo, hi]", " >= lo", or nothing for T's whole range.
template <typename T>
std::string range_text(T lo, T hi) {
  std::ostringstream os;
  if (hi != std::numeric_limits<T>::max()) {
    os << " in [" << lo << ", " << hi << "]";
  } else if (lo != std::numeric_limits<T>::lowest()) {
    os << " >= " << lo;
  }
  return os.str();
}

template <typename T>
T parse_number(std::string_view text, std::string_view what, T lo, T hi,
               const char* kind) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc{} && stop == end && lo <= v && v <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    throw Error(std::string(what) + " expects " + kind + range_text(lo, hi) +
                ", got '" + std::string(text) + "'");
  }
  return v;
}

}  // namespace

long long parse_int(std::string_view text, std::string_view what,
                    long long lo, long long hi) {
  return parse_number(text, what, lo, hi, "an integer");
}

double parse_double(std::string_view text, std::string_view what, double lo,
                    double hi) {
  return parse_number(text, what, lo, hi, "a number");
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t word_hash(const void* data, std::size_t bytes) {
  return WordHashLanes{}.finish(static_cast<const std::uint8_t*>(data), bytes,
                                bytes);
}

}  // namespace gapsp::util

namespace gapsp::detail {

void fail_check(const char* expr, const std::string& msg,
                const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ":" << loc.line() << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace gapsp::detail
