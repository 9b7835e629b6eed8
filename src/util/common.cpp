#include "util/common.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
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
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
  const auto load = [](const std::uint8_t* q) {
    std::uint64_t v;
    std::memcpy(&v, q, sizeof(v));
    return v;
  };
  const auto round = [&](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t left = bytes;
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  for (; left >= 32; p += 32, left -= 32) {
    for (int k = 0; k < 4; ++k) lane[k] = round(lane[k], load(p + 8 * k));
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18) + bytes;
  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl(h ^ round(0, load(p)), 27) * kP1 + kP3;
  }
  for (; left > 0; ++p, --left) h = std::rotl(h ^ (*p * kP3), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
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
