#include "util/common.h"

#include <sstream>

namespace gapsp::util {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
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
