#include "util/args.h"

#include <algorithm>

namespace gapsp {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    tok = tok.substr(2);
    std::string value;
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      value = tok.substr(eq + 1);
      tok = tok.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    GAPSP_CHECK(!tok.empty(), "empty flag name");
    GAPSP_CHECK(flags_.emplace(tok, value).second, "repeated flag --" + tok);
  }
}

std::optional<std::string> Args::get(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& flag,
                         const std::string& dflt) const {
  return get(flag).value_or(dflt);
}

long long Args::get_int_or(const std::string& flag, long long dflt) const {
  const auto v = get(flag);
  return v ? util::parse_int(*v, "--" + flag) : dflt;
}

double Args::get_double_or(const std::string& flag, double dflt) const {
  const auto v = get(flag);
  return v ? util::parse_double(*v, "--" + flag) : dflt;
}

std::vector<std::string> Args::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [flag, value] : flags_) {
    if (std::find(known.begin(), known.end(), flag) == known.end()) {
      out.push_back(flag);
    }
  }
  return out;
}

}  // namespace gapsp
