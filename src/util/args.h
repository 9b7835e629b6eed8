// Minimal command-line flag parser for the tools:
//   --flag value   |   --flag=value   |   --switch
// plus typed flags a tool declares once and reads through Args.
#pragma once

#include <algorithm>
#include <climits>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/common.h"

namespace gapsp {

class Args {
 public:
  /// Parses argv. Tokens starting with "--" are flags; a following token
  /// that is not itself a flag becomes the value. Remaining tokens are
  /// positional. Throws gapsp::Error on a repeated flag.
  Args(int argc, const char* const* argv);

  bool has(const std::string& flag) const { return flags_.count(flag) > 0; }

  std::optional<std::string> get(const std::string& flag) const;
  std::string get_or(const std::string& flag, const std::string& dflt) const;
  /// The flag's value through util::parse_int / parse_double.
  long long get_int_or(const std::string& flag, long long dflt) const;
  double get_double_or(const std::string& flag, double dflt) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried — typo detection for tools.
  std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// A flag declared once: its name, its value placeholder (empty for a
/// switch) and its help line, which a text flag's default ends.
struct Flag {
  Flag(std::string n, std::string v, std::string h, std::string d = "")
      : name(std::move(n)), value(std::move(v)), text_dflt(std::move(d)),
        help(h + (text_dflt.empty() ? "" : " (default " + text_dflt + ")")) {}
  std::string name, value, text_dflt, help;

  std::string flag() const { return "--" + name; }
  /// One argv token that sets the flag to `v`.
  std::string arg(const std::string& v) const { return flag() + "=" + v; }
  bool has(const Args& a) const { return a.has(name); }
  std::optional<std::string> get(const Args& a) const { return a.get(name); }
  std::string operator()(const Args& a) const {
    return a.get_or(name, text_dflt);
  }
  /// The same flag with another help line, as one command reads it.
  Flag with_help(std::string h) const { return {name, value, h, text_dflt}; }
};

/// A numeric flag and its inclusive range (an integer's defaults to int's),
/// checked by the strict util parser, so a value outside it throws naming
/// the flag. The help line states the default (none when the caller derives
/// it) and the range.
template <typename T>
struct NumFlag : Flag {
  static constexpr T kMax =
      std::is_integral_v<T> ? INT_MAX : std::numeric_limits<T>::max();
  NumFlag(std::string n, std::string v, std::string h, std::optional<T> d,
          T lo_, T hi_ = kMax)
      : Flag(n, v, h + note(d, lo_, hi_)), dflt(d), lo(lo_), hi(hi_) {}
  std::optional<T> dflt;
  T lo, hi;

  T operator()(const Args& a) const {
    return has(a) ? (*this)(a, T{}) : dflt.value();
  }
  T operator()(const Args& a, T d) const {
    const auto v = get(a);
    if (!v.has_value()) return d;
    if constexpr (std::is_integral_v<T>) {
      return util::parse_int(*v, flag(), lo, hi);
    } else {
      return util::parse_double(*v, flag(), lo, hi);
    }
  }
  std::string arg(T v) const { return Flag::arg(std::to_string(v)); }
  /// The same flag with another default and help line.
  NumFlag with(T d, std::string h) const { return {name, value, h, d, lo, hi}; }

  static std::string note(std::optional<T> d, T lo, T hi) {
    std::ostringstream os;
    if (d.has_value()) os << "default " << *d << ", ";
    hi < INT_MAX ? os << "in [" << lo << ", " << hi << "]" : os << ">= " << lo;
    return " (" + os.str() + ")";
  }
};
using IntFlag = NumFlag<long long>;
using RealFlag = NumFlag<double>;

/// A flag naming one of a list of choices, the first being the default.
/// The list writes the flag's placeholder, help line and error.
template <typename T>
struct ChoiceFlag : Flag {
  using Choices = std::vector<std::pair<std::string, T>>;
  ChoiceFlag(std::string n, std::string h, Choices cs)
      : Flag(n, join(cs, "|"), h, cs.front().first), choices(std::move(cs)) {}
  Choices choices;

  T operator()(const Args& a) const {
    const std::string v = Flag::operator()(a);
    for (const auto& [choice, t] : choices) {
      if (choice == v) return t;
    }
    throw Error("unknown " + flag() + ": " + v + " (" + join(choices, " | ") +
                ")");
  }
  const std::string& label(T t) const {
    return std::find_if(choices.begin(), choices.end(),
                        [&](const auto& c) { return c.second == t; })
        ->first;
  }
  static std::string join(const Choices& cs, const std::string& sep) {
    std::string out;
    for (const auto& c : cs) out += (out.empty() ? "" : sep) + c.first;
    return out;
  }
};

}  // namespace gapsp
