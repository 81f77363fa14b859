// Checked numeric parsing for command-line flag values.
//
// std::atoi/std::atof turn "abc" into 0 and "5x" into 5, so a mistyped flag
// silently runs a different experiment. flag_value() accepts a value only
// when the whole string is one base-10 number inside the flag's valid
// range; anything else is reported on stderr and the tool exits through
// its usage path with status 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace fbedge::cli {

/// The value of flag `name` parsed from `text` as a T (integral or
/// floating) in [lo, hi]. Empty or missing input, leading whitespace,
/// trailing characters, overflow, NaN and out-of-range values are
/// reported on stderr, then `usage()` runs (it prints the tool's usage and
/// exits 2; std::exit(2) backs it up).
template <typename T, typename Usage>
T flag_value(const char* name, const char* text, T lo, T hi, Usage&& usage) {
  static_assert(std::is_arithmetic_v<T>);
  bool ok = text != nullptr && *text != '\0' &&
            !std::isspace(static_cast<unsigned char>(*text));
  T value{};
  if (ok) {
    char* end = nullptr;
    errno = 0;
    if constexpr (std::is_integral_v<T>) {
      const long long v = std::strtoll(text, &end, 10);
      ok = v >= static_cast<long long>(lo) && v <= static_cast<long long>(hi);
      value = static_cast<T>(v);
    } else {
      const double v = std::strtod(text, &end);
      ok = v >= lo && v <= hi;  // false for NaN
      value = static_cast<T>(v);
    }
    ok = ok && errno == 0 && *end == '\0';
  }
  if (!ok) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text != nullptr ? text : "", name);
    usage();
    std::exit(2);
  }
  return value;
}

}  // namespace fbedge::cli
