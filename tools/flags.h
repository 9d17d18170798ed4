#ifndef UGUIDE_TOOLS_FLAGS_H_
#define UGUIDE_TOOLS_FLAGS_H_

// Strict flag-value parsers shared by uguide, uguided and uguide_loadgen. A
// value that does not parse (or is out of range) is a usage error reported
// on stderr as "<program>: invalid value ..." — never a silent default;
// atoi's "--threads=two" -> 0 used to mean "all cores". Integers are plain
// digits, so "--seed=-1" is refused rather than read as 2^64-1.

#include <errno.h>  // program_invocation_short_name

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "core/token_codec.h"

namespace uguide {

inline bool FlagError(const char* flag, std::string_view value,
                      const char* want) {
  std::fprintf(stderr, "%s: invalid value '%.*s' for %s (expected %s)\n",
               program_invocation_short_name, static_cast<int>(value.size()),
               value.data(), flag, want);
  return false;
}

inline bool ParseU64Flag(const char* flag, std::string_view value,
                         uint64_t* out) {
  Result<uint64_t> parsed = ParseDecimal(value);
  if (!parsed.ok()) return FlagError(flag, value, "an unsigned integer");
  *out = *parsed;
  return true;
}

inline bool ParseIntFlag(const char* flag, std::string_view value,
                         int min_value, int* out) {
  Result<uint64_t> parsed = ParseDecimal(value);
  if (!parsed.ok() ||
      *parsed > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
      static_cast<int>(*parsed) < min_value) {
    return FlagError(flag, value, "an integer in range");
  }
  *out = static_cast<int>(*parsed);
  return true;
}

/// A number in [lo, hi]; NaN and overflow are always refused.
inline bool ParseDoubleFlag(
    const char* flag, std::string_view value, double* out,
    double lo = -std::numeric_limits<double>::infinity(),
    double hi = std::numeric_limits<double>::infinity()) {
  const std::string copy(value);
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (copy.empty() || errno != 0 || end != copy.c_str() + copy.size() ||
      !(parsed >= lo && parsed <= hi)) {
    return FlagError(flag, value, "a number in range");
  }
  *out = parsed;
  return true;
}

}  // namespace uguide

#endif  // UGUIDE_TOOLS_FLAGS_H_
