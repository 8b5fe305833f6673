// Strict numeric flag values for the command-line tools (caqp_plan,
// caqp_serve, caqp_simulate). A value must be the whole token: "2e3" is not
// a count, "four" is not a number, "-1" is not a size, and a count past its
// flag's maximum is rejected instead of wrapping. A bad value prints
// "<program>: bad value '<text>' for <flag> (...)" to stderr and exits 1;
// the tools parse every flag before they start a thread.

#ifndef CAQP_TOOLS_FLAG_VALUES_H_
#define CAQP_TOOLS_FLAG_VALUES_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "fault/fault.h"

namespace caqp {
namespace tools {

/// Prints "<program>: <msg>" to stderr and exits 1.
[[noreturn]] inline void Die(const char* program, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", program, msg.c_str());
  std::exit(1);
}

/// `text` as a decimal integer in [0, max] (digits only, ParseDecimal).
inline uint64_t ParseCountFlag(
    const char* program, const std::string& flag, const std::string& text,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t v = 0;
  if (!ParseDecimal(text, max, &v)) {
    Die(program, "bad value '" + text + "' for " + flag +
                     " (decimal digits, at most " + std::to_string(max) +
                     ")");
  }
  return v;
}

/// `text` as a finite real number; strtod must consume the whole token.
inline double ParseRealFlag(const char* program, const std::string& flag,
                            const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    Die(program, "bad value '" + text + "' for " + flag +
                     " (a finite real number)");
  }
  return v;
}

}  // namespace tools
}  // namespace caqp

#endif  // CAQP_TOOLS_FLAG_VALUES_H_
