// Full-token flag value parsers shared by bench_suite and xktrace. Each
// rejects the whole token or accepts it -- no silent prefix reads (std::atoi
// turns "4x" into 4 and "abc" into 0) -- and on failure writes a message
// naming the flag and the token.

#ifndef XK_SRC_TOOLS_FLAG_PARSE_H_
#define XK_SRC_TOOLS_FLAG_PARSE_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace xk {

// Parses `value` as a base-10 integer in [`min`, INT_MAX].
inline bool ParseFlagInt(const char* flag, const char* value, long min, int* out,
                         std::string* error) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    *error = std::string(flag) + ": bad value '" + value + "' (expected an integer)";
    return false;
  }
  // strtol saturates at LONG_MAX, which is above INT_MAX too.
  if (v < min || v > INT_MAX) {
    *error = std::string(flag) + ": bad value '" + value + "' (must be >= " +
             std::to_string(min) + " and <= " + std::to_string(INT_MAX) + ")";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// Parses `value` as a base-10 unsigned 64-bit integer (call ids exceed
// INT_MAX). Signs and blanks are rejected: strtoull would read "-1" as
// UINT64_MAX.
inline bool ParseFlagUint64(const char* flag, const char* value, uint64_t* out,
                            std::string* error) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(value[0])) == 0 || *end != '\0' ||
      errno == ERANGE) {
    *error = std::string(flag) + ": bad value '" + value +
             "' (expected an unsigned 64-bit integer)";
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace xk

#endif  // XK_SRC_TOOLS_FLAG_PARSE_H_
