// Small JSON-emission helpers shared by the trace/pcap/counters writers.
// Emission only -- the reader side is src/tools/json_reader.h, which
// src/tools/trace_reader.h reads each trace line with.

#ifndef XK_SRC_TRACE_JSON_UTIL_H_
#define XK_SRC_TRACE_JSON_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace xk {

inline void JsonAppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline void JsonAppendField(std::string& out, std::string_view key, int64_t value,
                            bool first = false) {
  if (!first) {
    out += ',';
  }
  JsonAppendEscaped(out, key);
  out += ':';
  out += std::to_string(value);
}

inline void JsonAppendField(std::string& out, std::string_view key, uint64_t value,
                            bool first = false) {
  if (!first) {
    out += ',';
  }
  JsonAppendEscaped(out, key);
  out += ':';
  out += std::to_string(value);
}

inline void JsonAppendField(std::string& out, std::string_view key, std::string_view value,
                            bool first = false) {
  if (!first) {
    out += ',';
  }
  JsonAppendEscaped(out, key);
  out += ':';
  JsonAppendEscaped(out, value);
}

}  // namespace xk

#endif  // XK_SRC_TRACE_JSON_UTIL_H_
