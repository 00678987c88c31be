// The JSON reader the trace reader parses each JSONL line with.
//
// A number token must match the JSON grammar in full, so "1-2", "1e" and
// "--1" are errors, not prefix reads. An integer token is also kept exactly
// (std::from_chars into a range-checked 64-bit magnitude): ids up to 2^64-1
// survive, and 2^64 is an error rather than an overflow. Strings take the
// escapes the writer (src/trace/json_util.h) emits, \u00XX included.
// Nesting is capped at kMaxDepth containers, so a hostile line fails
// instead of overflowing the stack; the writers nest at most a few levels.

#ifndef XK_SRC_TOOLS_JSON_READER_H_
#define XK_SRC_TOOLS_JSON_READER_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xk {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;        // kNumber, rounded to the nearest double
  bool integer = false;  // kNumber written as an integer: exactly -mag or +mag
  bool neg = false;      // a negative integer (never set for -0)
  uint64_t mag = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }

  // Reads a string, or an integer token that fits the type exactly; false
  // (leaving `out` alone) for any other value.
  bool Get(std::string* out) const {
    if (kind != Kind::kString) {
      return false;
    }
    *out = str;
    return true;
  }
  bool Get(uint64_t* out) const {
    if (kind != Kind::kNumber || !integer || neg) {
      return false;
    }
    *out = mag;
    return true;
  }
  bool Get(int64_t* out) const {
    // The parser already refused a negative magnitude above 2^63.
    if (kind != Kind::kNumber || !integer || (!neg && mag > uint64_t{INT64_MAX})) {
      return false;
    }
    *out = neg ? static_cast<int64_t>(0 - mag) : static_cast<int64_t>(mag);
    return true;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  // Parses one document; returns false (with error()) on malformed input.
  bool Parse(JsonValue& out) {
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size() || Fail("trailing characters");
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool At(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool AtDigit() const { return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9'; }
  bool Eat(char c) {
    if (!At(c)) {
      return false;
    }
    ++pos_;
    return true;
  }
  size_t SkipDigits() {
    const size_t from = pos_;
    while (AtDigit()) {
      ++pos_;
    }
    return pos_ - from;
  }
  void SkipWs() { pos_ = std::min(s_.find_first_not_of(" \t\n\r", pos_), s_.size()); }

  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) {
      return Fail("bad literal");
    }
    pos_ += lit.size();
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Eat('"')) {
      return Fail("expected string");
    }
    for (;;) {
      const size_t stop = s_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) {
        return Fail("unterminated string");
      }
      out.append(s_.substr(pos_, stop - pos_));
      pos_ = stop + 1;
      if (s_[stop] == '"') {
        return true;
      }
      const char* hex = s_.data() + pos_;  // the escape letter; \u's 4 digits follow
      unsigned byte = 0;
      switch (pos_ < s_.size() ? s_[pos_++] : '\0') {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'u':  // one byte: the writer emits \u00XX for control bytes
          if (s_.size() - pos_ < 4 || hex[1] != '0' || hex[2] != '0' ||
              std::from_chars(hex + 3, hex + 5, byte, 16).ptr != hex + 5) {
            return Fail("unsupported escape");
          }
          pos_ += 4;
          out += static_cast<char>(byte);
          break;
        default: return Fail("unsupported escape");
      }
    }
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(JsonValue& out) {
    const char* first = s_.data() + pos_;
    const bool minus = Eat('-');
    const char* digits = s_.data() + pos_;
    const size_t n = SkipDigits();
    const char* int_end = s_.data() + pos_;
    bool ok = n == 1 || (n > 1 && digits[0] != '0');
    if (ok && Eat('.')) {
      ok = SkipDigits() > 0;
    }
    if (ok && (Eat('e') || Eat('E'))) {
      pos_ += At('+') || At('-') ? 1 : 0;
      ok = SkipDigits() > 0;
    }
    if (!ok) {
      return Fail("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    const char* last = s_.data() + pos_;
    if (last != int_end) {
      return std::from_chars(first, last, out.num).ec == std::errc() ||
             Fail("number out of range");
    }
    out.integer = true;
    if (std::from_chars(digits, last, out.mag).ec != std::errc() ||
        (minus && out.mag > uint64_t{1} << 63)) {
      return Fail("integer out of range");
    }
    out.neg = minus && out.mag != 0;
    out.num = minus ? -static_cast<double>(out.mag) : static_cast<double>(out.mag);
    return true;
  }

  static constexpr int kMaxDepth = 64;

  // `depth` counts the containers enclosing `out`.
  bool ParseValue(JsonValue& out, int depth = 0) {
    SkipWs();
    if ((At('{') || At('[')) && depth == kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (Eat('{')) {
      out.kind = JsonValue::Kind::kObject;
      SkipWs();
      if (Eat('}')) {
        return true;
      }
      do {
        auto& [key, value] = out.obj.emplace_back();
        SkipWs();
        if (!ParseString(key)) {
          return false;
        }
        SkipWs();
        if (!Eat(':')) {
          return Fail("expected ':'");
        }
        if (!ParseValue(value, depth + 1)) {
          return false;
        }
        SkipWs();
      } while (Eat(','));
      return Eat('}') || Fail("expected ',' or '}'");
    }
    if (Eat('[')) {
      out.kind = JsonValue::Kind::kArray;
      SkipWs();
      if (Eat(']')) {
        return true;
      }
      do {
        if (!ParseValue(out.arr.emplace_back(), depth + 1)) {
          return false;
        }
        SkipWs();
      } while (Eat(','));
      return Eat(']') || Fail("expected ',' or ']'");
    }
    if (At('"')) {
      out.kind = JsonValue::Kind::kString;
      return ParseString(out.str);
    }
    if (At('t') || At('f')) {
      out.kind = JsonValue::Kind::kBool;
      out.b = At('t');
      return Literal(out.b ? "true" : "false");
    }
    if (At('n')) {
      out.kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    if (At('-') || AtDigit()) {
      return ParseNumber(out);
    }
    return Fail(pos_ < s_.size() ? "expected value" : "unexpected end");
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

// Reads a whole file into `text`; false if it cannot be opened or read.
inline bool ReadFile(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  text->clear();
  char buf[1 << 16];
  for (size_t n = 0; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace xk

#endif  // XK_SRC_TOOLS_JSON_READER_H_
