#include "cts/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cts/util/error.hpp"

namespace cts::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  util::require(!top_level_done_, "JsonWriter: document already complete");
  if (stack_.empty()) return;  // the single top-level value
  if (stack_.back() == Frame::kObject) {
    util::require(pending_key_, "JsonWriter: object member needs key() first");
    pending_key_ = false;
    return;
  }
  if (!first_.back()) os_ << ',';
  first_.back() = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  util::require(!stack_.empty() && stack_.back() == Frame::kObject &&
                    !pending_key_,
                "JsonWriter: unbalanced end_object");
  os_ << '}';
  stack_.pop_back();
  first_.pop_back();
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  util::require(!stack_.empty() && stack_.back() == Frame::kArray,
                "JsonWriter: unbalanced end_array");
  os_ << ']';
  stack_.pop_back();
  first_.pop_back();
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  util::require(!stack_.empty() && stack_.back() == Frame::kObject &&
                    !pending_key_,
                "JsonWriter: key() outside object or duplicate key()");
  if (!first_.back()) os_ << ',';
  first_.back() = false;
  os_ << '"' << json_escape(name) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  before_value();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  os_ << "null";
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  before_value();
  os_ << json;
  if (stack_.empty()) top_level_done_ = true;
  return *this;
}

// ---------------------------------------------------------------------------
// Validator / parser: recursive descent over the RFC 8259 grammar.  When
// constructed with a root JsonValue the same pass builds the DOM; with
// nullptr it only validates (no allocation beyond the error message).

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error, JsonValue* root = nullptr)
      : text_(text), error_(error), root_(root) {}

  bool run() {
    skip_ws();
    if (!parse_value(root_)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (depth_ > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        if (out != nullptr) out->type = JsonValue::Type::kString;
        return parse_string(out != nullptr ? &out->string : nullptr);
      }
      case 't':
        if (out != nullptr) { out->type = JsonValue::Type::kBool; out->boolean = true; }
        return literal("true");
      case 'f':
        if (out != nullptr) { out->type = JsonValue::Type::kBool; out->boolean = false; }
        return literal("false");
      case 'n':
        if (out != nullptr) out->type = JsonValue::Type::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    ++pos_;  // '{'
    ++depth_;
    if (out != nullptr) out->type = JsonValue::Type::kObject;
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(out != nullptr ? &key : nullptr)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        out->members.emplace_back(std::move(key), JsonValue{});
        slot = &out->members.back().second;
      }
      if (!parse_value(slot)) return false;
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return true; }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    ++pos_;  // '['
    ++depth_;
    if (out != nullptr) out->type = JsonValue::Type::kArray;
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        out->items.emplace_back();
        slot = &out->items.back();
      }
      if (!parse_value(slot)) return false;
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return true; }
      return fail("expected ',' or ']'");
    }
  }

  /// Validates a string token; when `out` is non-null also stores the
  /// unescaped contents (\uXXXX decoded to UTF-8, surrogate pairs combined,
  /// lone surrogates replaced with U+FFFD).
  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (eof()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("dangling escape");
        const char e = text_[pos_];
        if (e == 'u') {
          unsigned cp = 0;
          if (!hex4(&cp)) return false;
          if (out != nullptr) {
            if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 2 < text_.size() &&
                text_[pos_ + 1] == '\\' && text_[pos_ + 2] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!hex4(&lo)) return false;
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                append_utf8(out, 0xFFFD);
                cp = (lo >= 0xD800 && lo <= 0xDFFF) ? 0xFFFD : lo;
              }
            } else if (cp >= 0xD800 && cp <= 0xDFFF) {
              cp = 0xFFFD;
            }
            append_utf8(out, cp);
          } else {
            // Validation only: a paired low surrogate is consumed by the
            // next loop iteration as its own \u escape.
          }
        } else if (e == '"' || e == '\\' || e == '/') {
          if (out != nullptr) out->push_back(e);
        } else if (e == 'b') { if (out != nullptr) out->push_back('\b');
        } else if (e == 'f') { if (out != nullptr) out->push_back('\f');
        } else if (e == 'n') { if (out != nullptr) out->push_back('\n');
        } else if (e == 'r') { if (out != nullptr) out->push_back('\r');
        } else if (e == 't') { if (out != nullptr) out->push_back('\t');
        } else {
          return fail("bad escape character");
        }
      } else if (out != nullptr) {
        out->push_back(static_cast<char>(c));
      }
      ++pos_;
    }
  }

  /// Consumes the 4 hex digits of a \u escape (pos_ on the 'u' at entry,
  /// on the last digit at exit) and stores the code unit.
  bool hex4(unsigned* cp) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (eof() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("bad \\u escape");
      }
      const char d = text_[pos_];
      v = v * 16 + static_cast<unsigned>(
                       d <= '9' ? d - '0' : (d | 0x20) - 'a' + 10);
    }
    *cp = v;
    return true;
  }

  static void append_utf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected digit");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return true;
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (eof()) return fail("expected digit");
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    if (out != nullptr) {
      out->type = JsonValue::Type::kNumber;
      out->number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                nullptr);
    }
    return true;
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::string* error_;
  JsonValue* root_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_parse_check(const std::string& text, std::string* error) {
  return Parser(text, error).run();
}

JsonValue json_parse(const std::string& text) {
  JsonValue root;
  std::string error;
  if (!Parser(text, &error, &root).run()) {
    throw util::InvalidArgument("json_parse: " + error);
  }
  return root;
}

// ---------------------------------------------------------------------------
// JsonValue accessors

bool JsonValue::as_bool() const {
  util::require(is_bool(), "JsonValue: not a bool");
  return boolean;
}

double JsonValue::as_number() const {
  util::require(is_number(), "JsonValue: not a number");
  return number;
}

namespace {

// 2^53: the largest range in which every integer is an exact double, so
// the casts below are defined and no neighbouring value aliases another.
constexpr double kMaxExactInteger = 9007199254740992.0;

/// `d` when it is an integer in [lo, 2^53]; InvalidArgument naming `field`
/// and the accepted `range` otherwise (NaN and infinities included).
double require_integer(double d, double lo, const std::string& field,
                       const char* range) {
  if (!(d >= lo && d <= kMaxExactInteger && d == std::floor(d))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    throw util::InvalidArgument(field + ": expected an integer in " + range +
                                ", got " + buf);
  }
  return d;
}

}  // namespace

std::uint64_t JsonValue::as_uint(const std::string& field) const {
  return static_cast<std::uint64_t>(
      require_integer(as_number(), 0.0, field, "[0, 2^53]"));
}

std::int64_t JsonValue::as_int(const std::string& field) const {
  return static_cast<std::int64_t>(require_integer(
      as_number(), -kMaxExactInteger, field, "[-2^53, 2^53]"));
}

const std::string& JsonValue::as_string() const {
  util::require(is_string(), "JsonValue: not a string");
  return string;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  util::require(v != nullptr, "JsonValue: missing member '" + key + "'");
  return *v;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  util::require(is_array() && index < items.size(),
                "JsonValue: array index out of range");
  return items[index];
}

std::size_t JsonValue::size() const noexcept {
  return is_array() ? items.size() : (is_object() ? members.size() : 0);
}

}  // namespace cts::obs
