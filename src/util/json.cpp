#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/strings.h"

namespace nada::util {
namespace {

const std::string kEmptyString;
const JsonValue kNullValue;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  // JSON has no non-finite literals; bare non-finite numbers degrade to
  // null (vectors that must round-trip exactly go through json_doubles).
  out += std::isfinite(d) ? shortest_double(d) : "null";
}

// Arrays and objects recurse; past this depth the parser throws instead of
// exhausting the stack on hostile input (a file of a million '[').
constexpr std::size_t kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// `depth` counts the arrays/objects enclosing the value.
  JsonValue parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      fail("malformed number");
    }
    return JsonValue::number(value);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The JSONL export only emits \u00XX control escapes; decode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  void check_depth(std::size_t depth) const {
    if (depth > kMaxNestingDepth) {
      fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
    }
  }

  JsonValue parse_array(std::size_t depth) {
    check_depth(depth);
    expect('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value(depth));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == ']') {
        ++pos_;
        return out;
      } else {
        fail("expected ',' or ']'");
      }
    }
  }

  JsonValue parse_object(std::size_t depth) {
    check_depth(depth);
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(key, parse_value(depth));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == '}') {
        ++pos_;
        return out;
      } else {
        fail("expected ',' or '}'");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

const std::string& JsonValue::as_string() const {
  return type_ == Type::kString ? string_ : kEmptyString;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ != Type::kArray) {
    throw std::runtime_error("json: push_back on non-array");
  }
  array_.push_back(std::move(v));
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (type_ != Type::kArray || i >= array_.size()) return kNullValue;
  return array_[i];
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ != Type::kObject) {
    throw std::runtime_error("json: set on non-object");
  }
  object_[key] = std::move(v);
}

bool JsonValue::has(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  if (type_ != Type::kObject) return kNullValue;
  const auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

std::string JsonValue::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull: out = "null"; break;
    case Type::kBool: out = bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, number_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : array_) {
        if (!first) out += ',';
        first = false;
        out += item.dump();
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        out += value.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue json_doubles(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (double v : values) {
    // JSON has no non-finite literals; encode them as strings so a cached
    // reward curve containing NaN/inf round-trips exactly instead of
    // silently becoming 0.0 (which would re-rank a resumed run).
    if (std::isfinite(v)) {
      out.push_back(JsonValue::number(v));
    } else if (std::isnan(v)) {
      out.push_back(JsonValue::string("nan"));
    } else {
      out.push_back(JsonValue::string(v > 0 ? "inf" : "-inf"));
    }
  }
  return out;
}

std::vector<double> json_to_doubles(const JsonValue& value) {
  std::vector<double> out;
  out.reserve(value.size());
  for (const auto& item : value.items()) {
    if (item.type() == JsonValue::Type::kString) {
      const std::string& s = item.as_string();
      if (s == "nan") {
        out.push_back(std::nan(""));
        continue;
      }
      if (s == "inf") {
        out.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      if (s == "-inf") {
        out.push_back(-std::numeric_limits<double>::infinity());
        continue;
      }
    }
    out.push_back(item.as_number());
  }
  return out;
}

}  // namespace nada::util
