// Minimal JSON reader/writer for status, lease-log and metrics files and
// the candidate store's JSONL export.
//
// Deliberately tiny: objects, arrays, strings, finite numbers, booleans and
// null — enough to round-trip OutcomeRecord lines without an external
// dependency. Numbers are emitted with the shortest representation that
// round-trips (std::to_chars); non-finite doubles degrade to null so a
// crashed training run can never poison an export with unparsable bytes.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nada::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; the `fallback` overloads never throw and are the
  /// workhorses for schema-tolerant journal decoding.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_number(double fallback = 0.0) const;
  [[nodiscard]] const std::string& as_string() const;

  // Array interface.
  void push_back(JsonValue v);
  [[nodiscard]] std::size_t size() const { return array_.size(); }
  [[nodiscard]] const JsonValue& at(std::size_t i) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const { return array_; }

  // Object interface. `get` returns a shared null for missing keys.
  void set(const std::string& key, JsonValue v);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue& get(const std::string& key) const;

  /// Serializes on one line (no insignificant whitespace).
  [[nodiscard]] std::string dump() const;

  /// Parses a complete JSON document; throws std::runtime_error on any
  /// syntax error, trailing garbage, or nesting deeper than 256 levels.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;  // sorted => deterministic dumps
};

/// Encodes a double array as a JsonValue array (helper for record fields).
/// Non-finite entries are encoded as the strings "nan"/"inf"/"-inf" so the
/// array round-trips exactly.
[[nodiscard]] JsonValue json_doubles(const std::vector<double>& values);

/// Decodes a json_doubles array ("nan"/"inf"/"-inf" strings included;
/// anything else non-numeric becomes 0.0).
[[nodiscard]] std::vector<double> json_to_doubles(const JsonValue& value);

}  // namespace nada::util
