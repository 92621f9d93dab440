#ifndef MULTICLUST_COMMON_JSON_H_
#define MULTICLUST_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace multiclust {

/// Dependency-free JSON support shared by the report artifacts
/// (common/report.*), the metrics export (metrics::MetricsJson), the bench
/// harness (bench/harness.*) and the bench_diff tool.
///
/// The writer produces compact documents with correct string escaping and
/// round-trippable double formatting: `Parse(writer.str())` recovers every
/// written double bit-exactly (NaN/Inf, which JSON cannot represent, are
/// written as null). The parser is a strict recursive-descent reader of
/// the same subset of JSON the writer emits — objects, arrays, strings
/// (with \uXXXX escapes), numbers, true/false/null — sufficient to read
/// back any artifact this library writes.
namespace json {

/// `s` escaped for inclusion inside a JSON string literal (quotes not
/// included): ", \, control characters and non-ASCII-safe bytes below 0x20
/// become \", \\, \n/\t/... or \u00XX.
std::string Escape(std::string_view s);

/// Shortest decimal form of `v` that strtod parses back to exactly `v`
/// (tries %.15g, %.16g, %.17g). NaN and +-Inf render as "null" — JSON has
/// no representation for them.
std::string FormatDouble(double v);

/// Streaming writer for compact JSON documents. The caller is responsible
/// for well-formedness in one respect only: every object member must be
/// introduced with Key() before its value. Commas and colons are inserted
/// automatically.
///
///   json::Writer w;
///   w.BeginObject();
///   w.Key("name"); w.String("kmeans");
///   w.Key("sse"); w.Double(123.25);
///   w.Key("labels"); w.BeginArray();
///   for (int v : labels) w.Int(v);
///   w.EndArray();
///   w.EndObject();
///   std::string doc = std::move(w).str();
class Writer {
 public:
  Writer() { stack_.push_back(kTop); }

  void BeginObject() { OpenContainer('{', kObject); }
  void EndObject() { CloseContainer('}'); }
  void BeginArray() { OpenContainer('[', kArray); }
  void EndArray() { CloseContainer(']'); }

  /// Introduces the next object member.
  void Key(std::string_view name);

  void String(std::string_view v);
  void Double(double v);
  void Int(int64_t v);
  void Uint(uint64_t v);
  void Bool(bool v);
  void Null();
  /// Splices a pre-serialized JSON value verbatim (e.g. the output of
  /// metrics::MetricsJson()). The caller guarantees `raw` is valid JSON.
  void Raw(std::string_view raw);

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  enum Frame : char { kTop, kObject, kArray };

  void Separate();
  void OpenContainer(char open, Frame frame);
  void CloseContainer(char close);

  std::string out_;
  std::vector<char> stack_;        ///< open containers (innermost last)
  std::vector<bool> has_items_{false};  ///< per-frame: wrote an item yet?
  bool pending_key_ = false;       ///< a Key() awaits its value
};

/// A parsed JSON value. Numbers are stored as double (the writer only
/// emits doubles and 64-bit integers up to 2^53 exactly — every value this
/// library writes survives the round trip).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }

  const std::vector<Value>& array_items() const { return array_; }
  /// Object members in document order (duplicate keys keep the last).
  const std::vector<std::pair<std::string, Value>>& object_items() const {
    return object_;
  }

  size_t size() const {
    return is_array() ? array_.size() : is_object() ? object_.size() : 0;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  /// Convenience accessors with defaults (missing/mistyped -> default).
  double NumberOr(double def) const { return is_number() ? number_ : def; }
  bool BoolOr(bool def) const { return is_bool() ? bool_ : def; }
  const std::string& StringOr(const std::string& def) const {
    return is_string() ? string_ : def;
  }
  /// Member shortcut: Find(key) then NumberOr / StringOr / BoolOr.
  double GetNumber(std::string_view key, double def) const;
  std::string GetString(std::string_view key, const std::string& def) const;
  bool GetBool(std::string_view key, bool def) const;

  static Value MakeNull() { return Value(); }
  static Value MakeBool(bool v);
  static Value MakeNumber(double v);
  static Value MakeArray(std::vector<Value> items);
  static Value MakeObject(std::vector<std::pair<std::string, Value>> members);

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, any
/// other trailing content is an error). Errors report the byte offset.
Result<Value> Parse(std::string_view text);

/// Re-serializes a parsed value into `w` (compact form, members in
/// document order). `SerializeValue(Parse(doc), &w)` is semantically
/// lossless for any document this library writes.
void SerializeValue(const Value& v, Writer* w);

}  // namespace json
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_JSON_H_
