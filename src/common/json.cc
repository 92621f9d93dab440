#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace multiclust {
namespace json {

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unmodified
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  // std::to_chars emits the shortest decimal form that parses back to
  // exactly v — the documented contract — in one pass (~20x faster than
  // the snprintf/strtod probing it replaced; this sits on the armed
  // progress-stream hot path).
  char buf[32];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) return "null";  // cannot happen for double
  return std::string(buf, res.ptr);
}

void Writer::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the ':' was already written by Key()
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
}

void Writer::OpenContainer(char open, Frame frame) {
  Separate();
  out_ += open;
  stack_.push_back(frame);
  has_items_.push_back(false);
}

void Writer::CloseContainer(char close) {
  out_ += close;
  stack_.pop_back();
  has_items_.pop_back();
}

void Writer::Key(std::string_view name) {
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
  pending_key_ = true;
}

void Writer::String(std::string_view v) {
  Separate();
  out_ += '"';
  out_ += Escape(v);
  out_ += '"';
}

void Writer::Double(double v) {
  Separate();
  out_ += FormatDouble(v);
}

void Writer::Int(int64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void Writer::Uint(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void Writer::Bool(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void Writer::Null() {
  Separate();
  out_ += "null";
}

void Writer::Raw(std::string_view raw) {
  Separate();
  out_ += raw;
}

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  // Last occurrence wins, matching common parser behaviour for duplicates.
  const Value* found = nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) found = &value;
  }
  return found;
}

double Value::GetNumber(std::string_view key, double def) const {
  const Value* v = Find(key);
  return v != nullptr ? v->NumberOr(def) : def;
}

std::string Value::GetString(std::string_view key,
                             const std::string& def) const {
  const Value* v = Find(key);
  return v != nullptr ? v->StringOr(def) : def;
}

bool Value::GetBool(std::string_view key, bool def) const {
  const Value* v = Find(key);
  return v != nullptr ? v->BoolOr(def) : def;
}

Value Value::MakeBool(bool v) {
  Value out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

Value Value::MakeNumber(double v) {
  Value out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

Value Value::MakeArray(std::vector<Value> items) {
  Value out;
  out.type_ = Type::kArray;
  out.array_ = std::move(items);
  return out;
}

Value Value::MakeObject(std::vector<std::pair<std::string, Value>> members) {
  Value out;
  out.type_ = Type::kObject;
  out.object_ = std::move(members);
  return out;
}

namespace {
constexpr size_t kMaxDepth = 256;  // stack-overflow guard for hostile input
}  // namespace

// Named (not anonymous-namespace) so the friend declaration in Value
// matches; everything here stays internal to this translation unit in
// practice — the class is not declared in the header.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<Value> Run() {
    SkipWs();
    Value root;
    MC_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWs();
    if (pos_ != s_.size()) return Error("trailing content after document");
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  Status ParseValue(Value* out, size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        out->type_ = Value::Type::kString;
        return ParseString(&out->string_);
      }
      case 't':
        MC_RETURN_IF_ERROR(ParseLiteral("true"));
        *out = Value::MakeBool(true);
        return Status::OK();
      case 'f':
        MC_RETURN_IF_ERROR(ParseLiteral("false"));
        *out = Value::MakeBool(false);
        return Status::OK();
      case 'n':
        MC_RETURN_IF_ERROR(ParseLiteral("null"));
        *out = Value();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, size_t depth) {
    ++pos_;  // '{'
    out->type_ = Value::Type::kObject;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      std::string key;
      MC_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (Peek() != ':') return Error("expected ':' in object");
      ++pos_;
      SkipWs();
      Value member;
      MC_RETURN_IF_ERROR(ParseValue(&member, depth + 1));
      out->object_.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Value* out, size_t depth) {
    ++pos_;  // '['
    out->type_ = Value::Type::kArray;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      Value item;
      MC_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->array_.push_back(std::move(item));
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (Peek() != '"') return Error("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            MC_RETURN_IF_ERROR(ParseUnicodeEscape(out));
            break;
          }
          default:
            return Error("invalid escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      } else {
        *out += c;
        ++pos_;
      }
    }
    return Error("unterminated string");
  }

  // Reads the 4 hex digits after \u and appends the code point as UTF-8.
  // Surrogate pairs are combined when both halves are present.
  Status ParseUnicodeEscape(std::string* out) {
    uint32_t cp = 0;
    MC_RETURN_IF_ERROR(ReadHex4(&cp));
    if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < s_.size() &&
        s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
      pos_ += 2;
      uint32_t low = 0;
      MC_RETURN_IF_ERROR(ReadHex4(&low));
      if (low >= 0xDC00 && low <= 0xDFFF) {
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      }
    }
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return Status::OK();
  }

  Status ReadHex4(uint32_t* out) {
    if (pos_ + 4 > s_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    const std::string text(s_.substr(start, pos_ - start));
    // JSON forbids leading zeros ("01") and a bare leading '.'; strtod
    // accepts both, so check the grammar's int part explicitly.
    const size_t digits = text[0] == '-' ? 1 : 0;
    if (digits >= text.size() || !(text[digits] >= '0' && text[digits] <= '9'))
      return Error("malformed number");
    if (text[digits] == '0' && digits + 1 < text.size() &&
        text[digits + 1] >= '0' && text[digits + 1] <= '9') {
      return Error("number with leading zero");
    }
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Error("malformed number");
    *out = Value::MakeNumber(v);
    return Status::OK();
  }

  Status ParseLiteral(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return Error("invalid literal");
    pos_ += len;
    return Status::OK();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

void SerializeValue(const Value& v, Writer* w) {
  switch (v.type()) {
    case Value::Type::kNull:
      w->Null();
      break;
    case Value::Type::kBool:
      w->Bool(v.bool_value());
      break;
    case Value::Type::kNumber:
      w->Double(v.number_value());
      break;
    case Value::Type::kString:
      w->String(v.string_value());
      break;
    case Value::Type::kArray:
      w->BeginArray();
      for (const Value& item : v.array_items()) SerializeValue(item, w);
      w->EndArray();
      break;
    case Value::Type::kObject:
      w->BeginObject();
      for (const auto& [key, member] : v.object_items()) {
        w->Key(key);
        SerializeValue(member, w);
      }
      w->EndObject();
      break;
  }
}

}  // namespace json
}  // namespace multiclust
