#include "sim/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

namespace airindex::sim::jsonutil {

namespace {

/// Shortest representation that round-trips through a double exactly.
std::string DoubleToString(double v) {
  // JSON has no NaN/inf literals: to_chars would emit "nan"/"inf", which
  // no reader (including this library's) round-trips. Emit null instead;
  // the number accessors map it back to NaN.
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf;
  auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), end);
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

std::string JsonWriter::Take() && { return std::move(out_); }

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  fresh_ = true;
  ++depth_;
}

void JsonWriter::EndObject() {
  --depth_;
  out_ += '\n';
  Indent();
  out_ += '}';
  fresh_ = false;
}

void JsonWriter::BeginArray(std::string_view key) {
  Key(key);
  out_ += '[';
  pending_ = false;
  fresh_ = true;
  ++depth_;
}

void JsonWriter::EndArray() {
  --depth_;
  out_ += '\n';
  Indent();
  out_ += ']';
  fresh_ = false;
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += '"';
  out_ += key;  // keys are known identifiers; no escaping needed
  out_ += "\": ";
  pending_ = true;
}

void JsonWriter::Field(std::string_view key, double v) {
  Key(key);
  out_ += DoubleToString(v);
  pending_ = false;
}

void JsonWriter::Field(std::string_view key, uint64_t v) {
  Key(key);
  out_ += std::to_string(v);
  pending_ = false;
}

void JsonWriter::Field(std::string_view key, std::string_view v) {
  Key(key);
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  pending_ = false;
}

void JsonWriter::Indent() {
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
}

void JsonWriter::Separate() {
  // A key was just written: the next token is its value, already
  // prefixed with ": " — no comma or newline.
  if (pending_) {
    pending_ = false;
    return;
  }
  if (!fresh_) out_ += ',';
  if (depth_ > 0 || !fresh_) out_ += '\n';
  Indent();
  fresh_ = false;
}

// ---------------------------------------------------------------------------
// Parsing: a minimal JSON reader covering the subset the writers emit
// (objects, arrays, strings, numbers).
// ---------------------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    AIRINDEX_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<char> Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    return text_[pos_];
  }

  Status Expect(char c) {
    AIRINDEX_ASSIGN_OR_RETURN(char got, Peek());
    if (got != c) {
      return Status::InvalidArgument(std::string("expected '") + c +
                                     "' in JSON");
    }
    ++pos_;
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    AIRINDEX_ASSIGN_OR_RETURN(char c, Peek());
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      AIRINDEX_ASSIGN_OR_RETURN(v.string, ParseString());
      return v;
    }
    if (c == 't' || c == 'f' || c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<JsonValue> ParseKeyword() {
    JsonValue v;
    if (ConsumeWord("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (ConsumeWord("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (ConsumeWord("null")) return v;
    return Status::InvalidArgument("unrecognized JSON keyword");
  }

  Result<std::string> ParseString() {
    AIRINDEX_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      // Standard JSON escapes: hand-written spec files use them even
      // though this library's writers only ever emit \" and \\.
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("unterminated escape in JSON");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          AIRINDEX_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Status::InvalidArgument(
              std::string("unknown JSON escape \\") + e);
      }
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated JSON string");
    }
    ++pos_;  // closing quote
    return out;
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Status::InvalidArgument("truncated \\u escape in JSON");
    }
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Status::InvalidArgument("malformed \\u escape in JSON");
      }
    }
    return cp;
  }

  /// UTF-8 encoding of a BMP code point (surrogate pairs are passed
  /// through as their individual units; report fields never need them).
  static void AppendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.string = std::string(text_.substr(start, pos_ - start));
    auto [end, ec] = std::from_chars(text_.data() + start,
                                     text_.data() + pos_, v.number);
    if (ec != std::errc() || end != text_.data() + pos_ || start == pos_) {
      return Status::InvalidArgument("malformed JSON number");
    }
    return v;
  }

  Result<JsonValue> ParseObject() {
    AIRINDEX_RETURN_IF_ERROR(Expect('{'));
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    AIRINDEX_ASSIGN_OR_RETURN(char c, Peek());
    if (c == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      AIRINDEX_ASSIGN_OR_RETURN(std::string key, ParseString());
      AIRINDEX_RETURN_IF_ERROR(Expect(':'));
      AIRINDEX_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      v.object.emplace(std::move(key), std::move(member));
      AIRINDEX_ASSIGN_OR_RETURN(char next, Peek());
      ++pos_;
      if (next == '}') return v;
      if (next != ',') {
        return Status::InvalidArgument("expected ',' or '}' in JSON object");
      }
    }
  }

  Result<JsonValue> ParseArray() {
    AIRINDEX_RETURN_IF_ERROR(Expect('['));
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    AIRINDEX_ASSIGN_OR_RETURN(char c, Peek());
    if (c == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      AIRINDEX_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      v.array.push_back(std::move(element));
      AIRINDEX_ASSIGN_OR_RETURN(char next, Peek());
      ++pos_;
      if (next == ']') return v;
      if (next != ',') {
        return Status::InvalidArgument("expected ',' or ']' in JSON array");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Required numeric members behind GetNumberOr/GetUint64Or:
/// InvalidArgument when missing or mistyped.
Result<double> GetNumber(const JsonValue& obj, std::string_view key) {
  auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    return Status::InvalidArgument("missing numeric field " +
                                   std::string(key));
  }
  // The writer serializes non-finite doubles as null (JSON has no NaN
  // literal); read a null back as NaN.
  if (it->second.type == JsonValue::Type::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (it->second.type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("missing numeric field " +
                                   std::string(key));
  }
  return it->second.number;
}

Result<uint64_t> GetUint64(const JsonValue& obj, std::string_view key) {
  auto it = obj.object.find(key);
  if (it == obj.object.end() ||
      it->second.type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("missing numeric field " +
                                   std::string(key));
  }
  const std::string& raw = it->second.string;
  uint64_t v = 0;
  auto [end, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc() || end != raw.data() + raw.size()) {
    return Status::InvalidArgument("field " + std::string(key) +
                                   " is not an unsigned integer");
  }
  return v;
}

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

Result<std::string> GetString(const JsonValue& obj, std::string_view key) {
  auto it = obj.object.find(key);
  if (it == obj.object.end() ||
      it->second.type != JsonValue::Type::kString) {
    return Status::InvalidArgument("missing string field " +
                                   std::string(key));
  }
  return it->second.string;
}

Result<double> GetNumberOr(const JsonValue& obj, std::string_view key,
                           double fallback) {
  if (obj.object.find(key) == obj.object.end()) return fallback;
  return GetNumber(obj, key);
}

Result<uint64_t> GetUint64Or(const JsonValue& obj, std::string_view key,
                             uint64_t fallback) {
  if (obj.object.find(key) == obj.object.end()) return fallback;
  return GetUint64(obj, key);
}

Result<std::string> GetStringOr(const JsonValue& obj, std::string_view key,
                                std::string_view fallback) {
  if (obj.object.find(key) == obj.object.end()) {
    return std::string(fallback);
  }
  return GetString(obj, key);
}

Result<bool> GetBoolOr(const JsonValue& obj, std::string_view key,
                       bool fallback) {
  auto it = obj.object.find(key);
  if (it == obj.object.end()) return fallback;
  if (it->second.type == JsonValue::Type::kBool) return it->second.boolean;
  if (it->second.type == JsonValue::Type::kNumber) {
    return it->second.number != 0.0;
  }
  return Status::InvalidArgument("field " + std::string(key) +
                                 " is not a boolean");
}

}  // namespace airindex::sim::jsonutil
