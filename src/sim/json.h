#ifndef AIRINDEX_SIM_JSON_H_
#define AIRINDEX_SIM_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace airindex::sim::jsonutil {

/// Streaming writer for the stable-key-order reports the sim layer emits
/// (objects, arrays, strings, numbers — the subset JsonParser reads back).
class JsonWriter {
 public:
  std::string Take() &&;

  void BeginObject();
  void EndObject();
  void BeginArray(std::string_view key);
  /// Array element object/array openers call BeginObject()/BeginArray
  /// directly; bare arrays of scalars are not needed by any report.
  void EndArray();
  void Key(std::string_view key);
  void Field(std::string_view key, double v);
  void Field(std::string_view key, uint64_t v);
  void Field(std::string_view key, std::string_view v);

 private:
  void Indent();
  void Separate();

  std::string out_;
  int depth_ = 0;
  bool fresh_ = true;
  bool pending_ = false;
};

/// Parsed JSON value covering the subset the writers emit, plus the
/// true/false/null keywords hand-written spec files use.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray } type =
      Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// For numbers, the raw token — integer fields re-parse it as uint64 so
  /// seeds above 2^53 stay exact.
  std::string string;
  std::map<std::string, JsonValue, std::less<>> object;
  std::vector<JsonValue> array;
};

/// Parses `text` into a JsonValue, rejecting trailing garbage.
Result<JsonValue> ParseJson(std::string_view text);

/// Typed member accessor; InvalidArgument when missing or mistyped.
Result<std::string> GetString(const JsonValue& obj, std::string_view key);

/// Optional variants: the default when the key is absent, InvalidArgument
/// only on a type mismatch. Additive schema fields parse through these so
/// older documents keep reading.
Result<double> GetNumberOr(const JsonValue& obj, std::string_view key,
                           double fallback);
Result<uint64_t> GetUint64Or(const JsonValue& obj, std::string_view key,
                             uint64_t fallback);
Result<std::string> GetStringOr(const JsonValue& obj, std::string_view key,
                                std::string_view fallback);
/// Accepts a JSON bool or a 0/1 number.
Result<bool> GetBoolOr(const JsonValue& obj, std::string_view key,
                       bool fallback);

}  // namespace airindex::sim::jsonutil

#endif  // AIRINDEX_SIM_JSON_H_
