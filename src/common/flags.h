#ifndef AIRINDEX_COMMON_FLAGS_H_
#define AIRINDEX_COMMON_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace airindex {

/// Strict numeric parsing of command-line values, shared by the CLI and
/// the bench binaries. The whole of `value` must be the number: atof/atoi
/// read "abc" as 0 and ran the wrong experiment without a word. On failure
/// the parser prints
///
///   invalid value for NAME: "VALUE"
///
/// to stderr and returns false; the caller decides how to exit. `name` is
/// what the user typed the value for, e.g. "--loss" or "<source>".
bool ParseDouble(std::string_view name, const char* value, double* out);

/// As ParseDouble for a decimal unsigned integer no larger than `max`.
/// Rejects a leading sign or space: strtoull wraps "-1" to 2^64-1 instead
/// of failing.
bool ParseUint(std::string_view name, const char* value, uint64_t* out,
               uint64_t max = UINT64_MAX);

/// The --name=value forms: `arg` is the whole argument and `prefix` the
/// length of "--name=". A flag stored in a narrower field passes that
/// field's limit as `max`, so a value past it is rejected by name instead
/// of wrapping in the cast.
inline bool ParseDoubleFlag(const char* arg, size_t prefix, double* out) {
  return ParseDouble(std::string_view(arg, prefix - 1), arg + prefix, out);
}
inline bool ParseUintFlag(const char* arg, size_t prefix, uint64_t* out,
                          uint64_t max = UINT64_MAX) {
  return ParseUint(std::string_view(arg, prefix - 1), arg + prefix, out,
                   max);
}

}  // namespace airindex

#endif  // AIRINDEX_COMMON_FLAGS_H_
