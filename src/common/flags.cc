#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace airindex {

namespace {

bool BadValue(std::string_view name, const char* value) {
  std::fprintf(stderr, "invalid value for %.*s: \"%s\"\n",
               static_cast<int>(name.size()), name.data(), value);
  return false;
}

}  // namespace

bool ParseDouble(std::string_view name, const char* value, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    return BadValue(name, value);
  }
  *out = v;
  return true;
}

bool ParseUint(std::string_view name, const char* value, uint64_t* out,
               uint64_t max) {
  // strtoull skips leading space and accepts a sign, wrapping " -1" to
  // 2^64-1; only a leading digit is a number here.
  if (*value < '0' || *value > '9') return BadValue(name, value);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v > max) {
    return BadValue(name, value);
  }
  *out = v;
  return true;
}

}  // namespace airindex
