#include "src/common/strings.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace rose {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); i++) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    begin++;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    end--;
  }
  return s.substr(begin, end - begin);
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    constexpr uint64_t kMaxTenth = UINT64_MAX / 10;
    if (value > kMaxTenth || (value == kMaxTenth && digit > UINT64_MAX % 10)) {
      return false;  // Would wrap around.
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  bool negative = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    negative = s[0] == '-';
    s.remove_prefix(1);
  }
  uint64_t magnitude = 0;
  const uint64_t limit = static_cast<uint64_t>(INT64_MAX) + (negative ? 1 : 0);
  if (!ParseUint64(s, &magnitude) || magnitude > limit) {
    return false;
  }
  // Negate in unsigned arithmetic: -INT64_MIN does not fit in int64_t.
  *out = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

}  // namespace rose
