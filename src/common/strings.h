// Small string helpers shared across Rose modules.
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace rose {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Parses a non-negative integer; returns false on malformed input and on a
// value that does not fit.
bool ParseUint64(std::string_view s, uint64_t* out);
// The same with an optional sign; the value must fit in int64_t.
bool ParseInt64(std::string_view s, int64_t* out);

}  // namespace rose

#endif  // SRC_COMMON_STRINGS_H_
