#ifndef HYBRIDGNN_COMMON_STRING_UTIL_H_
#define HYBRIDGNN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace hybridgnn {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Parses a base-10 signed integer; whole string must be consumed.
StatusOr<int64_t> ParseInt64(std::string_view text);

/// Parses a base-10 unsigned integer; whole string must be consumed. A sign
/// (`-` or `+`) is rejected, not wrapped.
StatusOr<uint64_t> ParseUint64(std::string_view text);

/// Parses a floating point number; whole string must be consumed.
StatusOr<double> ParseDouble(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hybridgnn

#endif  // HYBRIDGNN_COMMON_STRING_UTIL_H_
