#include "common/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace hybridgnn {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\r' ||
          text[begin] == '\n')) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\r' || text[end - 1] == '\n')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

StatusOr<int64_t> ParseInt64(std::string_view text) {
  std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::OutOfRange("integer overflow: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

StatusOr<uint64_t> ParseUint64(std::string_view text) {
  const std::string buf(StripWhitespace(text));
  uint64_t v = 0;
  const char* last = buf.data() + buf.size();
  const auto [end, ec] = std::from_chars(buf.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer overflow: " + buf);
  }
  if (buf.empty() || ec != std::errc() || end != last) {
    return Status::InvalidArgument("not an unsigned integer: " + buf);
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view text) {
  std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::InvalidArgument("empty double");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::OutOfRange("double overflow: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: " + buf);
  }
  return v;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace hybridgnn
