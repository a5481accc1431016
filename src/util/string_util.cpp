#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace tracer::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    const std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  text = trim(text);
  if (text.empty()) return false;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  text = trim(text);
  if (text.empty()) return false;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_double(std::string_view text, double& out) {
  text = trim(text);
  if (text.empty()) return false;
  // std::from_chars<double> exists in libstdc++ 11+; use it directly.
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_size(std::string_view text, std::uint64_t& out) {
  text = trim(text);
  if (text.empty()) return false;
  std::uint64_t multiplier = 1;
  char last = text.back();
  if (last == 'B' || last == 'b') {
    text.remove_suffix(1);
    if (text.empty()) return false;
    last = text.back();
  }
  switch (last) {
    case 'K': case 'k': multiplier = 1024ULL; text.remove_suffix(1); break;
    case 'M': case 'm': multiplier = 1024ULL * 1024; text.remove_suffix(1); break;
    case 'G': case 'g': multiplier = 1024ULL * 1024 * 1024; text.remove_suffix(1); break;
    default: break;
  }
  std::uint64_t base = 0;
  if (!parse_u64(text, base)) return false;
  out = base * multiplier;
  return true;
}

std::string format_size(std::uint64_t bytes) {
  constexpr std::uint64_t kK = 1024;
  if (bytes >= kK * kK * kK && bytes % (kK * kK * kK) == 0)
    return std::to_string(bytes / (kK * kK * kK)) + "G";
  if (bytes >= kK * kK && bytes % (kK * kK) == 0)
    return std::to_string(bytes / (kK * kK)) + "M";
  if (bytes >= kK && bytes % kK == 0) return std::to_string(bytes / kK) + "K";
  return std::to_string(bytes) + "B";
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_lossless(double v) {
  // 17 significant digits, a sign, a point and "e-308": 24 characters.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, v,
                                    std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

}  // namespace tracer::util
