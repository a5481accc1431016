// Small string helpers shared by the trace repository naming scheme, the
// SRT parser, and the config reader.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tracer::util {

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Split on arbitrary whitespace runs; empty fields are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

std::string to_lower(std::string_view text);

/// Parse helpers returning false on malformed input instead of throwing —
/// trace files come from outside the process and must not crash it.
bool parse_u64(std::string_view text, std::uint64_t& out);
bool parse_i64(std::string_view text, std::int64_t& out);
bool parse_double(std::string_view text, double& out);

/// "4K" -> 4096, "1M" -> 1048576, "512" -> 512. Returns false on junk.
bool parse_size(std::string_view text, std::uint64_t& out);

/// 4096 -> "4K", 1048576 -> "1M", 512 -> "512B" (repository file names).
std::string format_size(std::uint64_t bytes);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `v` as "%.17g" would print it (byte for byte, including inf, nan and
/// their signs), which round-trips every finite double exactly — through
/// std::to_chars, so without printf's format parsing and second pass.
std::string format_lossless(double v);

}  // namespace tracer::util
