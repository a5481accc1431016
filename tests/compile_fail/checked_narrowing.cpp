// POSITIVE control for the narrowing gate (tests/CMakeLists.txt): explicit
// static_casts beside range checks, widening conversions and in-range
// constants compile cleanly under the src/ flags, so the failure of
// unchecked_narrowing.cpp comes from the narrowing, not a broken TU.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

std::uint32_t encode_field_count(const std::vector<std::string>& fields) {
  if (fields.size() > 0xFFFFFFFFu) {
    throw std::length_error("field count exceeds wire u32");
  }
  std::uint32_t count = static_cast<std::uint32_t>(fields.size());
  return count;
}

std::uint64_t decode_header(std::uint32_t wire_field) {
  std::uint64_t widened = wire_field;  // widening is always exact
  std::uint8_t version = 2;            // in-range constant
  return widened + version;
}

int main() {
  return static_cast<int>(encode_field_count({}) + decode_header(0));
}
