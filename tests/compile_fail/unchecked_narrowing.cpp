// NEGATIVE compile check for the narrowing gate (tests/CMakeLists.txt):
// implicit integer width loss, the way a codec silently truncates a wire
// field (a 5-GiB payload length folded into a u32 still parses). Compiled
// with the warning flags of the src/ targets it must FAIL under GCC; if it
// ever compiles, -Werror=conversion is no longer on src/ and the configure
// step aborts. checked_narrowing.cpp is the positive control.
#include <cstdint>
#include <string>
#include <vector>

std::uint32_t encode_field_count(const std::vector<std::string>& fields) {
  std::uint32_t count = fields.size();  // BUG (deliberate): size_t -> u32
  return count;
}

void encode_header(std::uint64_t payload_bytes, std::uint32_t* out) {
  *out = payload_bytes;  // BUG (deliberate): u64 -> u32
}

std::uint16_t decode_sequence(std::uint32_t wire_field) {
  std::uint16_t sequence = wire_field;  // BUG (deliberate): u32 -> u16
  return sequence;
}

int main() {
  std::uint32_t header = 0;
  encode_header(1, &header);
  return static_cast<int>(encode_field_count({}) + header +
                          decode_sequence(0));
}
