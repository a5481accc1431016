// Fail fixture for tracer-lossless-double-format: sub-%.17g floating
// conversions in codec paths silently lose bits on the wire (the %.9g bug
// class).
#include <cstdio>
#include <string>

namespace tracer::util {
std::string format(const char* fmt, ...);
}

void encode_power_field(char* buf, unsigned long n, double watts) {
  std::snprintf(buf, n, "%.9g", watts);  // expect: tracer-lossless-double-format
  std::snprintf(buf, n, "%f", watts);  // expect: tracer-lossless-double-format
  std::snprintf(buf, n, "%08.3f", watts);  // expect: tracer-lossless-double-format
}

std::string encode_record(double joules, int precision) {
  std::string row = tracer::util::format("%.16g", joules);  // expect: tracer-lossless-double-format
  row += tracer::util::format("%.*f", precision, joules);  // expect: tracer-lossless-double-format
  row += tracer::util::format("j=%g w=%d", joules, precision);  // expect: tracer-lossless-double-format
  // Adjacent literals are one format string to the compiler.
  row += tracer::util::format("%" "g", joules);  // expect: tracer-lossless-double-format
  row += tracer::util::format("%."  // expect: tracer-lossless-double-format
                              "6g",
                              joules);
  return row;
}
