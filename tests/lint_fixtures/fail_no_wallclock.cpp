// Fail fixture for tracer-no-wallclock: every marked line must produce a
// diagnostic. `expect:` markers are parsed by the fixture runner
// (tests/test_lint_fixtures.cpp).
#include <chrono>
#include <ctime>

#include <sys/time.h>

double lease_deadline_seconds() {
  auto now = std::chrono::system_clock::now();  // expect: tracer-no-wallclock
  const std::time_t stamp = std::time(nullptr);  // expect: tracer-no-wallclock
  struct timeval tv {};
  gettimeofday(&tv, nullptr);  // expect: tracer-no-wallclock
  return std::chrono::duration<double>(now.time_since_epoch()).count() +
         static_cast<double>(stamp) + static_cast<double>(tv.tv_sec);
}

std::chrono::system_clock::time_point next_heartbeat() {  // expect: tracer-no-wallclock
  // A NOLINT without a justification is itself a violation of the NOLINT
  // policy (docs/STATIC_ANALYSIS.md).
  return std::chrono::system_clock::now();  // NOLINT(tracer-no-wallclock)  expect: tracer-nolint-justification
}

double frame_time_seconds() {
  // libstdc++ defines high_resolution_clock as an alias of system_clock.
  const auto now = std::chrono::high_resolution_clock::now();  // expect: tracer-no-wallclock
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}
