// Fail fixture for tracer-no-nondeterminism-in-sim: entropy and
// address-ordered iteration break the bit-reproducible replay contract
// (golden replay reports, fleet run == clean run).
#include <cstdlib>
#include <random>
#include <unordered_map>

int pick_victim_disk(int disks) {
  return std::rand() % disks;  // expect: tracer-no-nondeterminism-in-sim
}

double jitter_service_time() {
  std::random_device entropy;  // expect: tracer-no-nondeterminism-in-sim
  std::mt19937 engine;  // expect: tracer-no-nondeterminism-in-sim
  engine.seed(entropy());
  return static_cast<double>(engine()) * 1e-9;
}

double total_queue_depth(const std::unordered_map<int, double>& per_disk) {
  double first_seen = -1.0;
  for (const auto& entry : per_disk) {  // expect: tracer-no-nondeterminism-in-sim
    if (first_seen < 0.0) first_seen = entry.second;
  }
  return first_seen;
}
