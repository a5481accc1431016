// Fail fixture for tracer-no-nondeterminism-in-sim: entropy and
// address-ordered iteration break the bit-reproducible replay contract
// (golden replay reports, fleet run == clean run).
#include <algorithm>
#include <cstdlib>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

int pick_victim_disk(int disks) {
  return std::rand() % disks;  // expect: tracer-no-nondeterminism-in-sim
}

double jitter_service_time() {
  std::random_device entropy;  // expect: tracer-no-nondeterminism-in-sim
  std::mt19937 engine;  // expect: tracer-no-nondeterminism-in-sim
  engine.seed(entropy());
  return static_cast<double>(engine()) * 1e-9;
}

void shuffle_members(std::vector<int>& members) {
  std::shuffle(members.begin(), members.end(), std::mt19937{});  // expect: tracer-no-nondeterminism-in-sim
}

double total_queue_depth(const std::unordered_map<int, double>& per_disk) {  // expect: tracer-no-nondeterminism-in-sim
  double first_seen = -1.0;
  for (const auto& entry : per_disk) {  // expect: tracer-no-nondeterminism-in-sim
    if (first_seen < 0.0) first_seen = entry.second;
  }
  return first_seen;
}

// A member declared in a class (a header, in the tree) and iterated in an
// out-of-line member function (its .cpp).
class HeatMap {
 public:
  int hottest() const;

 private:
  std::unordered_map<int, int> heat_;  // expect: tracer-no-nondeterminism-in-sim
};

int HeatMap::hottest() const {
  int best = -1;
  for (const auto& [line, count] : heat_) best = std::max(best, count);  // expect: tracer-no-nondeterminism-in-sim
  return best;
}

// A lookup-only member carries a justified NOLINT; any use other than a
// lookup still fires.
class LineIndex {
 public:
  int first_line() const;
  int size() const { return static_cast<int>(index_.size()); }

 private:
  // NOLINTNEXTLINE(tracer-no-nondeterminism-in-sim): lookup-only, enumerated through an LRU list
  std::unordered_map<int, int> index_;
};

int LineIndex::first_line() const {
  for (auto it = index_.begin(); it != index_.end(); ++it) {  // expect: tracer-no-nondeterminism-in-sim
    return it->first;
  }
  return -1;
}

struct DiskIndex {
  std::unordered_map<int, int> idx;  // expect: tracer-no-nondeterminism-in-sim
};

int first_disk(const DiskIndex& s) {
  for (const auto& entry : s.idx) return entry.first;  // expect: tracer-no-nondeterminism-in-sim
  return -1;
}

using ExtentIndex = std::unordered_set<long>;  // expect: tracer-no-nondeterminism-in-sim

long first_extent(const ExtentIndex& extents) {
  const auto& view = extents;
  for (long e : view) return e;
  return -1;
}

int count_busy(const std::vector<int>& disks) {
  std::unordered_set<int> busy(disks.begin(), disks.end());  // expect: tracer-no-nondeterminism-in-sim
  int n = 0;
  for (auto it = busy.begin(); it != busy.end(); ++it) ++n;  // expect: tracer-no-nondeterminism-in-sim
  return n;
}

namespace legacy {
using namespace std;
int draw(unsigned seed) {
  mt19937 engine;  // expect: tracer-no-nondeterminism-in-sim
  engine.seed(seed);
  return static_cast<int>(engine() % 8);
}
}  // namespace legacy
