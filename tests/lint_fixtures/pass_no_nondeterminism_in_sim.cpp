// Pass fixture for tracer-no-nondeterminism-in-sim: config-seeded engines,
// order-stable containers, and a lookup-only hash map with a justified
// NOLINT are the sanctioned tools. Must be silent.
#include <cstdint>
#include <list>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace tracer::util {
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = state_ * 6364136223846793005ULL + 1; }

 private:
  std::uint64_t state_;
};
}  // namespace tracer::util

int pick_victim_disk(tracer::util::Rng& rng, int disks) {
  return static_cast<int>(rng.next() % static_cast<std::uint64_t>(disks));
}

double jitter_service_time(std::uint64_t config_seed) {
  std::mt19937_64 engine(config_seed);  // explicit seed: reproducible
  return static_cast<double>(engine()) * 1e-9;
}

double total_queue_depth(const std::map<int, double>& per_disk,
                         const std::vector<double>& lanes) {
  double sum = 0.0;
  for (const auto& entry : per_disk) sum += entry.second;
  for (const double depth : lanes) sum += depth;
  return sum;
}

// Lookups never expose hash order; enumeration goes through the list.
class LruIndex {
 public:
  void touch(int line) {
    auto it = index_.find(line);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (index_.size() >= 8) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(line);
    index_.emplace(line, order_.begin());
  }
  bool contains(int line) const { return index_.count(line) != 0; }
  int oldest() const { return order_.back(); }

 private:
  std::list<int> order_;
  // NOLINTNEXTLINE(tracer-no-nondeterminism-in-sim): lookup-only, enumerated through order_
  std::unordered_map<int, std::list<int>::iterator> index_;
};
