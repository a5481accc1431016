// Fail fixture for tracer-no-naked-sync: raw standard-library sync
// primitives bypass the Clang thread-safety analysis (util/sync.h).
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

class BoundedQueue {
 public:
  void close() {
    std::lock_guard<std::mutex> lock(mu_);  // expect: tracer-no-naked-sync
    closed_ = true;
    cv_.notify_all();
  }

  void wait_closed() {
    std::unique_lock<std::mutex> lock(mu_);  // expect: tracer-no-naked-sync
    cv_.wait(lock, [this] { return closed_; });
  }

 private:
  std::mutex mu_;               // expect: tracer-no-naked-sync
  std::condition_variable cv_;  // expect: tracer-no-naked-sync
  bool closed_ = false;
};

class Snapshotter {
  std::shared_mutex table_lock_;  // expect: tracer-no-naked-sync
};

namespace legacy {
using namespace std;
mutex registry_lock;  // expect: tracer-no-naked-sync
}  // namespace legacy
