// Annotated synchronization primitives (docs/STATIC_ANALYSIS.md).
//
// Every mutex in src/ is a util::Mutex, every guarded field carries
// TRACER_GUARDED_BY, and every function with a locking contract is annotated
// with TRACER_REQUIRES / TRACER_ACQUIRE / TRACER_RELEASE / TRACER_EXCLUDES.
// Under Clang, -Wthread-safety (promoted to an error by tracer_warnings)
// turns those contracts into compile-time checks: an unguarded access to a
// guarded field, a missing unlock, or a call that needs a lock the caller
// does not hold all fail the build. Under GCC the macros expand to nothing
// and the wrappers cost exactly what the std primitives they wrap cost —
// the annotations are documentation there, enforced by the Clang CI job.
//
// The wrappers deliberately expose a narrow surface:
//   * Mutex       — std::mutex with the capability attribute.
//   * MutexLock   — scoped lock (std::unique_lock inside, so CondVar can
//                   wait on it and mid-scope unlock()/lock() is possible).
//   * MutexPairLock — deadlock-free two-mutex scope (std::lock order).
//   * CondVar     — std::condition_variable over Mutex/MutexLock.
//
// Condition-variable idiom: write wait loops by hand,
//
//   MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(lock);
//
// instead of passing a predicate lambda. The analysis cannot see that a
// predicate lambda runs with the lock held (it is invoked from inside the
// unannotated std::condition_variable::wait), so a hand-written loop is the
// form that both humans and the checker can read.
#pragma once

#include <condition_variable>
#include <chrono>
#include <mutex>

// Clang exposes the thread-safety attributes; GCC does not. The macros
// compile away everywhere else so annotated headers stay portable.
#if defined(__clang__)
#define TRACER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TRACER_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" names it in diagnostics).
#define TRACER_CAPABILITY(x) TRACER_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose constructor acquires and destructor releases.
#define TRACER_SCOPED_CAPABILITY TRACER_THREAD_ANNOTATION(scoped_lockable)
/// Field is only read/written with the given mutex held.
#define TRACER_GUARDED_BY(x) TRACER_THREAD_ANNOTATION(guarded_by(x))
/// Pointer field whose pointee is guarded by the given mutex.
#define TRACER_PT_GUARDED_BY(x) TRACER_THREAD_ANNOTATION(pt_guarded_by(x))
/// Caller must hold the given mutex(es) to call this function.
#define TRACER_REQUIRES(...) \
  TRACER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and returns with them held.
#define TRACER_ACQUIRE(...) \
  TRACER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function attempts acquisition; first arg is the success return value.
#define TRACER_TRY_ACQUIRE(...) \
  TRACER_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function releases the mutex(es) the caller holds.
#define TRACER_RELEASE(...) \
  TRACER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Caller must NOT hold the given mutex(es) (deadlock guard).
#define TRACER_EXCLUDES(...) TRACER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define TRACER_RETURN_CAPABILITY(x) TRACER_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: skip analysis for one function (justify at the call site).
#define TRACER_NO_THREAD_SAFETY_ANALYSIS \
  TRACER_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tracer::util {

class CondVar;

/// std::mutex with the Clang capability attribute. Prefer MutexLock over
/// calling lock()/unlock() directly.
class TRACER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TRACER_ACQUIRE() { mutex_.lock(); }
  void unlock() TRACER_RELEASE() { mutex_.unlock(); }
  bool try_lock() TRACER_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  friend class MutexPairLock;
  std::mutex mutex_;
};

/// RAII scope lock over Mutex. Backed by std::unique_lock so CondVar can
/// wait on it and unlock()/lock() can bracket a slow call mid-scope; the
/// destructor releases only if still held.
class TRACER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) TRACER_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  ~MutexLock() TRACER_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily drop the lock (e.g. around a blocking callback).
  void unlock() TRACER_RELEASE() { lock_.unlock(); }
  /// Re-acquire after unlock().
  void lock() TRACER_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Deadlock-free two-mutex scope (std::lock ordering); used where two
/// objects' states must be consistent at once.
class TRACER_SCOPED_CAPABILITY MutexPairLock {
 public:
  MutexPairLock(Mutex& a, Mutex& b) TRACER_ACQUIRE(a, b)
      : a_(a.mutex_), b_(b.mutex_) {
    std::lock(a_, b_);
  }
  ~MutexPairLock() TRACER_RELEASE() {
    a_.unlock();
    b_.unlock();
  }

  MutexPairLock(const MutexPairLock&) = delete;
  MutexPairLock& operator=(const MutexPairLock&) = delete;

 private:
  std::mutex& a_;
  std::mutex& b_;
};

/// std::condition_variable over Mutex/MutexLock. Callers hold the MutexLock
/// across wait() (the capability is logically held for the whole scope even
/// though wait releases it internally — that matches the program's
/// invariants at every statement boundary the analysis checks).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexLock& lock, const std::chrono::time_point<Clock, Duration>& t) {
    return cv_.wait_until(lock.lock_, t);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock.lock_, d);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace tracer::util
