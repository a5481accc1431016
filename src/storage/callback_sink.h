// Closures as completion routes, for code that wants a lambda per request
// (tests, benches, examples). Every submitter under src/ implements IoSink
// itself and routes with a tag it chose, so no closure is built per
// package; a CallbackSink is the one place a closure meets a device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "storage/io_request.h"
#include "util/slot_array.h"
#include "util/small_function.h"

namespace tracer::storage {

/// An IoSink that parks closures in a SlotArray and routes each
/// completion by slot. A closure is taken out of its slot before it runs
/// (so it may bind more closures, reusing the slot) and is destroyed when
/// it returns. Closures whose request never completed are destroyed with
/// the sink, which must therefore outlive every request it routes.
class CallbackSink final : public IoSink {
 public:
  using Closure = util::SmallFunction<void(const IoCompletion&), 112>;

  CallbackSink() = default;
  CallbackSink(const CallbackSink&) = delete;
  CallbackSink& operator=(const CallbackSink&) = delete;

  /// Park `fn`; the returned route calls `fn(completion)` once.
  CompletionCallback bind(Closure fn) {
    return CompletionCallback(*this, closures_.put(std::move(fn)));
  }

  /// `device.submit(request, bind(fn))`, except that when submit throws
  /// (a zero-byte or out-of-range request) `fn` is destroyed before the
  /// exception leaves, so a rejected request leaves no closure behind.
  template <typename Device>
  void submit(Device& device, const IoRequest& request, Closure fn) {
    const std::uint32_t slot = closures_.put(std::move(fn));
    try {
      device.submit(request, CompletionCallback(*this, slot));
    } catch (...) {
      closures_.take(slot);
      throw;
    }
  }

  /// Closures parked and not yet fired.
  std::size_t pending() const { return closures_.size(); }

  void on_complete(std::uint64_t tag, const IoCompletion& completion) override {
    Closure fn = closures_.take(static_cast<std::uint32_t>(tag));
    fn(completion);
  }

 private:
  util::SlotArray<Closure> closures_;
};

}  // namespace tracer::storage
