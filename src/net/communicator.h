// Communicator (§III-A1): moves typed Messages over an Endpoint, assigning
// sequence numbers and matching replies to requests. Both the evaluation
// host and the workload generator own one.
//
// Resilience (docs/RESILIENCE.md): the transport is type-erased so a
// Communicator runs equally over a clean Endpoint or a net::FaultyEndpoint;
// call() layers idempotent retries (stable request_id, fresh sequence per
// retransmit, backoff with jitter) on top of the one-shot request(); corrupt
// frames are dropped and counted instead of unwinding the receive path;
// heartbeats and a liveness deadline detect a dead peer in seconds; reset()
// re-pairs the transport after a hard disconnect while keeping the RPC
// identity state, so retried requests still dedup on the server.
//
// Concurrency: a Communicator is THREAD-CONFINED — sequence counters,
// stash, and dedup state are unguarded by design. One thread drives all of
// send/poll/recv/call/reset on a given instance (the host's control loop,
// or the generator's serve loop); cross-thread control arrives through the
// messages themselves, never through concurrent calls on this object. The
// underlying Channel endpoints ARE thread-safe — concurrency lives at the
// transport layer, one Communicator per thread above it (DESIGN.md §6e).
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "net/channel.h"
#include "net/message.h"
#include "util/backoff.h"

namespace tracer::net {

/// Retry policy for Communicator::call. A call is one logical RPC: every
/// retransmit carries the same request_id, so a server that already ran the
/// command replays its cached reply instead of running it twice.
struct CallOptions {
  Seconds attempt_timeout = 1.0;  ///< reply wait per attempt
  int max_attempts = 1;           ///< total transmissions (>= 1)
  util::Backoff::Params backoff;  ///< pacing between attempts
  /// Invoked after each failed attempt with the 1-based count of attempts
  /// made so far; return false to give up early. The reconnect hook lives
  /// here: on peer_closed(), re-pair the transport via reset() and return
  /// true to retry over the new connection.
  std::function<bool(int attempts_made)> on_attempt_failure;
};

/// Server-side dedup window: the last `capacity` (request_id -> reply)
/// pairs. A retransmitted request whose reply was lost on the wire hits
/// this cache and gets the reply re-sent — the command does not run twice.
/// request_id 0 (legacy/OOB) is never cached.
///
/// Concurrency: thread-confined, like the Communicator and the
/// WorkloadGeneratorService that own it (DESIGN.md §6e) — no internal
/// locking.
class ReplyCache {
 public:
  explicit ReplyCache(std::size_t capacity = 32) : capacity_(capacity) {}

  /// The cached reply for `request_id`, or nullptr. The pointer is valid
  /// until the next insert().
  const Message* find(std::uint32_t request_id) const;
  void insert(std::uint32_t request_id, Message reply);
  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::deque<std::pair<std::uint32_t, Message>> entries_;
};

class Communicator {
 public:
  /// Out-of-band frames that arrive while request() waits are stashed for
  /// poll(); the stash is bounded by `stash_capacity` (a long test streams
  /// one PROGRESS frame per sampling cycle — hours of them must not grow
  /// memory without bound). When full, the oldest stashed frame is dropped
  /// and counted on obs' "net.stash.dropped"; the newest frames survive,
  /// since a live display only cares about the most recent progress.
  ///
  /// Accepts any endpoint-shaped transport: net::Endpoint or
  /// net::FaultyEndpoint today.
  template <typename E>
  explicit Communicator(E endpoint, std::size_t stash_capacity = 256)
      : transport_(make_transport(std::move(endpoint))),
        stash_capacity_(stash_capacity) {}

  /// Fire-and-forget send; stamps and returns the sequence number.
  std::uint32_t send(Message message);

  /// Out-of-band send: the message keeps its sequence (0 = unsolicited
  /// stream frame, e.g. PROGRESS), so it can never be mistaken for a
  /// request's reply.
  void send_oob(const Message& message);

  /// Non-blocking receive of the next inbound message. Corrupt frames and
  /// heartbeats are swallowed (counted), never delivered.
  std::optional<Message> poll();

  /// Blocking receive with timeout.
  std::optional<Message> recv(Seconds timeout);

  /// Send a request and wait for the message that echoes its sequence
  /// number. Other messages arriving meanwhile are queued for poll(), up
  /// to the stash bound (oldest dropped first). One-shot: no retries, no
  /// request_id — prefer call() for anything that must survive a lossy
  /// link.
  std::optional<Message> request(Message message, Seconds timeout);

  /// Idempotent RPC: stamps a request_id (stable across retransmits) and a
  /// fresh sequence per attempt, retries per `options`, and matches the
  /// reply by request_id. Late duplicate replies of completed calls are
  /// dropped ("net.rpc.dup_replies_dropped"); each retransmit counts on
  /// "net.rpc.retries".
  std::optional<Message> call(Message message, const CallOptions& options);

  /// Reply to `request` with `reply` (copies sequence and request_id over,
  /// so the caller can match it either way).
  void reply(const Message& request, Message reply);

  /// Replace the transport after a disconnect (Endpoint re-pair). Keeps
  /// sequence/request_id state — a call() retried over the new connection
  /// still dedups server-side — and clears the stash (stale stream frames
  /// from the dead connection). Counted on "net.rpc.reconnects".
  template <typename E>
  void reset(E endpoint) {
    transport_ = make_transport(std::move(endpoint));
    stash_.clear();
    note_reconnect();
  }

  /// While call() waits, send a keepalive every `interval` seconds so the
  /// peer's liveness deadline sees a live-but-quiet client. 0 disables
  /// (the default: in-process channels rarely need it).
  void set_heartbeat_interval(Seconds interval) {
    heartbeat_interval_ = interval;
  }

  /// Fail a call() attempt early when nothing — reply, progress frame, or
  /// heartbeat — arrived for this long (counted on
  /// "net.heartbeat.missed"). 0 disables; then only attempt_timeout bounds
  /// the wait.
  void set_liveness_timeout(Seconds timeout) { liveness_timeout_ = timeout; }

  /// Seconds since the last well-formed inbound frame of any kind.
  Seconds since_last_inbound() const;

  std::size_t stash_size() const { return stash_.size(); }
  std::size_t stash_capacity() const { return stash_capacity_; }
  /// Frames evicted from this communicator's stash since construction.
  std::uint64_t stash_dropped() const { return stash_dropped_; }

  bool connected() const { return transport_ && transport_->connected(); }
  bool peer_closed() const {
    return !transport_ || transport_->peer_closed();
  }

  void close() {
    if (transport_) transport_->close();
  }

 private:
  struct Transport {
    virtual ~Transport() = default;
    virtual bool send(Frame frame) = 0;
    virtual std::optional<Frame> poll() = 0;
    virtual std::optional<Frame> recv(Seconds timeout) = 0;
    virtual void close() = 0;
    virtual bool connected() const = 0;
    virtual bool peer_closed() const = 0;
  };

  template <typename E>
  struct TransportImpl final : Transport {
    explicit TransportImpl(E e) : endpoint(std::move(e)) {}
    bool send(Frame frame) override { return endpoint.send(std::move(frame)); }
    std::optional<Frame> poll() override { return endpoint.poll(); }
    std::optional<Frame> recv(Seconds timeout) override {
      return endpoint.recv(timeout);
    }
    void close() override { endpoint.close(); }
    bool connected() const override { return endpoint.connected(); }
    bool peer_closed() const override { return endpoint.peer_closed(); }
    E endpoint;
  };

  template <typename E>
  static std::unique_ptr<Transport> make_transport(E endpoint) {
    return std::make_unique<TransportImpl<E>>(std::move(endpoint));
  }

  /// Decode one frame, updating liveness. Returns nullopt for frames the
  /// caller must never see: corrupt (dropped + counted), heartbeats
  /// (counted), and duplicate replies of already-completed calls.
  std::optional<Message> decode_inbound(const Frame& frame);
  /// One transmission + reply wait for call(); nullopt on timeout,
  /// liveness expiry, or hang-up.
  std::optional<Message> wait_reply(std::uint32_t request_id, Seconds timeout);
  void maybe_heartbeat(std::chrono::steady_clock::time_point now);
  void remember_completed(std::uint32_t request_id);
  bool is_completed(std::uint32_t request_id) const;
  void note_reconnect();
  void stash_push(Message message);

  std::unique_ptr<Transport> transport_;
  std::uint32_t next_sequence_ = 1;
  std::uint32_t next_request_id_ = 1;
  std::size_t stash_capacity_;
  std::uint64_t stash_dropped_ = 0;
  std::deque<Message> stash_;  ///< out-of-band messages seen during request()
  /// Request ids whose call() already returned; bounds the duplicate-reply
  /// filter the same way ReplyCache bounds the server side.
  std::deque<std::uint32_t> completed_ids_;
  Seconds heartbeat_interval_ = 0.0;
  Seconds liveness_timeout_ = 0.0;
  std::uint64_t heartbeat_ticks_ = 0;
  std::chrono::steady_clock::time_point last_heartbeat_{};
  std::chrono::steady_clock::time_point last_inbound_ =
      std::chrono::steady_clock::now();
};

}  // namespace tracer::net
