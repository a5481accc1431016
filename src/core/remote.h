// Distributed deployment adapters (Fig 1 / Fig 3): the workload-generator
// host as a message-driven service, and the evaluation-host side client
// that drives it over a net::Channel. The same frames would flow over TCP
// between machines; here each service runs on its own thread.
//
// The client rides net::Communicator::call — idempotent request ids,
// bounded retry with backoff, optional reconnect — and the service keeps a
// ReplyCache so a retried START_TEST whose reply was lost re-sends the
// cached record instead of running the test twice (docs/RESILIENCE.md).
#pragma once

#include <functional>
#include <optional>

#include "core/evaluation_host.h"
#include "net/communicator.h"
#include "util/backoff.h"

namespace tracer::core {

/// Service-side knobs (previously hardcoded in serve()).
struct ServiceOptions {
  /// serve() returns after this long with no inbound frames. Heartbeats
  /// count as life, so a quiet-but-alive client is not disconnected; a
  /// hung-up peer returns immediately regardless.
  Seconds idle_timeout = 3600.0;
};

/// Server side: wraps an EvaluationHost and serves CONFIGURE_TEST /
/// START_TEST / STOP_TEST commands.
class WorkloadGeneratorService {
 public:
  explicit WorkloadGeneratorService(EvaluationHost& host,
                                    ServiceOptions options = {})
      : host_(host), options_(options) {}

  /// Serve until STOP_TEST, peer hang-up, or idle timeout. Run this on the
  /// service thread. May be called again after a disconnect with a fresh
  /// Communicator (reconnect): the dedup window survives across calls, so
  /// a request retried over the new connection still hits the cache.
  void serve(net::Communicator& comm);

  /// Handle one command synchronously (exposed for tests).
  net::Message handle(const net::Message& command);

  /// The full record of the last START_TEST that completed, timestamp
  /// included (the PERF_RESULT reply carries only the measured fields).
  const std::optional<db::TestRecord>& last_record() const {
    return last_record_;
  }

 private:
  EvaluationHost& host_;
  ServiceOptions options_;
  std::optional<workload::WorkloadMode> configured_;
  std::optional<db::TestRecord> last_record_;
  net::ReplyCache replies_;
};

/// Client-side knobs: the per-call timeouts that used to be hardcoded
/// defaults on each method, plus the retry policy shared by all of them.
struct RemoteClientOptions {
  Seconds configure_timeout = 30.0;  ///< per-attempt CONFIGURE_TEST wait
  Seconds start_timeout = 300.0;     ///< per-attempt START_TEST wait
  Seconds stop_timeout = 10.0;       ///< per-attempt STOP_TEST wait
  int max_attempts = 3;              ///< transmissions per RPC (>= 1)
  util::Backoff::Params backoff;     ///< pacing between attempts
};

/// Client side: the evaluation host's view of a remote workload generator.
class RemoteWorkloadClient {
 public:
  explicit RemoteWorkloadClient(net::Communicator& comm,
                                RemoteClientOptions options = {})
      : comm_(comm), options_(options) {}

  /// CONFIGURE_TEST with the mode vector; true on ACK. `timeout` overrides
  /// options().configure_timeout for this call.
  bool configure(const workload::WorkloadMode& mode,
                 std::optional<Seconds> timeout = std::nullopt);

  /// START_TEST; returns the PERF_RESULT-decoded record on success.
  std::optional<db::TestRecord> start(std::optional<Seconds> timeout = {});

  /// STOP_TEST (shuts the service loop down). Returns true when the
  /// service acknowledged; either way the communicator is closed, so a
  /// service thread blocked in serve() can never be leaked on a lost ACK.
  bool stop(std::optional<Seconds> timeout = {});

  /// Install the reconnect hook: called when an attempt fails with the
  /// peer hung up. Re-pair the channel, hand the new endpoint to
  /// comm().reset(), and return true to retry the RPC over it; return
  /// false to give up.
  void set_reconnect(std::function<bool()> hook) {
    reconnect_ = std::move(hook);
  }

  net::Communicator& comm() { return comm_; }
  const RemoteClientOptions& options() const { return options_; }

 private:
  net::CallOptions call_options(Seconds attempt_timeout);

  net::Communicator& comm_;
  RemoteClientOptions options_;
  std::function<bool()> reconnect_;
};

/// Field-level encoding shared by both sides (also used by tests). The
/// decoders are strict: every known field present (exactly the expected
/// set), or nullopt — a mangled frame must not default-fill a record.
net::Message encode_mode(const workload::WorkloadMode& mode);
std::optional<workload::WorkloadMode> decode_mode(const net::Message& message);
net::Message encode_record(const db::TestRecord& record);
std::optional<db::TestRecord> decode_record(const net::Message& message);

}  // namespace tracer::core
