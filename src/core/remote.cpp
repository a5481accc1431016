#include "core/remote.h"

#include "obs/registry.h"
#include "util/logging.h"

namespace tracer::core {

net::Message encode_mode(const workload::WorkloadMode& mode) {
  net::Message message;
  message.type = net::MessageType::kConfigureTest;
  message.set_u64("request_size", mode.request_size);
  message.set_double("random_ratio", mode.random_ratio);
  message.set_double("read_ratio", mode.read_ratio);
  message.set_double("load_proportion", mode.load_proportion);
  return message;
}

std::optional<workload::WorkloadMode> decode_mode(
    const net::Message& message) {
  // Strict: exactly the four mode fields. An extra field means the frame
  // is not what this version of the protocol produces; trusting the rest
  // of it would mask a mangled or mis-routed command.
  if (message.fields.size() != 4) return std::nullopt;
  const auto size = message.get_u64("request_size");
  const auto random_ratio = message.get_double("random_ratio");
  const auto read_ratio = message.get_double("read_ratio");
  const auto load = message.get_double("load_proportion");
  if (!size || !random_ratio || !read_ratio || !load) return std::nullopt;
  workload::WorkloadMode mode;
  mode.request_size = *size;
  mode.random_ratio = *random_ratio;
  mode.read_ratio = *read_ratio;
  mode.load_proportion = *load;
  return mode;
}

net::Message encode_record(const db::TestRecord& record) {
  net::Message message;
  message.type = net::MessageType::kPerfResult;
  message.set("device", record.device);
  message.set("trace", record.trace_name);
  message.set_u64("request_size", record.request_size);
  message.set_double("random_ratio", record.random_ratio);
  message.set_double("read_ratio", record.read_ratio);
  message.set_double("load_proportion", record.load_proportion);
  message.set_double("avg_amps", record.avg_amps);
  message.set_double("avg_volts", record.avg_volts);
  message.set_double("avg_watts", record.avg_watts);
  message.set_double("joules", record.joules);
  message.set_double("iops", record.iops);
  message.set_double("mbps", record.mbps);
  message.set_double("avg_response_ms", record.avg_response_ms);
  message.set_double("iops_per_watt", record.iops_per_watt);
  message.set_double("mbps_per_kilowatt", record.mbps_per_kilowatt);
  return message;
}

std::optional<db::TestRecord> decode_record(const net::Message& message) {
  // Strict: the full field set, nothing missing and nothing extra. The old
  // decoder default-filled absent doubles with zero, which turned a
  // half-lost frame into a plausible-looking record of an idle system.
  if (message.fields.size() != 15) return std::nullopt;
  db::TestRecord record;
  const auto device = message.get("device");
  const auto trace_name = message.get("trace");
  const auto size = message.get_u64("request_size");
  if (!device || !trace_name || !size) return std::nullopt;
  record.device = *device;
  record.trace_name = *trace_name;
  record.request_size = *size;
  auto take = [&message](const char* key, double& out) {
    if (auto v = message.get_double(key)) {
      out = *v;
      return true;
    }
    return false;
  };
  if (!take("random_ratio", record.random_ratio) ||
      !take("read_ratio", record.read_ratio) ||
      !take("load_proportion", record.load_proportion) ||
      !take("avg_amps", record.avg_amps) ||
      !take("avg_volts", record.avg_volts) ||
      !take("avg_watts", record.avg_watts) ||
      !take("joules", record.joules) || !take("iops", record.iops) ||
      !take("mbps", record.mbps) ||
      !take("avg_response_ms", record.avg_response_ms) ||
      !take("iops_per_watt", record.iops_per_watt) ||
      !take("mbps_per_kilowatt", record.mbps_per_kilowatt)) {
    return std::nullopt;
  }
  return record;
}

net::Message WorkloadGeneratorService::handle(const net::Message& command) {
  switch (command.type) {
    case net::MessageType::kConfigureTest: {
      auto mode = decode_mode(command);
      if (!mode) {
        return net::make_error(command.sequence, "bad workload mode");
      }
      configured_ = *mode;
      return net::make_ack(command.sequence);
    }
    case net::MessageType::kStartTest: {
      if (!configured_) {
        return net::make_error(command.sequence, "no test configured");
      }
      // A failed test must come back as an ERROR frame, not unwind through
      // serve() and kill the service (the host is still healthy).
      try {
        TestResult result = host_.run_test(*configured_);
        net::Message reply = encode_record(result.record);
        reply.sequence = command.sequence;
        last_record_ = std::move(result.record);
        return reply;
      } catch (const std::exception& e) {
        return net::make_error(command.sequence, e.what());
      }
    }
    case net::MessageType::kStopTest:
      return net::make_ack(command.sequence);
    default:
      return net::make_error(command.sequence,
                             std::string("unsupported command ") +
                                 net::to_string(command.type));
  }
}

void WorkloadGeneratorService::serve(net::Communicator& comm) {
  static auto& dedup_hits =
      obs::Registry::global().counter("net.rpc.dedup_hits");
  while (true) {
    auto command = comm.recv(options_.idle_timeout);
    if (!command) {
      // recv's deadline ignores swallowed heartbeats, so re-check: a peer
      // that kept the link warm (any inbound counts) is not idle.
      if (!comm.peer_closed() &&
          comm.since_last_inbound() < options_.idle_timeout) {
        continue;
      }
      return;  // peer hung up or idle timeout
    }

    // Idempotency: a command we already answered (reply lost on the wire,
    // client retried) gets the cached reply re-sent — START_TEST must not
    // run the same test twice.
    if (const net::Message* cached = replies_.find(command->request_id)) {
      dedup_hits.increment();
      comm.reply(*command, *cached);
      if (command->type == net::MessageType::kStopTest) return;
      continue;
    }

    // While a test runs, stream per-cycle PROGRESS frames — the wire form
    // of the GUI's real-time display. Sequence 0 marks them out-of-band;
    // they double as liveness for the client's deadline during long runs.
    if (command->type == net::MessageType::kStartTest) {
      host_.set_cycle_callback([&comm](const CycleSnapshot& snapshot) {
        net::Message progress;
        progress.type = net::MessageType::kProgress;
        progress.sequence = 0;
        progress.set_double("time", snapshot.time);
        progress.set_double("iops", snapshot.iops);
        progress.set_double("mbps", snapshot.mbps);
        progress.set_double("watts", snapshot.watts);
        progress.set_u64("completions", snapshot.completions);
        progress.set_u64("in_flight", snapshot.in_flight);
        comm.send_oob(progress);
      });
    }
    net::Message reply = handle(*command);
    host_.set_cycle_callback(nullptr);
    replies_.insert(command->request_id, reply);
    comm.reply(*command, std::move(reply));
    if (command->type == net::MessageType::kStopTest) return;
  }
}

net::CallOptions RemoteWorkloadClient::call_options(Seconds attempt_timeout) {
  net::CallOptions options;
  options.attempt_timeout = attempt_timeout;
  options.max_attempts = options_.max_attempts;
  options.backoff = options_.backoff;
  options.on_attempt_failure = [this](int attempts_made) {
    if (!comm_.peer_closed()) return true;  // timeout: plain retry
    if (!reconnect_) return false;          // link is gone for good
    TRACER_LOG(kWarn) << "remote: peer lost after attempt " << attempts_made
                      << ", reconnecting";
    return reconnect_();
  };
  return options;
}

bool RemoteWorkloadClient::configure(const workload::WorkloadMode& mode,
                                     std::optional<Seconds> timeout) {
  auto reply = comm_.call(encode_mode(mode),
                          call_options(timeout.value_or(
                              options_.configure_timeout)));
  return reply && reply->type == net::MessageType::kAck;
}

std::optional<db::TestRecord> RemoteWorkloadClient::start(
    std::optional<Seconds> timeout) {
  net::Message command;
  command.type = net::MessageType::kStartTest;
  auto reply = comm_.call(std::move(command),
                          call_options(timeout.value_or(
                              options_.start_timeout)));
  if (!reply || reply->type != net::MessageType::kPerfResult) {
    return std::nullopt;
  }
  return decode_record(*reply);
}

bool RemoteWorkloadClient::stop(std::optional<Seconds> timeout) {
  net::Message command;
  command.type = net::MessageType::kStopTest;
  auto reply = comm_.call(std::move(command),
                          call_options(timeout.value_or(
                              options_.stop_timeout)));
  const bool acked = reply && reply->type == net::MessageType::kAck;
  if (!acked) {
    TRACER_LOG(kWarn) << "remote: stop not acknowledged, closing channel";
  }
  // Close regardless: serve() sees the hang-up and returns, so the service
  // thread cannot be leaked behind a lost ACK.
  comm_.close();
  return acked;
}

}  // namespace tracer::core
