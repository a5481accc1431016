#include "core/remote.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "obs/registry.h"

namespace tracer::core {
namespace {

class RemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tracer_remote_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    options_.collection_duration = 0.5;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  workload::WorkloadMode mode(double load = 0.5) {
    workload::WorkloadMode m;
    m.request_size = 16 * kKiB;
    m.random_ratio = 0.5;
    m.read_ratio = 0.5;
    m.load_proportion = load;
    return m;
  }

  std::filesystem::path dir_;
  EvaluationOptions options_;
};

TEST_F(RemoteTest, ModeEncodingRoundTrips) {
  const workload::WorkloadMode original = mode(0.3);
  const auto decoded = decode_mode(encode_mode(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST_F(RemoteTest, ModeDecodingRejectsIncompleteMessages) {
  net::Message message;
  message.type = net::MessageType::kConfigureTest;
  message.set_u64("request_size", 4096);
  EXPECT_FALSE(decode_mode(message).has_value());
}

TEST_F(RemoteTest, ModeDecodingRejectsExtraFields) {
  // Strict decode: an unexpected field means the frame came from a
  // different protocol revision (or got mangled); trusting the remaining
  // fields would mask it.
  net::Message message = encode_mode(mode(0.3));
  message.set_double("surprise", 1.0);
  EXPECT_FALSE(decode_mode(message).has_value());
}

db::TestRecord sample_record() {
  db::TestRecord record;
  record.device = "raid5-hdd6";
  record.trace_name = "trace";
  record.request_size = 4096;
  record.random_ratio = 0.5;
  record.read_ratio = 0.6;
  record.load_proportion = 0.4;
  record.avg_amps = 1.5;
  record.avg_volts = 12.0;
  record.avg_watts = 81.25;
  record.joules = 400.0;
  record.iops = 432.1;
  record.mbps = 1.77;
  record.avg_response_ms = 3.5;
  record.iops_per_watt = 5.32;
  record.mbps_per_kilowatt = 21.8;
  return record;
}

TEST_F(RemoteTest, RecordDecodingRejectsEveryMissingField) {
  // The old decoder default-filled absent doubles with zero, turning a
  // half-lost frame into a plausible record of an idle system. Now any
  // missing field rejects the whole frame.
  const net::Message complete = encode_record(sample_record());
  ASSERT_TRUE(decode_record(complete).has_value());
  for (const auto& [key, value] : complete.fields) {
    net::Message mutilated = complete;
    mutilated.fields.erase(key);
    EXPECT_FALSE(decode_record(mutilated).has_value())
        << "decoded despite missing field " << key;
  }
}

TEST_F(RemoteTest, RecordDecodingRejectsExtraFields) {
  net::Message message = encode_record(sample_record());
  message.set("extra", "field");
  EXPECT_FALSE(decode_record(message).has_value());
}

TEST_F(RemoteTest, RecordDecodingRejectsMistypedFields) {
  net::Message message = encode_record(sample_record());
  message.set("iops", "not a number");
  EXPECT_FALSE(decode_record(message).has_value());
}

TEST_F(RemoteTest, RecordEncodingRoundTrips) {
  db::TestRecord record;
  record.device = "raid5-hdd6";
  record.trace_name = "trace";
  record.request_size = 4096;
  record.load_proportion = 0.4;
  record.avg_watts = 81.25;
  record.iops = 432.1;
  record.mbps = 1.77;
  record.iops_per_watt = 5.32;
  const auto decoded = decode_record(encode_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->device, record.device);
  EXPECT_NEAR(decoded->avg_watts, record.avg_watts, 1e-6);
  EXPECT_NEAR(decoded->iops, record.iops, 1e-4);
  EXPECT_NEAR(decoded->iops_per_watt, record.iops_per_watt, 1e-6);
}

TEST_F(RemoteTest, ServiceHandlesConfigureThenStart) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  WorkloadGeneratorService service(host);

  net::Message configure = encode_mode(mode());
  configure.sequence = 1;
  EXPECT_EQ(service.handle(configure).type, net::MessageType::kAck);

  net::Message start;
  start.type = net::MessageType::kStartTest;
  start.sequence = 2;
  const net::Message reply = service.handle(start);
  EXPECT_EQ(reply.type, net::MessageType::kPerfResult);
  const auto record = decode_record(reply);
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->iops, 0.0);
  // The service keeps the full record, timestamp included, for a local
  // front end to store (tracer_cli).
  ASSERT_TRUE(service.last_record().has_value());
  EXPECT_FALSE(service.last_record()->timestamp.empty());
  EXPECT_EQ(service.last_record()->iops, record->iops);
  EXPECT_EQ(service.last_record()->joules, record->joules);
}

TEST_F(RemoteTest, StartWithoutConfigureIsError) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  WorkloadGeneratorService service(host);
  net::Message start;
  start.type = net::MessageType::kStartTest;
  start.sequence = 1;
  EXPECT_EQ(service.handle(start).type, net::MessageType::kError);
  EXPECT_FALSE(service.last_record().has_value());
}

TEST_F(RemoteTest, ThrowingTestBecomesErrorReplyAndServiceSurvives) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  WorkloadGeneratorService service(host);

  // 4 % load is below the proportional filter's resolution floor, so the
  // test throws; the service must answer with an ERROR frame, not unwind.
  net::Message configure = encode_mode(mode(0.04));
  configure.sequence = 1;
  EXPECT_EQ(service.handle(configure).type, net::MessageType::kAck);
  net::Message start;
  start.type = net::MessageType::kStartTest;
  start.sequence = 2;
  const net::Message error = service.handle(start);
  EXPECT_EQ(error.type, net::MessageType::kError);
  ASSERT_TRUE(error.get("reason").has_value());
  EXPECT_NE(error.get("reason")->find("resolution floor"), std::string::npos);

  // The host is still healthy: the next valid test runs normally.
  net::Message reconfigure = encode_mode(mode(0.5));
  reconfigure.sequence = 3;
  EXPECT_EQ(service.handle(reconfigure).type, net::MessageType::kAck);
  start.sequence = 4;
  EXPECT_EQ(service.handle(start).type, net::MessageType::kPerfResult);
}

TEST_F(RemoteTest, FullClientServerExchangeOverChannel) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  auto [client_end, server_end] = net::make_channel();
  net::Communicator client(std::move(client_end));
  net::Communicator server(std::move(server_end));

  WorkloadGeneratorService service(host);
  std::thread server_thread([&service, &server] { service.serve(server); });

  auto& replay_calls =
      obs::Registry::global().counter("host.phase.replay.calls");
  const std::uint64_t replays_before = replay_calls.value();
  RemoteWorkloadClient remote(client);
  EXPECT_TRUE(remote.configure(mode(0.5)));
  const auto record = remote.start(60.0);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->device, "raid5-hdd6");
  EXPECT_GT(record->iops, 0.0);
  EXPECT_DOUBLE_EQ(record->load_proportion, 0.5);
  remote.stop();
  server_thread.join();
  EXPECT_EQ(replay_calls.value() - replays_before, 1u);  // ran exactly once
}

TEST_F(RemoteTest, RetransmittedStartReturnsCachedRecordNotRerun) {
  // START_TEST is not idempotent (a second run would append a second
  // record); the service's dedup cache is what makes the RPC idempotent.
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  auto [client_end, server_end] = net::make_channel();
  net::Communicator client(std::move(client_end));
  WorkloadGeneratorService service(host);
  std::thread server_thread(
      [&service, endpoint = std::move(server_end)]() mutable {
        net::Communicator server(std::move(endpoint));
        service.serve(server);
      });

  net::CallOptions options;
  options.attempt_timeout = 60.0;
  const auto ack = client.call(encode_mode(mode(0.5)), options);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, net::MessageType::kAck);

  auto& registry = obs::Registry::global();
  auto& dedup_hits = registry.counter("net.rpc.dedup_hits");
  auto& replay_calls = registry.counter("host.phase.replay.calls");
  const std::uint64_t hits_before = dedup_hits.value();
  const std::uint64_t replays_before = replay_calls.value();
  // The reply to a command, skipping the PROGRESS frames a run streams.
  auto next_reply = [&client] {
    auto message = client.recv(60.0);
    while (message && message->type == net::MessageType::kProgress) {
      message = client.recv(60.0);
    }
    return message;
  };
  // The two START transmissions go out raw (same request_id, fresh
  // sequence): exactly the bytes a call() retry produces, but without the
  // client's own duplicate-reply filter hiding the second reply from us.
  net::Message start;
  start.type = net::MessageType::kStartTest;
  start.request_id = 103;
  client.send(start);
  const auto first = next_reply();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, net::MessageType::kPerfResult);
  start.sequence = 0;  // let send() stamp a fresh transport sequence
  client.send(start);
  const auto second = next_reply();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, first->type);
  EXPECT_EQ(second->fields, first->fields);
  EXPECT_EQ(dedup_hits.value(), hits_before + 1);
  EXPECT_EQ(replay_calls.value(), replays_before + 1);  // ran exactly once

  client.close();
  server_thread.join();
}

TEST_F(RemoteTest, ServiceStopsOnPeerHangup) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  auto [client_end, server_end] = net::make_channel();
  net::Communicator server(std::move(server_end));
  WorkloadGeneratorService service(host);
  std::thread server_thread([&service, &server] { service.serve(server); });
  client_end.close();
  server_thread.join();  // must return promptly, not hang
  SUCCEED();
}

}  // namespace
}  // namespace tracer::core
