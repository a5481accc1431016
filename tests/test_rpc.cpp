// The idempotent-RPC layer (docs/RESILIENCE.md): Communicator::call's
// retries, request-id stability, duplicate-reply filtering, liveness
// deadlines and transport reset. Server-side dedup through
// WorkloadGeneratorService::serve is checked in test_remote.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/communicator.h"
#include "net/fault.h"

namespace tracer::net {
namespace {

TEST(ReplyCache, FindsInsertedAndEvictsOldest) {
  ReplyCache cache(/*capacity=*/2);
  cache.insert(1, make_ack(10));
  cache.insert(2, make_ack(20));
  ASSERT_NE(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  cache.insert(3, make_ack(30));
  EXPECT_EQ(cache.find(1), nullptr);  // oldest evicted
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.find(3)->sequence, 30u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReplyCache, NeverCachesRequestIdZero) {
  ReplyCache cache;
  cache.insert(0, make_ack(1));  // legacy / OOB traffic
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ReplyCache, InsertIsFirstWriterWins) {
  ReplyCache cache;
  cache.insert(7, make_ack(1));
  cache.insert(7, make_error(2, "late"));  // retransmit racing the cache
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(cache.find(7)->type, MessageType::kAck);
}

TEST(Call, SucceedsFirstAttemptAndStampsRequestId) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    EXPECT_NE(request->request_id, 0u);
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kConfigureTest;
  CallOptions options;
  options.attempt_timeout = 5.0;
  auto reply = client.call(std::move(command), options);
  service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kAck);
}

TEST(Call, RetriesKeepRequestIdButRefreshSequence) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  std::vector<Message> seen;
  std::thread service([&server, &seen] {
    // Swallow the first transmission; answer the retry.
    auto first = server.recv(5.0);
    ASSERT_TRUE(first.has_value());
    seen.push_back(*first);
    auto second = server.recv(5.0);
    ASSERT_TRUE(second.has_value());
    seen.push_back(*second);
    server.reply(*second, make_ack(0));
  });
  Message command;
  command.type = MessageType::kStartTest;
  CallOptions options;
  options.attempt_timeout = 0.1;
  options.max_attempts = 3;
  options.backoff.base = 0.0;  // no sleep between attempts in tests
  auto reply = client.call(std::move(command), options);
  service.join();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].request_id, seen[1].request_id);
  EXPECT_NE(seen[0].sequence, seen[1].sequence);
}

TEST(Call, GivesUpAfterMaxAttempts) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  Message command;
  command.type = MessageType::kStopTest;
  CallOptions options;
  options.attempt_timeout = 0.02;
  options.max_attempts = 2;
  options.backoff.base = 0.0;
  int failures = 0;
  options.on_attempt_failure = [&failures](int) {
    ++failures;
    return true;
  };
  EXPECT_FALSE(client.call(std::move(command), options).has_value());
  EXPECT_EQ(failures, 2);
  // Both transmissions reached the peer.
  EXPECT_TRUE(server.poll().has_value());
  EXPECT_TRUE(server.poll().has_value());
}

TEST(Call, LateDuplicateReplyIsDropped) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    // The reply and its wire-duplicate, back to back.
    server.reply(*request, make_ack(0));
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kConfigureTest;
  CallOptions options;
  options.attempt_timeout = 5.0;
  auto reply = client.call(std::move(command), options);
  service.join();
  ASSERT_TRUE(reply.has_value());
  // The duplicate must be swallowed, not surface as a stray message.
  EXPECT_FALSE(client.poll().has_value());
}

TEST(Call, LivenessDeadlineBeatsAttemptTimeout) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));  // alive but mute
  client.set_liveness_timeout(0.05);
  Message command;
  command.type = MessageType::kStartTest;
  CallOptions options;
  options.attempt_timeout = 30.0;  // would block half a minute without it
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.call(std::move(command), options).has_value());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(Call, InboundTrafficResetsLiveness) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  client.set_liveness_timeout(0.25);
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    // Stream progress for ~0.5 s — longer than the liveness timeout — then
    // reply. The progress frames must keep the call alive.
    for (int i = 0; i < 10; ++i) {
      Message progress;
      progress.type = MessageType::kProgress;
      server.send_oob(progress);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kStartTest;
  CallOptions options;
  options.attempt_timeout = 10.0;
  auto reply = client.call(std::move(command), options);
  service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kAck);
}

TEST(Call, HeartbeatsAreSwallowedByPeer) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  client.send_oob(make_heartbeat(1));
  client.send_oob(make_heartbeat(2));
  client.send(make_ack(0));
  // The peer sees only the real message; keepalives never surface.
  auto got = server.recv(1.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kAck);
  EXPECT_FALSE(server.poll().has_value());
  EXPECT_LT(server.since_last_inbound(), 10.0);
}

TEST(Call, ResetRepairsLinkAndRetryDedupsOnServer) {
  // A hard mid-RPC disconnect: the client reconnects via the
  // on_attempt_failure hook and the retry succeeds over the new pair.
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));

  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    // Crash before replying.
    server.close();
  });

  Message command;
  command.type = MessageType::kConfigureTest;
  CallOptions options;
  options.attempt_timeout = 1.0;
  options.max_attempts = 3;
  options.backoff.base = 0.0;
  std::thread second_service;
  options.on_attempt_failure = [&](int) {
    if (!client.peer_closed()) return true;
    auto [c, d] = make_channel();
    client.reset(std::move(c));
    second_service = std::thread([e = std::move(d)]() mutable {
      Communicator fresh(std::move(e));
      auto request = fresh.recv(5.0);
      ASSERT_TRUE(request.has_value());
      fresh.reply(*request, make_ack(0));
    });
    return true;
  };
  auto reply = client.call(std::move(command), options);
  service.join();
  if (second_service.joinable()) second_service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kAck);
}

TEST(CallOverFaultyLink, CompletesDespiteDropsAndCorruption) {
  FaultPlan lossy;
  lossy.drop_rate = 0.3;
  lossy.corrupt_rate = 0.1;
  lossy.duplicate_rate = 0.1;
  lossy.seed = 7;
  auto [a, b] = make_faulty_channel(lossy, lossy);
  Communicator client(std::move(a));
  std::thread service([endpoint = std::move(b)]() mutable {
    Communicator comm(std::move(endpoint));
    // Echo-ACK until hang-up; retransmits of answered requests are the
    // client's problem (it filters duplicate replies).
    while (auto request = comm.recv(2.0)) {
      comm.reply(*request, make_ack(0));
    }
  });
  CallOptions options;
  options.attempt_timeout = 0.05;
  options.max_attempts = 20;
  options.backoff.base = 0.001;
  options.backoff.jitter = 0.2;
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    Message command;
    command.type = MessageType::kConfigureTest;
    command.set_u64("i", static_cast<std::uint64_t>(i));
    if (client.call(std::move(command), options)) ++completed;
  }
  EXPECT_EQ(completed, 10);
  client.close();
  service.join();
}

}  // namespace
}  // namespace tracer::net
