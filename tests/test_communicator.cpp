#include "net/communicator.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace tracer::net {
namespace {

TEST(Communicator, SendAssignsSequenceNumbers) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  const std::uint32_t s1 = client.send(make_ack(0));
  const std::uint32_t s2 = client.send(make_ack(0));
  EXPECT_NE(s1, 0u);
  EXPECT_NE(s1, s2);
  auto m1 = server.poll();
  auto m2 = server.poll();
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->sequence, s1);
  EXPECT_EQ(m2->sequence, s2);
}

TEST(Communicator, ExplicitSequencePreserved) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  Message message = make_ack(0);
  message.sequence = 777;
  client.send(message);
  EXPECT_EQ(server.poll()->sequence, 777u);
}

TEST(Communicator, RequestMatchesReplyBySequence) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kConfigureTest;
  auto reply = client.request(std::move(command), 5.0);
  service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kAck);
}

TEST(Communicator, RequestStashesUnrelatedMessages) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    // Send an unrelated progress report first, then the real reply.
    Message progress;
    progress.type = MessageType::kProgress;
    progress.sequence = 9999;
    server.send(std::move(progress));
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kStartTest;
  auto reply = client.request(std::move(command), 5.0);
  service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kAck);
  // The progress message is retrievable afterwards.
  auto stashed = client.poll();
  ASSERT_TRUE(stashed.has_value());
  EXPECT_EQ(stashed->type, MessageType::kProgress);
}

TEST(Communicator, RequestTimesOutWithoutReply) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  Message command;
  command.type = MessageType::kStopTest;
  EXPECT_FALSE(client.request(std::move(command), 0.05).has_value());
  // The server still received the command.
  EXPECT_TRUE(server.poll().has_value());
}

// Regression: the stash was unbounded — a request() racing a PROGRESS
// stream (one frame per sampling cycle, hours of them) grew memory without
// limit. The stash now holds at most `stash_capacity` frames, dropping the
// oldest, and reports the evictions.
TEST(Communicator, StashIsBoundedAndDropsOldest) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a), /*stash_capacity=*/4);
  Communicator server(std::move(b));
  EXPECT_EQ(client.stash_capacity(), 4u);

  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    // Flood ten unsolicited progress frames before the reply arrives.
    for (int i = 0; i < 10; ++i) {
      Message progress;
      progress.type = MessageType::kProgress;
      progress.set("tick", std::to_string(i));
      server.send_oob(progress);
    }
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kStartTest;
  auto reply = client.request(std::move(command), 5.0);
  service.join();
  ASSERT_TRUE(reply.has_value());

  // Only the newest 4 frames survive; 6 were evicted oldest-first.
  EXPECT_EQ(client.stash_size(), 4u);
  EXPECT_EQ(client.stash_dropped(), 6u);
  for (int i = 6; i < 10; ++i) {
    auto stashed = client.poll();
    ASSERT_TRUE(stashed.has_value());
    EXPECT_EQ(*stashed->get("tick"), std::to_string(i));
  }
}

TEST(Communicator, ZeroCapacityStashDropsEverything) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a), /*stash_capacity=*/0);
  Communicator server(std::move(b));
  std::thread service([&server] {
    auto request = server.recv(5.0);
    ASSERT_TRUE(request.has_value());
    Message progress;
    progress.type = MessageType::kProgress;
    server.send_oob(progress);
    server.reply(*request, make_ack(0));
  });
  Message command;
  command.type = MessageType::kStartTest;
  auto reply = client.request(std::move(command), 5.0);
  service.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(client.stash_size(), 0u);
  EXPECT_EQ(client.stash_dropped(), 1u);
  EXPECT_FALSE(client.poll().has_value());
}

TEST(Communicator, PollEmptyReturnsNothing) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  EXPECT_FALSE(client.poll().has_value());
}

TEST(Communicator, ReplyEchoesRequestSequence) {
  auto [a, b] = make_channel();
  Communicator client(std::move(a));
  Communicator server(std::move(b));
  Message request = make_ack(0);
  request.sequence = 321;
  client.send(request);
  auto received = server.recv(1.0);
  ASSERT_TRUE(received.has_value());
  server.reply(*received, make_error(0, "nope"));
  auto reply = client.recv(1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sequence, 321u);
  EXPECT_EQ(reply->type, MessageType::kError);
}

}  // namespace
}  // namespace tracer::net
