#include "causalmem/stats/counters.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace causalmem {
namespace {

TEST(Counters, BumpAndSnapshot) {
  NodeStats s;
  s.bump(Counter::kMsgReadRequest);
  s.bump(Counter::kMsgReadRequest);
  s.bump(Counter::kReadHit, 5);
  const StatsSnapshot snap = s.snapshot();
  EXPECT_EQ(snap[Counter::kMsgReadRequest], 2u);
  EXPECT_EQ(snap[Counter::kReadHit], 5u);
  EXPECT_EQ(snap[Counter::kMsgWriteRequest], 0u);
}

TEST(Counters, MessagesSentCountsOnlyWireCounters) {
  NodeStats s;
  s.bump(Counter::kMsgReadRequest);
  s.bump(Counter::kMsgWriteReply, 3);
  s.bump(Counter::kReadHit, 100);   // not a message
  s.bump(Counter::kDiscard, 100);   // not a message
  EXPECT_EQ(s.snapshot().messages_sent(), 4u);
}

TEST(Counters, ReplyWaitCountersAreNotMessages) {
  NodeStats s;
  s.bump(Counter::kMsgReadRequest);
  s.bump(Counter::kReplySpinHit, 7);
  s.bump(Counter::kReplyParked, 3);
  EXPECT_EQ(s.snapshot().messages_sent(), 1u);
  EXPECT_FALSE(is_recovery_counter(Counter::kReplySpinHit));
  EXPECT_FALSE(is_recovery_counter(Counter::kReplyParked));
}

TEST(Counters, EffectiveMessagesSubtractSpinRefetchPairs) {
  NodeStats s;
  s.bump(Counter::kMsgReadRequest, 10);
  s.bump(Counter::kMsgReadReply, 10);
  s.bump(Counter::kSpinRefetch, 4);
  EXPECT_EQ(s.snapshot().effective_messages(), 12);
  // One node's snapshot may hold a re-fetch whose pair another node sent.
  NodeStats requester;
  requester.bump(Counter::kMsgReadRequest);
  requester.bump(Counter::kSpinRefetch);
  EXPECT_EQ(requester.snapshot().effective_messages(), -1);
}

TEST(Counters, SnapshotArithmetic) {
  NodeStats s;
  s.bump(Counter::kMsgInvalidate, 7);
  const StatsSnapshot a = s.snapshot();
  s.bump(Counter::kMsgInvalidate, 3);
  const StatsSnapshot b = s.snapshot();
  EXPECT_EQ((b - a)[Counter::kMsgInvalidate], 3u);
  StatsSnapshot sum = a;
  sum += b;
  EXPECT_EQ(sum[Counter::kMsgInvalidate], 17u);
}

TEST(Counters, RegistryTotalsAcrossNodes) {
  StatsRegistry reg(3);
  reg.node(0).bump(Counter::kMsgBroadcast, 2);
  reg.node(1).bump(Counter::kMsgBroadcast, 5);
  reg.node(2).bump(Counter::kReadMiss);
  const StatsSnapshot total = reg.total();
  EXPECT_EQ(total[Counter::kMsgBroadcast], 7u);
  EXPECT_EQ(total[Counter::kReadMiss], 1u);
  reg.reset();
  EXPECT_EQ(reg.total().messages_sent(), 0u);
}

TEST(Counters, ConcurrentBumpsAreNotLost) {
  NodeStats s;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) s.bump(Counter::kReadHit);
      });
    }
  }
  EXPECT_EQ(s.get(Counter::kReadHit), 1ull * kThreads * kPerThread);
}

TEST(Counters, EveryCounterHasAName) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_STRNE(counter_name(static_cast<Counter>(i)), "unknown");
  }
}

}  // namespace
}  // namespace causalmem
