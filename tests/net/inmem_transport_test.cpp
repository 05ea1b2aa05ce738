#include "causalmem/net/inmem_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace causalmem {
namespace {

Message make_msg(NodeId from, NodeId to, std::uint64_t seq,
                 MsgType type = MsgType::kBroadcastUpdate) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.request_id = seq;
  m.stamp = VectorClock(2);
  return m;
}

TEST(InMemTransport, DeliversToRegisteredHandler) {
  InMemTransport t(2);
  std::atomic<int> got{0};
  t.register_node(0, [&](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    EXPECT_EQ(m.to, 1u);
    got.fetch_add(1);
  });
  t.start();
  t.send(make_msg(0, 1, 1));
  while (t.delivered_count() < 1) std::this_thread::yield();
  EXPECT_EQ(got.load(), 1);
  t.shutdown();
}

TEST(InMemTransport, PerChannelFifoWithoutLatency) {
  InMemTransport t(2);
  std::vector<std::uint64_t> order;
  std::mutex mu;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    std::scoped_lock lock(mu);
    order.push_back(m.request_id);
  });
  t.start();
  constexpr std::uint64_t kCount = 2000;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  while (t.delivered_count() < kCount) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(order.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
}

TEST(InMemTransport, PerChannelFifoSurvivesJitter) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(50);
  lat.jitter = std::chrono::microseconds(200);
  InMemTransport t(2, lat);
  std::vector<std::uint64_t> order;
  std::mutex mu;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    std::scoped_lock lock(mu);
    order.push_back(m.request_id);
  });
  t.start();
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  while (t.delivered_count() < kCount) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(order.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
}

TEST(InMemTransport, BaseLatencyDelaysDelivery) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(20000);  // 20 ms
  InMemTransport t(2, lat);
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [](const Message&) {});
  t.start();
  const auto start = std::chrono::steady_clock::now();
  t.send(make_msg(0, 1, 0));
  while (t.delivered_count() < 1) std::this_thread::yield();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(19));
  t.shutdown();
}

TEST(InMemTransport, ChannelLatencyOverrideIsPerDirection) {
  LatencyModel slow;
  slow.base = std::chrono::microseconds(30000);
  InMemTransport t(2);
  t.set_channel_latency(0, 1, slow);
  std::atomic<int> got_at_1{0}, got_at_0{0};
  t.register_node(0, [&](const Message&) { got_at_0.fetch_add(1); });
  t.register_node(1, [&](const Message&) { got_at_1.fetch_add(1); });
  t.start();
  t.send(make_msg(0, 1, 0));  // slow direction
  t.send(make_msg(1, 0, 0));  // fast direction
  while (got_at_0.load() < 1) std::this_thread::yield();
  EXPECT_EQ(got_at_1.load(), 0);  // slow message still in flight
  while (got_at_1.load() < 1) std::this_thread::yield();
  t.shutdown();
}

TEST(InMemTransport, CodecExerciseRoundTripsMessages) {
  InMemTransport t(2, {}, /*exercise_codec=*/true);
  std::atomic<bool> ok{false};
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    ok.store(m.request_id == 42 && m.value == -7 &&
             m.tag == WriteTag{0, 3});
  });
  t.start();
  Message m = make_msg(0, 1, 42);
  m.value = -7;
  m.tag = WriteTag{0, 3};
  t.send(std::move(m));
  while (t.delivered_count() < 1) std::this_thread::yield();
  EXPECT_TRUE(ok.load());
  t.shutdown();
}

TEST(InMemTransport, SendAfterShutdownIsDropped) {
  InMemTransport t(2);
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [](const Message&) {});
  t.start();
  t.shutdown();
  t.send(make_msg(0, 1, 0));  // must not crash or deliver
  EXPECT_EQ(t.delivered_count(), 0u);
}

TEST(InMemTransport, ManyToOneAllDelivered) {
  constexpr std::size_t kNodes = 5;
  InMemTransport t(kNodes);
  std::atomic<std::uint64_t> got{0};
  for (NodeId i = 0; i < kNodes; ++i) {
    t.register_node(i, [&](const Message&) { got.fetch_add(1); });
  }
  t.start();
  constexpr std::uint64_t kPer = 300;
  {
    std::vector<std::jthread> senders;
    for (NodeId i = 1; i < kNodes; ++i) {
      senders.emplace_back([&t, i] {
        for (std::uint64_t s = 0; s < kPer; ++s) t.send(make_msg(i, 0, s));
      });
    }
  }
  while (got.load() < kPer * (kNodes - 1)) std::this_thread::yield();
  EXPECT_EQ(got.load(), kPer * (kNodes - 1));
  t.shutdown();
}

// --- inline delivery fast path -------------------------------------------

/// Records, per delivery, the message's request_id and the thread that ran
/// the handler.
struct DeliveryLog {
  std::mutex mu;
  std::vector<std::uint64_t> ids;
  std::vector<std::thread::id> threads;

  void add(const Message& m) {
    std::scoped_lock lock(mu);
    ids.push_back(m.request_id);
    threads.push_back(std::this_thread::get_id());
  }
  std::size_t size() {
    std::scoped_lock lock(mu);
    return ids.size();
  }
};

TEST(InMemTransport, EligibleTypeOnIdleChannelRunsOnSendersThread) {
  InMemTransport t(2);
  DeliveryLog log;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) { log.add(m); });
  t.start();
  const MsgType eligible[] = {MsgType::kRead,        MsgType::kWrite,
                              MsgType::kReadReply,   MsgType::kWriteReply,
                              MsgType::kSyncReply,   MsgType::kRecoverReply,
                              MsgType::kRelAck};
  std::uint64_t seq = 0;
  for (const MsgType type : eligible) {
    t.send(make_msg(0, 1, ++seq, type));
    // Inline: the handler already ran, on this thread, before send returned.
    ASSERT_EQ(log.size(), seq) << msg_type_name(type);
    EXPECT_EQ(log.threads.back(), std::this_thread::get_id())
        << msg_type_name(type);
  }
  t.shutdown();
}

TEST(InMemTransport, BusyChannelQueuesEligibleTypesInFifoOrder) {
  InMemTransport t(2);
  DeliveryLog log;
  std::atomic<bool> release{false};
  std::atomic<bool> blocking{false};
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    if (m.request_id == 0) {
      // The first (queued) delivery holds the channel busy.
      blocking.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    log.add(m);
  });
  t.start();
  t.send(make_msg(0, 1, 0));  // one-way type: delivered by the worker
  while (!blocking.load()) std::this_thread::yield();
  constexpr std::uint64_t kCount = 50;
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    t.send(make_msg(0, 1, i, i % 2 == 0 ? MsgType::kRead
                                        : MsgType::kReadReply));
  }
  // None ran inline: the channel was busy, so each send only queued.
  EXPECT_EQ(log.size(), 0u);
  release.store(true);
  while (t.delivered_count() < kCount + 1) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(log.ids.size(), kCount + 1);
  for (std::uint64_t i = 0; i <= kCount; ++i) {
    EXPECT_EQ(log.ids[i], i);
    EXPECT_NE(log.threads[i], std::this_thread::get_id());
  }
}

TEST(InMemTransport, ChannelWithLatencyNeverInlines) {
  LatencyModel slow;
  slow.base = std::chrono::microseconds(20000);
  InMemTransport t(2);
  t.set_channel_latency(0, 1, slow);
  DeliveryLog log;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) { log.add(m); });
  t.start();
  t.send(make_msg(0, 1, 1, MsgType::kRead));
  t.send(make_msg(0, 1, 2, MsgType::kReadReply));
  EXPECT_EQ(log.size(), 0u);  // still waiting out the channel's latency
  while (t.delivered_count() < 2) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(log.ids.size(), 2u);
  EXPECT_EQ(log.ids[0], 1u);
  EXPECT_EQ(log.ids[1], 2u);
  for (const std::thread::id& id : log.threads) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
}

TEST(InMemTransport, OneWayTypesNeverInline) {
  InMemTransport t(2);
  DeliveryLog log;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) { log.add(m); });
  t.start();
  const MsgType one_way[] = {MsgType::kInvalBatch, MsgType::kBroadcastUpdate,
                             MsgType::kHeartbeat};
  std::uint64_t seq = 0;
  for (const MsgType type : one_way) {
    t.send(make_msg(0, 1, ++seq, type));
    // Wait for this one, so the next send finds the channel idle again.
    while (t.delivered_count() < seq) std::this_thread::yield();
  }
  t.shutdown();
  ASSERT_EQ(log.threads.size(), 3u);
  for (std::size_t i = 0; i < log.threads.size(); ++i) {
    EXPECT_NE(log.threads[i], std::this_thread::get_id())
        << msg_type_name(one_way[i]);
  }
}

}  // namespace
}  // namespace causalmem
