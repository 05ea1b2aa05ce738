// Owner requests run inline on the requester's thread when the in-memory
// channel is idle: a thread of node A runs B's owner service, whose reply
// runs A's reply handler on the same thread, while a thread of B may be
// doing the same in the other direction. These tests drive many such
// crossings at once — several application threads per node, nearly every
// operation remote — and require the run to finish within a deadline (a
// node lock held across an inline send would deadlock two crossing
// requesters) and, on causal memory, the online checker to stay clean.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/atomic/node.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"

namespace causalmem {
namespace {

constexpr std::size_t kNodes = 3;
constexpr int kOpsPerThread = 2000;
/// Shared by every node's main thread: read and written.
constexpr Addr kShared = 3 * kNodes;
/// Written by sibling threads, never read by anyone.
constexpr Addr kWriteOnlyBase = 1000;
/// Read by sibling threads, never written by anyone.
constexpr Addr kNeverWrittenBase = 2000;
constexpr Addr kRegion = 4 * kNodes;
constexpr auto kDeadline = std::chrono::seconds(120);

/// Runs `body`, aborting the process if it has not returned within
/// kDeadline: a deadlock would otherwise hang until the harness timeout.
template <typename Body>
void within_deadline(Body&& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::jthread watchdog([&] {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, kDeadline, [&] { return done; })) {
      std::fprintf(stderr,
                   "crossing inline requests still running after %llds: "
                   "deadlock\n",
                   static_cast<long long>(kDeadline.count()));
      std::abort();
    }
  });
  body();
  {
    std::scoped_lock lock(mu);
    done = true;
  }
  cv.notify_one();
}

/// A random address of [base, base + span) that node p does not own
/// (striped ownership: p owns the addresses congruent to p).
Addr remote_addr(Rng& rng, NodeId p, Addr base, Addr span) {
  for (;;) {
    const Addr a = base + rng.next_below(span);
    if (a % kNodes != p) return a;
  }
}

/// Three threads per node, all running at once:
///   - main: random reads and writes of the shared addresses, mostly remote;
///   - writer: remote writes to addresses nobody reads;
///   - reader: remote reads (each followed by a discard, so the next one
///     misses again) of addresses nobody writes.
/// Only the main threads' operations can take part in a causal violation:
/// the write-only values are never read, and a read of a never-written
/// address returns the initial value, which nothing overwrites. So each
/// node's recorded history is checkable as one causal process although the
/// node is shared by three threads (DESIGN.md §6 rule 5).
template <typename NodeT>
void run_crossing_workload(DsmSystem<NodeT>& sys) {
  std::vector<std::jthread> threads;
  for (NodeId p = 0; p < kNodes; ++p) {
    SharedMemory& mem = sys.memory(p);
    threads.emplace_back([&mem, p] {
      Rng rng(11 + p);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Addr a = remote_addr(rng, p, 0, kShared);
        if (rng.chance(0.5)) {
          mem.write(a, static_cast<Value>((p + 1) * 1'000'000 + i));
        } else {
          (void)mem.read(a);
        }
      }
    });
    threads.emplace_back([&mem, p] {
      Rng rng(101 + p);
      for (int i = 0; i < kOpsPerThread; ++i) {
        mem.write(remote_addr(rng, p, kWriteOnlyBase, kRegion),
                  static_cast<Value>(i + 1));
      }
    });
    threads.emplace_back([&mem, p] {
      Rng rng(1001 + p);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Addr a = remote_addr(rng, p, kNeverWrittenBase, kRegion);
        EXPECT_EQ(mem.read(a), kInitialValue);
        (void)mem.discard(a);
      }
    });
  }
}

TEST(InlineRequests, CrossingSiblingThreadsFinishCheckerCleanOnCausal) {
  SystemOptions opts;
  opts.online_check.enabled = true;
  DsmSystem<CausalNode> sys(kNodes, {}, opts);
  within_deadline([&] { run_crossing_workload(sys); });
  const StatsSnapshot total = sys.stats().total();
  sys.shutdown();  // finishes the checker's stream
  OnlineChecker* oc = sys.online_checker();
  ASSERT_TRUE(oc->ok()) << "online violation: "
                        << (oc->violation().has_value()
                                ? oc->violation()->detail
                                : std::string{});
  EXPECT_EQ(oc->stats().ops_seen, kNodes * 3u * kOpsPerThread);
  // Every request of the run was answered: nothing timed out or was lost.
  EXPECT_EQ(total[Counter::kMsgReadRequest], total[Counter::kMsgReadReply]);
  EXPECT_EQ(total[Counter::kMsgWriteRequest], total[Counter::kMsgWriteReply]);
}

TEST(InlineRequests, CrossingSiblingThreadsFinishOnAtomic) {
  DsmSystem<AtomicNode> sys(kNodes);
  within_deadline([&] { run_crossing_workload(sys); });
  const StatsSnapshot total = sys.stats().total();
  EXPECT_EQ(total[Counter::kMsgReadRequest], total[Counter::kMsgReadReply]);
  EXPECT_EQ(total[Counter::kMsgWriteRequest], total[Counter::kMsgWriteReply]);
}

}  // namespace
}  // namespace causalmem
