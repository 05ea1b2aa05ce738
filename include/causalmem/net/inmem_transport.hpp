// In-memory transport: one delivery thread per destination node draining a
// deadline-ordered queue. Per-channel FIFO is guaranteed by making each
// (src,dst) channel's delivery deadlines monotonic, so jittered latency can
// never reorder a channel.
//
// Fast path: request and reply messages on an idle zero-latency channel are
// delivered inline on the sender's thread instead of waking the receiver's
// worker. A remote read or write then runs end to end on the requester's
// thread — the owner's service, and the reply's handler, execute before the
// request's send() returns — so the round trip costs no context switch and
// the requester usually finds its reply fulfilled without waiting. The
// per-channel in-flight count (incremented before a message is queued,
// decremented only after its handler returns) makes the idle check exact:
// an inline delivery can never overtake a queued or in-delivery message on
// the same channel, so per-channel FIFO is preserved. Only message types
// that every protocol sends with no node lock held are eligible — see
// inline_eligible() in the .cpp for the proof obligation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/net/transport.hpp"

namespace causalmem {

class InMemTransport final : public Transport {
 public:
  /// Creates a transport for nodes 0..n-1.
  /// `exercise_codec` round-trips every message through the byte codec, so
  /// tests prove the wire format even without the TCP transport.
  explicit InMemTransport(std::size_t n, LatencyModel latency = {},
                          bool exercise_codec = false);
  ~InMemTransport() override;

  void register_node(NodeId id, Handler handler) override;
  void start() override;
  void send(Message m) override;
  void shutdown() override;
  [[nodiscard]] std::size_t node_count() const override { return endpoints_.size(); }

  /// Total messages delivered so far (all nodes).
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Overrides the latency of one directed channel (tests drive specific
  /// interleavings with this, e.g. the Figure 3 counterexample). Must be
  /// called before start() — enforced; DsmSystem callers pass
  /// SystemOptions::channel_latencies instead.
  void set_channel_latency(NodeId from, NodeId to, LatencyModel latency);

 private:
  using Clock = std::chrono::steady_clock;

  struct Envelope {
    Clock::time_point deliver_at;
    std::uint64_t seq;  ///< tie-break so equal deadlines stay FIFO
    Message msg;
  };

  struct EnvelopeLater {
    bool operator()(const Envelope& a, const Envelope& b) const noexcept {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  struct Endpoint {
    Handler handler;
    std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater> queue;
    std::uint64_t next_seq{0};
    bool stopped{false};
    std::jthread worker;
  };

  struct Channel {
    std::mutex mu;
    Clock::time_point last_deadline{};
    Rng rng{0};
    bool has_override{false};
    LatencyModel override_latency{};
    // exercise_codec state: the directed channel's clock-delta baselines and
    // a scratch Message whose stamp/cells capacity is recycled across
    // round-trips (send swaps the decoded message out and the caller's
    // buffers in), so the steady-state codec path never allocates.
    ClockCodecState tx;
    ClockCodecState rx;
    Message scratch;
    // Messages queued or in delivery on this channel. 0 means the channel is
    // completely idle, which is what licenses the inline-delivery fast path.
    std::atomic<std::uint32_t> inflight{0};
  };

  void run_endpoint(Endpoint& ep);
  [[nodiscard]] Clock::time_point next_deadline_locked(Channel& ch);

  LatencyModel latency_;
  bool exercise_codec_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, index from*n+to
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace causalmem
