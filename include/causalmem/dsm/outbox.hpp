// The ordered outbox both owner-protocol nodes send through. A node decides
// what to send under its operation mutex and pushes each message here in
// that decision order; one drainer at a time then sends the queue front to
// back with the mutex released. Every channel therefore carries the node's
// messages in decision order although no send happens under the mutex —
// which is what lets the in-memory transport run the receiver's handler
// inline on the sending thread (the handler may take the receiver's locks,
// and may itself answer this node).
#pragma once

#include <deque>
#include <mutex>
#include <utility>

#include "causalmem/net/message.hpp"

namespace causalmem {

class OrderedOutbox {
 public:
  /// Queues `m` behind everything pushed before it. Caller holds the node
  /// mutex that guards this outbox.
  void push(Message&& m) { queue_.push_back(std::move(m)); }

  /// Sends the queue in order through `send`, releasing `lock` (the guarding
  /// mutex, held on entry and again on return) around each send. Returns at
  /// once when another thread is already draining: that drainer re-checks
  /// the queue after every send, so it also sends what the caller pushed.
  /// Every path that pushes calls this before it lets go of the mutex.
  template <typename Send>
  void flush(std::unique_lock<std::mutex>& lock, Send&& send) {
    if (draining_) return;
    draining_ = true;
    while (!queue_.empty()) {
      Message m = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      send(std::move(m));
      lock.lock();
    }
    draining_ = false;
  }

 private:
  std::deque<Message> queue_;
  bool draining_{false};
};

}  // namespace causalmem
