// The public shared-memory API: what an application process sees. All three
// implementations (causal owner protocol, atomic baseline, causal-broadcast
// memory) implement this interface, so the paper's claim that "similar code
// may be used to program applications on both atomic and causal memories"
// is literal in this codebase — the solver and dictionary are written once.
#pragma once

#include <chrono>
#include <functional>

#include "causalmem/common/types.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

/// Outcome of a deadline-bounded operation (CausalConfig::request_timeout).
enum class OpStatus : std::uint8_t {
  kOk = 0,
  /// The owner did not answer within the deadline across all retry rounds.
  kUnreachable,
};

/// A read with a typed failure path: `value` is meaningful only when ok().
struct ReadResult {
  OpStatus status{OpStatus::kOk};
  Value value{0};

  [[nodiscard]] bool ok() const noexcept { return status == OpStatus::kOk; }
};

class SharedMemory {
 public:
  SharedMemory() = default;
  SharedMemory(const SharedMemory&) = delete;
  SharedMemory& operator=(const SharedMemory&) = delete;
  virtual ~SharedMemory() = default;

  /// Reads location x. May block for a round trip to the owner.
  [[nodiscard]] virtual Value read(Addr x) = 0;

  /// Writes v to location x. May block until the owner certifies the write.
  virtual void write(Addr x, Value v) = 0;

  /// Drops any cached copy of x (the paper's `discard`): used for cache
  /// replacement and — crucially — for liveness when busy-waiting on a flag
  /// owned by another processor. Returns true if the next read of x will
  /// go remote (i.e., something was dropped or x was never local); memory
  /// models whose reads always see fresh values return false.
  virtual bool discard(Addr x) = 0;

  /// True when this processor owns x (local reads of x are always current).
  [[nodiscard]] virtual bool owns(Addr x) const = 0;

  /// Waits for all outstanding asynchronous operations (non-blocking writes)
  /// to be certified. No-op for fully blocking configurations.
  virtual void flush() {}

  /// Declares [lo, hi) write-once data that was fully initialized before any
  /// cross-node interaction (the paper's footnote 2: avoid invalidating the
  /// solver's A and b). Implementations without caches ignore it.
  virtual void mark_read_only(Addr lo, Addr hi) {
    (void)lo;
    (void)hi;
  }

  /// This processor's id.
  [[nodiscard]] virtual NodeId node_id() const = 0;

  /// Statistics sink for this node (never null).
  [[nodiscard]] virtual NodeStats& stats() = 0;
};

/// The paper's `wait(B)`: "while (not B) skip". On causal memory a cached
/// flag is never updated in place, so each failed poll discards the cached
/// copy to force a re-fetch from the owner — exactly the liveness use of
/// `discard` described in Section 3.1. Every failed poll that itself went to
/// the owner is counted as kSpinRefetch, so benchmarks can separate
/// busy-wait overhead from protocol cost (StatsSnapshot::effective_messages).
///
/// Returns the first value satisfying `pred`.
Value spin_until(SharedMemory& mem, Addr x,
                 const std::function<bool(Value)>& pred);

/// Convenience: wait until mem[x] == expected.
inline Value spin_until_equals(SharedMemory& mem, Addr x, Value expected) {
  return spin_until(mem, x, [expected](Value v) { return v == expected; });
}

}  // namespace causalmem
