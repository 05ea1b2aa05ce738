// Busy-wait helpers. Backoff paces the causal memory `wait(B)` idiom: it
// starts with cheap pauses, escalates to yields, then to short sleeps so a
// spinning reader does not starve the node's service thread. spin_for is the
// bounded hot spin a blocked requester runs before parking on its reply.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "causalmem/obs/clock.hpp"

namespace causalmem {

/// One spin-loop pause: the CPU's spin hint on x86, a yield elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` between cpu_relax() pauses until it holds or `budget_ns` of
/// real time has passed; returns whether it held. A zero budget is a single
/// check. The budget is timed with obs::steady_now_ns(), never the
/// installable obs::now_ns(): under a frozen FakeClock that spin would never
/// end.
template <typename Ready>
[[nodiscard]] bool spin_for(std::uint64_t budget_ns, Ready&& ready) {
  if (ready()) return true;
  if (budget_ns == 0) return false;
  const std::uint64_t end_ns = obs::steady_now_ns() + budget_ns;
  do {
    cpu_relax();
    if (ready()) return true;
  } while (obs::steady_now_ns() < end_ns);
  return false;
}

/// `budget_ns` on a multi-core host; zero with one hardware thread, where a
/// spin only delays the thread that would end it.
[[nodiscard]] inline std::uint64_t multicore_spin_ns(
    std::uint64_t budget_ns) noexcept {
  static const bool multicore = std::thread::hardware_concurrency() > 1;
  return multicore ? budget_ns : 0;
}

class Backoff {
 public:
  /// max_sleep caps the escalation; keep it small — spin loops poll remote
  /// owners, and a cap much larger than the message RTT just adds dead time
  /// to every handshake.
  explicit Backoff(std::chrono::microseconds max_sleep =
                       std::chrono::microseconds(50)) noexcept
      : max_sleep_(max_sleep) {}

  void pause() noexcept {
    ++spins_;
    if (spins_ <= 2) {
      // A couple of relaxed pauses for the multi-core fast path.
      for (std::uint32_t i = 0; i < 64; ++i) cpu_relax();
    } else if (spins_ <= 16) {
      // Yield early: these loops run oversubscribed (n app threads plus n
      // delivery threads), possibly on a single core, where hot spinning
      // starves the very thread that would satisfy the predicate.
      std::this_thread::yield();
    } else {
      const std::uint32_t shift =
          std::min<std::uint32_t>(static_cast<std::uint32_t>(spins_ - 16), 16);
      auto sleep = std::chrono::microseconds(1ULL << shift);
      if (sleep > max_sleep_) sleep = max_sleep_;
      std::this_thread::sleep_for(sleep);
    }
  }

  void reset() noexcept { spins_ = 0; }

  [[nodiscard]] std::uint64_t spin_count() const noexcept { return spins_; }

 private:
  std::chrono::microseconds max_sleep_;
  std::uint64_t spins_{0};
};

}  // namespace causalmem
