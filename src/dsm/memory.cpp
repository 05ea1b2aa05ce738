#include "causalmem/dsm/memory.hpp"

#include "causalmem/common/backoff.hpp"
#include "causalmem/common/coop.hpp"
#include "remote_reads.hpp"

namespace causalmem {

namespace {

/// After a failed poll that went to the owner, the poller spins this long
/// before its backoff pause. An inline round trip takes a few µs, so
/// without the spacing the loop re-fetches several times as often, and its
/// polls contend on the owner's operation mutex with the writer it waits
/// for.
constexpr std::uint64_t kRefetchSpacingNs = 4'000;

}  // namespace

Value spin_until(SharedMemory& mem, Addr x,
                 const std::function<bool(Value)>& pred) {
  Backoff backoff;
  for (;;) {
    const std::uint64_t remote_before = thread_remote_reads();
    const Value v = mem.read(x);
    if (pred(v)) {
      mem.stats().bump(Counter::kSpinTransition);
      return v;
    }
    const bool went_remote = thread_remote_reads() != remote_before;
    if (went_remote) {
      // This poll cost a full round trip to the owner and still failed;
      // that's busy-wait overhead, not protocol cost.
      mem.stats().bump(Counter::kSpinRefetch);
    }
    (void)mem.discard(x);
    // Under the simulation scheduler the poll yields a choice point instead
    // of burning real time; otherwise pace with the usual backoff, spaced
    // out after a round trip (spin_for with a never-ready predicate is a
    // timed busy-wait).
    if (coop::yield()) continue;
    if (went_remote) {
      (void)spin_for(multicore_spin_ns(kRefetchSpacingNs),
                     [] { return false; });
    }
    backoff.pause();
  }
}

}  // namespace causalmem
