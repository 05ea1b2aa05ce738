// Per-thread count of reads sent to an owner, shared by the DSM node
// flavours and spin_until.
#pragma once

#include <cstdint>

namespace causalmem {

namespace detail {
inline thread_local std::uint64_t t_remote_reads = 0;
}  // namespace detail

/// Reads the calling thread has sent to an owner so far, over all nodes.
/// Unlike the node-wide kReadMiss counter, which sibling threads bump too,
/// the difference around one read() says exactly whether that read went
/// remote.
[[nodiscard]] inline std::uint64_t thread_remote_reads() noexcept {
  return detail::t_remote_reads;
}

/// Called once per read that goes to an owner, by every node whose reads
/// can.
inline void note_remote_read() noexcept { ++detail::t_remote_reads; }

}  // namespace causalmem
