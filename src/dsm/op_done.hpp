// Operation-completion bookkeeping shared by the DSM node flavours.
#pragma once

#include "causalmem/dsm/observer.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

/// Records an operation-completion span and its latency sample. `tr` may be
/// null (tracing off) — the latency histogram is always recorded.
inline void record_op_done(NodeStats& stats, obs::Tracer* tr,
                           LatencyMetric metric, obs::TraceEventKind kind,
                           Addr x, const OpTiming& done,
                           std::uint64_t trace_id = 0) noexcept {
  const std::uint64_t dur = done.end_ns - done.start_ns;
  stats.record_latency(metric, dur);
  if (tr != nullptr) {
    tr->record(kind, 0, kNoNode, x, nullptr, done.start_ns, dur, trace_id);
  }
}

}  // namespace causalmem
