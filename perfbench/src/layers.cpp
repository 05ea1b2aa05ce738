// Per-layer metrics: ratios of the program's own counters, benchmark-timed
// calls into single layers, and the per-hop split of traced remote
// operations.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "causalmem/common/arena.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/sharding.hpp"
#include "causalmem/net/message.hpp"
#include "causalmem/obs/correlate.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace perfbench {

using namespace causalmem;

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double as_double(std::uint64_t v) { return static_cast<double>(v); }

// Results of the timed loops land here so the compiler cannot drop them.
std::atomic<std::uint64_t> g_sink{0};

/// Nanoseconds per call of body(i), i in [0, iters): the median of several
/// batches, so one preempted batch does not move the figure.
template <typename F>
double ns_per_call(std::size_t iters, F&& body) {
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    const std::uint64_t t1 = now_ns();
    batches.push_back(as_double(t1 - t0) / static_cast<double>(iters));
  }
  return median(std::move(batches));
}

/// A stream of read replies shaped like the protocol's: each reply's stamp
/// advances two components of an n-wide clock, the delta pattern of a
/// value introduced by one writer after one merge.
std::vector<Message> reply_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0xC0DEC0DEULL);
  std::vector<std::uint64_t> comps(n, 0);
  std::vector<Message> out(256);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (int j = 0; j < 2; ++j) comps[rng.next_below(n)] += 1 + rng.next_below(3);
    Message& m = out[i];
    m.type = MsgType::kReadReply;
    m.from = static_cast<NodeId>(1 % n);
    m.to = 0;
    m.request_id = i + 1;
    m.addr = rng.next_below(4096);
    m.value = static_cast<Value>(rng.next() >> 1);
    m.tag = WriteTag{static_cast<NodeId>(1 % n), i + 1};
    m.stamp = VectorClock(comps);
    m.trace_id = (std::uint64_t{2} << 48) | (i + 1);
  }
  return out;
}

/// One remote operation split at its five message events.
struct Hops {
  std::int64_t pre_send, request_transit, owner_service, reply_transit, wakeup,
      span;
};

/// Finds the requester's done span, the request send/receive and the reply
/// send/receive of one flow. False when any of them is missing.
bool split_flow(const obs::TraceFlow& f, Hops& h) {
  using obs::TraceEventKind;
  const obs::TraceEvent* done = nullptr;
  for (const obs::TraceEvent& ev : f.events) {
    if ((ev.kind == TraceEventKind::kReadDone ||
         ev.kind == TraceEventKind::kWriteDone) &&
        ev.dur_ns > 0) {
      done = &ev;
      break;
    }
  }
  if (done == nullptr) return false;
  const bool is_read = done->kind == TraceEventKind::kReadDone;
  const auto req = static_cast<std::uint8_t>(is_read ? MsgType::kRead
                                                     : MsgType::kWrite);
  const auto rep = static_cast<std::uint8_t>(is_read ? MsgType::kReadReply
                                                     : MsgType::kWriteReply);
  const NodeId me = done->node;
  auto find = [&f](TraceEventKind kind, NodeId node, std::uint8_t type,
                   NodeId peer) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& ev : f.events) {
      if (ev.kind == kind && ev.node == node && ev.msg_type == type &&
          (peer == kNoNode || ev.peer == peer)) {
        return &ev;
      }
    }
    return nullptr;
  };
  const obs::TraceEvent* req_send = find(TraceEventKind::kSend, me, req, kNoNode);
  if (req_send == nullptr) return false;
  const NodeId owner = req_send->peer;
  const obs::TraceEvent* req_recv = find(TraceEventKind::kRecv, owner, req, me);
  const obs::TraceEvent* rep_send = find(TraceEventKind::kSend, owner, rep, me);
  const obs::TraceEvent* rep_recv = find(TraceEventKind::kRecv, me, rep, owner);
  if (req_recv == nullptr || rep_send == nullptr || rep_recv == nullptr) {
    return false;
  }
  auto diff = [](std::uint64_t later, std::uint64_t earlier) {
    return static_cast<std::int64_t>(later) - static_cast<std::int64_t>(earlier);
  };
  const std::uint64_t end = done->ts_ns + done->dur_ns;
  h.pre_send = diff(req_send->ts_ns, done->ts_ns);
  h.request_transit = diff(req_recv->ts_ns, req_send->ts_ns);
  h.owner_service = diff(rep_send->ts_ns, req_recv->ts_ns);
  h.reply_transit = diff(rep_recv->ts_ns, rep_send->ts_ns);
  h.wakeup = diff(end, rep_recv->ts_ns);
  h.span = diff(end, done->ts_ns);
  return true;
}

void set_hop(Report& r, const std::string& name, const LatHist& h) {
  r.set(name + "_p50_us", "us", h.quantile_us(0.50));
  r.set(name + "_p99_us", "us", h.quantile_us(0.99));
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double set_window_metrics(Report& r, const std::vector<Window>& windows) {
  std::vector<double> rate, op50, op99, rd50, rd99, wr50, wr99;
  for (const Window& w : windows) {
    const LatHist reads = w.calls.reads();
    const LatHist writes = w.calls.writes();
    rate.push_back(static_cast<double>(w.unit.count()) / w.seconds);
    op50.push_back(w.unit.quantile_us(0.50));
    op99.push_back(w.unit.quantile_us(0.99));
    rd50.push_back(reads.quantile_us(0.50));
    rd99.push_back(reads.quantile_us(0.99));
    wr50.push_back(writes.quantile_us(0.50));
    wr99.push_back(writes.quantile_us(0.99));
  }
  std::printf("  window ops/s:");
  for (const double v : rate) std::printf(" %.0f", v);
  std::printf("\n");
  const double ops_per_s = median(rate);
  r.set("ops_per_s", "ops/s", ops_per_s);
  r.set("op_p50_us", "us", median(op50));
  r.set("op_p99_us", "us", median(op99));
  r.set("read_p50_us", "us", median(rd50));
  r.set("dsm.read_p99_us", "us", median(rd99));
  r.set("write_p50_us", "us", median(wr50));
  r.set("dsm.write_p99_us", "us", median(wr99));
  return ops_per_s;
}

void set_op_layers(Report& r, const OpHists& h) {
  r.set("dsm.read_hit_p50_us", "us", h.read_hit.quantile_us(0.50));
  r.set("dsm.read_hit_p99_us", "us", h.read_hit.quantile_us(0.99));
  r.set("dsm.read_miss_p50_us", "us", h.read_miss.quantile_us(0.50));
  r.set("dsm.read_miss_p99_us", "us", h.read_miss.quantile_us(0.99));
  r.set("dsm.write_local_p50_us", "us", h.write_local.quantile_us(0.50));
  r.set("dsm.write_remote_p50_us", "us", h.write_remote.quantile_us(0.50));
  r.set("dsm.write_remote_p99_us", "us", h.write_remote.quantile_us(0.99));
}

void set_counter_layers(Report& r, const StatsSnapshot& t,
                        const obs::HistogramSnapshot& owner_rtt, double ops) {
  const double hits = as_double(t[Counter::kReadHit]);
  const double misses = as_double(t[Counter::kReadMiss]);
  const double remote_writes = as_double(t[Counter::kWriteRemote]);
  const double writes = as_double(t[Counter::kWriteLocal]) + remote_writes;
  const double queued = as_double(t[Counter::kShardInvalQueued]);
  const double refetch = as_double(t[Counter::kSpinRefetch]);
  r.set("dsm.read_hit_ratio", "ratio", ratio(hits, hits + misses));
  r.set("dsm.invalidations_per_op", "1/op",
        ratio(as_double(t[Counter::kInvalidationApplied]), ops));
  r.set("dsm.owner_rtt_p50_us", "us", snapshot_quantile_us(owner_rtt, 0.50));
  r.set("dsm.owner_rtt_p99_us", "us", snapshot_quantile_us(owner_rtt, 0.99));
  r.set("net.msgs_per_remote_op", "msgs/op",
        ratio(as_double(t.messages_sent()), misses + remote_writes));
  r.set("sharding.invals_per_write", "1/write", ratio(queued, writes));
  r.set("sharding.piggyback_ratio", "ratio",
        ratio(as_double(t[Counter::kShardInvalPiggybacked]), queued));
  r.set("sharding.batch_msgs_per_write", "msgs/write",
        ratio(as_double(t[Counter::kMsgInvalBatch]), writes));
  r.set("sharding.subscribes_per_op", "1/op",
        ratio(as_double(t[Counter::kShardSubscribe]), ops));
  // The solver overrides these two; no other workload has phases.
  r.set("apps.spin_refetch_per_phase", "1/phase", 0.0);
  r.set("apps.msgs_per_worker_phase", "msgs", 0.0);
  r.set("apps.spin_useful_ratio", "ratio",
        ratio(as_double(t[Counter::kSpinTransition]), refetch));
}

void set_micro_layers(Report& r, std::size_t nodes, bool sharded,
                      std::uint64_t seed) {
  const std::vector<Message> replies = reply_stream(nodes, seed);
  const std::size_t m = replies.size();
  {
    // Encode: each frame goes back to the pool right away, as the
    // transport's send path does. Decode: one channel's frames in order
    // (the first is a full clock), so the delta baseline advances exactly
    // as on a real channel.
    ClockCodecState tx_enc, tx_dec, rx;
    std::vector<std::vector<std::byte>> frames;
    for (const Message& rep : replies) frames.push_back(rep.encode(tx_dec));
    r.set("net.encode_ns", "ns", ns_per_call(m, [&](std::size_t i) {
            FrameArena::release(replies[i].encode(tx_enc));
          }));
    Message scratch;
    r.set("net.decode_ns", "ns", ns_per_call(m, [&](std::size_t i) {
            Message::decode_into(frames[i], scratch, &rx);
          }));
    g_sink.fetch_add(scratch.request_id, std::memory_order_relaxed);
  }
  {
    std::vector<VectorClock> clocks;
    for (const Message& rep : replies) clocks.push_back(rep.stamp);
    VectorClock acc(nodes);
    r.set("vclock.merge_ns", "ns", ns_per_call(4096, [&](std::size_t i) {
            acc.update(clocks[i % m]);
          }));
    // acc now dominates every stamp, so each comparison scans all n
    // components: the cost of finding one stale cache entry.
    std::uint64_t sink = 0;
    r.set("vclock.compare_ns", "ns", ns_per_call(4096, [&](std::size_t i) {
            sink += static_cast<std::uint64_t>(acc.compare(clocks[i % m]));
          }));
    g_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  double lookup_ns = 0.0;
  if (sharded) {
    const HashRingOwnership ring(nodes);
    const Ownership& own = ring;
    std::vector<Addr> addrs;
    Rng rng(seed ^ 0x5A4DULL);
    for (int i = 0; i < 1024; ++i) addrs.push_back(rng.next_below(1u << 20));
    std::uint64_t sink = 0;
    lookup_ns = ns_per_call(4096, [&](std::size_t i) {
      sink += own.owner(addrs[i % addrs.size()]);
    });
    g_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  r.set("sharding.owner_lookup_ns", "ns", lookup_ns);
}

void set_trace_layers(Report& r, Outcome& out, obs::TraceHub& hub,
                      std::uint64_t remote_ops) {
  // Lost events: slots abandoned mid-overwrite plus ring wraparound.
  std::uint64_t dropped = hub.dropped();
  for (NodeId i = 0; i < hub.node_count(); ++i) {
    const obs::Tracer& t = hub.node(i);
    if (t.attempted() > t.capacity()) dropped += t.attempted() - t.capacity();
  }
  const obs::TraceCorrelator corr(hub.events());
  LatHist pre, req, svc, rep, wake;
  std::uint64_t complete = 0, negative = 0, unbalanced = 0;
  for (const obs::TraceFlow& f : corr.flows()) {
    Hops h{};
    if (!f.complete() || !f.connected() || !f.cross_node() ||
        !split_flow(f, h)) {
      continue;
    }
    if (h.pre_send < 0 || h.request_transit < 0 || h.owner_service < 0 ||
        h.reply_transit < 0 || h.wakeup < 0) {
      ++negative;
      continue;
    }
    if (h.pre_send + h.request_transit + h.owner_service + h.reply_transit +
            h.wakeup !=
        h.span) {
      ++unbalanced;
      continue;
    }
    ++complete;
    pre.record(static_cast<std::uint64_t>(h.pre_send));
    req.record(static_cast<std::uint64_t>(h.request_transit));
    svc.record(static_cast<std::uint64_t>(h.owner_service));
    rep.record(static_cast<std::uint64_t>(h.reply_transit));
    wake.record(static_cast<std::uint64_t>(h.wakeup));
  }
  if (negative + unbalanced > 0) {
    out.problems.push_back("hop check: " + std::to_string(negative) +
                           " traced flows with a negative hop, " +
                           std::to_string(unbalanced) +
                           " whose hops do not sum to the operation span");
  }
  if (remote_ops > 0 && complete == 0) {
    out.problems.push_back("traced run retained no complete remote operation");
  }
  set_hop(r, "dsm.pre_send", pre);
  set_hop(r, "net.request_transit", req);
  set_hop(r, "dsm.owner_service", svc);
  set_hop(r, "net.reply_transit", rep);
  set_hop(r, "dsm.wakeup", wake);
  r.set("obs.flow_complete_ratio", "ratio",
        ratio(as_double(complete), as_double(remote_ops)));
  r.set("obs.trace_dropped", "count", as_double(dropped));
  r.set("obs.traced_flows_incomplete", "count",
        as_double(remote_ops > complete ? remote_ops - complete : 0));
}

}  // namespace perfbench
