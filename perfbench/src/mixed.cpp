// The three closed-loop read/write workloads: remote_rw, cached_read and
// wide_shard. Each node is driven by exactly one of two driver threads, so
// every node's program order is well defined; the program's own delivery
// threads (one per node) run alongside.
//
// Every written value encodes (address, writer node, sequence), so each read
// is checked against the write that produced it: the value must belong to
// the address read, name a write its writer already issued, and never be
// older than a write from the same writer this node already saw there (this
// covers read-your-writes). Read-only table cells must equal their seeded
// values exactly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"

namespace perfbench {

using namespace causalmem;

namespace {

using System = DsmSystem<CausalNode>;

constexpr std::size_t kDrivers = 2;
/// The timed run is split into this many equal windows (see
/// set_window_metrics).
constexpr int kWindows = 20;
/// Set-ups per run (setup_s is their median): at least kMinSetups, more
/// while they take under kSetupBudgetS in total, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.3;
/// Writer id that marks a read-only table value.
constexpr std::uint32_t kTableWriter = 255;

constexpr Value encode_value(Addr a, std::uint32_t writer, std::uint64_t seq) {
  return static_cast<Value>((a << 40) | (std::uint64_t{writer} << 32) | seq);
}

struct Op {
  Addr addr{0};
  bool write{false};
};

class ValueChecker;

class MixedShape {
 public:
  virtual ~MixedShape() = default;
  [[nodiscard]] virtual std::size_t nodes() const = 0;
  /// Every address the workload touches lies in [0, addresses()).
  [[nodiscard]] virtual Addr addresses() const = 0;
  [[nodiscard]] virtual CausalConfig config() const { return {}; }
  [[nodiscard]] virtual SystemOptions options() const = 0;
  /// Writes every address once, marks read-only data and warms the caches.
  /// Returns the operations issued; failed read checks add to `failures`.
  virtual std::uint64_t setup(System& sys, ValueChecker& check,
                              std::uint64_t& failures) const = 0;
  [[nodiscard]] virtual Op next(NodeId p, Rng& rng) const = 0;
  /// The exact value of a read-only cell, or nullopt for mutable cells.
  [[nodiscard]] virtual std::optional<Value> fixed_value(Addr) const {
    return std::nullopt;
  }
  /// Operations per driver in the online-checked and traced passes.
  [[nodiscard]] virtual std::uint64_t pass_ops_per_driver() const = 0;
  /// Trace-ring capacity per node that keeps the whole traced pass.
  [[nodiscard]] virtual std::size_t trace_ring() const = 0;
  [[nodiscard]] virtual bool sharded() const { return false; }
};

class ValueChecker {
 public:
  explicit ValueChecker(const MixedShape& shape)
      : shape_(shape),
        n_(shape.nodes()),
        issued_(n_),
        last_(n_, std::vector<std::uint32_t>(shape.addresses() * n_, 0)) {}

  /// The value node p's next write to `a` carries.
  Value next_write(NodeId p, Addr a) {
    const std::uint64_t s =
        issued_[p].fetch_add(1, std::memory_order_release) + 1;
    last_[p][a * n_ + p] = static_cast<std::uint32_t>(s);
    return encode_value(a, p, s);
  }

  /// True when `v`, read by node p at `a`, is a value the workload allows.
  /// Only node p's driver calls this for p.
  bool check_read(NodeId p, Addr a, Value v) {
    if (const std::optional<Value> fixed = shape_.fixed_value(a)) {
      return v == *fixed;
    }
    if (v <= 0) return false;
    const auto u = static_cast<std::uint64_t>(v);
    const Addr va = u >> 40;
    const std::uint64_t w = (u >> 32) & 0xFF;
    const std::uint64_t s = u & 0xFFFFFFFFu;
    if (va != a || w >= n_ || s == 0 ||
        s > issued_[w].load(std::memory_order_acquire)) {
      return false;
    }
    std::uint32_t& last = last_[p][a * n_ + w];
    if (s < last) return false;
    last = static_cast<std::uint32_t>(s);
    return true;
  }

 private:
  const MixedShape& shape_;
  const std::size_t n_;
  std::vector<std::atomic<std::uint64_t>> issued_;
  /// last_[p][a * n + w]: newest sequence node p has seen from writer w at a.
  std::vector<std::vector<std::uint32_t>> last_;
};

/// Reads `a` at node p during set-up and checks the value.
void checked_read(System& sys, ValueChecker& check, NodeId p, Addr a,
                  std::uint64_t& failures) {
  if (!check.check_read(p, a, sys.memory(p).read(a))) ++failures;
}

// --- remote_rw: every operation is a Fig. 4 round trip ---------------------
class RemoteRw final : public MixedShape {
 public:
  static constexpr std::size_t kNodes = 4;
  static constexpr Addr kCellsPerNode = 64;

  std::size_t nodes() const override { return kNodes; }
  Addr addresses() const override { return kNodes * kCellsPerNode; }
  SystemOptions options() const override {
    SystemOptions o;
    o.exercise_codec = true;
    return o;
  }
  std::uint64_t setup(System& sys, ValueChecker& check,
                      std::uint64_t&) const override {
    // Striped ownership: cell a belongs to node a % 4, so these are local.
    for (Addr a = 0; a < addresses(); ++a) {
      const auto p = static_cast<NodeId>(a % kNodes);
      sys.memory(p).write(a, check.next_write(p, a));
    }
    return addresses();
  }
  Op next(NodeId p, Rng& rng) const override {
    const Addr q = (p + 1 + rng.next_below(kNodes - 1)) % kNodes;
    return Op{q + kNodes * rng.next_below(kCellsPerNode),
              rng.next_below(2) == 0};
  }
  std::uint64_t pass_ops_per_driver() const override { return 20000; }
  std::size_t trace_ring() const override { return std::size_t{1} << 17; }
};

// --- cached_read: a read-only table every node caches ----------------------
class CachedRead final : public MixedShape {
 public:
  static constexpr std::size_t kNodes = 4;
  static constexpr Addr kTable = 4096;
  static constexpr Addr kMutable = 256;

  explicit CachedRead(std::uint64_t seed) : seed_(seed) {}

  std::size_t nodes() const override { return kNodes; }
  Addr addresses() const override { return kTable + kMutable; }
  SystemOptions options() const override { return {}; }
  std::uint64_t setup(System& sys, ValueChecker& check,
                      std::uint64_t& failures) const override {
    // Every cell is written by its owner (striped: a % 4) before any
    // cross-node interaction, as mark_read_only requires of the table.
    for (Addr a = 0; a < addresses(); ++a) {
      const auto p = static_cast<NodeId>(a % kNodes);
      sys.memory(p).write(a, a < kTable ? *fixed_value(a)
                                        : check.next_write(p, a));
    }
    for (NodeId p = 0; p < kNodes; ++p) sys.memory(p).mark_read_only(0, kTable);
    for (NodeId p = 0; p < kNodes; ++p) {
      for (Addr a = 0; a < kTable; ++a) checked_read(sys, check, p, a, failures);
    }
    return addresses() + kNodes * kTable;
  }
  Op next(NodeId, Rng& rng) const override {
    const std::uint64_t r = rng.next_below(100);
    if (r < 98) return Op{rng.next_below(kTable), false};
    return Op{kTable + rng.next_below(kMutable), r == 99};
  }
  std::optional<Value> fixed_value(Addr a) const override {
    if (a >= kTable) return std::nullopt;
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + a);
    return encode_value(a, kTableWriter, 1 + rng.next_below(1u << 31));
  }
  std::uint64_t pass_ops_per_driver() const override { return 20000; }
  std::size_t trace_ring() const override { return std::size_t{1} << 17; }

 private:
  std::uint64_t seed_;
};

// --- wide_shard: 64 nodes, hash-ring ownership, copysets -------------------
class WideShard final : public MixedShape {
 public:
  static constexpr std::size_t kNodes = 64;
  static constexpr std::size_t kGroup = 4;
  static constexpr Addr kAddrsPerGroup = 16;

  std::size_t nodes() const override { return kNodes; }
  Addr addresses() const override {
    return (kNodes / kGroup) * kAddrsPerGroup;
  }
  CausalConfig config() const override {
    CausalConfig c;
    c.copysets = true;
    c.push_invalidation = true;
    return c;
  }
  SystemOptions options() const override {
    SystemOptions o;
    o.sharding.enabled = true;
    o.failover.enabled = true;
    return o;
  }
  std::uint64_t setup(System& sys, ValueChecker& check,
                      std::uint64_t& failures) const override {
    for (Addr a = 0; a < addresses(); ++a) {
      const auto p = static_cast<NodeId>(a / kAddrsPerGroup * kGroup);
      sys.memory(p).write(a, check.next_write(p, a));
    }
    for (NodeId p = 0; p < kNodes; ++p) {
      for (Addr a = base(p); a < base(p) + kAddrsPerGroup; ++a) {
        checked_read(sys, check, p, a, failures);
      }
    }
    return addresses() + kNodes * kAddrsPerGroup;
  }
  Op next(NodeId p, Rng& rng) const override {
    return Op{base(p) + rng.next_below(kAddrsPerGroup), rng.next_below(2) == 0};
  }
  std::uint64_t pass_ops_per_driver() const override { return 8000; }
  std::size_t trace_ring() const override { return std::size_t{1} << 13; }
  bool sharded() const override { return true; }

 private:
  static Addr base(NodeId p) { return p / kGroup * kAddrsPerGroup; }
};

std::unique_ptr<MixedShape> make_shape(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "remote_rw") return std::make_unique<RemoteRw>();
  if (name == "cached_read") return std::make_unique<CachedRead>(seed);
  if (name == "wide_shard") return std::make_unique<WideShard>();
  return nullptr;
}

struct DriveResult {
  std::vector<OpHists> windows;   ///< merged over drivers
  std::vector<double> window_s;   ///< wall time of each window
  std::uint64_t ops{0};
  std::uint64_t failures{0};
};

/// Runs the closed loop from kDrivers threads. With seconds > 0 it runs for
/// that long, split into kWindows windows; otherwise every driver issues
/// `budget` operations and the whole pass is one window.
DriveResult drive(System& sys, ValueChecker& check, const MixedShape& shape,
                  std::uint64_t seed, double seconds, std::uint64_t budget) {
  const int windows = seconds > 0 ? kWindows : 1;
  std::vector<std::vector<OpHists>> per_driver(
      kDrivers, std::vector<OpHists>(static_cast<std::size_t>(windows)));
  std::vector<std::uint64_t> failures(kDrivers, 0);
  std::vector<std::uint64_t> issued(kDrivers, 0);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> window{0};
  std::vector<std::jthread> threads;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    threads.emplace_back([&, d] {
      std::vector<NodeId> mine;
      for (NodeId p = 0; p < shape.nodes(); ++p) {
        if (p % kDrivers == d) mine.push_back(p);
      }
      Rng rng(seed * 0x9E3779B97F4A7C15ULL + d + 1);
      std::vector<OpHists>& hists = per_driver[d];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0;; ++i) {
        const int w = window.load(std::memory_order_acquire);
        if (w >= windows || (budget != 0 && i >= budget)) break;
        const NodeId p = mine[i % mine.size()];
        const Op op = shape.next(p, rng);
        SharedMemory& mem = sys.memory(p);
        OpHists& h = hists[static_cast<std::size_t>(w)];
        if (op.write) {
          timed_write(mem, op.addr, check.next_write(p, op.addr), h);
        } else if (!check.check_read(p, op.addr, timed_read(mem, op.addr, h))) {
          ++failures[d];
        }
        ++issued[d];
      }
    });
  }
  while (ready.load() < kDrivers) std::this_thread::yield();
  DriveResult r;
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  if (seconds > 0) {
    const auto win = std::chrono::duration<double>(seconds / windows);
    auto last = start;
    for (int k = 1; k <= windows; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::nanoseconds>(win * k));
      const auto t = std::chrono::steady_clock::now();
      r.window_s.push_back(std::chrono::duration<double>(t - last).count());
      last = t;
      window.store(k, std::memory_order_release);
    }
  }
  threads.clear();  // joins
  if (seconds <= 0) {
    r.window_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  r.windows.resize(static_cast<std::size_t>(windows));
  for (std::size_t d = 0; d < kDrivers; ++d) {
    for (int k = 0; k < windows; ++k) {
      r.windows[static_cast<std::size_t>(k)].merge(
          per_driver[d][static_cast<std::size_t>(k)]);
    }
    r.ops += issued[d];
    r.failures += failures[d];
  }
  return r;
}

/// Constructs and sets up one system; returns the set-up time in seconds.
/// Set-up operations and their failures (unreachable ones included) count
/// in `out`; afterwards the counters restart from zero, so each pass reads
/// only its own. With tracing on, the tracers stay detached through set-up
/// and the caller attaches them for the pass.
double build(const MixedShape& shape, const SystemOptions& options,
             std::unique_ptr<System>& sys, std::unique_ptr<ValueChecker>& check,
             Outcome& out) {
  check.reset();
  sys.reset();
  const std::uint64_t t0 = now_ns();
  sys = std::make_unique<System>(shape.nodes(), shape.config(), options);
  for (NodeId i = 0; i < shape.nodes(); ++i) {
    sys->stats().node(i).set_tracer(nullptr);
  }
  check = std::make_unique<ValueChecker>(shape);
  out.attempted += shape.setup(*sys, *check, out.failed);
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  out.failed += sys->stats().total()[Counter::kFoUnreachable];
  sys->stats().reset();
  return seconds;
}

/// Adds the pass's operations and failures, including any operation that
/// came back unreachable, to the outcome.
void account(Outcome& out, const DriveResult& r, const StatsSnapshot& t) {
  out.attempted += r.ops;
  out.failed += r.failures + t[Counter::kFoUnreachable];
}

}  // namespace

bool is_mixed_workload(const std::string& name) {
  return make_shape(name, 0) != nullptr;
}

Outcome run_mixed(const Args& args) {
  const std::unique_ptr<MixedShape> shape = make_shape(args.workload, args.seed);
  Outcome out;
  Report& m = out.metrics;

  // Set up several times; the last system is the one the timed run uses.
  std::unique_ptr<System> sys;
  std::unique_ptr<ValueChecker> check;
  std::vector<double> setups;
  double setup_total = 0.0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    setups.push_back(build(*shape, shape->options(), sys, check, out));
    setup_total += setups.back();
  }
  m.set("setup_s", "s", median(setups));

  // Timed run.
  const DriveResult timed =
      drive(*sys, *check, *shape, args.seed, args.seconds, 0);
  const StatsSnapshot totals = sys->stats().total();
  const obs::HistogramSnapshot rtt =
      sys->stats().latency_total(LatencyMetric::kOwnerRttNs);
  account(out, timed, totals);

  std::vector<Window> windows(timed.windows.size());
  OpHists pooled;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    windows[k].calls = timed.windows[k];
    windows[k].unit = timed.windows[k].reads();
    windows[k].unit.merge(timed.windows[k].writes());
    windows[k].seconds = timed.window_s[k];
    pooled.merge(timed.windows[k]);
  }
  const double ops_per_s = set_window_metrics(m, windows);
  const auto ops = static_cast<double>(pooled.ops());
  m.set("msgs_per_op", "msgs/op",
        static_cast<double>(totals.messages_sent()) / ops);
  set_op_layers(m, pooled);
  set_counter_layers(m, totals, rtt, ops);

  // Workload-shape assertions: each workload must keep isolating the layer
  // it was chosen for.
  const double hit_ratio = m.find("dsm.read_hit_ratio")->value;
  if (args.workload == "cached_read" && hit_ratio < 0.9) {
    out.problems.push_back("cached_read: read hit ratio below 0.9");
  }
  if (args.workload == "remote_rw" && hit_ratio > 0.1) {
    out.problems.push_back("remote_rw: read hit ratio above 0.1");
  }
  if (args.workload == "remote_rw" &&
      std::abs(m.find("net.msgs_per_remote_op")->value - 2.0) > 0.05) {
    out.problems.push_back("remote_rw: messages per remote op is not 2.0");
  }
  const bool shard_work = totals[Counter::kShardInvalQueued] > 0 &&
                          totals[Counter::kShardSubscribe] > 0;
  const bool any_shard_work =
      totals[Counter::kShardInvalQueued] + totals[Counter::kShardSubscribe] +
          totals[Counter::kShardInvalPiggybacked] +
          totals[Counter::kMsgInvalBatch] >
      0;
  if (shape->sharded() ? !shard_work : any_shard_work) {
    out.problems.push_back(shape->sharded()
                               ? "wide_shard: copyset layer did no work"
                               : "sharding counters moved on an unsharded run");
  }
  if (totals[Counter::kSpinRefetch] != 0) {
    out.problems.push_back("spin re-fetches on a workload without spin waits");
  }

  // Online-checked pass: outside the timed run, never reported as a metric.
  {
    SystemOptions o = shape->options();
    o.online_check.enabled = true;
    build(*shape, o, sys, check, out);
    const DriveResult r = drive(*sys, *check, *shape, args.seed + 1, 0,
                                shape->pass_ops_per_driver());
    sys->shutdown();
    account(out, r, sys->stats().total());
    const OnlineChecker& oc = *sys->online_checker();
    if (!oc.ok()) {
      const auto v = oc.violation();
      out.problems.push_back("online causal checker: " +
                             (v.has_value() ? v->detail : std::string("violation")));
    }
  }

  if (args.trace) {
    // Traced pass: the rings hold exactly the pass's operations.
    SystemOptions o = shape->options();
    o.trace.enabled = true;
    o.trace.events_per_node = shape->trace_ring();
    build(*shape, o, sys, check, out);
    for (NodeId i = 0; i < shape->nodes(); ++i) {
      sys->stats().node(i).set_tracer(&sys->trace_hub()->node(i));
    }
    const DriveResult r = drive(*sys, *check, *shape, args.seed + 2, 0,
                                shape->pass_ops_per_driver());
    sys->shutdown();
    const StatsSnapshot t = sys->stats().total();
    account(out, r, t);
    const double traced_rate = static_cast<double>(r.ops) / r.window_s[0];
    m.set("obs.trace_overhead_ratio", "ratio", ops_per_s / traced_rate);
    set_trace_layers(m, out, *sys->trace_hub(),
                     t[Counter::kReadMiss] + t[Counter::kWriteRemote]);
    set_micro_layers(m, shape->nodes(), shape->sharded(), args.seed);
  }
  return out;
}

}  // namespace perfbench
