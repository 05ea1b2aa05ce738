// solver_fig6: the paper's Fig. 6 synchronous Jacobi solver on causal
// memory, n = 3 elements (3 workers + a coordinator), constants marked
// read-only, a fixed phase count per instance. The timed run repeats fresh
// instances until the time is used; each instance's result must equal
// jacobi_reference bit for bit. An operation of this workload is one phase;
// the solver's own read()/write() calls are timed through a wrapper.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "causalmem/apps/solver/solver.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/system.hpp"

namespace perfbench {

using namespace causalmem;

namespace {

using System = DsmSystem<CausalNode>;

constexpr std::size_t kElements = 3;
constexpr std::size_t kPhases = 200;
/// The timed run's instances are grouped into this many windows by start
/// time (see set_window_metrics).
constexpr std::size_t kWindows = 10;
/// Trace-ring capacity per node that keeps one whole traced instance.
constexpr std::size_t kTraceRing = std::size_t{1} << 18;

/// Forwards to a node's memory, timing every read() and write() the solver
/// makes. Each instance is used by exactly one solver thread.
class TimedMemory final : public SharedMemory {
 public:
  TimedMemory(SharedMemory& inner, OpHists& hists)
      : inner_(inner), hists_(hists) {}

  Value read(Addr x) override { return timed_read(inner_, x, hists_); }
  void write(Addr x, Value v) override { timed_write(inner_, x, v, hists_); }
  bool discard(Addr x) override { return inner_.discard(x); }
  bool owns(Addr x) const override { return inner_.owns(x); }
  void flush() override { inner_.flush(); }
  void mark_read_only(Addr lo, Addr hi) override {
    inner_.mark_read_only(lo, hi);
  }
  NodeId node_id() const override { return inner_.node_id(); }
  NodeStats& stats() override { return inner_.stats(); }

 private:
  SharedMemory& inner_;
  OpHists& hists_;
};

struct Instance {
  double setup_s{0.0};
  double timed_s{0.0};        ///< first phase start to the solver's return
  double phases_s{0.0};       ///< first to last phase start
  LatHist phase;              ///< ns between consecutive phase starts
  OpHists ops;
  StatsSnapshot stats;
  obs::HistogramSnapshot owner_rtt;
  bool exact{false};
};

/// Runs one solver instance on a fresh system. `inspect` sees the system
/// after the solver returned, before it is torn down.
template <typename Inspect>
Instance run_instance(const SolverProblem& problem,
                      const std::vector<double>& expected,
                      const SystemOptions& options, Inspect&& inspect) {
  Instance r;
  const SolverLayout layout(kElements);
  const std::uint64_t t0 = now_ns();
  System sys(layout.node_count(), {}, options, layout.make_ownership());
  std::vector<OpHists> hists(layout.node_count());
  std::vector<std::unique_ptr<TimedMemory>> timed;
  std::vector<SharedMemory*> mems;
  for (NodeId i = 0; i < layout.node_count(); ++i) {
    timed.push_back(std::make_unique<TimedMemory>(sys.memory(i), hists[i]));
    mems.push_back(timed.back().get());
  }
  std::vector<std::uint64_t> start(kPhases, 0);
  SolverOptions so;
  so.iterations = kPhases;
  so.protect_constants = true;
  so.on_phase = [&start](std::size_t k) { start[k] = now_ns(); };
  const SolverRun run = run_sync_solver(problem, layout, mems, so);
  const std::uint64_t end = now_ns();

  r.setup_s = static_cast<double>(start[0] - t0) / 1e9;
  r.timed_s = static_cast<double>(end - start[0]) / 1e9;
  for (std::size_t k = 1; k < kPhases; ++k) r.phase.record(start[k] - start[k - 1]);
  r.phases_s = static_cast<double>(start[kPhases - 1] - start[0]) / 1e9;
  r.exact = run.x.size() == expected.size() &&
            std::memcmp(run.x.data(), expected.data(),
                        expected.size() * sizeof(double)) == 0;
  for (const OpHists& h : hists) r.ops.merge(h);
  inspect(sys);
  r.stats = sys.stats().total();
  r.owner_rtt = sys.stats().latency_total(LatencyMetric::kOwnerRttNs);
  return r;
}

/// Adds one instance's phases to the outcome; a wrong result fails them all.
void account(Outcome& out, const Instance& in) {
  out.attempted += kPhases;
  if (!in.exact) out.failed += kPhases;
  out.failed += in.stats[Counter::kFoUnreachable];
}

}  // namespace

Outcome run_solver(const Args& args) {
  Outcome out;
  Report& m = out.metrics;
  const SolverProblem problem = SolverProblem::random(kElements, args.seed);
  const std::vector<double> expected = problem.jacobi_reference(kPhases);
  auto nothing = [](System&) {};

  std::vector<double> setups;
  std::vector<Window> windows(kWindows);
  OpHists ops;
  StatsSnapshot totals;
  obs::HistogramSnapshot rtt;
  std::size_t instances = 0;
  const double window_s = args.seconds / kWindows;
  for (double used = 0.0; used < args.seconds; ++instances) {
    const Instance in = run_instance(problem, expected, {}, nothing);
    Window& w = windows[std::min(kWindows - 1,
                                 static_cast<std::size_t>(used / window_s))];
    w.calls.merge(in.ops);
    w.unit.merge(in.phase);
    w.seconds += in.phases_s;
    used += in.timed_s;
    setups.push_back(in.setup_s);
    ops.merge(in.ops);
    totals += in.stats;
    rtt += in.owner_rtt;
    account(out, in);
  }
  std::erase_if(windows, [](const Window& w) { return w.seconds == 0.0; });
  const double phases = static_cast<double>(instances * kPhases);
  const double refetch = static_cast<double>(totals[Counter::kSpinRefetch]);
  // The paper's count: busy-wait re-fetches (one READ + R_REPLY per failed
  // poll) are waiting, not protocol cost.
  const double effective =
      static_cast<double>(totals.messages_sent()) - 2.0 * refetch;

  m.set("setup_s", "s", median(setups));
  const double phases_per_s = set_window_metrics(m, windows);
  m.set("msgs_per_op", "msgs/op", effective / phases);
  set_op_layers(m, ops);
  set_counter_layers(m, totals, rtt, phases);
  m.set("apps.spin_refetch_per_phase", "1/phase", refetch / phases);
  m.set("apps.msgs_per_worker_phase", "msgs",
        effective / (phases * static_cast<double>(kElements)));

  if (refetch == 0) {
    out.problems.push_back("solver_fig6: no spin re-fetch, the busy-wait path "
                           "was not exercised");
  }
  if (totals[Counter::kShardInvalQueued] + totals[Counter::kShardSubscribe] +
          totals[Counter::kMsgInvalBatch] >
      0) {
    out.problems.push_back("sharding counters moved on an unsharded run");
  }

  // Online-checked instance: outside the timed run, never reported.
  {
    SystemOptions o;
    o.online_check.enabled = true;
    const Instance in = run_instance(problem, expected, o, [&out](System& sys) {
      sys.shutdown();
      const OnlineChecker& oc = *sys.online_checker();
      if (!oc.ok()) {
        const auto v = oc.violation();
        out.problems.push_back(
            "online causal checker: " +
            (v.has_value() ? v->detail : std::string("violation")));
      }
    });
    account(out, in);
  }

  if (args.trace) {
    SystemOptions o;
    o.trace.enabled = true;
    o.trace.events_per_node = kTraceRing;
    const Instance in = run_instance(problem, expected, o, [&](System& sys) {
      sys.shutdown();
      const StatsSnapshot t = sys.stats().total();
      set_trace_layers(m, out, *sys.trace_hub(),
                       t[Counter::kReadMiss] + t[Counter::kWriteRemote]);
    });
    account(out, in);
    m.set("obs.trace_overhead_ratio", "ratio",
          phases_per_s / (static_cast<double>(kPhases - 1) / in.phases_s));
    set_micro_layers(m, SolverLayout(kElements).node_count(), false, args.seed);
  }
  return out;
}

}  // namespace perfbench
