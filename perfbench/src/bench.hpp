// Shared pieces of the causal-DSM benchmark: command-line arguments, the
// metric report, the timed call wrappers every workload drives the program
// through, and the per-workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "causalmem/dsm/memory.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/stats/counters.hpp"
#include "lat_hist.hpp"

namespace perfbench {

using causalmem::Addr;
using causalmem::NodeId;
using causalmem::Value;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Named metric values with units. A workload sets what it measured; a
/// metric that does not apply to the workload is simply never set.
class Report {
 public:
  struct Entry {
    std::string unit;
    double value{0.0};
  };

  void set(const std::string& name, const std::string& unit, double value) {
    entries_[name] = Entry{unit, value};
  }
  [[nodiscard]] const Entry* find(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, Entry> entries_;
};

/// Everything one benchmark invocation produced.
struct Outcome {
  Report metrics;
  std::uint64_t attempted{0};  ///< operations issued and checked
  std::uint64_t failed{0};     ///< unreachable + failed a correctness check
  /// Any entry makes the run incorrect (solver mismatch, online-check
  /// verdict, hop-sum check, workload-shape assertion, ...).
  std::vector<std::string> problems;
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency of the application-visible calls one thread made, split the way
/// the per-layer metrics need it. Reads are classified by whether the
/// node's kReadMiss counter moved during the call, writes by whether its
/// kWriteRemote counter did (each node is driven by exactly one thread, so
/// nothing else moves them).
struct OpHists {
  LatHist read_hit, read_miss, write_local, write_remote;

  void merge(const OpHists& o) {
    read_hit.merge(o.read_hit);
    read_miss.merge(o.read_miss);
    write_local.merge(o.write_local);
    write_remote.merge(o.write_remote);
  }
  [[nodiscard]] LatHist reads() const {
    LatHist h = read_hit;
    h.merge(read_miss);
    return h;
  }
  [[nodiscard]] LatHist writes() const {
    LatHist h = write_local;
    h.merge(write_remote);
    return h;
  }
  [[nodiscard]] std::uint64_t ops() const {
    return read_hit.count() + read_miss.count() + write_local.count() +
           write_remote.count();
  }
};

inline Value timed_read(causalmem::SharedMemory& mem, Addr x, OpHists& h) {
  causalmem::NodeStats& st = mem.stats();
  const std::uint64_t misses = st.get(causalmem::Counter::kReadMiss);
  const std::uint64_t t0 = now_ns();
  const Value v = mem.read(x);
  const std::uint64_t t1 = now_ns();
  (st.get(causalmem::Counter::kReadMiss) == misses ? h.read_hit : h.read_miss)
      .record(t1 - t0);
  return v;
}

inline void timed_write(causalmem::SharedMemory& mem, Addr x, Value v,
                        OpHists& h) {
  causalmem::NodeStats& st = mem.stats();
  const std::uint64_t remote = st.get(causalmem::Counter::kWriteRemote);
  const std::uint64_t t0 = now_ns();
  mem.write(x, v);
  const std::uint64_t t1 = now_ns();
  (st.get(causalmem::Counter::kWriteRemote) == remote ? h.write_local
                                                      : h.write_remote)
      .record(t1 - t0);
}

/// One slice of a timed run.
struct Window {
  OpHists calls;  ///< the application's read()/write() calls
  LatHist unit;   ///< one sample per workload operation (a call; a phase)
  double seconds{0.0};
};

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// Sets ops_per_s, the op latency percentiles, the read/write medians and
/// the read/write tails (dsm.read_p99_us, dsm.write_p99_us) of the timed
/// run: each is computed per window and reported as the median over
/// windows, so one disturbed window cannot move it. Returns ops_per_s.
double set_window_metrics(Report& r, const std::vector<Window>& windows);

/// Sets the dsm.* latency split of the application-visible calls.
void set_op_layers(Report& r, const OpHists& h);

/// Sets the per-layer metrics derived from the program's own counters and
/// owner round-trip histogram. `ops` is the workload's operation count
/// (phases on the solver).
void set_counter_layers(Report& r, const causalmem::StatsSnapshot& t,
                        const causalmem::obs::HistogramSnapshot& owner_rtt,
                        double ops);

/// Benchmark-timed costs of single calls into the net, vclock and sharding
/// layers, at the workload's node count. `sharded` adds the hash-ring
/// lookup (zero otherwise: the other workloads never call it).
void set_micro_layers(Report& r, std::size_t nodes, bool sharded,
                      std::uint64_t seed);

/// Splits every remote operation retained in a traced run's rings into
/// pre-send, request transit, owner service, reply transit and wakeup, and
/// sets the dsm.* / net.* hop metrics plus the obs.* guards. `remote_ops`
/// is the number of remote operations the window issued (from counters).
void set_trace_layers(Report& r, Outcome& out, causalmem::obs::TraceHub& hub,
                      std::uint64_t remote_ops);

bool is_mixed_workload(const std::string& name);
Outcome run_mixed(const Args& args);
Outcome run_solver(const Args& args);

}  // namespace perfbench
