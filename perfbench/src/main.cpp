// causal_bench: one workload of the causal-DSM benchmark per invocation.
//
//   causal_bench --workload <remote_rw|cached_read|solver_fig6|wide_shard>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Prints every metric it measured by name with its unit, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (measured with tracing
// off); with --trace 1 they are the per-layer ones, which add a separate
// traced pass and benchmark-timed single-layer calls. Exits non-zero when
// any correctness check, workload-shape assertion or hop check fails.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct Spec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},       {"op_p50_us", "us"},
    {"read_p50_us", "us"},  {"write_p50_us", "us"},
    {"msgs_per_op", "msgs/op"}, {"peak_rss_mb", "MB"},
};

constexpr Spec kPerLayer[] = {
    {"ops_per_s", "ops/s"},
    {"op_p99_us", "us"},
    {"dsm.read_p99_us", "us"},
    {"dsm.write_p99_us", "us"},
    {"dsm.read_hit_ratio", "ratio"},
    {"dsm.read_hit_p50_us", "us"},
    {"dsm.read_hit_p99_us", "us"},
    {"dsm.read_miss_p50_us", "us"},
    {"dsm.read_miss_p99_us", "us"},
    {"dsm.write_local_p50_us", "us"},
    {"dsm.write_remote_p50_us", "us"},
    {"dsm.write_remote_p99_us", "us"},
    {"dsm.invalidations_per_op", "1/op"},
    {"dsm.owner_rtt_p50_us", "us"},
    {"dsm.owner_rtt_p99_us", "us"},
    {"dsm.pre_send_p50_us", "us"},
    {"dsm.pre_send_p99_us", "us"},
    {"dsm.owner_service_p50_us", "us"},
    {"dsm.owner_service_p99_us", "us"},
    {"dsm.wakeup_p50_us", "us"},
    {"dsm.wakeup_p99_us", "us"},
    {"net.request_transit_p50_us", "us"},
    {"net.request_transit_p99_us", "us"},
    {"net.reply_transit_p50_us", "us"},
    {"net.reply_transit_p99_us", "us"},
    {"net.msgs_per_remote_op", "msgs/op"},
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"vclock.merge_ns", "ns"},
    {"vclock.compare_ns", "ns"},
    {"sharding.invals_per_write", "1/write"},
    {"sharding.piggyback_ratio", "ratio"},
    {"sharding.batch_msgs_per_write", "msgs/write"},
    {"sharding.subscribes_per_op", "1/op"},
    {"sharding.owner_lookup_ns", "ns"},
    {"apps.spin_refetch_per_phase", "1/phase"},
    {"apps.spin_useful_ratio", "ratio"},
    {"apps.msgs_per_worker_phase", "msgs"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.flow_complete_ratio", "ratio"},
    {"obs.trace_dropped", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "causal_bench: %s\nusage: causal_bench --workload "
               "<remote_rw|cached_read|solver_fig6|wide_shard> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        usage("bad --trace");
      }
      a.trace = std::string_view(value) == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c >= 0x20 ? c : ' ';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Outcome out;
  if (perfbench::is_mixed_workload(args.workload)) {
    out = perfbench::run_mixed(args);
  } else if (args.workload == "solver_fig6") {
    out = perfbench::run_solver(args);
  } else {
    usage("unknown workload");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.metrics.set("peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0);

  for (const auto& [name, e] : out.metrics.entries()) {
    std::printf("  %-32s %16.6g %s\n", name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("  %-32s %16.6g ratio\n", "failed_op_ratio",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));

  const std::span<const Spec> specs =
      args.trace ? std::span<const Spec>(kPerLayer) : std::span<const Spec>(kEndToEnd);
  std::string metrics;
  for (const Spec& s : specs) {
    const perfbench::Report::Entry* e = out.metrics.find(s.name);
    if (e == nullptr || !std::isfinite(e->value) || e->unit != s.unit) {
      out.problems.push_back(std::string("metric ") + s.name +
                             " missing, not finite or in the wrong unit");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(s.name) + "\": {\"value\": " +
               number(e->value) + ", \"unit\": \"" + s.unit + "\"}";
  }
  if (out.attempted == 0) out.problems.push_back("no operation attempted");
  for (const std::string& p : out.problems) {
    std::printf("FAILED CHECK: %s\n", json_escape(p).c_str());
  }
  const bool correct = out.failed == 0 && out.problems.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
