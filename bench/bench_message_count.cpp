// E1 — the paper's headline quantitative claim (Section 4.1):
//
//   "each phase of the synchronous linear solver requires at least 3n+5
//    messages per processor when executed on atomic memory compared to
//    2n+6 when executed on causal memory."
//
// We run the *same* Figure 6 solver binary on both memories across n and
// report measured messages per worker per iteration:
//   - "effective": total sends minus busy-wait re-fetch pairs (the paper's
//     count assumes one fetch per flag transition);
//   - "no-acks": additionally excluding INV_ACKs, matching the paper's
//     convention of counting n-1 invalidation messages (not 2(n-1)).
//
// Expected shape: causal ~ 2n+6; atomic >= 3n+5; the gap grows ~ n.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

using namespace causalmem;
using namespace causalmem::bench;

int main(int argc, char** argv) {
  constexpr std::size_t kIterations = 20;
  const double drop_rate = parse_drop_rate(argc, argv);
  const std::string json_path = parse_json_path(argc, argv);
  std::printf(
      "E1: messages per worker per solver iteration (Fig. 6 solver, %zu "
      "iterations, drop rate %.2f)\n\n",
      kIterations, drop_rate);
  const SystemOptions options = with_drop_rate({}, drop_rate);

  obs::MetricsExporter exporter("bench_message_count");
  exporter.set_meta("experiment", "E1");
  exporter.set_meta("workload", "fig6_sync_solver");

  // The recovery columns (retransmits, receive-side duplicate drops, summed
  // over both runs) come from the net.* counters, which are *excluded* from
  // the protocol message accounting: the 2n+6-vs-3n+5 comparison measures
  // the protocols, not the channel quality. At drop rate 0 they must be 0.
  Table table({"n", "causal measured", "paper 2n+6", "atomic measured",
               "atomic no-acks", "paper 3n+5", "atomic/causal", "retransmits",
               "dup drops"});

  for (const std::size_t n : {2u, 4u, 8u, 12u, 16u, 24u}) {
    const SolverProblem problem = SolverProblem::random(n, 1234 + n);

    const auto causal =
        run_solver<CausalNode>(problem, kIterations, false, {}, options);
    const auto atomic =
        run_solver<AtomicNode>(problem, kIterations, false, {}, options);

    const double causal_per = causal.effective_per_worker_iter(n);
    const double atomic_per = atomic.effective_per_worker_iter(n);
    const double atomic_noack_per =
        (static_cast<double>(atomic.stats.effective_messages()) -
         static_cast<double>(atomic.stats[Counter::kMsgInvalidateAck])) /
        static_cast<double>(n * kIterations);
    const std::uint64_t retransmits = causal.stats[Counter::kNetRetransmit] +
                                      atomic.stats[Counter::kNetRetransmit];
    const std::uint64_t dup_drops = causal.stats[Counter::kNetDupDropped] +
                                    atomic.stats[Counter::kNetDupDropped];

    table.add_row({std::to_string(n), Table::num(causal_per, 1),
                   std::to_string(2 * n + 6), Table::num(atomic_per, 1),
                   Table::num(atomic_noack_per, 1), std::to_string(3 * n + 5),
                   Table::num(atomic_per / causal_per, 2),
                   std::to_string(retransmits), std::to_string(dup_drops)});

    const auto export_run = [&](const char* memory,
                                const SolverRunResult& result,
                                double per_worker_iter, double paper) {
      obs::RunMetrics& rm =
          exporter.add_run(std::string(memory) + " n=" + std::to_string(n));
      rm = result.metrics;
      rm.label = std::string(memory) + " n=" + std::to_string(n);
      rm.set_param("n", static_cast<double>(n));
      rm.set_param("iterations", static_cast<double>(kIterations));
      rm.set_param("drop_rate", drop_rate);
      rm.set_value("msgs_per_worker_iter", per_worker_iter);
      rm.set_value("paper_msgs_per_worker_iter", paper);
      rm.set_value("elapsed_us", static_cast<double>(result.elapsed.count()));
    };
    export_run("causal", causal, causal_per, static_cast<double>(2 * n + 6));
    export_run("atomic", atomic, atomic_per, static_cast<double>(3 * n + 5));
  }
  table.print(std::cout);
  maybe_write_metrics(exporter, json_path);

  std::printf(
      "\nReading the table: measured counts sit slightly above the paper's\n"
      "closed forms because they amortize one-time costs (fetching A and b,\n"
      "collecting the result) and include flag-write invalidation traffic\n"
      "the paper's count omits; the *shape* — causal ~2n, atomic ~3n, gap\n"
      "growing linearly, causal always cheaper — is the reproduced result.\n"
      "With --drop-rate=X the solver runs over lossy channels repaired by\n"
      "the reliable-delivery layer; the per-iteration message counts barely\n"
      "move because recovery traffic is accounted separately (last two\n"
      "columns).\n");
  return 0;
}
