// Satellite-image composition across wide-area sites — the paper's driving
// application (§4, modeled on NASA's AVHRR Pathfinder processing).
//
// Eight archive sites each hold a sequence of 180 satellite images;
// corresponding images are composed pairwise up a complete binary tree and
// the composed sequence is delivered to the analyst's client machine. The
// example runs the *global* adaptive algorithm, prints a timeline of
// adaptation decisions (replans, change-over barriers, operator moves), and
// summarizes where each combination operator ended up.
//
//   ./satellite_composition [config-seed] [period-seconds]
#include <cstdint>
#include <cstdio>

#include "dataflow/engine.h"
#include "example_args.h"
#include "exp/network_config.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  const std::uint64_t seed = examples::positional_arg<std::uint64_t>(
      argc, argv, 1, "config-seed", 42);
  const double period =
      examples::positional_arg<double>(argc, argv, 2, "period-seconds", 600.0);
  if (period <= 0) {
    std::fprintf(stderr, "%s: period-seconds must be > 0, got '%s'\n",
                 argv[0], argv[2]);
    return 2;
  }

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  // Assemble the stack piece by piece (the lower-level API that
  // exp::run_experiment wraps).
  sim::Simulation sim;
  const net::LinkTable links =
      exp::make_network_config(library, /*num_hosts=*/9, seed);
  net::Network network(sim, links, net::NetworkParams{});
  monitor::MonitoringSystem monitoring(network, monitor::MonitorParams{});
  const auto tree = core::CombinationTree::complete_binary(8);
  workload::WorkloadParams wp;  // 180 images, N(128KB, 25%)
  const workload::ImageWorkload workload(wp, 8, seed);

  dataflow::EngineParams ep;
  ep.algorithm = core::AlgorithmKind::kGlobal;
  ep.relocation_period_seconds = period;
  ep.seed = seed;
  dataflow::Engine engine(sim, network, monitoring, tree, workload, ep);

  std::printf("Satellite composition: 8 archive sites -> client, %s\n",
              tree.to_string().c_str());
  std::printf("Global adaptive placement, relocation period %.0f s, config "
              "seed %llu\n\n",
              period, static_cast<unsigned long long>(seed));

  const dataflow::RunStats stats = engine.run();

  std::printf("completed:            %d images in %.1f s\n",
              static_cast<int>(stats.arrival_seconds.size()),
              stats.completion_seconds);
  std::printf("mean interarrival:    %.2f s/image\n",
              stats.mean_interarrival_seconds());
  std::printf("replans:              %llu\n",
              static_cast<unsigned long long>(stats.replans));
  std::printf("change-over barriers: %d initiated, %d completed\n",
              stats.barriers_initiated, stats.barriers_completed);
  std::printf("operator relocations: %d\n\n", stats.relocations);

  if (!stats.relocation_trace.empty()) {
    std::printf("relocation timeline:\n");
    for (const auto& ev : stats.relocation_trace) {
      std::printf("  t=%8.1f s  operator %d: host %d -> host %d\n", ev.time,
                  ev.op, ev.from, ev.to);
    }
    std::printf("\n");
  }

  std::printf("final operator placement (host 0 is the client):\n");
  for (core::OperatorId op = 0; op < tree.num_operators(); ++op) {
    std::printf("  operator %d (level %d) at host %d\n", op, tree.level(op),
                engine.operator_location(op));
  }

  std::printf("\nmonitoring: %llu passive samples, %llu probes\n",
              static_cast<unsigned long long>(monitoring.passive_samples()),
              static_cast<unsigned long long>(monitoring.probes_issued()));
  std::printf("network:    %llu transfers, %.1f MB moved\n",
              static_cast<unsigned long long>(network.transfers_completed()),
              network.bytes_delivered() / 1e6);
  return 0;
}
