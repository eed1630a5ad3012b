// Quickstart: run the four placement algorithms of Ranganathan/Acharya/Saltz
// (ICDCS '98) on one randomly sampled wide-area network configuration and
// compare end-to-end completion times.
//
//   ./quickstart [config-seed]
//
// This exercises the whole public API: trace synthesis, network
// configuration sampling, and the dataflow engine running each algorithm.
#include <cstdint>
#include <cstdio>

#include "core/algorithm_kind.h"
#include "example_args.h"
#include "exp/experiment.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  const std::uint64_t config_seed = examples::positional_arg<std::uint64_t>(
      argc, argv, 1, "config-seed", 7);

  // A pool of synthetic two-day Internet bandwidth traces (the stand-in for
  // the paper's measurement study; see DESIGN.md).
  const trace::TraceLibrary library(trace::TraceLibraryParams{},
                                    /*seed=*/2026);

  exp::ExperimentSpec spec;
  spec.num_servers = 8;          // eight servers + one client, as in §4
  spec.iterations = 180;         // 180 images per server
  spec.relocation_period_seconds = 600;  // adapt every 10 minutes
  spec.config_seed = config_seed;

  std::printf("Wide-area data combination: 8 servers, 180 images each,\n");
  std::printf("complete binary combination tree, config seed %llu\n\n",
              static_cast<unsigned long long>(config_seed));

  double baseline = 0;
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kLocal, core::AlgorithmKind::kGlobal,
        core::AlgorithmKind::kGlobalOrder}) {
    spec.algorithm = algorithm;
    const exp::RunResult r = exp::run_experiment(library, spec);
    if (algorithm == core::AlgorithmKind::kDownloadAll) {
      baseline = r.completion_seconds;
    }
    std::printf(
        "%-13s completion %9.1f s   mean interarrival %7.2f s   "
        "speedup %5.2fx   relocations %d\n",
        core::algorithm_name(algorithm), r.completion_seconds,
        r.mean_interarrival_seconds, baseline / r.completion_seconds,
        r.stats.relocations);
  }
  std::printf(
      "\nSpeedups are relative to download-all (all operators at the "
      "client),\nthe dominant mode of wide-area data combination the paper "
      "argues against.\n");
  return 0;
}
