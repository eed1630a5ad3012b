// Merging ranked results from federated search engines — one of the
// application classes the paper's §2 identifies as partitionable
// ("merging sorted results from multiple search engines where a
// subsequence of sorted items from a search-engine is a separate
// partition").
//
// Twelve geographically distributed index servers each stream 60 result
// pages; pairwise merge operators combine them on the way to the client.
// Merge output is the size of the larger input (duplicates collapse), and
// pages follow the §4 partition model (N(128KB, 25%), 7 us per byte), which
// the library fixes. Twelve sources make a four-level tree, one level more
// than the satellite workload's eight. The local (fully distributed)
// algorithm is used here, since a federation rarely has a central
// coordinator.
//
//   ./federated_search_merge [config-seed]
#include <cstdint>
#include <cstdio>

#include "dataflow/engine.h"
#include "example_args.h"
#include "exp/experiment.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  const std::uint64_t seed = examples::positional_arg<std::uint64_t>(
      argc, argv, 1, "config-seed", 11);

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::ExperimentSpec spec;
  spec.num_servers = 12;
  spec.iterations = 60;           // 60 result pages per engine
  spec.config_seed = seed;
  spec.relocation_period_seconds = 300;

  std::printf("Federated search: 12 index servers, 60 result pages each "
              "(~128KB), pairwise merge tree, config seed %llu\n\n",
              static_cast<unsigned long long>(seed));

  double baseline = 0;
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kLocal}) {
    spec.algorithm = algorithm;
    const exp::RunResult r = exp::run_experiment(library, spec);
    if (algorithm == core::AlgorithmKind::kDownloadAll) {
      baseline = r.completion_seconds;
    }
    std::printf("%-13s completion %8.1f s   page interarrival %6.2f s   "
                "speedup %5.2fx   relocations %d\n",
                core::algorithm_name(algorithm), r.completion_seconds,
                r.mean_interarrival_seconds,
                baseline / r.completion_seconds, r.stats.relocations);
  }

  std::printf("\nThe local algorithm needs no coordinator: each operator "
              "moves on its own,\none tree level per epoch. The one-shot "
              "row is what a single central plan at\nstart-up achieves on "
              "the same configuration.\n");
  return 0;
}
