// Distributed hashed join — the third application class of §2.
//
// "the data being processed can be partitioned and individual partitions
// can be processed separately ... hashed relational join where each hash
// bucket is a separate partition."
//
// Six database sites each stream 120 hash buckets; pairwise join operators
// combine matching buckets on the way to the client, which assembles the
// final result. Buckets follow the §4 partition model (sizes drawn from
// N(128KB, 25%), 7 us of join work per byte), which the library fixes; the
// example varies the site count and the stream length. We compare the
// one-shot plan against the global algorithm — i.e. is start-up planning
// enough for a long-running join, or does bandwidth drift make on-line
// relocation of join operators pay? (This is exactly the "adaptive
// pipelined joins have not been considered" gap the paper's §6 points at.)
//
//   ./distributed_hash_join [config-seed]
#include <cstdint>
#include <cstdio>

#include "example_args.h"
#include "exp/experiment.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  const std::uint64_t seed = examples::positional_arg<std::uint64_t>(
      argc, argv, 1, "config-seed", 23);

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::ExperimentSpec spec;
  spec.num_servers = 6;
  spec.iterations = 120;  // 120 hash buckets per relation
  spec.config_seed = seed;
  spec.relocation_period_seconds = 600;

  std::printf("Distributed hash join: 6 database sites, 120 buckets each "
              "(~128KB), pairwise join tree, config seed %llu\n\n",
              static_cast<unsigned long long>(seed));

  double baseline = 0;
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kGlobal}) {
    spec.algorithm = algorithm;
    const exp::RunResult r = exp::run_experiment(library, spec);
    if (algorithm == core::AlgorithmKind::kDownloadAll) {
      baseline = r.completion_seconds;
    }
    std::printf("%-13s completion %8.1f s   bucket interarrival %6.2f s   "
                "speedup %5.2fx   relocations %d\n",
                core::algorithm_name(algorithm), r.completion_seconds,
                r.mean_interarrival_seconds,
                baseline / r.completion_seconds, r.stats.relocations);
  }

  std::printf("\nJoin operators are classic candidates for relocation: "
              "placing a join next to its\nlargest input avoids shipping "
              "that relation across a slow wide-area link, and\nthe "
              "pipelined bucket stream gives the light-move windows the "
              "engine relocates in.\n");
  return 0;
}
