// Figure 7: impact of considering k additional randomly selected candidate
// locations on the local relocation algorithm. Each point is the average
// speedup over all configurations. The paper found "no significant
// difference in performance".
#include <cstdio>

#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "trace/library.h"

int main(int argc, char** argv) {
  using namespace wadc;

  exp::BenchHarness bench(argc, argv, "fig7_local_extra_sites");
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);

  exp::SweepSpec sweep;
  sweep.configs = exp::env_configs(300);
  sweep.base_seed = exp::env_seed(1000);
  sweep.jobs = bench.jobs();

  std::printf("=== Figure 7: local algorithm with k extra random candidate "
              "sites, %d configurations ===\n\n",
              sweep.configs);

  const std::vector<int> ks = {0, 1, 2, 3, 4, 5, 6};
  const auto series = exp::run_local_extras_sweep(
      library, sweep, ks, [](int done, int total) {
        if (done % 100 == 0) {
          std::fprintf(stderr, "  ... %d/%d runs\n", done, total);
        }
      });

  bench.add_runs(static_cast<long long>(ks.size() + 1) * sweep.configs);
  const int bench_rc = bench.finish();

  std::printf("# k\tmean_speedup\tmedian_speedup\tmean_relocations\n");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const auto st = exp::stats_of(series[i].speedup);
    double mean_reloc = 0;
    for (const int r : series[i].relocations) mean_reloc += r;
    mean_reloc /= static_cast<double>(series[i].relocations.size());
    std::printf("%d\t%.3f\t%.3f\t%.2f\n", ks[i], st.mean, st.median,
                mean_reloc);
  }
  std::printf("\n(paper: the curve is flat — extra random candidates do not "
              "help the local algorithm)\n");
  return bench_rc;
}
