// Shared scaffolding for the bench binaries: a --jobs/--bench-out command
// line, a wall-clock timer, and a tiny JSON perf report so the repo can
// accumulate a BENCH_*.json trajectory across PRs.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/profiler.h"

namespace wadc::exp {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct BenchReport {
  std::string name;
  int jobs = 1;
  long long runs = 0;  // simulated runs executed
  double wall_seconds = 0;
  // Machine/build context, so a BENCH_*.json is comparable across commits:
  // a jobs=4 number from a 1-core container and one from a 16-core desktop
  // are different experiments.
  int hardware_concurrency = 0;   // std::thread::hardware_concurrency()
  std::string build_type;         // CMAKE_BUILD_TYPE at compile time

  double runs_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(runs) / wall_seconds : 0;
  }
};

// A report with the machine/build context filled in from this process and
// build. Every BENCH_*.json writer builds its report here.
BenchReport make_bench_report(std::string name, int jobs, long long runs,
                              double wall_seconds);

// "[bench] name: R runs in W s (X runs/s, jobs=J)" on stderr, keeping the
// figure data on stdout untouched.
void print_bench_report(const BenchReport& report);

// {"name": ..., "jobs": ..., "runs": ..., "wall_seconds": ...,
//  "runs_per_second": ...}
void write_bench_json_file(const BenchReport& report, const std::string& path);

// A bench binary's own flag and its line in the --help text.
struct BenchFlag {
  Flag flag;
  const char* help;  // "  --out=FILE         what it writes"
};

// The whole main() scaffold every bench binary shares: reads the command
// line, starts the wall timer, accumulates the simulated-run count, and
// emits the report in finish(). Typical use:
//
//   exp::BenchHarness bench(argc, argv, "fig8_server_scaling");
//   sweep.jobs = bench.jobs();
//   ... bench.add_runs(4LL * sweep.configs); ...
//   return bench.finish();
class BenchHarness {
 public:
  // Reads --jobs=N, --bench-out=FILE, --profile-out=FILE and the binary's
  // `extra` flags. --help prints usage and exits 0; an unknown flag or a
  // malformed value prints one line naming it and exits 2. `name` labels
  // the usage text and perf reports.
  BenchHarness(int argc, char** argv, const char* name,
               std::vector<BenchFlag> extra = {});

  BenchHarness(const BenchHarness&) = delete;
  BenchHarness& operator=(const BenchHarness&) = delete;

  // Worker-count request for SweepSpec::jobs / resolve_jobs(): 0 = default
  // (WADC_JOBS if set, else serial); --jobs=0 resolves to all hardware
  // threads when it is read.
  int jobs() const { return jobs_; }

  // Non-null iff --profile-out was given; hand to SweepSpec::profiler so
  // the sweep runner records per-phase/per-worker wall-clock breakdowns.
  obs::Profiler* profiler() { return profiler_.get(); }

  void add_runs(long long n) { runs_ += n; }

  // Prints the stderr report line, writes --bench-out JSON and
  // --profile-out JSON if requested, and returns main()'s exit code.
  // `resolved_jobs` records how many workers actually ran (default:
  // resolve_jobs(jobs()); benches that drive runs serially pass 1).
  int finish(int resolved_jobs = -1);

 private:
  std::string name_;
  int jobs_ = 0;
  std::string bench_out_;    // optional JSON perf-report path
  std::string profile_out_;  // optional wall-clock profiler JSON path
  std::unique_ptr<obs::Profiler> profiler_;  // null unless --profile-out
  WallTimer timer_;
  long long runs_ = 0;
};

}  // namespace wadc::exp
