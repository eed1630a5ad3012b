#include "exp/bench_support.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/output_file.h"
#include "exp/parallel.h"

namespace wadc::exp {

BenchHarness::BenchHarness(int argc, char** argv, const char* name,
                           std::vector<BenchFlag> extra)
    : name_(name) {
  std::vector<Flag> flags = {
      parsed_flag("--jobs", jobs_, parse_jobs,
                  "an integer >= 0; 0 = all hardware threads"),
      path_flag("--bench-out", bench_out_),
      path_flag("--profile-out", profile_out_),
  };
  for (BenchFlag& e : extra) flags.push_back(std::move(e.flag));
  const FlagsRead read =
      read_flags(std::vector<std::string_view>(argv + 1, argv + argc), flags);
  if (read.help) {
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --jobs=N           sweep worker threads (0 = all "
                 "hardware threads;\n"
                 "                     default: WADC_JOBS, else serial)\n"
                 "  --bench-out=FILE   write a JSON perf report\n"
                 "  --profile-out=FILE write a wall-clock phase profile "
                 "(obs::Profiler)\n",
                 name);
    for (const BenchFlag& e : extra) std::fprintf(stderr, "%s\n", e.help);
    std::fprintf(stderr, "environment: WADC_CONFIGS, WADC_SEED, WADC_JOBS\n");
    std::exit(0);
  }
  if (!read.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", name, read.error.c_str());
    std::exit(2);
  }
  if (!profile_out_.empty()) profiler_ = std::make_unique<obs::Profiler>();
}

int BenchHarness::finish(int resolved_jobs) {
  const BenchReport report = make_bench_report(
      name_, resolved_jobs >= 0 ? resolved_jobs : resolve_jobs(jobs_), runs_,
      timer_.seconds());
  print_bench_report(report);
  if (!bench_out_.empty()) {
    try {
      write_bench_json_file(report, bench_out_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write bench report: %s\n", e.what());
      return 1;
    }
  }
  if (profiler_ != nullptr) {
    try {
      profiler_->write_json_file(profile_out_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write profile: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}

BenchReport make_bench_report(std::string name, int jobs, long long runs,
                              double wall_seconds) {
  BenchReport report;
  report.name = std::move(name);
  report.jobs = jobs;
  report.runs = runs;
  report.wall_seconds = wall_seconds;
  report.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
#ifdef WADC_BUILD_TYPE
  report.build_type = WADC_BUILD_TYPE;
#endif
  return report;
}

void print_bench_report(const BenchReport& report) {
  std::fprintf(stderr, "[bench] %s: %lld runs in %.2f s (%.1f runs/s, "
               "jobs=%d)\n",
               report.name.c_str(), report.runs, report.wall_seconds,
               report.runs_per_second(), report.jobs);
}

void write_bench_json_file(const BenchReport& report,
                           const std::string& path) {
  write_file(path, [&report](std::ostream& out) {
    out.precision(6);
    out << "{\n"
        << "  \"name\": \"" << report.name << "\",\n"
        << "  \"jobs\": " << report.jobs << ",\n"
        << "  \"runs\": " << report.runs << ",\n"
        << "  \"hardware_concurrency\": " << report.hardware_concurrency
        << ",\n"
        << "  \"build_type\": \"" << report.build_type << "\",\n"
        << "  \"wall_seconds\": " << std::fixed << report.wall_seconds
        << ",\n"
        << "  \"runs_per_second\": " << report.runs_per_second() << "\n"
        << "}\n";
  });
}

}  // namespace wadc::exp
