#include "exp/bench_support.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/parse.h"
#include "exp/parallel.h"

namespace wadc::exp {

BenchOptions parse_bench_options(int argc, char** argv, const char* name) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = flag_value(arg, "--jobs")) {
      const std::optional<int> jobs = parse_jobs(*v);
      if (!jobs) {
        std::fprintf(stderr, "invalid integer for --jobs: '%s'\n",
                     v->c_str());
        std::exit(2);
      }
      opt.jobs = *jobs;
    } else if (auto vb = flag_value(arg, "--bench-out")) {
      if (vb->empty()) {
        std::fprintf(stderr, "--bench-out requires a file path\n");
        std::exit(2);
      }
      opt.bench_out = *vb;
    } else if (auto vp = flag_value(arg, "--profile-out")) {
      if (vp->empty()) {
        std::fprintf(stderr, "--profile-out requires a file path\n");
        std::exit(2);
      }
      opt.profile_out = *vp;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--bench-out=FILE] "
                   "[--profile-out=FILE]\n"
                   "  --jobs=N           sweep worker threads (0 = all "
                   "hardware threads;\n"
                   "                     default: WADC_JOBS, else serial)\n"
                   "  --bench-out=FILE   write a JSON perf report\n"
                   "  --profile-out=FILE write a wall-clock phase profile "
                   "(obs::Profiler)\n"
                   "environment: WADC_CONFIGS, WADC_SEED, WADC_JOBS\n",
                   name);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", name,
                   arg);
      std::exit(2);
    }
  }
  return opt;
}

BenchHarness::BenchHarness(int argc, char** argv, const char* name)
    : name_(name), options_(parse_bench_options(argc, argv, name)) {
  if (!options_.profile_out.empty()) {
    profiler_ = std::make_unique<obs::Profiler>();
  }
}

int BenchHarness::finish(int resolved_jobs) {
  const BenchReport report = make_bench_report(
      name_,
      resolved_jobs >= 0 ? resolved_jobs : resolve_jobs(options_.jobs), runs_,
      timer_.seconds());
  print_bench_report(report);
  if (!options_.bench_out.empty()) {
    try {
      write_bench_json_file(report, options_.bench_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write bench report: %s\n", e.what());
      return 1;
    }
  }
  if (profiler_ != nullptr) {
    try {
      profiler_->write_json_file(options_.profile_out);
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
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
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
}

}  // namespace wadc::exp
