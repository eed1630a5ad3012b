// wadc_run — command-line driver for wide-area data combination experiments.
//
// Runs any of the paper's placement algorithms on sampled or user-supplied
// network configurations and prints per-configuration results plus summary
// statistics, in human-readable or CSV form.
//
// Examples:
//   wadc_run --algorithm=global --servers=8 --configs=20
//   wadc_run --algorithm=local --extras=3 --shape=left-deep --csv
//   wadc_run --algorithm=one-shot --trace-set=mylinks.txt --seed=5
//   wadc_run --dump-traces=pool.txt          # export the synthetic pool
//
// Observability (see docs/OBSERVABILITY.md): --trace-out records the final
// configuration's run as Chrome trace-event JSON (open in
// https://ui.perfetto.dev), --metrics-out dumps its counters/histograms.
// Both files are byte-identical across same-seed runs:
//   wadc_run --algorithm=global --trace-out=t.json --metrics-out=m.json
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cache/cache_config.h"
#include "common/parse.h"
#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/export.h"
#include "fault/spec_io.h"
#include "exp/parallel.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/io.h"
#include "trace/library.h"
#include "trace/stats.h"

namespace {

using namespace wadc;

struct Options {
  // The run every configuration repeats. The flags set its algorithm,
  // backend and tcp time scale, sizes, tree shape, relocation period,
  // local extras and timeline interval in place.
  exp::ExperimentSpec spec;
  int configs = 1;
  int jobs = 0;  // 0 = unset: resolve via WADC_JOBS
  std::uint64_t seed = 1000;
  std::uint64_t library_seed = 2026;
  bool csv = false;
  bool with_baseline = true;
  std::string trace_set_path;
  std::string cache_spec;      // --cache-spec=... (full grammar)
  std::string cache_capacity;  // --cache-capacity=BYTES[k|m|g] shorthand
  // --cache-policy=lru|cost (needs a capacity)
  std::optional<cache::EvictionPolicy> cache_policy;
  std::string fault_spec_path;  // fault schedule (see docs/FAULTS.md)
  std::string sessions_spec_path;  // multi-client spec (docs/SESSIONS.md)
  int num_clients = 0;  // shorthand: N sessions at t=0, unbounded admission
  std::string dump_traces_path;
  std::string dump_run_path;  // JSON of the final configuration's run
  std::string trace_out_path;    // Chrome trace JSON of the final run
  std::string metrics_out_path;  // metrics JSON of the final run
  std::string timeline_out_path;   // sim-time timeline of the final run
  std::string decisions_out_path;  // decision log (JSONL) of the final run
  std::string profile_out_path;  // wall-clock phase profile (whole invocation)
  std::string bench_out_path;    // JSON perf report for the whole invocation

  Options() { spec.algorithm = core::AlgorithmKind::kGlobal; }
};

void usage() {
  std::fprintf(
      stderr,
      "usage: wadc_run [options]\n"
      "  --algorithm=download-all|one-shot|global|local|global-order|\n"
      "              reorder-only\n"
      "                         placement algorithm (default global)\n"
      "  --backend=sim|tcp      transport backend (default sim). sim is the\n"
      "                         deterministic discrete-event model; tcp moves\n"
      "                         every transfer over real loopback sockets in\n"
      "                         scaled wall-clock time (forces --jobs=1;\n"
      "                         timings vary run to run)\n"
      "  --time-scale=X         tcp backend: simulated seconds per wall\n"
      "                         second, at least 1 (default 600)\n"
      "  --servers=N            number of data servers (default 8)\n"
      "  --iterations=N         partitions per server (default 180)\n"
      "  --shape=binary|left-deep|right-deep (default binary)\n"
      "  --period=SECONDS       relocation period (default 600)\n"
      "  --extras=K             local algorithm's extra candidates (default 0)\n"
      "  --configs=N            network configurations to run (default 1)\n"
      "  --jobs=N               worker threads for the configuration runs\n"
      "                         (0 = all hardware threads; default: WADC_JOBS,"
      "\n                         else serial). Output is byte-identical for\n"
      "                         every jobs value.\n"
      "  --seed=N               base configuration seed (default 1000)\n"
      "  --library-seed=N       trace pool seed (default 2026)\n"
      "  --trace-set=FILE       use traces from FILE instead of synthesizing\n"
      "  --cache-spec=SPEC      enable the result cache from a spec string\n"
      "                         (capacity=BYTES[k|m|g][,policy=lru|cost]\n"
      "                         [,diffusion=on|off], see docs/CACHING.md)\n"
      "  --cache-capacity=BYTES[k|m|g]\n"
      "                         shorthand: enable the cache with this per-host\n"
      "                         capacity and default policy (lru)\n"
      "  --cache-policy=lru|cost\n"
      "                         eviction policy (requires --cache-capacity)\n"
      "  --fault-spec=FILE      inject faults from FILE (crash/blackout/drop\n"
      "                         lines, see docs/FAULTS.md) and run the\n"
      "                         engine fault-tolerant\n"
      "  --sessions-spec=FILE   run concurrent query sessions from FILE\n"
      "                         (session/open/closed/admission lines, see\n"
      "                         docs/SESSIONS.md) over one shared network\n"
      "  --num-clients=N        shorthand for N sessions all arriving at\n"
      "                         t=0 with unbounded admission\n"
      "  --dump-traces=FILE     write the synthetic pool to FILE and exit\n"
      "  --dump-run=FILE        write the last run's stats as JSON\n"
      "  --trace-out=FILE       write the last run's Chrome trace-event JSON\n"
      "  --metrics-out=FILE     write the last run's metrics as JSON\n"
      "  --timeline-out=FILE    write the last run's sim-time timeline\n"
      "                         (.json for JSON, anything else CSV)\n"
      "  --timeline-interval=SECONDS\n"
      "                         timeline sampling interval in simulated\n"
      "                         seconds, at least 1 (default 60)\n"
      "  --decisions-out=FILE   write the last run's adaptation-decision log\n"
      "                         (one JSON object per line)\n"
      "  --profile-out=FILE     write a wall-clock phase profile of this\n"
      "                         invocation (non-deterministic; never merge\n"
      "                         into golden artifacts)\n"
      "  --bench-out=FILE       write a JSON perf report (name, jobs, runs,\n"
      "                         wall_seconds, runs_per_second)\n"
      "  --no-baseline          skip the download-all baseline run\n"
      "  --csv                  machine-readable output\n");
}

// Reads the command line into `opt` (--help prints usage and exits 0).
// Returns false after printing a line that names the offending flag or
// value.
bool parse(int argc, char** argv, Options& opt) {
  using core::AlgorithmKind;
  using core::TreeShape;
  const FlagsRead read = read_flags(
      std::vector<std::string_view>(argv + 1, argv + argc),
      {choice_flag("--algorithm", opt.spec.algorithm,
                   {{"download-all", AlgorithmKind::kDownloadAll},
                    {"one-shot", AlgorithmKind::kOneShot},
                    {"global", AlgorithmKind::kGlobal},
                    {"local", AlgorithmKind::kLocal},
                    {"global-order", AlgorithmKind::kGlobalOrder},
                    {"reorder-only", AlgorithmKind::kReorderOnly}}),
       choice_flag("--backend", opt.spec.backend,
                   {{"sim", exp::Backend::kSim}, {"tcp", exp::Backend::kTcp}}),
       number_flag("--time-scale", opt.spec.tcp_time_scale, 1.0),
       number_flag("--servers", opt.spec.num_servers, 2),
       number_flag("--iterations", opt.spec.iterations, 1),
       choice_flag("--shape", opt.spec.tree_shape,
                   {{"binary", TreeShape::kCompleteBinary},
                    {"left-deep", TreeShape::kLeftDeep},
                    {"right-deep", TreeShape::kRightDeep}}),
       number_flag("--period", opt.spec.relocation_period_seconds),
       number_flag("--extras", opt.spec.local_extra_candidates),
       number_flag("--configs", opt.configs, 1),
       parsed_flag("--jobs", opt.jobs, exp::parse_jobs,
                   "an integer >= 0; 0 = all hardware threads"),
       number_flag("--seed", opt.seed),
       number_flag("--library-seed", opt.library_seed),
       path_flag("--trace-set", opt.trace_set_path),
       path_flag("--cache-spec", opt.cache_spec, "a cache spec"),
       path_flag("--cache-capacity", opt.cache_capacity, "a byte count"),
       parsed_flag("--cache-policy", opt.cache_policy,
                   cache::parse_eviction_policy, "lru or cost"),
       path_flag("--fault-spec", opt.fault_spec_path),
       path_flag("--sessions-spec", opt.sessions_spec_path),
       number_flag("--num-clients", opt.num_clients, 1),
       path_flag("--dump-traces", opt.dump_traces_path),
       path_flag("--dump-run", opt.dump_run_path),
       path_flag("--trace-out", opt.trace_out_path),
       path_flag("--metrics-out", opt.metrics_out_path),
       path_flag("--timeline-out", opt.timeline_out_path),
       number_flag("--timeline-interval", opt.spec.timeline_sample_seconds,
                   1.0),
       path_flag("--decisions-out", opt.decisions_out_path),
       path_flag("--profile-out", opt.profile_out_path),
       path_flag("--bench-out", opt.bench_out_path),
       switch_flag("--csv", opt.csv),
       switch_flag("--no-baseline", opt.with_baseline, false)});
  if (read.help) {
    usage();
    std::exit(0);
  }
  if (!read.error.empty()) {
    std::fprintf(stderr, "%s\n", read.error.c_str());
    return false;
  }
  if (!opt.sessions_spec_path.empty() && opt.num_clients > 0) {
    std::fprintf(stderr,
                 "--sessions-spec and --num-clients are mutually exclusive\n");
    return false;
  }
  if (!opt.cache_spec.empty() &&
      (!opt.cache_capacity.empty() || opt.cache_policy)) {
    std::fprintf(stderr, "--cache-spec already carries capacity and policy; "
                 "it is mutually exclusive with --cache-capacity and "
                 "--cache-policy\n");
    return false;
  }
  if (opt.cache_policy && opt.cache_capacity.empty()) {
    std::fprintf(stderr,
                 "--cache-policy requires --cache-capacity (or fold both "
                 "into --cache-spec)\n");
    return false;
  }
  if ((!opt.cache_spec.empty() || !opt.cache_capacity.empty()) &&
      !opt.dump_traces_path.empty()) {
    std::fprintf(stderr, "--dump-traces runs no simulation; the cache flags "
                 "are meaningless with it\n");
    return false;
  }
  if (opt.spec.backend == exp::Backend::kTcp && opt.jobs > 1) {
    std::fprintf(stderr, "note: --backend=tcp forces --jobs=1\n");
  }
  return true;
}

// The configuration loop both modes share. Every configuration is an
// independent job: `run(spec, worker)` runs it, and outcomes land in
// index-keyed slots returned in configuration order, so output is
// byte-identical for any --jobs value. Only the final configuration's run
// carries the obs sinks, so nothing needs merging, and `dump(outcome,
// path)` writes its --dump-run JSON. Then writes --bench-out, counting
// `runs_per_config` runs per configuration, and every requested export; a
// run whose requested artifacts cannot be written must not exit 0, so
// `exit_code` becomes 2 when one fails.
template <typename Run, typename Dump>
auto run_configs(const Options& opt, long long runs_per_config,
                 obs::Profiler* profiler, const Run& run, const Dump& dump,
                 int& exit_code) {
  using Outcome =
      std::invoke_result_t<const Run&, const exp::ExperimentSpec&, int>;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::DecisionLog decisions;
  obs::Timeline timeline;
  // Every tcp run opens a full loopback socket mesh and paces against the
  // one wall clock; concurrent runs would contend for both.
  const int jobs = opt.spec.backend == exp::Backend::kTcp
                       ? 1
                       : exp::resolve_jobs(opt.jobs);
  std::vector<Outcome> outcomes(static_cast<std::size_t>(opt.configs));
  const exp::WallTimer timer;
  exp::parallel_for(opt.configs, jobs, [&](int c, int worker) {
    exp::ExperimentSpec s = opt.spec;
    s.config_seed = opt.seed + static_cast<std::uint64_t>(c);
    if (c == opt.configs - 1) {
      s.obs.tracer = opt.trace_out_path.empty() ? nullptr : &tracer;
      s.obs.metrics = opt.metrics_out_path.empty() ? nullptr : &metrics;
      s.obs.decisions = opt.decisions_out_path.empty() ? nullptr : &decisions;
      s.obs.timeline = opt.timeline_out_path.empty() ? nullptr : &timeline;
    }
    outcomes[static_cast<std::size_t>(c)] = run(s, worker);
  });
  const double wall_seconds = timer.seconds();

  const auto write = [&exit_code](const char* what, const std::string& path,
                                  const auto& write_to) {
    if (path.empty()) return;
    try {
      write_to(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to %s: %s\n", what, e.what());
      exit_code = 2;
    }
  };
  write("dump run", opt.dump_run_path,
        [&](const std::string& path) { dump(outcomes.back(), path); });
  write("write bench report", opt.bench_out_path, [&](const std::string& path) {
    exp::write_bench_json_file(
        exp::make_bench_report("wadc_run", jobs,
                               opt.configs * runs_per_config, wall_seconds),
        path);
  });
  write("write trace", opt.trace_out_path, [&](const std::string& path) {
    tracer.write_chrome_json_file(path);
  });
  write("write metrics", opt.metrics_out_path,
        [&](const std::string& path) { metrics.write_json_file(path); });
  write("write timeline", opt.timeline_out_path,
        [&](const std::string& path) { timeline.write_file(path); });
  write("write decision log", opt.decisions_out_path,
        [&](const std::string& path) { decisions.write_jsonl_file(path); });
  // The profiler exists exactly when --profile-out was given.
  write("write profile", opt.profile_out_path,
        [&](const std::string& path) { profiler->write_json_file(path); });
  return outcomes;
}

// Single-engine mode: every configuration runs the algorithm under study
// and, unless --no-baseline, the download-all baseline its speedup is
// measured against.
int run_engine_mode(const Options& opt, const trace::TraceLibrary& library,
                    obs::Profiler* profiler) {
  const exp::ExperimentSpec& spec = opt.spec;
  const char* algorithm = core::algorithm_name(spec.algorithm);
  const bool faulting = !spec.fault.empty();
  if (opt.csv) {
    std::printf("config_seed,algorithm,completion_s,interarrival_s,"
                "speedup,relocations%s\n",
                faulting ? ",completed,faults,retries,repairs,"
                           "recovery_s,abort_reason"
                         : "");
  } else {
    std::printf("wadc_run: %s, %d servers, %d iterations, %s tree, period "
                "%.0f s, %d configuration(s)%s\n\n",
                algorithm, spec.num_servers, spec.iterations,
                core::tree_shape_name(spec.tree_shape),
                spec.relocation_period_seconds, opt.configs,
                spec.backend == exp::Backend::kTcp ? ", tcp loopback backend"
                                                   : "");
    std::printf("config    completion  interarrival  speedup  relocations%s\n",
                faulting ? "  ok  faults  retries  repairs" : "");
  }

  struct ConfigOutcome {
    double base_time = 0;
    exp::RunResult run;
  };
  int exit_code = 0;
  const std::vector<ConfigOutcome> outcomes = run_configs(
      opt, opt.with_baseline ? 2 : 1, profiler,
      [&](const exp::ExperimentSpec& s, int worker) {
        ConfigOutcome out;
        if (opt.with_baseline) {
          obs::Profiler::Scope base_scope(profiler, "baseline_run", worker);
          exp::ExperimentSpec base = s;
          base.algorithm = core::AlgorithmKind::kDownloadAll;
          base.obs = {};  // trace the algorithm under study, not the baseline
          out.base_time =
              exp::run_experiment(library, base).completion_seconds;
        }
        obs::Profiler::Scope run_scope(profiler, "engine_run", worker);
        out.run = exp::run_experiment(library, s);
        return out;
      },
      [](const ConfigOutcome& out, const std::string& path) {
        exp::write_run_json_file(out.run.stats, path);
      },
      exit_code);

  std::vector<double> speedups, completions, interarrivals;
  for (int c = 0; c < opt.configs; ++c) {
    const ConfigOutcome& out = outcomes[static_cast<std::size_t>(c)];
    const exp::RunResult& r = out.run;
    const unsigned long long config_seed =
        opt.seed + static_cast<std::uint64_t>(c);
    const double speedup =
        opt.with_baseline ? out.base_time / r.completion_seconds : 0.0;
    speedups.push_back(speedup);
    completions.push_back(r.completion_seconds);
    interarrivals.push_back(r.mean_interarrival_seconds);

    const dataflow::FailureSummary& fs = r.stats.failure_summary;
    if (opt.csv && faulting) {
      std::printf("%llu,%s,%.3f,%.3f,%.3f,%d,%d,%d,%llu,%d,%.3f,%s\n",
                  config_seed, algorithm, r.completion_seconds,
                  r.mean_interarrival_seconds, speedup, r.stats.relocations,
                  r.stats.completed ? 1 : 0, fs.faults_injected,
                  static_cast<unsigned long long>(fs.transfer_retries),
                  fs.repair_relocations, fs.recovery_seconds_total,
                  fs.abort_reason.c_str());
    } else if (opt.csv) {
      std::printf("%llu,%s,%.3f,%.3f,%.3f,%d\n", config_seed, algorithm,
                  r.completion_seconds, r.mean_interarrival_seconds, speedup,
                  r.stats.relocations);
    } else if (faulting) {
      std::printf("%-9llu %9.1f s %11.2f s %7.2fx  %-11d  %-2s  %-6d  %-7llu"
                  "  %d%s%s\n",
                  config_seed, r.completion_seconds,
                  r.mean_interarrival_seconds, speedup, r.stats.relocations,
                  r.stats.completed ? "y" : "N", fs.faults_injected,
                  static_cast<unsigned long long>(fs.transfer_retries),
                  fs.repair_relocations,
                  fs.abort_reason.empty() ? "" : "  ",
                  fs.abort_reason.c_str());
    } else {
      std::printf("%-9llu %9.1f s %11.2f s %7.2fx  %d\n", config_seed,
                  r.completion_seconds, r.mean_interarrival_seconds, speedup,
                  r.stats.relocations);
    }
  }

  if (!opt.csv && opt.configs > 1) {
    std::printf("\nsummary over %d configurations:\n", opt.configs);
    std::printf("  completion   mean %9.1f s   median %9.1f s\n",
                trace::mean_of(completions), trace::median_of(completions));
    std::printf("  interarrival mean %9.2f s   median %9.2f s\n",
                trace::mean_of(interarrivals),
                trace::median_of(interarrivals));
    if (opt.with_baseline) {
      std::printf("  speedup      mean %9.2fx   median %9.2fx\n",
                  trace::mean_of(speedups), trace::median_of(speedups));
    }
  }
  return exit_code;
}

// Multi-client session mode: every configuration runs `sessions` concurrent
// query sessions over one shared network and prints aggregate response-time
// and fairness statistics.
int run_session_mode(const Options& opt, const trace::TraceLibrary& library,
                     const session::SessionSpec& sessions,
                     obs::Profiler* profiler) {
  const exp::ExperimentSpec& spec = opt.spec;
  const char* algorithm = core::algorithm_name(spec.algorithm);
  const char* policy =
      session::admission_policy_name(sessions.admission.policy);
  if (opt.csv) {
    std::printf("config_seed,algorithm,policy,sessions,completed,"
                "mean_response_s,p95_response_s,mean_queue_s,jain_fairness,"
                "throughput_per_s,makespan_s,shed,deferred,"
                "goodput_per_hour\n");
  } else {
    std::printf("wadc_run: %s, %d servers, %d iterations, %s tree, "
                "%d session(s), admission %s, %d configuration(s)\n\n",
                algorithm, spec.num_servers, spec.iterations,
                core::tree_shape_name(spec.tree_shape),
                sessions.total_sessions(), policy, opt.configs);
    std::printf("config    sessions  done  mean_resp     p95_resp      "
                "mean_queue  jain   makespan\n");
  }

  int exit_code = 0;
  const std::vector<session::SessionStats> outcomes = run_configs(
      opt, sessions.total_sessions(), profiler,
      [&](const exp::ExperimentSpec& s, int worker) {
        obs::Profiler::Scope run_scope(profiler, "session_run", worker);
        return exp::run_session_experiment(library, s, sessions);
      },
      exp::write_sessions_json_file, exit_code);

  std::vector<double> mean_responses;
  for (int c = 0; c < opt.configs; ++c) {
    const session::SessionStats& st = outcomes[static_cast<std::size_t>(c)];
    const unsigned long long config_seed =
        opt.seed + static_cast<std::uint64_t>(c);
    mean_responses.push_back(st.mean_response_seconds());
    if (opt.csv) {
      std::printf("%llu,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.4f,%.6f,%.3f,"
                  "%d,%d,%.4f\n",
                  config_seed, algorithm, policy, st.total_count(),
                  st.completed_count(), st.mean_response_seconds(),
                  st.p95_response_seconds(), st.mean_queue_seconds(),
                  st.jain_fairness(), st.aggregate_throughput(),
                  st.makespan_seconds(), st.shed_count(),
                  st.deferred_count(), st.goodput_per_hour());
    } else {
      std::printf("%-9llu %-9d %-5d %9.1f s %11.1f s %9.1f s  %.3f  "
                  "%9.1f s\n",
                  config_seed, st.total_count(), st.completed_count(),
                  st.mean_response_seconds(), st.p95_response_seconds(),
                  st.mean_queue_seconds(), st.jain_fairness(),
                  st.makespan_seconds());
    }
  }

  if (!opt.csv && opt.configs > 1) {
    std::printf("\nsummary over %d configurations:\n", opt.configs);
    std::printf("  mean response   mean %9.1f s   median %9.1f s\n",
                trace::mean_of(mean_responses),
                trace::median_of(mean_responses));
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  // Trace pool: synthetic by default, or loaded from a file.
  std::optional<trace::TraceLibrary> library;
  if (!opt.trace_set_path.empty()) {
    try {
      library.emplace(trace::load_trace_set_file(opt.trace_set_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load traces: %s\n", e.what());
      return 2;
    }
  } else {
    library.emplace(trace::TraceLibraryParams{}, opt.library_seed);
  }

  if (!opt.dump_traces_path.empty()) {
    std::vector<trace::BandwidthTrace> pool;
    for (std::size_t i = 0; i < library->size(); ++i) {
      pool.push_back(library->trace(i));
    }
    try {
      trace::save_trace_set_file(pool, opt.dump_traces_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to dump traces: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %zu traces to %s\n", pool.size(),
                opt.dump_traces_path.c_str());
    return 0;
  }

  exp::ExperimentSpec& spec = opt.spec;
  if (!opt.cache_spec.empty() || !opt.cache_capacity.empty()) {
    try {
      spec.cache = cache::parse_cache_spec(
          opt.cache_spec.empty() ? "capacity=" + opt.cache_capacity
                                 : opt.cache_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (opt.cache_policy) spec.cache.policy = *opt.cache_policy;
    if (const std::string problem = spec.cache.validate(); !problem.empty()) {
      std::fprintf(stderr, "bad cache config: %s\n", problem.c_str());
      return 2;
    }
  }

  // Reject unusable parameters with a message and exit code 2 (usage error)
  // instead of tripping an engine assertion deep inside the first run.
  if (const std::string problem = spec.network.validate(); !problem.empty()) {
    std::fprintf(stderr, "bad network parameters: %s\n", problem.c_str());
    return 2;
  }
  if (const std::string problem = dataflow::validate(
          spec.engine_params(opt.seed));
      !problem.empty()) {
    std::fprintf(stderr, "bad engine parameters: %s\n", problem.c_str());
    return 2;
  }
  if (!opt.fault_spec_path.empty()) {
    try {
      spec.fault = fault::load_fault_spec_file(opt.fault_spec_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load fault spec: %s\n", e.what());
      return 2;
    }
    if (const std::string problem = spec.fault.validate(spec.num_servers + 1);
        !problem.empty()) {
      std::fprintf(stderr, "bad fault spec: %s\n", problem.c_str());
      return 2;
    }
  }

  // Wall-clock profiling of this invocation (explicitly non-deterministic;
  // exported through its own channel only).
  std::unique_ptr<obs::Profiler> profiler;
  if (!opt.profile_out_path.empty()) {
    profiler = std::make_unique<obs::Profiler>();
  }

  if (opt.sessions_spec_path.empty() && opt.num_clients == 0) {
    return run_engine_mode(opt, *library, profiler.get());
  }
  session::SessionSpec sessions;
  if (!opt.sessions_spec_path.empty()) {
    try {
      sessions = session::load_session_spec_file(opt.sessions_spec_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load sessions spec: %s\n", e.what());
      return 2;
    }
  } else {
    sessions = session::SessionSpec::concurrent_clients(opt.num_clients);
  }
  return run_session_mode(opt, *library, sessions, profiler.get());
}
