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
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "common/parse.h"
#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/export.h"
#include "fault/spec_io.h"
#include "exp/parallel.h"
#include "exp/report.h"
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
  core::AlgorithmKind algorithm = core::AlgorithmKind::kGlobal;
  exp::Backend backend = exp::Backend::kSim;
  double time_scale = 600;  // tcp backend: simulated seconds per wall second
  int servers = 8;
  int iterations = 180;
  core::TreeShape shape = core::TreeShape::kCompleteBinary;
  double period_seconds = 600;
  int extras = 0;
  int configs = 1;
  int jobs = 0;  // 0 = unset: resolve via WADC_JOBS
  std::uint64_t seed = 1000;
  std::uint64_t library_seed = 2026;
  bool csv = false;
  bool with_baseline = true;
  std::string trace_set_path;
  std::string cache_spec;      // --cache-spec=... (full grammar)
  std::string cache_capacity;  // --cache-capacity=BYTES[k|m|g] shorthand
  std::string cache_policy;    // --cache-policy=lru|cost (needs a capacity)
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
  sim::SimTime timeline_interval_seconds = 60;
  std::string bench_out_path;    // JSON perf report for the whole invocation
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
      "                         second (default 600)\n"
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
      "                         timeline sampling interval (default 60)\n"
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

// Strict numeric flag values (common/parse.h): typos like --servers=8x,
// --period=fast or --time-scale=nan are rejected instead of silently
// becoming some other number.
template <typename T>
bool to_number(const std::string& s, const char* flag, T& out) {
  const std::optional<T> v = parse_number<T>(s);
  if (!v) {
    std::fprintf(stderr, "invalid number for %s: '%s'\n", flag, s.c_str());
    return false;
  }
  out = *v;
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = flag_value(arg, "--algorithm")) {
      if (*v == "download-all") {
        opt.algorithm = core::AlgorithmKind::kDownloadAll;
      } else if (*v == "one-shot") {
        opt.algorithm = core::AlgorithmKind::kOneShot;
      } else if (*v == "global") {
        opt.algorithm = core::AlgorithmKind::kGlobal;
      } else if (*v == "local") {
        opt.algorithm = core::AlgorithmKind::kLocal;
      } else if (*v == "global-order") {
        opt.algorithm = core::AlgorithmKind::kGlobalOrder;
      } else if (*v == "reorder-only") {
        opt.algorithm = core::AlgorithmKind::kReorderOnly;
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", v->c_str());
        return false;
      }
    } else if (auto vb = flag_value(arg, "--backend")) {
      if (*vb == "sim") {
        opt.backend = exp::Backend::kSim;
      } else if (*vb == "tcp") {
        opt.backend = exp::Backend::kTcp;
      } else {
        std::fprintf(stderr, "unknown backend '%s' (want sim or tcp)\n",
                     vb->c_str());
        return false;
      }
    } else if (auto vts = flag_value(arg, "--time-scale")) {
      if (!to_number(*vts, "--time-scale", opt.time_scale)) return false;
      if (opt.time_scale <= 0) {
        std::fprintf(stderr, "--time-scale must be positive\n");
        return false;
      }
    } else if (auto v2 = flag_value(arg, "--servers")) {
      if (!to_number(*v2, "--servers", opt.servers)) return false;
    } else if (auto v3 = flag_value(arg, "--iterations")) {
      if (!to_number(*v3, "--iterations", opt.iterations)) return false;
    } else if (auto v4 = flag_value(arg, "--shape")) {
      if (*v4 == "binary") {
        opt.shape = core::TreeShape::kCompleteBinary;
      } else if (*v4 == "left-deep") {
        opt.shape = core::TreeShape::kLeftDeep;
      } else if (*v4 == "right-deep") {
        opt.shape = core::TreeShape::kRightDeep;
      } else {
        std::fprintf(stderr, "unknown shape '%s'\n", v4->c_str());
        return false;
      }
    } else if (auto v5 = flag_value(arg, "--period")) {
      if (!to_number(*v5, "--period", opt.period_seconds)) return false;
    } else if (auto v6 = flag_value(arg, "--extras")) {
      if (!to_number(*v6, "--extras", opt.extras)) return false;
    } else if (auto v7 = flag_value(arg, "--configs")) {
      if (!to_number(*v7, "--configs", opt.configs)) return false;
    } else if (auto vj = flag_value(arg, "--jobs")) {
      const std::optional<int> jobs = exp::parse_jobs(*vj);
      if (!jobs) {
        std::fprintf(stderr, "invalid --jobs '%s' (want an integer >= 0; "
                     "0 = all hardware threads)\n", vj->c_str());
        return false;
      }
      opt.jobs = *jobs;
    } else if (auto v8 = flag_value(arg, "--seed")) {
      if (!to_number(*v8, "--seed", opt.seed)) return false;
    } else if (auto v9 = flag_value(arg, "--library-seed")) {
      if (!to_number(*v9, "--library-seed", opt.library_seed)) return false;
    } else if (auto v10 = flag_value(arg, "--trace-set")) {
      opt.trace_set_path = *v10;
    } else if (auto vcs = flag_value(arg, "--cache-spec")) {
      if (vcs->empty()) {
        std::fprintf(stderr, "--cache-spec requires a spec string\n");
        return false;
      }
      opt.cache_spec = *vcs;
    } else if (auto vcc = flag_value(arg, "--cache-capacity")) {
      if (vcc->empty()) {
        std::fprintf(stderr, "--cache-capacity requires a byte count\n");
        return false;
      }
      opt.cache_capacity = *vcc;
    } else if (auto vcp = flag_value(arg, "--cache-policy")) {
      if (!cache::parse_eviction_policy(*vcp)) {
        std::fprintf(stderr, "unknown cache policy '%s' (want lru or cost)\n",
                     vcp->c_str());
        return false;
      }
      opt.cache_policy = *vcp;
    } else if (auto vf = flag_value(arg, "--fault-spec")) {
      if (vf->empty()) {
        std::fprintf(stderr, "--fault-spec requires a file path\n");
        return false;
      }
      opt.fault_spec_path = *vf;
    } else if (auto vs = flag_value(arg, "--sessions-spec")) {
      if (vs->empty()) {
        std::fprintf(stderr, "--sessions-spec requires a file path\n");
        return false;
      }
      opt.sessions_spec_path = *vs;
    } else if (auto vn = flag_value(arg, "--num-clients")) {
      if (!to_number(*vn, "--num-clients", opt.num_clients)) return false;
      if (opt.num_clients < 1) {
        std::fprintf(stderr, "--num-clients must be >= 1\n");
        return false;
      }
    } else if (auto v11 = flag_value(arg, "--dump-traces")) {
      opt.dump_traces_path = *v11;
    } else if (auto v12 = flag_value(arg, "--dump-run")) {
      opt.dump_run_path = *v12;
    } else if (auto v13 = flag_value(arg, "--trace-out")) {
      if (v13->empty()) {
        std::fprintf(stderr, "--trace-out requires a file path\n");
        return false;
      }
      opt.trace_out_path = *v13;
    } else if (auto v14 = flag_value(arg, "--metrics-out")) {
      if (v14->empty()) {
        std::fprintf(stderr, "--metrics-out requires a file path\n");
        return false;
      }
      opt.metrics_out_path = *v14;
    } else if (auto vt = flag_value(arg, "--timeline-out")) {
      if (vt->empty()) {
        std::fprintf(stderr, "--timeline-out requires a file path\n");
        return false;
      }
      opt.timeline_out_path = *vt;
    } else if (auto vti = flag_value(arg, "--timeline-interval")) {
      if (!to_number(*vti, "--timeline-interval",
                     opt.timeline_interval_seconds)) {
        return false;
      }
      if (opt.timeline_interval_seconds <= 0) {
        std::fprintf(stderr, "--timeline-interval must be positive\n");
        return false;
      }
    } else if (auto vd = flag_value(arg, "--decisions-out")) {
      if (vd->empty()) {
        std::fprintf(stderr, "--decisions-out requires a file path\n");
        return false;
      }
      opt.decisions_out_path = *vd;
    } else if (auto vp = flag_value(arg, "--profile-out")) {
      if (vp->empty()) {
        std::fprintf(stderr, "--profile-out requires a file path\n");
        return false;
      }
      opt.profile_out_path = *vp;
    } else if (auto v15 = flag_value(arg, "--bench-out")) {
      if (v15->empty()) {
        std::fprintf(stderr, "--bench-out requires a file path\n");
        return false;
      }
      opt.bench_out_path = *v15;
    } else if (std::strcmp(arg, "--csv") == 0) {
      opt.csv = true;
    } else if (std::strcmp(arg, "--no-baseline") == 0) {
      opt.with_baseline = false;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return false;
    }
  }
  if (opt.servers < 2 || opt.iterations < 1 || opt.configs < 1) {
    std::fprintf(stderr, "servers/iterations/configs must be positive\n");
    return false;
  }
  if (!opt.sessions_spec_path.empty() && opt.num_clients > 0) {
    std::fprintf(stderr,
                 "--sessions-spec and --num-clients are mutually exclusive\n");
    return false;
  }
  if (!opt.cache_spec.empty() &&
      (!opt.cache_capacity.empty() || !opt.cache_policy.empty())) {
    std::fprintf(stderr, "--cache-spec already carries capacity and policy; "
                 "it is mutually exclusive with --cache-capacity and "
                 "--cache-policy\n");
    return false;
  }
  if (!opt.cache_policy.empty() && opt.cache_capacity.empty()) {
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
  if (opt.backend == exp::Backend::kTcp && opt.jobs > 1) {
    // Every tcp run opens a full loopback socket mesh and paces against the
    // one wall clock; concurrent runs would contend for both.
    std::fprintf(stderr, "note: --backend=tcp forces --jobs=1\n");
    opt.jobs = 1;
  }
  return true;
}

// Worker-thread count for the configuration runs (shared by both modes).
int resolve_run_jobs(const Options& opt) {
  if (opt.backend == exp::Backend::kTcp) return 1;
  return exp::resolve_jobs(opt.jobs);
}

// Writes the --bench-out report for this invocation, if requested. Returns
// 0 on success and 2 when the report cannot be written.
int write_bench_out(const Options& opt, int jobs, long long runs,
                    double wall_seconds) {
  if (opt.bench_out_path.empty()) return 0;
  try {
    exp::write_bench_json_file(
        exp::make_bench_report("wadc_run", jobs, runs, wall_seconds),
        opt.bench_out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to write bench report: %s\n", e.what());
    return 2;
  }
  return 0;
}

// Per-run observability sinks (attached to the final configuration's run)
// shared by both modes.
struct RunObs {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::DecisionLog decisions;
  obs::Timeline timeline;

  // True when any per-run export was requested.
  static bool wanted(const Options& opt) {
    return !opt.trace_out_path.empty() || !opt.metrics_out_path.empty() ||
           !opt.timeline_out_path.empty() || !opt.decisions_out_path.empty();
  }

  // Points spec-level obs at the sinks whose exports were requested.
  void attach(const Options& opt, obs::Obs& obs) {
    obs.tracer = opt.trace_out_path.empty() ? nullptr : &tracer;
    obs.metrics = opt.metrics_out_path.empty() ? nullptr : &metrics;
    obs.decisions = opt.decisions_out_path.empty() ? nullptr : &decisions;
    obs.timeline = opt.timeline_out_path.empty() ? nullptr : &timeline;
  }

  // Writes every requested artifact. Returns 0 on success, 2 after the
  // first failure: a run whose requested observability artifacts cannot be
  // written must not exit 0.
  int export_all(const Options& opt, const obs::Profiler* profiler) const {
    struct Export {
      const char* what;
      const std::string* path;
      std::function<void(const std::string&)> write;
    };
    const std::vector<Export> exports = {
        {"trace", &opt.trace_out_path,
         [this](const std::string& p) { tracer.write_chrome_json_file(p); }},
        {"metrics", &opt.metrics_out_path,
         [this](const std::string& p) { metrics.write_json_file(p); }},
        {"timeline", &opt.timeline_out_path,
         [this](const std::string& p) { timeline.write_file(p); }},
        {"decision log", &opt.decisions_out_path,
         [this](const std::string& p) { decisions.write_jsonl_file(p); }},
        {"profile", &opt.profile_out_path,
         [profiler](const std::string& p) {
           if (profiler != nullptr) profiler->write_json_file(p);
         }},
    };
    for (const Export& e : exports) {
      if (e.path->empty()) continue;
      try {
        e.write(*e.path);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "failed to write %s: %s\n", e.what, ex.what());
        return 2;
      }
    }
    return 0;
  }
};

// Multi-client session mode: every configuration runs `sessions` concurrent
// query sessions over one shared network and prints aggregate response-time
// and fairness statistics. Parallel over configurations like the normal
// mode; output is byte-identical for any --jobs value.
int run_session_mode(const Options& opt, const exp::ExperimentSpec& base_spec,
                     const trace::TraceLibrary& library,
                     const session::SessionSpec& sessions,
                     obs::Profiler* profiler) {
  const char* policy =
      session::admission_policy_name(sessions.admission.policy);
  if (opt.csv) {
    std::printf("config_seed,algorithm,policy,sessions,completed,"
                "mean_response_s,p95_response_s,mean_queue_s,jain_fairness,"
                "throughput_per_s,makespan_s,shed,deferred,degraded,"
                "goodput_per_hour\n");
  } else {
    std::printf("wadc_run: %s, %d servers, %d iterations, %s tree, "
                "%d session(s), admission %s, %d configuration(s)\n\n",
                core::algorithm_name(opt.algorithm), opt.servers,
                opt.iterations, core::tree_shape_name(opt.shape),
                sessions.total_sessions(), policy, opt.configs);
    std::printf("config    sessions  done  mean_resp     p95_resp      "
                "mean_queue  jain   makespan\n");
  }

  const bool want_obs = RunObs::wanted(opt);
  RunObs run_obs;

  const int jobs = resolve_run_jobs(opt);
  std::vector<session::SessionStats> outcomes(
      static_cast<std::size_t>(opt.configs));
  const exp::WallTimer timer;
  exp::parallel_for(opt.configs, jobs, [&](int c, int worker) {
    obs::Profiler::Scope run_scope(profiler, "session_run", worker);
    exp::ExperimentSpec s = base_spec;
    s.config_seed = opt.seed + static_cast<std::uint64_t>(c);
    s.obs = {};
    if (want_obs && c == opt.configs - 1) run_obs.attach(opt, s.obs);
    outcomes[static_cast<std::size_t>(c)] =
        exp::run_session_experiment(library, s, sessions);
  });
  const double wall_seconds = timer.seconds();

  int exit_code = 0;
  std::vector<double> mean_responses;
  for (int c = 0; c < opt.configs; ++c) {
    const session::SessionStats& st =
        outcomes[static_cast<std::size_t>(c)];
    const std::uint64_t config_seed =
        opt.seed + static_cast<std::uint64_t>(c);
    if (!opt.dump_run_path.empty() && c == opt.configs - 1) {
      try {
        exp::write_sessions_json_file(st, opt.dump_run_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "failed to dump run: %s\n", e.what());
        exit_code = 2;
      }
    }
    mean_responses.push_back(st.mean_response_seconds());
    if (opt.csv) {
      std::printf("%llu,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.4f,%.6f,%.3f,"
                  "%d,%d,%d,%.4f\n",
                  static_cast<unsigned long long>(config_seed),
                  core::algorithm_name(opt.algorithm), policy,
                  st.total_count(), st.completed_count(),
                  st.mean_response_seconds(), st.p95_response_seconds(),
                  st.mean_queue_seconds(), st.jain_fairness(),
                  st.aggregate_throughput(), st.makespan_seconds(),
                  st.shed_count(), st.deferred_count(), st.degraded_count(),
                  st.goodput_per_hour());
    } else {
      std::printf("%-9llu %-9d %-5d %9.1f s %11.1f s %9.1f s  %.3f  "
                  "%9.1f s\n",
                  static_cast<unsigned long long>(config_seed),
                  st.total_count(), st.completed_count(),
                  st.mean_response_seconds(), st.p95_response_seconds(),
                  st.mean_queue_seconds(), st.jain_fairness(),
                  st.makespan_seconds());
    }
  }

  if (const int rc = write_bench_out(
          opt, jobs,
          static_cast<long long>(opt.configs) * sessions.total_sessions(),
          wall_seconds);
      rc != 0) {
    exit_code = rc;
  }
  if (const int rc = run_obs.export_all(opt, profiler); rc != 0) {
    exit_code = rc;
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

  exp::ExperimentSpec spec;
  spec.algorithm = opt.algorithm;
  spec.num_servers = opt.servers;
  spec.iterations = opt.iterations;
  spec.tree_shape = opt.shape;
  spec.relocation_period_seconds = opt.period_seconds;
  spec.local_extra_candidates = opt.extras;
  spec.backend = opt.backend;
  spec.tcp_time_scale = opt.time_scale;

  if (!opt.cache_spec.empty() || !opt.cache_capacity.empty()) {
    std::string text = opt.cache_spec;
    if (text.empty()) {
      text = "capacity=" + opt.cache_capacity;
      if (!opt.cache_policy.empty()) text += ",policy=" + opt.cache_policy;
    }
    try {
      spec.cache = cache::parse_cache_spec(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
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
    if (const std::string problem = spec.fault.validate(opt.servers + 1);
        !problem.empty()) {
      std::fprintf(stderr, "bad fault spec: %s\n", problem.c_str());
      return 2;
    }
  }
  const bool faulting = !spec.fault.empty();
  spec.timeline_sample_seconds = opt.timeline_interval_seconds;

  // Wall-clock profiling of this invocation (explicitly non-deterministic;
  // exported through its own channel only).
  std::unique_ptr<obs::Profiler> profiler;
  if (!opt.profile_out_path.empty()) {
    profiler = std::make_unique<obs::Profiler>();
  }

  if (!opt.sessions_spec_path.empty() || opt.num_clients > 0) {
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
    return run_session_mode(opt, spec, *library, sessions, profiler.get());
  }

  if (!opt.csv) {
    std::printf("wadc_run: %s, %d servers, %d iterations, %s tree, period "
                "%.0f s, %d configuration(s)%s\n\n",
                core::algorithm_name(opt.algorithm), opt.servers,
                opt.iterations, core::tree_shape_name(opt.shape),
                opt.period_seconds, opt.configs,
                opt.backend == exp::Backend::kTcp
                    ? ", tcp loopback backend"
                    : "");
  }

  if (opt.csv) {
    std::printf("config_seed,algorithm,completion_s,interarrival_s,"
                "speedup,relocations%s\n",
                faulting ? ",completed,faults,retries,repairs,"
                           "recovery_s,abort_reason"
                         : "");
  } else if (faulting) {
    std::printf("config    completion  interarrival  speedup  relocations  "
                "ok  faults  retries  repairs\n");
  } else {
    std::printf("config    completion  interarrival  speedup  relocations\n");
  }

  // Observability: attach the per-run sinks to the final configuration's
  // main-algorithm run (the same run --dump-run exports). Only that one job
  // touches the sinks, so no merging is needed here.
  const bool want_obs = RunObs::wanted(opt);
  RunObs run_obs;

  // Every configuration (baseline + algorithm under study) is an
  // independent job; results land in index-keyed slots and are printed in
  // configuration order afterwards, so output is byte-identical for any
  // --jobs value.
  const int jobs = resolve_run_jobs(opt);
  struct ConfigOutcome {
    double base_time = 0;
    exp::RunResult run;
  };
  std::vector<ConfigOutcome> outcomes(
      static_cast<std::size_t>(opt.configs));
  const exp::WallTimer timer;
  exp::parallel_for(opt.configs, jobs, [&](int c, int worker) {
    exp::ExperimentSpec s = spec;
    s.config_seed = opt.seed + static_cast<std::uint64_t>(c);
    s.obs = {};
    if (want_obs && c == opt.configs - 1) run_obs.attach(opt, s.obs);
    ConfigOutcome& out = outcomes[static_cast<std::size_t>(c)];
    if (opt.with_baseline) {
      obs::Profiler::Scope base_scope(profiler.get(), "baseline_run", worker);
      exp::ExperimentSpec base = s;
      base.algorithm = core::AlgorithmKind::kDownloadAll;
      base.obs = {};  // trace the algorithm under study, not the baseline
      out.base_time = exp::run_experiment(*library, base).completion_seconds;
    }
    obs::Profiler::Scope run_scope(profiler.get(), "engine_run", worker);
    out.run = exp::run_experiment(*library, s);
  });
  const double wall_seconds = timer.seconds();

  int exit_code = 0;
  std::vector<double> speedups, completions, interarrivals;
  for (int c = 0; c < opt.configs; ++c) {
    const ConfigOutcome& out = outcomes[static_cast<std::size_t>(c)];
    const exp::RunResult& r = out.run;
    const std::uint64_t config_seed =
        opt.seed + static_cast<std::uint64_t>(c);
    if (!opt.dump_run_path.empty() && c == opt.configs - 1) {
      try {
        exp::write_run_json_file(r.stats, opt.dump_run_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "failed to dump run: %s\n", e.what());
        exit_code = 2;
      }
    }
    const double speedup =
        opt.with_baseline ? out.base_time / r.completion_seconds : 0.0;
    speedups.push_back(speedup);
    completions.push_back(r.completion_seconds);
    interarrivals.push_back(r.mean_interarrival_seconds);

    const dataflow::FailureSummary& fs = r.stats.failure_summary;
    if (opt.csv && faulting) {
      std::printf("%llu,%s,%.3f,%.3f,%.3f,%d,%d,%d,%llu,%d,%.3f,%s\n",
                  static_cast<unsigned long long>(config_seed),
                  core::algorithm_name(opt.algorithm), r.completion_seconds,
                  r.mean_interarrival_seconds, speedup, r.stats.relocations,
                  r.stats.completed ? 1 : 0, fs.faults_injected,
                  static_cast<unsigned long long>(fs.transfer_retries),
                  fs.repair_relocations, fs.recovery_seconds_total,
                  fs.abort_reason.c_str());
    } else if (opt.csv) {
      std::printf("%llu,%s,%.3f,%.3f,%.3f,%d\n",
                  static_cast<unsigned long long>(config_seed),
                  core::algorithm_name(opt.algorithm), r.completion_seconds,
                  r.mean_interarrival_seconds, speedup, r.stats.relocations);
    } else if (faulting) {
      std::printf("%-9llu %9.1f s %11.2f s %7.2fx  %-11d  %-2s  %-6d  %-7llu"
                  "  %d%s%s\n",
                  static_cast<unsigned long long>(config_seed),
                  r.completion_seconds, r.mean_interarrival_seconds, speedup,
                  r.stats.relocations, r.stats.completed ? "y" : "N",
                  fs.faults_injected,
                  static_cast<unsigned long long>(fs.transfer_retries),
                  fs.repair_relocations,
                  fs.abort_reason.empty() ? "" : "  ",
                  fs.abort_reason.c_str());
    } else {
      std::printf("%-9llu %9.1f s %11.2f s %7.2fx  %d\n",
                  static_cast<unsigned long long>(config_seed),
                  r.completion_seconds, r.mean_interarrival_seconds, speedup,
                  r.stats.relocations);
    }
  }

  if (const int rc = write_bench_out(
          opt, jobs,
          static_cast<long long>(opt.configs) * (opt.with_baseline ? 2 : 1),
          wall_seconds);
      rc != 0) {
    exit_code = rc;
  }

  if (const int rc = run_obs.export_all(opt, profiler.get()); rc != 0) {
    exit_code = rc;
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
