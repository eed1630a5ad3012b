// wadc_perfbench — the repository benchmark (see perfbench/README.md).
//
// Drives the system from outside, through exp::run_experiment (with a warm
// exp::RunContext) and exp::run_session_experiment, as a closed loop from
// one thread: each run starts when the previous one returns. The workload
// seed is an argument; the program under test only ever sees the
// ExperimentSpec / SessionSpec / FaultSpec generated from it.
//
//   wadc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--tiny]
//   wadc_perfbench --spec          # prints BENCHMARK.json
//
// --trace 0 times the workload with every obs sink off and prints the
// end-to-end metrics. --trace 1 is the separate traced pass: it attaches an
// obs::MetricsRegistry and obs::DecisionLog to read the program's own
// counters, replays each layer's public entry points at the workload's
// shape to price one unit of its work, and prints the per-layer metrics.
// Both modes check every run's outputs and print, as the last stdout line,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_key.h"
#include "cache/fabric.h"
#include "cache/result_cache.h"
#include "core/bandwidth_resolver.h"
#include "core/combination_tree.h"
#include "core/cost_model.h"
#include "core/one_shot.h"
#include "dataflow/engine.h"
#include "exp/experiment.h"
#include "exp/network_config.h"
#include "fault/injector.h"
#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "session/session_manager.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "sim/arena.h"
#include "sim/simulation.h"
#include "trace/library.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wadc;
using SteadyClock = std::chrono::steady_clock;

// ---- the metric and workload tables (BENCHMARK.json is printed from these)

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
  double bound;        // end-to-end only: allowed worsening, share of median
};

const MetricDef kEndToEnd[] = {
    {"runs_per_s", "runs/s", "higher", 0.25},
    {"run_ms_p50", "ms", "lower", 0.25},
    {"run_ms_p90", "ms", "lower", 0.25},
    {"cpu_ms_per_run", "ms", "lower", 0.25},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MiB", "lower", 0.05},
    {"model_interarrival_s", "s", "lower", 0.15},
};

const MetricDef kPerLayer[] = {
    {"exp.run_ms", "ms", "lower", 0},
    {"sim.event_ns", "ns", "lower", 0},
    {"sim.events_per_run", "count", "lower", 0},
    {"sim.arena_allocs_per_run", "count", "lower", 0},
    {"sim.global_news_per_run", "count", "lower", 0},
    {"sim.ms_per_run", "ms", "lower", 0},
    {"trace.finish_time_ns", "ns", "lower", 0},
    {"trace.library_build_ms", "ms", "lower", 0},
    {"trace.ms_per_run", "ms", "lower", 0},
    {"net.transfer_us", "us", "lower", 0},
    {"net.transfers_per_run", "count", "lower", 0},
    {"net.pending_max", "count", "lower", 0},
    {"net.overtakes_per_run", "count", "lower", 0},
    {"net.queue_wait_s_mean", "s", "lower", 0},
    {"net.fail_ratio", "ratio", "lower", 0},
    {"net.ms_per_run", "ms", "lower", 0},
    {"net.share_pct", "%", "lower", 0},
    {"monitor.payload_ns", "ns", "lower", 0},
    {"monitor.record_ns", "ns", "lower", 0},
    {"monitor.piggyback_per_run", "count", "lower", 0},
    {"monitor.passive_per_run", "count", "lower", 0},
    {"monitor.probes_per_run", "count", "lower", 0},
    {"monitor.stale_ratio", "ratio", "lower", 0},
    {"monitor.ms_per_run", "ms", "lower", 0},
    {"monitor.share_pct", "%", "lower", 0},
    {"core.plan_us", "us", "lower", 0},
    {"core.replans_per_run", "count", "lower", 0},
    {"core.plan_rounds_per_run", "count", "lower", 0},
    {"core.ms_per_run", "ms", "lower", 0},
    {"dataflow.residual_ms_per_run", "ms", "lower", 0},
    {"dataflow.relocations_per_run", "count", "lower", 0},
    {"dataflow.barriers_per_run", "count", "lower", 0},
    {"dataflow.barrier_round_s_mean", "s", "lower", 0},
    {"dataflow.retries_per_run", "count", "lower", 0},
    {"dataflow.repairs_per_run", "count", "lower", 0},
    {"dataflow.forwarded_per_run", "count", "lower", 0},
    {"cache.lookup_ns", "ns", "lower", 0},
    {"cache.insert_ns", "ns", "lower", 0},
    {"cache.hit_ratio", "ratio", "higher", 0},
    {"cache.insertions_per_run", "count", "lower", 0},
    {"cache.evictions_per_run", "count", "lower", 0},
    {"cache.invalidations_per_run", "count", "lower", 0},
    {"cache.ms_per_run", "ms", "lower", 0},
    {"session.shed_ratio", "ratio", "lower", 0},
    {"session.deferred_per_run", "count", "lower", 0},
    {"session.queue_s_mean", "s", "lower", 0},
    {"fault.events_per_run", "count", "lower", 0},
    {"obs.overhead_ms_per_run", "ms", "lower", 0},
    {"obs.trace_overhead_ms", "ms", "lower", 0},
    {"tcp.wall_over_model", "ratio", "lower", 0},
    {"tcp.cpu_busy_ratio", "ratio", "lower", 0},
    {"tcp.completion_error", "ratio", "lower", 0},
};

// Reported by name and unit on stdout next to the table metrics, but kept
// out of BENCHMARK.json: each is 0 at HEAD or defined on one workload only.
const MetricDef kExtras[] = {
    {"failed_ratio", "fraction", "lower", 0},
    {"model_speedup_median", "x", "higher", 0},
    {"model_goodput_per_h", "sessions/h", "higher", 0},
    {"model_mb_per_run", "MB", "lower", 0},
};

enum class Kind { kFig6, kSessionsCache, kChurnFaults };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* why;
};

const WorkloadDef kWorkloads[] = {
    {"fig6_sweep", Kind::kFig6,
     "the paper's Fig. 6 cell, four algorithms on consecutive configs: "
     "sim, trace, net, monitor, core and dataflow; cache, session and fault "
     "bypassed"},
    {"sessions_cache", Kind::kSessionsCache,
     "eight staggered sessions sharing one 8 MiB lru result cache per host: "
     "cache hits and evictions, pruned demand, sessions, deep net queues"},
    {"churn_faults", Kind::kChurnFaults,
     "Poisson global sessions under shed admission with random crashes, "
     "blackouts and drops: ReliableChannel retries, repair replans, fault"},
};

// ---- small utilities -------------------------------------------------------

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "wadc_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double wall_now() {
  return std::chrono::duration<double>(SteadyClock::now().time_since_epoch())
      .count();
}

// Process user+sys CPU time, at the kernel's scheduler precision.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// FNV-1a over the bit patterns of a run's model outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digest_of(const dataflow::RunStats& st) {
  Digest d;
  d.add(static_cast<std::uint64_t>(st.completed));
  d.add(st.completion_seconds);
  for (const double t : st.arrival_seconds) d.add(t);
  d.add(static_cast<std::uint64_t>(st.relocations));
  d.add(st.failure_summary.abort_reason);
  return d.value();
}

std::uint64_t digest_of(const session::SessionStats& st) {
  Digest d;
  for (const session::SessionRecord& r : st.sessions()) {
    d.add(static_cast<std::uint64_t>(r.id));
    d.add(static_cast<std::uint64_t>(r.completed) |
          static_cast<std::uint64_t>(r.shed) << 1 |
          static_cast<std::uint64_t>(r.deferred) << 2);
    d.add(r.arrival_seconds);
    d.add(r.admit_seconds);
    d.add(r.end_seconds);
    d.add(static_cast<std::uint64_t>(r.images));
    d.add(static_cast<std::uint64_t>(r.relocations));
  }
  d.add(st.network_bytes_delivered);
  return d.value();
}

// A run that never returns (a livelock in the program) would otherwise run
// into the caller's timeout. If one run call outlasts the limit, this
// reports it on stderr and ends the process with a non-zero code and no
// result line.
class Watchdog {
 public:
  explicit Watchdog(double limit_seconds)
      : limit_(limit_seconds), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void begin(std::int64_t k) {
    run_.store(k);
    started_.store(wall_now());
  }
  void end() { started_.store(0); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return stop_; })) {
      const double started = started_.load();
      if (started > 0 && wall_now() - started > limit_) {
        std::fprintf(stderr,
                     "wadc_perfbench: run %lld has not returned after %.0f s; "
                     "stopping without a result\n",
                     static_cast<long long>(run_.load()), limit_);
        std::_Exit(3);
      }
    }
  }

  const double limit_;
  std::atomic<double> started_{0};
  std::atomic<std::int64_t> run_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it uses
};

// ---- workloads: input generation, one run, and its correctness check -------

// What one run produced, reduced to what the benchmark checks and reports.
struct Outcome {
  bool ok = true;
  std::string problem;
  std::uint64_t digest = 0;
  core::AlgorithmKind algorithm = core::AlgorithmKind::kDownloadAll;
  double completion_seconds = 0;
  double interarrival_seconds = 0;  // model_interarrival_s contribution
  // Session workloads.
  double goodput_per_hour = 0;
  double network_bytes = 0;
  int sessions_total = 0;
  int sessions_shed = 0;
  int sessions_deferred = 0;
  int sessions_admitted = 0;
  double queue_seconds_mean = 0;
  // Single-engine workloads (from RunStats).
  std::uint64_t plan_rounds = 0;
};

constexpr core::AlgorithmKind kFig6Algorithms[] = {
    core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
    core::AlgorithmKind::kGlobal, core::AlgorithmKind::kLocal};

class Workload {
 public:
  Workload(const WorkloadDef& def, std::uint64_t seed, Watchdog& watchdog)
      : def_(def), base_seed_(1000 + seed * 1000003ull), watchdog_(watchdog) {}

  const char* name() const { return def_.name; }
  Kind kind() const { return def_.kind; }
  bool sessions() const { return def_.kind != Kind::kFig6; }

  // The configurations the timed phase cycles through, one round after
  // another: 5-6 s of runs per round, so a 30 s pass makes five or six
  // rounds and every configuration is timed that many times.
  int timed_configs(bool tiny) const {
    if (tiny) return 4;
    switch (def_.kind) {
      case Kind::kFig6: return 1000;
      case Kind::kSessionsCache: return 300;
      case Kind::kChurnFaults: return 300;
    }
    return 0;
  }

  // Runs whose model outputs form the model_* metrics: the timed
  // configurations and, untimed, the ones after them, so the model metrics
  // average over enough configurations to be steady across seeds.
  int model_runs(bool tiny) const {
    if (tiny) return 8;
    switch (def_.kind) {
      case Kind::kFig6: return 2000;
      case Kind::kSessionsCache: return 700;
      case Kind::kChurnFaults: return 700;
    }
    return 0;
  }

  // Input generation for run k (a pure function of the seed and k).
  exp::ExperimentSpec experiment(std::int64_t k) const {
    exp::ExperimentSpec spec;
    const auto uk = static_cast<std::uint64_t>(k);
    if (def_.kind == Kind::kFig6) {
      // §5 Fig. 6: 8 servers, complete binary tree, 180 images per server,
      // 600 s relocation period; the four algorithms on each configuration.
      spec.algorithm = kFig6Algorithms[uk % 4];
      spec.config_seed = base_seed_ + uk / 4;
      return spec;
    }
    // Session workloads: the ext_cache_reuse shape at 8 servers. The cache
    // workload runs one-shot sessions and the fault workload runs no cache:
    // see "Program bugs the workloads avoid" in perfbench/README.md.
    spec.num_servers = 8;
    spec.iterations = 30;
    spec.relocation_period_seconds = 300;
    spec.config_seed = base_seed_ + uk;
    if (def_.kind == Kind::kSessionsCache) {
      spec.algorithm = core::AlgorithmKind::kOneShot;
      // ~64 images per host: about half the lookups hit, and every
      // configuration also evicts.
      spec.cache.enabled = true;
      spec.cache.capacity_bytes = 8ull << 20;
      spec.cache.policy = cache::EvictionPolicy::kLru;
    } else {
      spec.algorithm = core::AlgorithmKind::kGlobal;
      fault::RandomFaultParams& rf = spec.fault.random;
      rf.crash_rate_per_hour = 1.0;
      rf.mean_downtime_seconds = 120;
      rf.blackout_rate_per_hour = 0.2;
      rf.mean_blackout_seconds = 60;
      rf.horizon_seconds = 20000;
      rf.protect_client = true;
      spec.fault.drop_probability = 0.002;
    }
    return spec;
  }

  session::SessionSpec session_spec() const {
    if (def_.kind == Kind::kSessionsCache) {
      session::SessionSpec s;
      s.mode = session::ArrivalMode::kExplicit;
      for (int i = 0; i < 8; ++i) {
        session::ExplicitArrival a;
        a.arrival_seconds = stagger_seconds_ * i;
        a.id = i;
        s.arrivals.push_back(a);
      }
      return s;
    }
    session::SessionSpec s = session::SessionSpec::poisson(8, 6.0);
    s.admission.policy = session::AdmissionPolicy::kLoadShedding;
    s.admission.max_concurrent = 4;
    s.admission.max_queue = 2;
    return s;
  }

  // sessions_cache staggers arrivals at 0.4x the unloaded (solo, cache-off)
  // response time, measured on a fixed reference set of eight
  // configurations (seeds 1000-1007, as bench/ext_cache_reuse uses), so the
  // overlap between sessions is the same for every workload seed.
  void calibrate(const trace::TraceLibrary& library) {
    if (def_.kind != Kind::kSessionsCache) return;
    std::vector<double> solo;
    for (int c = 0; c < 8; ++c) {
      exp::ExperimentSpec spec = experiment(0);
      spec.config_seed = 1000 + static_cast<std::uint64_t>(c);
      spec.cache = {};
      solo.push_back(exp::run_session_experiment(
                         library, spec,
                         session::SessionSpec::concurrent_clients(1))
                         .mean_response_seconds());
    }
    stagger_seconds_ = 0.4 * mean(solo);
  }
  double stagger_seconds() const { return stagger_seconds_; }

  // One run through the program's public run functions, checked. `ctx`
  // selects the warm epoch-reuse path for single-engine runs (null = fresh
  // stack).
  Outcome run(const trace::TraceLibrary& library, std::int64_t k,
              const obs::Obs& sinks, exp::RunContext* ctx) const {
    exp::ExperimentSpec spec = experiment(k);
    spec.obs = sinks;
    return run_spec(library, spec, k, ctx);
  }

  // The set-up's warm-up run: run 0's shape on one fixed configuration, the
  // same for every workload seed, so set-up time does not vary with the seed.
  Outcome warm_up(const trace::TraceLibrary& library,
                  exp::RunContext* ctx) const {
    exp::ExperimentSpec spec = experiment(0);
    spec.config_seed = 1000;
    return run_spec(library, spec, -1, ctx);
  }

  Outcome run_spec(const trace::TraceLibrary& library,
                   const exp::ExperimentSpec& spec, std::int64_t k,
                   exp::RunContext* ctx) const {
    Outcome out;
    out.algorithm = spec.algorithm;
    watchdog_.begin(k);
    try {
      if (!sessions()) {
        const exp::RunResult r = ctx != nullptr
                                     ? exp::run_experiment(library, spec, *ctx)
                                     : exp::run_experiment(library, spec);
        check(r.stats, spec.iterations, out);
      } else {
        const session::SessionStats st =
            exp::run_session_experiment(library, spec, session_spec());
        check(st, spec.iterations, out);
      }
    } catch (const std::exception& e) {
      out.ok = false;
      out.problem = std::string("threw: ") + e.what();
    }
    watchdog_.end();
    return out;
  }

  static void check(const dataflow::RunStats& st, int iterations,
                    Outcome& out) {
    out.digest = digest_of(st);
    out.completion_seconds = st.completion_seconds;
    out.interarrival_seconds = st.mean_interarrival_seconds();
    out.plan_rounds = st.plan_rounds;
    if (!st.completed) fail(out, "run did not complete");
    if (!st.failure_summary.abort_reason.empty()) {
      fail(out, "aborted: " + st.failure_summary.abort_reason);
    }
    if (static_cast<int>(st.arrival_seconds.size()) < iterations) {
      fail(out, "client received " +
                    std::to_string(st.arrival_seconds.size()) + " of " +
                    std::to_string(iterations) + " images");
    }
  }

  static void check(const session::SessionStats& st, int iterations,
                    Outcome& out) {
    out.digest = digest_of(st);
    out.goodput_per_hour = st.goodput_per_hour();
    out.network_bytes = st.network_bytes_delivered;
    out.sessions_total = st.total_count();
    out.sessions_shed = st.shed_count();
    out.sessions_deferred = st.deferred_count();
    out.sessions_admitted = st.admitted_count();
    out.queue_seconds_mean = st.mean_queue_seconds();
    // Shed sessions are a modelled outcome; every admitted one must finish
    // and deliver every image.
    if (st.completed_count() != st.admitted_count()) {
      fail(out, std::to_string(st.admitted_count() - st.completed_count()) +
                    " admitted sessions did not complete");
    }
    long long images = 0;
    std::vector<double> interarrival;
    for (const session::SessionRecord& r : st.sessions()) {
      if (!r.completed) continue;
      images += r.images;
      if (r.images > 0) {
        interarrival.push_back(r.response_seconds() / r.images);
      }
    }
    if (images < static_cast<long long>(iterations) * st.completed_count()) {
      fail(out, "client received " + std::to_string(images) + " of " +
                    std::to_string(static_cast<long long>(iterations) *
                                   st.completed_count()) +
                    " images");
    }
    out.interarrival_seconds = mean(interarrival);
  }

 private:
  static void fail(Outcome& out, const std::string& why) {
    if (out.ok) out.problem = why;
    out.ok = false;
  }

  WorkloadDef def_;
  std::uint64_t base_seed_;
  Watchdog& watchdog_;
  double stagger_seconds_ = 0;
};

// ---- output -----------------------------------------------------------------

struct Reported {
  const MetricDef* def;
  double value;
};

void print_metric_line(const char* tag, const MetricDef& def, double value) {
  std::printf("%s %-30s %.6g %s\n", tag, def.name, value, def.unit);
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Reported>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].def->name, metrics[i].value,
                metrics[i].def->unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_spec() {
  std::printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
  std::printf("  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 30,\n");
  std::printf("  \"workloads\": [\n");
  const std::size_t nw = std::size(kWorkloads);
  for (std::size_t i = 0; i < nw; ++i) {
    std::printf("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n",
                kWorkloads[i].name, kWorkloads[i].why, i + 1 < nw ? "," : "");
  }
  std::printf("  ],\n  \"end_to_end\": [\n");
  const std::size_t ne = std::size(kEndToEnd);
  for (std::size_t i = 0; i < ne; ++i) {
    const MetricDef& m = kEndToEnd[i];
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"bound\": %.2f}%s\n",
                m.name, m.unit, m.better, m.bound, i + 1 < ne ? "," : "");
  }
  std::printf("  ],\n  \"per_layer\": [\n");
  const std::size_t nl = std::size(kPerLayer);
  for (std::size_t i = 0; i < nl; ++i) {
    const MetricDef& m = kPerLayer[i];
    std::printf(
        "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
        m.name, m.unit, m.better, i + 1 < nl ? "," : "");
  }
  std::printf("  ]\n}\n");
}

// ---- spans: the traced pass's own wall-clock record ------------------------

// Spans the benchmark records around its own calls into the program, kept
// in memory in an obs::Tracer and written as one Chrome trace at the end of
// the pass. Times are wall seconds since the pass began; everything runs on
// one thread (pid 0, tid 0), so spans nest by time. Names must be literals
// (the tracer keeps the pointers).
class Spans {
 public:
  Spans() : origin_(wall_now()) {}
  double now() const { return wall_now() - origin_; }
  void record(const char* name, double begin,
              std::vector<obs::TraceArg> args = {}) {
    tracer_.complete("perfbench", name, 0, 0, begin, now(), std::move(args));
  }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  double origin_;
  obs::Tracer tracer_;
};

// ---- layer replays: one unit of a layer's work, priced in isolation --------

volatile double g_sink = 0;  // keeps replayed results observable

// Runs `batch` (which performs `units` units of work) repeatedly for about
// `seconds` (at least three times) and returns the median per-unit cost in
// nanoseconds.
template <typename F>
double price_ns(double seconds, double units, F&& batch) {
  std::vector<double> per_unit;
  const double end = wall_now() + seconds;
  do {
    const double t0 = wall_now();
    batch();
    per_unit.push_back((wall_now() - t0) * 1e9 / units);
  } while (wall_now() < end || per_unit.size() < 3);
  return median(per_unit);
}

struct TickState {
  sim::Simulation* sim;
  Rng rng;
  std::uint64_t left;
};

void tick(TickState* st) {
  if (st->left == 0) return;
  --st->left;
  st->sim->schedule_in(st->rng.uniform(0, 10), [st] { tick(st); });
}

// sim: schedule + dispatch of one event with a trivial action, at a steady
// queue depth of 64.
double price_sim_event_ns(double seconds) {
  constexpr int kDepth = 64;
  constexpr std::uint64_t kEvents = 20000;
  return price_ns(seconds, kDepth + kEvents, [] {
    sim::Simulation sim;
    TickState st{&sim, Rng(7), kEvents};
    for (int i = 0; i < kDepth; ++i) {
      sim.schedule_in(0.1 * i, [s = &st] { tick(s); });
    }
    sim.run();
  });
}

// trace: one BandwidthTrace::finish_time integration for an image-sized
// transfer starting in the experiments' noon window.
double price_finish_time_ns(const trace::TraceLibrary& library,
                            double seconds) {
  struct Call {
    const trace::BandwidthTrace* trace;
    double t0;
    double bytes;
  };
  Rng rng(11);
  std::vector<Call> calls;
  for (int i = 0; i < 4096; ++i) {
    calls.push_back({&library.trace(library.sample_index(rng)),
                     12 * 3600 + rng.uniform(0, 7200),
                     std::max(8192.0, rng.normal(128.0 * 1024, 32.0 * 1024))});
  }
  return price_ns(seconds, static_cast<double>(calls.size()), [&] {
    double sum = 0;
    for (const Call& c : calls) sum += c.trace->finish_time(c.t0, c.bytes);
    g_sink = sum;
  });
}

sim::Task<> pump_transfers(net::Network& network, Rng& rng, int hosts,
                           int count) {
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<net::HostId>(
        rng.next_below(static_cast<std::uint64_t>(hosts)));
    auto dst = static_cast<net::HostId>(
        rng.next_below(static_cast<std::uint64_t>(hosts - 1)));
    if (dst >= src) ++dst;
    const double bytes =
        std::max(8192.0, rng.normal(128.0 * 1024, 32.0 * 1024));
    const net::TransferRecord rec = co_await network.transfer(src, dst, bytes);
    g_sink = rec.completed;
  }
}

struct NetPrice {
  double transfer_us = 0;  // inclusive: events, integration, admission
  double events_per_transfer = 0;  // sim events the replay dispatched
};

// net: one image-sized transfer through net::Network::transfer with
// `depth` transfers outstanding at once on a `hosts`-host configuration.
NetPrice price_transfer(const trace::TraceLibrary& library, int hosts,
                        int depth, double seconds) {
  const net::LinkTable links = exp::make_network_config(library, hosts, 99);
  constexpr int kPerPump = 32;
  double events = 0;
  double transfers = 0;
  NetPrice price;
  price.transfer_us =
      price_ns(seconds, static_cast<double>(depth) * kPerPump, [&] {
        sim::Simulation sim;
        net::Network network(sim, links);
        Rng rng(13);
        for (int p = 0; p < depth; ++p) {
          sim.spawn(pump_transfers(network, rng, hosts, kPerPump));
        }
        sim.run();
        events += static_cast<double>(sim.events_processed());
        transfers += static_cast<double>(network.transfers_completed());
      }) /
      1e3;
  price.events_per_transfer = ratio(events, transfers);
  return price;
}

struct MonitorPrice {
  double payload_ns = 0;  // freshest_shared after a content change
  double record_ns = 0;
};

// monitor: BandwidthCache::record, and the piggyback payload build
// (freshest_shared at the 1 KB budget) right after a record — the memo-miss
// path most payload builds take in a run — on a host cache holding
// `entries` measured pairs, the occupancy the workload's runs reached.
MonitorPrice price_monitor(int hosts, int entries, double seconds) {
  const monitor::MonitorParams mp;
  const std::size_t max_entries =
      mp.piggyback_budget_bytes / mp.piggyback_entry_bytes;
  monitor::BandwidthCache cache(hosts, mp.t_thres_seconds);
  Rng rng(17);
  std::vector<std::pair<net::HostId, net::HostId>> known;
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) known.emplace_back(a, b);
  }
  for (std::size_t i = known.size(); i > 1; --i) {  // seeded shuffle
    std::swap(known[i - 1], known[rng.next_below(i)]);
  }
  known.resize(std::clamp<std::size_t>(static_cast<std::size_t>(entries), 1,
                                       known.size()));
  double t = 0;
  for (const auto& [a, b] : known) {
    cache.record(a, b, rng.uniform(2e3, 300e3), t);
  }
  std::vector<std::pair<net::HostId, net::HostId>> pairs;
  for (int i = 0; i < 2048; ++i) {
    pairs.push_back(known[rng.next_below(known.size())]);
  }
  const auto units = static_cast<double>(pairs.size());
  MonitorPrice price;
  price.record_ns = price_ns(seconds / 2, units, [&] {
    for (const auto& [a, b] : pairs) {
      t += 0.01;
      cache.record(a, b, 50e3, t);
    }
  });
  const double both_ns = price_ns(seconds / 2, units, [&] {
    std::size_t n = 0;
    for (const auto& [a, b] : pairs) {
      t += 0.01;
      cache.record(a, b, 50e3, t);
      n += cache.freshest_shared(t, max_entries)->size();
    }
    g_sink = static_cast<double>(n);
  });
  price.payload_ns = both_ns - price.record_ns;
  return price;
}

// core: OneShotPlanner::plan_from_scratch over the workload's tree with
// every pair's bandwidth known.
double price_plan_us(const exp::ExperimentSpec& spec, double seconds) {
  const core::CombinationTree tree =
      core::CombinationTree::make(spec.tree_shape, spec.num_servers);
  const core::CostModel model(tree, core::CostModelParams{});
  const core::OneShotPlanner planner(model);
  Rng rng(19);
  core::MapResolver resolver;
  for (int a = 0; a < tree.num_hosts(); ++a) {
    for (int b = a + 1; b < tree.num_hosts(); ++b) {
      resolver.set(a, b, rng.uniform(2e3, 300e3));
    }
  }
  return price_ns(seconds, 1,
                  [&] { g_sink = planner.plan_from_scratch(resolver).cost; }) /
         1e3;
}

struct CachePrice {
  double lookup_ns = 0;
  double insert_ns = 0;
};

// cache: ResultCache::find (half the probes hit) and ResultCache::insert of
// image-sized results into a host cache at the workload's capacity and
// policy, holding `resident` entries. When the workload evicts, the cache
// starts full and every insert evicts; otherwise each timed batch of
// inserts is erased again, untimed, so the cache never fills.
CachePrice price_cache(const cache::CacheConfig& config, int resident,
                       bool evicts, double seconds) {
  constexpr double kImage = 128.0 * 1024;
  if (evicts) {
    resident = static_cast<int>(static_cast<double>(config.capacity_bytes) /
                                kImage);
  }
  resident = std::max(1, resident);
  cache::ResultCache rc(config.capacity_bytes, config.policy);
  Rng rng(23);
  std::uint64_t tick_count = 0;
  const auto key = [](std::int64_t i) {
    return cache::CacheKey{
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1),
        static_cast<std::int32_t>(i % 30)};
  };
  const auto image = [&](std::int64_t i) {
    return workload::ImageSpec{std::max(8192.0, rng.normal(kImage, kImage / 4)),
                               static_cast<std::uint64_t>(i)};
  };
  for (int i = 0; i < resident; ++i) {
    rc.insert(key(i), image(i), rng.uniform(1, 100), ++tick_count);
  }
  std::vector<cache::CacheKey> probes;
  for (int i = 0; i < 2048; ++i) {
    probes.push_back(key(static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(2 * resident)))));
  }
  CachePrice price;
  price.lookup_ns =
      price_ns(seconds / 2, static_cast<double>(probes.size()), [&] {
        int hits = 0;
        for (const cache::CacheKey& k : probes) hits += rc.find(k) != nullptr;
        g_sink = hits;
      });
  std::int64_t next = 2 * resident;
  constexpr int kInserts = 256;
  std::vector<double> per_insert;
  const double end = wall_now() + seconds / 2;
  do {
    const std::int64_t first = next;
    const double t0 = wall_now();
    for (int i = 0; i < kInserts; ++i, ++next) {
      rc.insert(key(next), image(next), rng.uniform(1, 100), ++tick_count);
    }
    per_insert.push_back((wall_now() - t0) * 1e9 / kInserts);
    if (!evicts) {
      for (std::int64_t i = first; i < next; ++i) rc.erase(key(i));
    }
  } while (wall_now() < end || per_insert.size() < 3);
  price.insert_ns = median(per_insert);
  return price;
}

// ---- the mirrored stack: the one count the program does not export ---------

// exp::run_experiment and run_session_experiment do not report how many
// simulation events a run dispatched, nor how full the per-host bandwidth
// caches are when payloads are built. This rebuilds the stack they build,
// in the same order from the same spec, to read
// sim::Simulation::events_processed, and samples every host cache's
// unexpired entry count each 60 simulated seconds (read-only, like the
// exp-layer TimelineSampler; the probe's own events are subtracted). The
// caller compares the mirrored run's digest with the program's and uses
// these numbers only when they agree.
struct Mirrored {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  double fresh_entries_mean = 0;  // per host, over the samples
};

struct OccupancyProbe {
  sim::Simulation* sim;
  const monitor::MonitoringSystem* monitoring;
  int hosts;
  std::function<bool()> finished;
  double sum = 0;
  double samples = 0;
  std::uint64_t events = 0;
};

void probe_occupancy(OccupancyProbe* p) {
  ++p->events;
  // Stop with the run, or at a two-week backstop should a run never end.
  if (p->finished() || p->sim->now() > 14 * 86400.0) return;
  for (net::HostId h = 0; h < p->hosts; ++h) {
    p->sum += static_cast<double>(
        p->monitoring->cache(h).unexpired_count(p->sim->now()));
  }
  p->samples += p->hosts;
  p->sim->schedule_in(60, [p] { probe_occupancy(p); });
}

Mirrored mirror_run(const trace::TraceLibrary& library,
                    const exp::ExperimentSpec& spec,
                    const session::SessionSpec* sessions) {
  const int num_hosts = spec.num_servers + 1;
  sim::Simulation sim;
  const net::LinkTable links = exp::make_network_config(
      library, num_hosts, spec.config_seed, spec.config);
  net::Network network(sim, links, spec.network);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!spec.fault.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        sim, network, spec.fault.build(num_hosts, spec.config_seed),
        spec.config_seed);
  }
  monitor::MonitorParams mp = spec.monitor;
  if (injector != nullptr && mp.probe_timeout_seconds == 0) {
    mp.probe_timeout_seconds = 120;
  }
  monitor::MonitoringSystem monitoring(network, mp);
  const core::CombinationTree tree =
      core::CombinationTree::make(spec.tree_shape, spec.num_servers);
  workload::WorkloadParams wp = spec.workload;
  wp.iterations = spec.iterations;
  const workload::ImageWorkload workload(wp, spec.num_servers,
                                         spec.config_seed);
  std::unique_ptr<cache::CacheFabric> fabric;
  if (spec.cache.enabled) {
    fabric = std::make_unique<cache::CacheFabric>(spec.cache, num_hosts,
                                                  &monitoring, spec.obs);
  }
  dataflow::EngineParams ep = spec.engine_params(spec.config_seed);
  ep.fault_injector = injector.get();
  ep.cache_fabric = fabric.get();
  Mirrored out;
  OccupancyProbe probe{&sim, &monitoring, num_hosts, {}};
  if (sessions == nullptr) {
    dataflow::Engine engine(sim, network, monitoring, tree, workload, ep);
    if (injector != nullptr) injector->arm();
    probe.finished = [&engine] { return engine.run_finished(); };
    sim.schedule_in(0, [p = &probe] { probe_occupancy(p); });
    out.digest = digest_of(engine.run());
  } else {
    session::SessionManager manager(sim, network, monitoring, tree, workload,
                                    ep, *sessions, spec.config_seed);
    if (injector != nullptr) injector->arm();
    probe.finished = [&manager] { return manager.all_finished(); };
    sim.schedule_in(0, [p = &probe] { probe_occupancy(p); });
    session::SessionStats st = manager.run();
    st.network_bytes_delivered = network.bytes_delivered();
    out.digest = digest_of(st);
  }
  out.events = sim.events_processed() - probe.events;
  out.fresh_entries_mean = ratio(probe.sum, probe.samples);
  return out;
}

// ---- set-up -----------------------------------------------------------------

// What a user pays before the first run: the trace library, the
// sessions_cache stagger calibration, a fresh RunContext, and one warm-up
// run on a fixed configuration. Each set-up replaces the library and context
// the runs use; setup_s is the median over the set-ups of a pass.
struct SetupResult {
  std::unique_ptr<trace::TraceLibrary> library;
  // The last context is leaked on purpose, like the sweep runner's worker
  // contexts: recorded obs data escapes a run still pointing into the
  // context's arena. Earlier ones only ever ran without sinks.
  exp::RunContext* ctx = nullptr;
  std::vector<double> seconds;
  std::vector<double> library_ms;
  std::vector<Outcome> warmups;
};

void set_up_once(Workload& w, SetupResult& s, Spans* spans) {
  // Tearing down the previous set-up is not part of the next one.
  s.library.reset();
  delete s.ctx;
  s.ctx = nullptr;
  const double begin = spans != nullptr ? spans->now() : 0;
  const double t0 = wall_now();
  s.library = std::make_unique<trace::TraceLibrary>(
      trace::TraceLibraryParams{}, 2026);
  s.library_ms.push_back((wall_now() - t0) * 1e3);
  w.calibrate(*s.library);
  s.ctx = new exp::RunContext();
  s.warmups.push_back(w.warm_up(*s.library, s.ctx));
  s.seconds.push_back(wall_now() - t0);
  if (spans != nullptr) {
    spans->record("setup", begin,
                  {{"rep", static_cast<std::int64_t>(s.seconds.size() - 1)}});
  }
}

SetupResult set_up(Workload& w, int reps, Spans* spans) {
  SetupResult s;
  for (int r = 0; r < reps; ++r) set_up_once(w, s, spans);
  return s;
}

// ---- run bookkeeping shared by both passes ----------------------------------

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  int reported = 0;

  void note(const Outcome& o, std::int64_t k) {
    ++attempted;
    if (!o.ok) fail(k, o.problem);
  }
  void fail(std::int64_t k, const std::string& why) {
    ++failed;
    if (reported++ < 5) {
      std::fprintf(stderr, "wadc_perfbench: run %lld failed: %s\n",
                   static_cast<long long>(k), why.c_str());
    }
  }
};

void print_context(const Workload& w, std::uint64_t seed, const char* mode,
                   std::size_t runs, const SetupResult& setup) {
  std::printf("# wadc_perfbench workload=%s seed=%llu mode=%s\n", w.name(),
              static_cast<unsigned long long>(seed), mode);
  std::printf("context nproc=%u build_type=%s compiler=\"%s\" runs=%zu "
              "setup_reps=%zu setup_s_min=%.4f setup_s_max=%.4f "
              "arrival_stagger_s=%.3f\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__, runs, setup.seconds.size(),
              *std::min_element(setup.seconds.begin(), setup.seconds.end()),
              *std::max_element(setup.seconds.begin(), setup.seconds.end()),
              w.stagger_seconds());
}

// ---- the end-to-end pass (--trace 0) ----------------------------------------

int end_to_end_pass(Workload& w, std::uint64_t seed, double seconds,
                    bool tiny) {
  // One set-up before the timed phase and the rest spread evenly across it,
  // so setup_s samples the machine over the same stretch as the runs. The
  // set-ups inside the timed phase are left out of the run metrics.
  const int setup_reps = tiny ? 1 : 11;
  SetupResult setup = set_up(w, 1, nullptr);
  Tally tally;

  // The timed phase runs the same configurations round after round and
  // keeps, for each configuration, its fastest wall and CPU time. Other
  // tenants of a shared machine slow this code by up to a third, in
  // stretches of seconds; a configuration timed four or more times across
  // the pass is almost always timed once outside them. Every configuration
  // keeps its weight, so a slowdown confined to heavy configurations
  // (retries, repairs) still shows in the p90.
  const int configs = w.timed_configs(tiny);
  const int model_runs = w.model_runs(tiny);
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> best_ms(static_cast<std::size_t>(configs), kNever);
  std::vector<double> best_cpu_ms(static_cast<std::size_t>(configs), kNever);
  std::vector<Outcome> model;
  std::vector<double> round_s;
  long long timed_runs = 0;
  const double wall_start = wall_now();
  double setup_wall = 0;  // set-ups inside the timed phase
  const auto timed = [&] { return wall_now() - wall_start - setup_wall; };
  // The first round always completes, so every configuration is timed.
  for (int round = 0; round == 0 || timed() < seconds; ++round) {
    const double round_start = timed();
    for (int c = 0; c < configs && (round == 0 || timed() < seconds); ++c) {
      const auto i = static_cast<std::size_t>(c);
      const double t0 = wall_now();
      const double c0 = cpu_seconds();
      Outcome o = w.run(*setup.library, c, {}, setup.ctx);
      best_cpu_ms[i] = std::min(best_cpu_ms[i], (cpu_seconds() - c0) * 1e3);
      best_ms[i] = std::min(best_ms[i], (wall_now() - t0) * 1e3);
      ++timed_runs;
      tally.note(o, c);
      if (round == 0) {
        model.push_back(std::move(o));
      } else if (o.digest != model[i].digest) {
        tally.fail(c, "model outputs differ between two rounds of the seed");
      }
      const auto done = static_cast<int>(setup.seconds.size());
      if (done < setup_reps &&
          timed() >= seconds * (done - 0.5) / (setup_reps - 1)) {
        const double w0 = wall_now();
        set_up_once(w, setup, nullptr);
        setup_wall += wall_now() - w0;
      }
    }
    round_s.push_back(timed() - round_start);
  }
  const double timed_s = timed();
  while (static_cast<int>(setup.seconds.size()) < setup_reps) {
    set_up_once(w, setup, nullptr);
  }
  const trace::TraceLibrary& library = *setup.library;
  for (const Outcome& o : setup.warmups) {
    if (!o.ok) tally.fail(-1, "warm-up: " + o.problem);
  }
  // Untimed: the rest of the fixed model set.
  for (int k = configs; k < model_runs; ++k) {
    model.push_back(w.run(library, k, {}, setup.ctx));
    tally.note(model.back(), k);
  }
  // Second pass of the same seed through the fresh-stack path: the model
  // outputs must not change.
  const int recheck = std::min(model_runs, tiny ? 4 : 40);
  for (int i = 0; i < recheck; ++i) {
    const Outcome again = w.run(library, i, {}, nullptr);
    if (again.digest != model[static_cast<std::size_t>(i)].digest) {
      tally.fail(i, "model outputs differ between two passes of the seed");
    }
  }

  std::vector<double> interarrival, speedup, goodput, mb;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const Outcome& o = model[i];
    interarrival.push_back(o.interarrival_seconds);
    goodput.push_back(o.goodput_per_hour);
    mb.push_back(o.network_bytes / 1e6);
    if (!w.sessions() && o.algorithm == core::AlgorithmKind::kGlobal &&
        i >= 2 && model[i - 2].algorithm == core::AlgorithmKind::kDownloadAll) {
      speedup.push_back(ratio(model[i - 2].completion_seconds,
                              o.completion_seconds));
    }
  }

  print_context(w, seed, "end_to_end", static_cast<std::size_t>(timed_runs),
                setup);
  std::printf("context timed_s=%.2f configs=%d rounds=%zu round_s_min=%.3f "
              "round_s_max=%.3f all_runs_per_s=%.4f model_runs=%zu "
              "rechecked=%d\n",
              timed_s, configs, round_s.size(),
              *std::min_element(round_s.begin(), round_s.end()),
              *std::max_element(round_s.begin(), round_s.end()),
              ratio(static_cast<double>(timed_runs), timed_s), model.size(),
              recheck);
  const double values[] = {
      ratio(1e3, mean(best_ms)),
      quantile(best_ms, 0.5),
      quantile(best_ms, 0.9),
      mean(best_cpu_ms),
      median(setup.seconds),
      peak_rss_mib(),
      mean(interarrival),
  };
  static_assert(std::size(values) == std::size(kEndToEnd));
  std::vector<Reported> reported;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    print_metric_line("metric", kEndToEnd[i], values[i]);
    reported.push_back({&kEndToEnd[i], values[i]});
  }
  print_metric_line("extra ", kExtras[0],
                    ratio(static_cast<double>(tally.failed),
                          static_cast<double>(tally.attempted)));
  if (!w.sessions()) {
    print_metric_line("extra ", kExtras[1], median(speedup));
  } else {
    print_metric_line("extra ", kExtras[2], mean(goodput));
    print_metric_line("extra ", kExtras[3], mean(mb));
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, reported);
  return 0;
}

// ---- the traced pass (--trace 1) --------------------------------------------

// Per-run sums of the program's own counters over the traced runs.
struct Counts {
  double runs = 0;
  double transfers = 0, transfers_bad = 0, overtakes = 0, pending_max = 0;
  double queue_wait_sum = 0, queue_wait_n = 0;
  double piggyback = 0, passive = 0, probes = 0;
  double mon_hits = 0, mon_stale = 0, mon_misses = 0;
  double replans = 0, plan_rounds = 0;
  double relocations = 0, barriers = 0, barrier_round_sum = 0,
         barrier_round_n = 0, retries = 0, repairs = 0, forwarded = 0;
  double cache_hits = 0, cache_misses = 0, cache_insertions = 0,
         cache_evictions = 0, cache_invalidations = 0;
  double sessions = 0, shed = 0, deferred = 0, queue_s = 0;
  double fault_events = 0;
  double arena_allocs = 0, global_news = 0, alloc_runs = 0;
  double cache_replicas_max = 0;  // summed per run

  void add(obs::MetricsRegistry& reg, const obs::DecisionLog& log,
           const Outcome& o, bool sessions_mode) {
    const auto c = [&reg](const char* name) {
      return reg.counter(name).value();
    };
    runs += 1;
    transfers += c("net.transfers_completed");
    transfers_bad += c("net.transfers_failed") + c("net.transfers_timed_out");
    overtakes += c("net.priority_overtakes");
    pending_max =
        std::max(pending_max, reg.gauge("net.pending_transfers").max());
    cache_replicas_max += reg.gauge("cache.replicas").max();
    const obs::Histogram& qw = reg.histogram("net.queue_wait_seconds", {});
    queue_wait_sum += qw.sum();
    queue_wait_n += static_cast<double>(qw.count());
    piggyback += c("monitor.piggyback_samples_delivered");
    passive += c("monitor.passive_samples");
    probes += c("monitor.probes_issued");
    mon_hits += c("monitor.cache_hits");
    mon_stale += c("monitor.cache_stale");
    mon_misses += c("monitor.cache_misses");
    replans += c("engine.replans");
    relocations += c("engine.relocations");
    barriers += c("engine.barriers_completed");
    retries += c("engine.retries");
    forwarded += c("engine.messages_forwarded");
    cache_hits += c("cache.hits");
    cache_misses += c("cache.misses");
    cache_insertions += c("cache.insertions");
    cache_evictions += c("cache.evictions");
    cache_invalidations += c("cache.invalidated_replicas");
    fault_events += c("fault.crashes") + c("fault.restarts") +
                    c("fault.blackouts") + c("fault.blackout_ends");
    double plan_decisions = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      const obs::DecisionRecord& r = log.at(i);
      if (std::strcmp(r.category, "barrier") == 0 &&
          std::strcmp(r.action, "complete") == 0) {
        for (const obs::TraceArg& a : r.args) {
          if (a.key == "round_s") {
            barrier_round_sum += a.double_value;
            barrier_round_n += 1;
          }
        }
      } else if (std::strcmp(r.category, "repair") == 0 &&
                 std::strcmp(r.action, "relocate") == 0) {
        repairs += 1;
      } else if (std::strcmp(r.category, "plan") == 0) {
        plan_decisions += 1;
      }
    }
    if (sessions_mode) {
      // Rounds per replan are not exported for session engines: one start-up
      // plan per admitted session plus one round per replan decision, a
      // lower bound.
      plan_rounds += plan_decisions + o.sessions_admitted;
      sessions += o.sessions_total;
      shed += o.sessions_shed;
      deferred += o.sessions_deferred;
      queue_s += o.queue_seconds_mean;
    } else {
      plan_rounds += static_cast<double>(o.plan_rounds);
    }
  }
  double per_run(double total) const { return ratio(total, runs); }
};

struct TcpResult {
  // completion_error: |tcp completion / sim completion - 1| per pair.
  std::vector<double> wall_over_model, cpu_busy, completion_error;
};

// net/tcp: global and local on 4 servers x 20 images over real loopback
// sockets at time scale 3600, each paired with the same configuration on
// sim.
TcpResult tcp_pairs(const trace::TraceLibrary& library, std::uint64_t seed,
                    int pairs, Spans& spans, Tally& tally) {
  TcpResult out;
  constexpr double kScale = 3600;
  for (int p = 0; p < pairs; ++p) {
    exp::ExperimentSpec spec;
    spec.algorithm = p % 2 == 0 ? core::AlgorithmKind::kGlobal
                                : core::AlgorithmKind::kLocal;
    spec.num_servers = 4;
    spec.iterations = 20;
    spec.config_seed =
        7000 + seed * 1000003ull + static_cast<std::uint64_t>(p / 2);
    const double begin = spans.now();
    try {
      Outcome sim_o, tcp_o;
      const exp::RunResult sim_r = exp::run_experiment(library, spec);
      Workload::check(sim_r.stats, spec.iterations, sim_o);
      spec.backend = exp::Backend::kTcp;
      spec.tcp_time_scale = kScale;
      const double w0 = wall_now();
      const double c0 = cpu_seconds();
      const exp::RunResult tcp_r = exp::run_experiment(library, spec);
      const double wall = wall_now() - w0;
      const double cpu = cpu_seconds() - c0;
      Workload::check(tcp_r.stats, spec.iterations, tcp_o);
      tally.note(sim_o, -1 - p);
      tally.note(tcp_o, -1 - p);
      out.wall_over_model.push_back(
          ratio(wall, sim_r.completion_seconds / kScale));
      out.cpu_busy.push_back(ratio(cpu, wall));
      out.completion_error.push_back(std::abs(
          ratio(tcp_r.completion_seconds, sim_r.completion_seconds) - 1));
    } catch (const std::exception& e) {
      tally.note(Outcome{false, std::string("tcp threw: ") + e.what()}, -1 - p);
    }
    spans.record("replay.tcp_pair", begin, {{"pair", p}});
  }
  return out;
}

int traced_pass(Workload& w, std::uint64_t seed, double seconds, bool tiny,
                const std::string& trace_out) {
  Spans spans;
  SetupResult setup = set_up(w, tiny ? 1 : 7, &spans);
  const trace::TraceLibrary& library = *setup.library;
  exp::RunContext* ctx = w.sessions() ? nullptr : setup.ctx;
  Tally tally;
  for (const Outcome& o : setup.warmups) {
    if (!o.ok) tally.fail(0, "warm-up: " + o.problem);
  }

  // Triplets on the same configuration: no sinks, the counting sinks
  // (metrics + decisions), and every sink (tracer + metrics + decisions).
  Counts counts;
  std::vector<double> none_ms, counted_ms, full_ms;
  std::vector<std::uint64_t> plain_digests;
  int obs_divergent = 0;
  const double pass_begin = spans.now();
  const double phase_end = wall_now() + 0.6 * seconds;
  std::int64_t k = 0;
  for (; wall_now() < phase_end || k < 2; ++k) {
    const sim::ArenaStats arena_before =
        ctx != nullptr ? ctx->arena_stats() : sim::ArenaStats{};
    const std::uint64_t news_before = sim::global_alloc_stats().global_news;
    double begin = spans.now();
    double t0 = wall_now();
    const Outcome plain = w.run(library, k, {}, ctx);
    none_ms.push_back((wall_now() - t0) * 1e3);
    spans.record("exp.run", begin, {{"k", k}, {"sinks", "none"}});
    if (ctx != nullptr) {
      counts.arena_allocs +=
          static_cast<double>(ctx->arena_stats().allocs - arena_before.allocs);
    }
    counts.global_news += static_cast<double>(
        sim::global_alloc_stats().global_news - news_before);
    counts.alloc_runs += 1;
    tally.note(plain, k);
    plain_digests.push_back(plain.digest);

    obs::MetricsRegistry metrics;
    obs::DecisionLog decisions;
    obs::Obs counting;
    counting.metrics = &metrics;
    counting.decisions = &decisions;
    begin = spans.now();
    t0 = wall_now();
    const Outcome counted = w.run(library, k, counting, ctx);
    counted_ms.push_back((wall_now() - t0) * 1e3);
    spans.record("exp.run", begin, {{"k", k}, {"sinks", "metrics+decisions"}});
    counts.add(metrics, decisions, counted, w.sessions());

    obs::Tracer tracer;
    obs::MetricsRegistry metrics_full;
    obs::DecisionLog decisions_full;
    obs::Obs full;
    full.tracer = &tracer;
    full.metrics = &metrics_full;
    full.decisions = &decisions_full;
    begin = spans.now();
    t0 = wall_now();
    const Outcome all = w.run(library, k, full, ctx);
    full_ms.push_back((wall_now() - t0) * 1e3);
    spans.record("exp.run", begin, {{"k", k}, {"sinks", "all"}});

    // Sinks must not change behaviour. Not one of the failure conditions
    // (the run itself delivered everything), so it is reported, not failed.
    if (counted.digest != plain.digest || all.digest != plain.digest) {
      ++obs_divergent;
    }
  }
  spans.record("pass", pass_begin, {{"runs", k}});

  const exp::ExperimentSpec shape = w.experiment(0);
  const int hosts = shape.num_servers + 1;

  // Simulation events and cache occupancy per run, from the mirrored stack.
  const double mirror_begin = spans.now();
  const int mirrored =
      static_cast<int>(std::min<std::int64_t>(k, tiny ? 2 : 12));
  // A mirrored run that diverges from the program no longer measures the
  // program's runs, so the pass fails rather than report its numbers.
  double events = 0;
  double fresh_entries = 0;
  int mirror_mismatches = 0;
  for (int i = 0; i < mirrored; ++i) {
    const session::SessionSpec sessions = w.session_spec();
    const Mirrored m = mirror_run(library, w.experiment(i),
                                  w.sessions() ? &sessions : nullptr);
    events += static_cast<double>(m.events);
    fresh_entries += m.fresh_entries_mean;
    if (m.digest != plain_digests[static_cast<std::size_t>(i)]) {
      ++mirror_mismatches;
      tally.fail(i, "the mirrored stack diverged from the program's run");
    }
  }
  spans.record("mirror", mirror_begin, {{"runs", mirrored}});
  const double events_per_run = ratio(events, mirrored);
  const int fresh_per_host =
      static_cast<int>(std::lround(ratio(fresh_entries, mirrored)));

  // Unit prices at the workload's shape, served by the allocator the
  // workload's runs use: the RunContext arena path for single-engine runs,
  // the global path for session runs.
  sim::Arena replay_arena;
  std::optional<sim::Arena::Scope> arena_scope;
  if (ctx != nullptr) arena_scope.emplace(&replay_arena);
  const double budget = tiny ? 0.02 : 0.15;
  double begin = spans.now();
  const double event_ns = price_sim_event_ns(budget);
  spans.record("replay.sim", begin);
  begin = spans.now();
  const double finish_ns = price_finish_time_ns(library, budget);
  spans.record("replay.trace", begin);
  begin = spans.now();
  const int depth =
      std::max(2, static_cast<int>(counts.pending_max) + hosts / 2);
  const NetPrice net_price = price_transfer(library, hosts, depth, budget);
  spans.record("replay.net", begin, {{"depth", depth}});
  begin = spans.now();
  const MonitorPrice mon_price = price_monitor(hosts, fresh_per_host, budget);
  spans.record("replay.monitor", begin);
  begin = spans.now();
  const double plan_us = price_plan_us(shape, budget);
  spans.record("replay.core", begin);
  CachePrice cache_price;
  if (shape.cache.enabled) {
    begin = spans.now();
    cache_price = price_cache(
        shape.cache,
        static_cast<int>(counts.per_run(counts.cache_replicas_max) / hosts),
        counts.cache_evictions > 0, budget);
    spans.record("replay.cache", begin);
  }
  arena_scope.reset();
  TcpResult tcp;
  if (w.kind() == Kind::kFig6) {
    tcp = tcp_pairs(library, seed, tiny ? 1 : 4, spans, tally);
  }

  // Layer cost per run = count x unit price; the rest is dataflow's.
  const double run_ms_p50 = median(none_ms);
  const double exp_run_ms = median(counted_ms);
  const double transfers = counts.per_run(counts.transfers);
  const double sim_ms = events_per_run * event_ns / 1e6;
  const double trace_ms = transfers * finish_ns / 1e6;
  const double net_self_ns = net_price.transfer_us * 1e3 -
                             net_price.events_per_transfer * event_ns -
                             finish_ns;
  const double net_ms = transfers * net_self_ns / 1e6;
  const double samples = counts.per_run(counts.passive + counts.piggyback);
  const double monitor_ms =
      (transfers * mon_price.payload_ns + samples * mon_price.record_ns) / 1e6;
  const double core_ms = counts.per_run(counts.plan_rounds) * plan_us / 1e3;
  const double cache_ms =
      (counts.per_run(counts.cache_hits + counts.cache_misses) *
           cache_price.lookup_ns +
       counts.per_run(counts.cache_insertions) * cache_price.insert_ns) /
      1e6;
  const double obs_ms = exp_run_ms - run_ms_p50;
  const double residual_ms = exp_run_ms - (sim_ms + trace_ms + net_ms +
                                           monitor_ms + core_ms + cache_ms +
                                           obs_ms);

  const double values[] = {
      exp_run_ms,
      event_ns,
      events_per_run,
      counts.alloc_runs > 0 ? counts.arena_allocs / counts.alloc_runs : 0,
      counts.alloc_runs > 0 ? counts.global_news / counts.alloc_runs : 0,
      sim_ms,
      finish_ns,
      median(setup.library_ms),
      trace_ms,
      net_price.transfer_us,
      transfers,
      counts.pending_max,
      counts.per_run(counts.overtakes),
      ratio(counts.queue_wait_sum, counts.queue_wait_n),
      ratio(counts.transfers_bad, counts.transfers + counts.transfers_bad),
      net_ms,
      100 * ratio(net_ms, run_ms_p50),
      mon_price.payload_ns,
      mon_price.record_ns,
      counts.per_run(counts.piggyback),
      counts.per_run(counts.passive),
      counts.per_run(counts.probes),
      ratio(counts.mon_stale,
            counts.mon_hits + counts.mon_stale + counts.mon_misses),
      monitor_ms,
      100 * ratio(monitor_ms, run_ms_p50),
      plan_us,
      counts.per_run(counts.replans),
      counts.per_run(counts.plan_rounds),
      core_ms,
      residual_ms,
      counts.per_run(counts.relocations),
      counts.per_run(counts.barriers),
      ratio(counts.barrier_round_sum, counts.barrier_round_n),
      counts.per_run(counts.retries),
      counts.per_run(counts.repairs),
      counts.per_run(counts.forwarded),
      cache_price.lookup_ns,
      cache_price.insert_ns,
      ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses),
      counts.per_run(counts.cache_insertions),
      counts.per_run(counts.cache_evictions),
      counts.per_run(counts.cache_invalidations),
      cache_ms,
      ratio(counts.shed, counts.sessions),
      counts.per_run(counts.deferred),
      counts.per_run(counts.queue_s),
      counts.per_run(counts.fault_events),
      median(full_ms) - run_ms_p50,
      obs_ms,
      median(tcp.wall_over_model),
      median(tcp.cpu_busy),
      median(tcp.completion_error),
  };
  static_assert(std::size(values) == std::size(kPerLayer));

  if (!trace_out.empty()) {
    try {
      spans.tracer().write_chrome_json_file(trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wadc_perfbench: %s\n", e.what());
      return 2;
    }
  }

  print_context(w, seed, "traced", none_ms.size(), setup);
  std::printf("context run_ms_p50_untraced=%.4f mirrored_runs=%d "
              "mirror_mismatches=%d obs_divergent_runs=%d replay_depth=%d "
              "fresh_entries_per_host=%d spans=%zu trace=%s\n",
              run_ms_p50, mirrored, mirror_mismatches, obs_divergent, depth,
              fresh_per_host,
              spans.tracer().event_count(),
              trace_out.empty() ? "-" : trace_out.c_str());
  if (w.kind() == Kind::kFig6) {
    std::printf("context shares: monitor %.1f%% (gprof self time 12%%), "
                "net %.1f%% (gprof try_start_transfers 8%%)\n",
                100 * ratio(monitor_ms, run_ms_p50),
                100 * ratio(net_ms, run_ms_p50));
  }
  std::vector<Reported> reported;
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    print_metric_line("layer ", kPerLayer[i], values[i]);
    reported.push_back({&kPerLayer[i], values[i]});
  }
  if (obs_divergent > 0) {
    std::fprintf(stderr,
                 "wadc_perfbench: attaching obs sinks changed the outputs of "
                 "%d of %lld runs (see perfbench/README.md)\n",
                 obs_divergent, static_cast<long long>(k));
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, reported);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  const auto number = [](const std::string& s, const char* flag) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v) || v < 0) {
      usage_error(std::string("bad value for ") + flag + ": '" + s + "'");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      print_spec();
      return 0;
    } else if (arg == "--workload") {
      workload = value(i);
    } else if (arg == "--seed") {
      const double v = number(value(i), "--seed");
      if (v != std::floor(v) || v > 1e15) {
        usage_error("--seed wants an integer");
      }
      seed = static_cast<long long>(v);
    } else if (arg == "--seconds") {
      seconds = number(value(i), "--seconds");
    } else if (arg == "--trace") {
      const std::string t = value(i);
      if (t != "0" && t != "1") usage_error("--trace wants 0 or 1");
      trace = t == "1";
    } else if (arg == "--trace-out") {
      trace_out = value(i);
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (workload == d.name) def = &d;
  }
  if (def == nullptr) usage_error("unknown workload '" + workload + "'");
  if (seed < 0 || seconds <= 0 || trace < 0) {
    usage_error("--seed, --seconds and --trace are required");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "wadc_perfbench: refusing to report timings from a '%s' "
                 "build; configure with CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Watchdog watchdog(30);
  Workload w(*def, static_cast<std::uint64_t>(seed), watchdog);
  return trace == 1
             ? traced_pass(w, static_cast<std::uint64_t>(seed), seconds, tiny,
                           trace_out)
             : end_to_end_pass(w, static_cast<std::uint64_t>(seed), seconds,
                               tiny);
}
