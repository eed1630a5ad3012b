#include "exp/experiment.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "cache/fabric.h"
#include "common/assert.h"
#include "common/parse.h"
#include "dataflow/engine.h"
#include "exp/parallel.h"
#include "exp/timeline_sampler.h"
#include "fault/injector.h"
#include "net/network.h"
#include "net/realtime.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "session/session_manager.h"
#include "sim/simulation.h"

namespace wadc::exp {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kSim:
      return "sim";
    case Backend::kTcp:
      return "tcp";
  }
  return "?";
}

dataflow::EngineParams ExperimentSpec::engine_params(
    std::uint64_t seed) const {
  dataflow::EngineParams ep = engine_base;
  ep.algorithm = algorithm;
  ep.relocation_period_seconds = relocation_period_seconds;
  ep.local_extra_candidates = local_extra_candidates;
  ep.seed = seed;
  ep.obs = obs;
  return ep;
}

namespace {

// Probe transfers under faults time out after this long: a probe against a
// crashed host must resolve, not hang the planner. Fault-free runs keep the
// spec's value (0 waits forever).
constexpr double kFaultProbeTimeoutSeconds = 120;

// A fresh simulation/network pair for one run, with the realtime (tcp)
// backend attached when the spec asks for one. Members are declared in
// construction order; the backend detaches itself, so it is destroyed
// before the network and the simulation.
struct FreshNetwork {
  FreshNetwork(const trace::TraceLibrary& library, const ExperimentSpec& spec)
      : links(make_network_config(library, spec.num_servers + 1,
                                  spec.config_seed, spec.config)),
        network(sim, links, spec.network) {
    if (spec.backend == Backend::kTcp) {
      backend = std::make_unique<net::RealtimeBackend>(spec.tcp_time_scale);
      backend->attach(sim, network);
    }
  }

  sim::Simulation sim;
  const net::LinkTable links;
  net::Network network;
  std::unique_ptr<net::RealtimeBackend> backend;
};

std::unique_ptr<fault::FaultInjector> make_injector(
    const ExperimentSpec& spec, sim::Simulation& sim, net::Network& network) {
  if (spec.fault.empty()) return nullptr;
  const int num_hosts = spec.num_servers + 1;
  const std::string problem = spec.fault.validate(num_hosts);
  WADC_ASSERT(problem.empty(), "bad fault spec: ", problem);
  auto injector = std::make_unique<fault::FaultInjector>(
      sim, network, spec.fault.build(num_hosts, spec.config_seed),
      spec.config_seed);
  if (spec.obs.enabled()) injector->set_obs(spec.obs);
  return injector;
}

monitor::MonitorParams monitor_params(const ExperimentSpec& spec) {
  monitor::MonitorParams mp = spec.monitor;
  if (!spec.fault.empty() && mp.probe_timeout_seconds == 0) {
    mp.probe_timeout_seconds = kFaultProbeTimeoutSeconds;
  }
  return mp;
}

// Everything one run builds on top of its simulation/network pair: the
// fault injector, the monitoring, the tree, the workload, the cache fabric
// and the engine params that point at them. Both run paths build their run
// through it; the single-engine path puts an Engine on it, the session path
// a SessionManager. Members are declared in construction order, which
// doubles as destruction-safety order: the engines, declared by the caller
// after the stack, are destroyed first and tear down every coroutine frame
// while the objects those frames reference are still alive (the injector
// also holds the engines' fault listeners).
struct RunStack {
  RunStack(const ExperimentSpec& spec, sim::Simulation& sim,
           net::Network& network)
      : spec(spec),
        sim(sim),
        network(network),
        injector(make_injector(spec, sim, network)),
        monitoring(network, monitor_params(spec)),
        tree(core::CombinationTree::make(spec.tree_shape, spec.num_servers)),
        workload(workload::WorkloadParams{spec.iterations}, spec.num_servers,
                 spec.config_seed),
        engine_params(spec.engine_params(spec.config_seed)) {
    // Observability attaches before the cache fabric and the engines
    // register their own metrics.
    if (spec.obs.enabled()) {
      network.set_obs(spec.obs);
      monitoring.set_obs(spec.obs);
    }
    // One cache fabric per run, shared by every engine on the stack: in
    // session mode this is where cross-session reuse comes from.
    if (spec.cache.enabled) {
      const std::string problem = spec.cache.validate();
      WADC_ASSERT(problem.empty(), "bad cache config: ", problem);
      fabric = std::make_unique<cache::CacheFabric>(
          spec.cache, spec.num_servers + 1, &monitoring, spec.obs);
    }
    engine_params.fault_injector = injector.get();
    engine_params.cache_fabric = fabric.get();
  }

  // Call once the engines are built: arms the injector (the engines have
  // registered their fault listeners by now) and starts the timeline
  // sampler when the spec records one. The caller declares the returned
  // sampler after its engines, so it is created last and destroyed first.
  std::unique_ptr<TimelineSampler> start(
      const session::SessionManager* sessions,
      std::function<bool()> finished) {
    if (injector) injector->arm();
    if (spec.obs.timeline == nullptr) return nullptr;
    auto sampler = std::make_unique<TimelineSampler>(
        sim, network, monitoring, tree, sessions, *spec.obs.timeline,
        spec.timeline_sample_seconds, std::move(finished));
    sampler->start();
    return sampler;
  }

  const ExperimentSpec& spec;
  sim::Simulation& sim;
  net::Network& network;
  std::unique_ptr<fault::FaultInjector> injector;
  monitor::MonitoringSystem monitoring;
  const core::CombinationTree tree;
  const workload::ImageWorkload workload;
  std::unique_ptr<cache::CacheFabric> fabric;
  dataflow::EngineParams engine_params;
};

// The single-engine run on a simulation/network pair built for it.
RunResult run_on(const ExperimentSpec& spec, sim::Simulation& sim,
                 net::Network& network) {
  RunStack stack(spec, sim, network);
  dataflow::Engine engine(sim, network, stack.monitoring, stack.tree,
                          stack.workload, stack.engine_params);
  const auto sampler =
      stack.start(nullptr, [&engine] { return engine.run_finished(); });

  RunResult result;
  result.stats = engine.run();
  if (spec.backend != Backend::kSim) {
    result.stats.backend = backend_name(spec.backend);
  }
  result.completion_seconds = result.stats.completion_seconds;
  result.mean_interarrival_seconds = result.stats.mean_interarrival_seconds();
  return result;
}

// run_on as a run for run_stack below.
auto single_engine(const ExperimentSpec& spec) {
  return [&spec](sim::Simulation& sim, net::Network& network) {
    return run_on(spec, sim, network);
  };
}

// The session run on a simulation/network pair.
session::SessionStats run_sessions_on(const ExperimentSpec& spec,
                                      const session::SessionSpec& sessions,
                                      sim::Simulation& sim,
                                      net::Network& network) {
  RunStack stack(spec, sim, network);
  // The manager owns every session's engine; the first engine destructor
  // tears down all coroutine frames while the stack is still alive.
  session::SessionManager manager(sim, network, stack.monitoring, stack.tree,
                                  stack.workload, stack.engine_params,
                                  sessions, spec.config_seed);
  const auto sampler =
      stack.start(&manager, [&manager] { return manager.all_finished(); });

  session::SessionStats stats = manager.run();
  stats.network_bytes_delivered = network.bytes_delivered();
  if (spec.backend != Backend::kSim) {
    stats.backend = backend_name(spec.backend);
  }
  return stats;
}

// The process-wide pool of warm arenas behind pooled runs. It and its
// arenas are never freed; a lease's arena is exclusive to it, and the
// mutex orders one lease's use of an arena before the next one's.
class ArenaPool {
 public:
  static ArenaPool& instance() {
    static ArenaPool* const pool = new ArenaPool();
    return *pool;
  }

  sim::Arena& acquire() {
    // The pool's own memory never comes from a caller's arena.
    const sim::Arena::Scope global(nullptr);
    const std::lock_guard<std::mutex> lock(mu_);
    ++leased_;
    if (idle_.empty()) {
      arenas_.push_back(std::make_unique<sim::Arena>());
      return *arenas_.back();
    }
    sim::Arena* const arena = idle_.back();
    idle_.pop_back();
    return *arena;
  }

  // An arena that still holds live allocations when its lease ends (say,
  // the message of an exception thrown inside the run) could be freed into
  // by another thread later, so it is retired rather than leased again.
  void release(sim::Arena& arena) {
    const sim::Arena::Scope global(nullptr);
    const std::lock_guard<std::mutex> lock(mu_);
    --leased_;
    if (arena.outstanding() != 0) {
      ++retired_;
      return;
    }
    idle_.push_back(&arena);
  }

  RunPoolStats stats() {
    const std::lock_guard<std::mutex> lock(mu_);
    RunPoolStats s;
    s.arenas = static_cast<int>(arenas_.size());
    s.leased = leased_;
    s.retired = retired_;
    // Only idle arenas: a leased one belongs to its run's thread.
    for (const sim::Arena* arena : idle_) {
      s.block_allocs += arena->stats().block_allocs;
    }
    return s;
  }

 private:
  ArenaPool() = default;

  std::mutex mu_;
  std::vector<std::unique_ptr<sim::Arena>> arenas_;
  std::vector<sim::Arena*> idle_;
  int leased_ = 0;
  int retired_ = 0;
};

// One arena leased from the pool for the lease's lifetime.
class ArenaLease {
 public:
  ArenaLease() : arena_(ArenaPool::instance().acquire()) {}
  ~ArenaLease() { ArenaPool::instance().release(arena_); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  sim::Arena& arena() const { return arena_; }

 private:
  sim::Arena& arena_;
};

// True for the runs the pool serves: simulated, with no sink whose
// contents would outlive the run.
bool pooled(const ExperimentSpec& spec) {
  return spec.backend == Backend::kSim && !spec.obs.enabled();
}

template <typename Run>
using RunOutput =
    std::invoke_result_t<const Run&, sim::Simulation&, net::Network&>;

// Runs `run` on a simulation/network pair built for it. With a null
// `arena` everything lives on the caller's allocator. Otherwise the pair
// and everything the run allocates come from `arena`: the result is copied
// out to the caller's allocator, the original and the stack are freed, and
// the arena is rewound, so nothing the run allocated outlives it. The one
// exception is what a RunContext run records into its sinks: that stays
// live in the arena, which rewinds again at the end of the first run after
// the sinks free it.
template <typename Run>
RunOutput<Run> run_stack(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec, sim::Arena* arena,
                         const Run& run) {
  if (arena == nullptr) {
    FreshNetwork fresh(library, spec);
    return run(fresh.sim, fresh.network);
  }
  sim::Arena* const caller = sim::Arena::current();
  std::optional<RunOutput<Run>> out;
  {
    const sim::Arena::Scope mem(arena);
    FreshNetwork fresh(library, spec);
    const RunOutput<Run> result = run(fresh.sim, fresh.network);
    const sim::Arena::Scope copy_out(caller);
    out.emplace(result);
  }
  arena->reset();
  return std::move(*out);
}

// A pooled run when the spec allows one, a fresh one otherwise.
template <typename Run>
RunOutput<Run> run_pooled_or_fresh(const trace::TraceLibrary& library,
                                   const ExperimentSpec& spec,
                                   const Run& run) {
  if (!pooled(spec)) return run_stack(library, spec, nullptr, run);
  const ArenaLease lease;
  return run_stack(library, spec, &lease.arena(), run);
}

}  // namespace

RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  return run_pooled_or_fresh(library, spec, single_engine(spec));
}

RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec, RunContext& ctx) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  // A tcp run opens real sockets per run: it takes the fresh stack.
  if (spec.backend != Backend::kSim) return run_experiment(library, spec);
  return run_stack(library, spec, &ctx.arena_, single_engine(spec));
}

session::SessionStats run_session_experiment(
    const trace::TraceLibrary& library, const ExperimentSpec& spec,
    const session::SessionSpec& sessions) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  return run_pooled_or_fresh(
      library, spec,
      [&spec, &sessions](sim::Simulation& sim, net::Network& network) {
        return run_sessions_on(spec, sessions, sim, network);
      });
}

RunPoolStats run_pool_stats() { return ArenaPool::instance().stats(); }

namespace {

// One row of a sweep: an algorithm/extras pair run on every configuration.
struct SeriesDesc {
  core::AlgorithmKind algorithm;
  int extras;
};

// Private per-run observability sinks, merged deterministically after all
// workers join.
struct CellObs {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::DecisionLog> decisions;
  std::unique_ptr<obs::Timeline> timeline;
};

// Runs descs.size() x sweep.configs independent cells on a fixed-size
// worker pool. descs[0] must be the download-all baseline; every series'
// speedup is measured against it. Cells share only the read-only trace
// library and the (copied-per-cell) spec, and write results into
// index-keyed slots, so the returned series — and the merged obs output —
// are byte-identical for every worker count. Each worker runs its cells
// as pooled runs in one arena leased for the whole sweep; a cell recording
// into private sinks runs on a fresh stack, so the merged sink contents
// live on the global heap.
std::vector<AlgorithmSeries> run_cells(const trace::TraceLibrary& library,
                                       const SweepSpec& sweep,
                                       const std::vector<SeriesDesc>& descs,
                                       const ProgressFn& progress) {
  // Each worker moves its cell's result into a preallocated slot.
  static_assert(
      std::is_nothrow_move_constructible_v<RunResult> ||
          std::is_copy_constructible_v<RunResult>,
      "RunResult must be slot-storable");

  const int configs = sweep.configs;
  const int num_series = static_cast<int>(descs.size());
  const int total = configs * num_series;
  const int jobs = resolve_jobs(sweep.jobs);

  std::vector<std::vector<RunResult>> results(
      static_cast<std::size_t>(num_series),
      std::vector<RunResult>(static_cast<std::size_t>(configs)));

  const obs::Obs sink = sweep.experiment.obs;
  std::vector<CellObs> cell_obs(sink.enabled()
                                    ? static_cast<std::size_t>(total)
                                    : 0);

  obs::Profiler* const prof = sweep.profiler;
  std::mutex progress_mu;
  int done = 0;

  // parallel_for's worker indices stay below min(jobs, total).
  const auto leases = std::make_unique<ArenaLease[]>(
      static_cast<std::size_t>(std::max(1, std::min(jobs, total))));

  parallel_for(total, jobs, [&](int idx, int worker) {
    const int s = idx / configs;
    const int c = idx % configs;
    ExperimentSpec spec = sweep.experiment;
    {
      obs::Profiler::Scope setup_scope(prof, "setup", worker);
      spec.algorithm = descs[static_cast<std::size_t>(s)].algorithm;
      spec.local_extra_candidates =
          descs[static_cast<std::size_t>(s)].extras;
      spec.config_seed = sweep.base_seed + static_cast<std::uint64_t>(c);
      if (sink.enabled()) {
        // Record into private sinks; merged below in deterministic order.
        CellObs& slot = cell_obs[static_cast<std::size_t>(idx)];
        spec.obs = {};
        if (sink.tracer != nullptr) {
          slot.tracer = std::make_unique<obs::Tracer>();
          spec.obs.tracer = slot.tracer.get();
        }
        if (sink.metrics != nullptr) {
          slot.metrics = std::make_unique<obs::MetricsRegistry>();
          spec.obs.metrics = slot.metrics.get();
        }
        if (sink.decisions != nullptr) {
          slot.decisions = std::make_unique<obs::DecisionLog>();
          spec.obs.decisions = slot.decisions.get();
        }
        if (sink.timeline != nullptr) {
          slot.timeline = std::make_unique<obs::Timeline>();
          spec.obs.timeline = slot.timeline.get();
        }
      }
    }
    {
      obs::Profiler::Scope run_scope(prof, "engine_run", worker);
      sim::Arena& arena = leases[static_cast<std::size_t>(worker)].arena();
      const sim::ArenaStats before = arena.stats();
      const sim::GlobalAllocStats& tls = sim::global_alloc_stats();
      const std::uint64_t news_before = tls.global_news;
      results[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)] =
          run_stack(library, spec, pooled(spec) ? &arena : nullptr,
                    single_engine(spec));
      if (prof != nullptr) {
        // Allocator traffic per cell. Warmth-dependent (a cold arena
        // mallocs its blocks, a warm one doesn't), so these go to the
        // profiler only — never to the deterministic metrics channel, or
        // goldens would differ across jobs counts.
        const sim::ArenaStats& after = arena.stats();
        prof->count("sim.alloc.arena_allocs", after.allocs - before.allocs);
        prof->count("sim.alloc.freelist_hits",
                    after.freelist_hits - before.freelist_hits);
        prof->count("sim.alloc.spills", after.spills - before.spills);
        prof->count("sim.alloc.block_allocs",
                    after.block_allocs - before.block_allocs);
        prof->count("sim.alloc.global_news", tls.global_news - news_before);
      }
    }
    if (progress) {
      if (prof != nullptr) prof->count("progress_lock_acquisitions");
      std::lock_guard<std::mutex> lock(progress_mu);
      progress(++done, total);
    }
  });

  // Merge per-run observability into the sweep-level sink in fixed
  // (series, configuration) order — the order the serial path visits runs —
  // independent of how workers interleaved.
  if (sink.enabled()) {
    obs::Profiler::Scope merge_scope(prof, "obs_merge");
    for (int idx = 0; idx < total; ++idx) {
      CellObs& slot = cell_obs[static_cast<std::size_t>(idx)];
      if (slot.tracer) sink.tracer->merge_from(std::move(*slot.tracer));
      if (slot.metrics) sink.metrics->merge_from(*slot.metrics);
      if (slot.decisions) {
        sink.decisions->merge_from(std::move(*slot.decisions));
      }
      if (slot.timeline) sink.timeline->merge_from(std::move(*slot.timeline));
    }
  }

  obs::Profiler::Scope collect_scope(prof, "result_collect");
  const std::vector<RunResult>& baseline = results[0];
  std::vector<AlgorithmSeries> out(static_cast<std::size_t>(num_series));
  for (int s = 0; s < num_series; ++s) {
    AlgorithmSeries& series = out[static_cast<std::size_t>(s)];
    series.algorithm = descs[static_cast<std::size_t>(s)].algorithm;
    series.local_extra_candidates = descs[static_cast<std::size_t>(s)].extras;
    for (int c = 0; c < configs; ++c) {
      const RunResult& r =
          results[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)];
      series.completion_seconds.push_back(r.completion_seconds);
      series.mean_interarrival.push_back(r.mean_interarrival_seconds);
      series.relocations.push_back(r.stats.relocations);
      series.speedup.push_back(
          s == 0 ? 1.0
                 : baseline[static_cast<std::size_t>(c)].completion_seconds /
                       r.completion_seconds);
    }
  }
  return out;
}

}  // namespace

std::vector<AlgorithmSeries> run_sweep(
    const trace::TraceLibrary& library, const SweepSpec& sweep,
    const std::vector<core::AlgorithmKind>& algorithms,
    const ProgressFn& progress) {
  // Baseline first (§5: "the download-all placement algorithm is used as
  // the base-case"); it is run exactly once even when requested explicitly.
  std::vector<SeriesDesc> descs{{core::AlgorithmKind::kDownloadAll, 0}};
  for (const core::AlgorithmKind algorithm : algorithms) {
    if (algorithm != core::AlgorithmKind::kDownloadAll) {
      descs.push_back({algorithm, sweep.experiment.local_extra_candidates});
    }
  }
  std::vector<AlgorithmSeries> cells =
      run_cells(library, sweep, descs, progress);

  std::vector<AlgorithmSeries> out;
  out.reserve(algorithms.size() + 1);
  std::size_t next_cell = 1;
  bool had_baseline = false;
  for (const core::AlgorithmKind algorithm : algorithms) {
    if (algorithm == core::AlgorithmKind::kDownloadAll) {
      out.push_back(cells[0]);
      had_baseline = true;
    } else {
      out.push_back(std::move(cells[next_cell++]));
    }
  }
  // Always expose the baseline at the end if it was not requested, so
  // callers can report absolute interarrival times.
  if (!had_baseline) out.push_back(std::move(cells[0]));
  return out;
}

std::vector<AlgorithmSeries> run_local_extras_sweep(
    const trace::TraceLibrary& library, const SweepSpec& sweep,
    const std::vector<int>& extra_candidate_counts,
    const ProgressFn& progress) {
  std::vector<SeriesDesc> descs{{core::AlgorithmKind::kDownloadAll, 0}};
  for (const int k : extra_candidate_counts) {
    descs.push_back({core::AlgorithmKind::kLocal, k});
  }
  std::vector<AlgorithmSeries> cells =
      run_cells(library, sweep, descs, progress);
  return {std::make_move_iterator(cells.begin() + 1),
          std::make_move_iterator(cells.end())};
}

int env_configs(int fallback) {
  return env_number<int>("WADC_CONFIGS", 1).value_or(fallback);
}

std::uint64_t env_seed(std::uint64_t fallback) {
  return env_number<std::uint64_t>("WADC_SEED", 0).value_or(fallback);
}

}  // namespace wadc::exp
