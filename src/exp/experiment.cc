#include "exp/experiment.h"

#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
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

// Builds and attaches the realtime (tcp) backend when the spec asks for
// one. Returned handle must be destroyed before `sim` and `network` (it
// detaches itself); callers declare it after both.
std::unique_ptr<net::RealtimeBackend> make_backend(const ExperimentSpec& spec,
                                                   sim::Simulation& sim,
                                                   net::Network& network) {
  if (spec.backend != Backend::kTcp) return nullptr;
  auto backend = std::make_unique<net::RealtimeBackend>(spec.tcp_time_scale,
                                                        spec.tcp_rate_limit);
  backend->attach(sim, network);
  return backend;
}

// The body shared by both run_experiment overloads: everything downstream
// of the simulation/network pair, which the fresh-context overload builds
// on the stack and the epoch-reuse overload resets in place. Construction
// order doubles as destruction-safety order: the engine is destroyed first
// and tears down all coroutine frames while the objects they reference are
// still alive.
RunResult run_on(const ExperimentSpec& spec, sim::Simulation& sim,
                 net::Network& network) {
  const int num_hosts = spec.num_servers + 1;
  const bool faults = !spec.fault.empty();
  // Declared before the monitoring system and the engine: the injector must
  // outlive the engine (which holds a listener into it) and is destroyed
  // after the engine tears down its coroutine frames.
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    const std::string problem = spec.fault.validate(num_hosts);
    WADC_ASSERT(problem.empty(), "bad fault spec: ", problem);
    injector = std::make_unique<fault::FaultInjector>(
        sim, network, spec.fault.build(num_hosts, spec.config_seed),
        spec.config_seed);
    if (spec.obs.enabled()) injector->set_obs(spec.obs);
  }

  monitor::MonitorParams mp = spec.monitor;
  if (faults && mp.probe_timeout_seconds == 0) {
    // A probe against a crashed host must resolve, not hang the planner.
    mp.probe_timeout_seconds = 120;
  }
  monitor::MonitoringSystem monitoring(network, mp);
  if (spec.obs.enabled()) {
    network.set_obs(spec.obs);
    monitoring.set_obs(spec.obs);
  }
  const core::CombinationTree tree =
      core::CombinationTree::make(spec.tree_shape, spec.num_servers);

  workload::WorkloadParams wp = spec.workload;
  wp.iterations = spec.iterations;
  const workload::ImageWorkload workload(wp, spec.num_servers,
                                         spec.config_seed);

  std::unique_ptr<cache::CacheFabric> fabric;
  if (spec.cache.enabled) {
    const std::string problem = spec.cache.validate();
    WADC_ASSERT(problem.empty(), "bad cache config: ", problem);
    fabric = std::make_unique<cache::CacheFabric>(spec.cache, num_hosts,
                                                  &monitoring, spec.obs);
  }

  dataflow::EngineParams ep = spec.engine_params(spec.config_seed);
  ep.fault_injector = injector.get();
  ep.cache_fabric = fabric.get();
  dataflow::Engine engine(sim, network, monitoring, tree, workload, ep);
  if (injector) injector->arm();

  std::unique_ptr<TimelineSampler> sampler;
  if (spec.obs.timeline != nullptr) {
    sampler = std::make_unique<TimelineSampler>(
        sim, network, monitoring, tree, /*sessions=*/nullptr,
        *spec.obs.timeline, spec.timeline_sample_seconds,
        [&engine] { return engine.run_finished(); });
    sampler->start();
  }

  RunResult result;
  result.stats = engine.run();
  if (spec.backend != Backend::kSim) {
    result.stats.backend = backend_name(spec.backend);
  }
  result.completion_seconds = result.stats.completion_seconds;
  result.mean_interarrival_seconds = result.stats.mean_interarrival_seconds();
  return result;
}

}  // namespace

RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  const int num_hosts = spec.num_servers + 1;
  sim::Simulation sim;
  const net::LinkTable links = make_network_config(
      library, num_hosts, spec.config_seed, spec.config);
  net::Network network(sim, links, spec.network);
  const auto backend = make_backend(spec, sim, network);
  return run_on(spec, sim, network);
}

RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec, RunContext& ctx) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  // Epoch reuse exists for deterministic sweeps; a tcp run is a single
  // wall-clock execution and opens real sockets per run, so route it
  // through the fresh-context path instead of threading socket lifetime
  // through RunContext.
  if (spec.backend != Backend::kSim) return run_experiment(library, spec);
  const int num_hosts = spec.num_servers + 1;

  // Everything allocated from here to the end of the run comes from the
  // worker's arena (coroutine frames and Callback spills always; the rest
  // whenever WADC_POOLED_GLOBAL_NEW is on).
  sim::Arena::Scope mem(&ctx.arena_);

  // Epoch boundary: rewind the kernel objects instead of reconstructing
  // them. The previous run's engine already tore down every process frame,
  // so reset() only rewinds counters and clears queues, keeping capacity.
  ctx.sim_.reset();
  ctx.links_ = make_network_config(library, num_hosts, spec.config_seed,
                                   spec.config);
  if (ctx.network_ == nullptr) {
    ctx.network_ =
        std::make_unique<net::Network>(ctx.sim_, *ctx.links_, spec.network);
  } else {
    ctx.network_->reset(*ctx.links_, spec.network);
  }

  RunResult result = run_on(spec, ctx.sim_, *ctx.network_);

  // Recycle the run's memory. Anything that escaped (the result, recorded
  // obs data) keeps the arena's outstanding count nonzero, in which case
  // reset() skips the bump rewind and reuse continues via the free lists —
  // still allocation-free once warm.
  ctx.arena_.reset();
  return result;
}

session::SessionStats run_session_experiment(
    const trace::TraceLibrary& library, const ExperimentSpec& spec,
    const session::SessionSpec& sessions) {
  WADC_ASSERT(spec.num_servers >= 2, "need at least two servers");
  const int num_hosts = spec.num_servers + 1;

  // Construction order doubles as destruction-safety order: the manager
  // (which owns every session's engine) is destroyed first, and the first
  // engine destructor tears down all coroutine frames while the shared
  // objects they reference are still alive.
  sim::Simulation sim;
  const net::LinkTable links = make_network_config(
      library, num_hosts, spec.config_seed, spec.config);
  net::Network network(sim, links, spec.network);
  const auto backend = make_backend(spec, sim, network);

  const bool faults = !spec.fault.empty();
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    const std::string problem = spec.fault.validate(num_hosts);
    WADC_ASSERT(problem.empty(), "bad fault spec: ", problem);
    injector = std::make_unique<fault::FaultInjector>(
        sim, network, spec.fault.build(num_hosts, spec.config_seed),
        spec.config_seed);
    if (spec.obs.enabled()) injector->set_obs(spec.obs);
  }

  monitor::MonitorParams mp = spec.monitor;
  if (faults && mp.probe_timeout_seconds == 0) {
    // A probe against a crashed host must resolve, not hang the planner.
    mp.probe_timeout_seconds = 120;
  }
  monitor::MonitoringSystem monitoring(network, mp);
  if (spec.obs.enabled()) {
    network.set_obs(spec.obs);
    monitoring.set_obs(spec.obs);
  }
  const core::CombinationTree tree =
      core::CombinationTree::make(spec.tree_shape, spec.num_servers);

  workload::WorkloadParams wp = spec.workload;
  wp.iterations = spec.iterations;
  const workload::ImageWorkload workload(wp, spec.num_servers,
                                         spec.config_seed);

  // One cache fabric shared by every concurrent session's engine: this is
  // where cross-session reuse comes from.
  std::unique_ptr<cache::CacheFabric> fabric;
  if (spec.cache.enabled) {
    const std::string problem = spec.cache.validate();
    WADC_ASSERT(problem.empty(), "bad cache config: ", problem);
    fabric = std::make_unique<cache::CacheFabric>(spec.cache, num_hosts,
                                                  &monitoring, spec.obs);
  }

  dataflow::EngineParams ep = spec.engine_params(spec.config_seed);
  ep.fault_injector = injector.get();
  ep.cache_fabric = fabric.get();
  session::SessionManager manager(sim, network, monitoring, tree, workload,
                                  ep, sessions, spec.config_seed);
  if (injector) injector->arm();

  std::unique_ptr<TimelineSampler> sampler;
  if (spec.obs.timeline != nullptr) {
    sampler = std::make_unique<TimelineSampler>(
        sim, network, monitoring, tree, &manager, *spec.obs.timeline,
        spec.timeline_sample_seconds,
        [&manager] { return manager.all_finished(); });
    sampler->start();
  }
  session::SessionStats stats = manager.run();
  stats.network_bytes_delivered = network.bytes_delivered();
  if (spec.backend != Backend::kSim) {
    stats.backend = backend_name(spec.backend);
  }
  return stats;
}

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

// Process-lifetime RunContext per sweep-worker index. Deliberately leaked:
// recorded obs data and run results escape a run still pointing into the
// worker's arena, and sweep callers may hold them arbitrarily long, so the
// arenas must never be destroyed. Contexts are exclusive to one worker per
// sweep and sweeps do not overlap, so the only synchronization needed is
// around pool growth.
RunContext& sweep_worker_context(int worker) {
  static auto* contexts = new std::deque<RunContext>();
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  while (static_cast<int>(contexts->size()) <= worker) {
    contexts->emplace_back();
  }
  return (*contexts)[static_cast<std::size_t>(worker)];
}

// Runs descs.size() x sweep.configs independent cells on a fixed-size
// worker pool. descs[0] must be the download-all baseline; every series'
// speedup is measured against it. Cells share only the read-only trace
// library and the (copied-per-cell) spec, and write results into
// index-keyed slots, so the returned series — and the merged obs output —
// are byte-identical for every worker count.
std::vector<AlgorithmSeries> run_cells(const trace::TraceLibrary& library,
                                       const SweepSpec& sweep,
                                       const std::vector<SeriesDesc>& descs,
                                       const ProgressFn& progress) {
  // Each worker hands run_experiment a value copy of the spec; the library
  // reference must stay shareable without synchronization.
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
      RunContext& ctx = sweep_worker_context(worker);
      const sim::ArenaStats before = ctx.arena_stats();
      const sim::GlobalAllocStats& tls = sim::global_alloc_stats();
      const std::uint64_t news_before = tls.global_news;
      results[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)] =
          run_experiment(library, spec, ctx);
      if (prof != nullptr) {
        // Allocator traffic per cell. Warmth-dependent (a cold context
        // mallocs its blocks, a warm one doesn't), so these go to the
        // profiler only — never to the deterministic metrics channel, or
        // goldens would differ across jobs counts.
        const sim::ArenaStats& after = ctx.arena_stats();
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
