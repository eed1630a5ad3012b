// Single-run and sweep drivers for the paper's experiments.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache_config.h"
#include "core/algorithm_kind.h"
#include "core/combination_tree.h"
#include "dataflow/engine_params.h"
#include "dataflow/run_stats.h"
#include "exp/network_config.h"
#include "fault/fault_schedule.h"
#include "monitor/monitoring_system.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "net/network.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "sim/arena.h"
#include "trace/library.h"
#include "workload/image_workload.h"

namespace wadc::exp {

// Which byte-mover backs the run's net::Network (see net/transport.h and
// docs/ARCHITECTURE.md, "Transport backends").
enum class Backend {
  // The simulated bandwidth-trace integrator: pure discrete-event,
  // deterministic, byte-identical output (the default, and the only
  // backend the golden harness accepts).
  kSim,
  // Real loopback TCP sockets paced to the configured bandwidths, with the
  // event loop keyed to CLOCK_MONOTONIC (net/realtime.h). Timings depend
  // on kernel scheduling: the documented non-deterministic exception.
  kTcp,
};

const char* backend_name(Backend backend);

// Everything needed to reproduce one simulated run.
struct ExperimentSpec {
  core::AlgorithmKind algorithm = core::AlgorithmKind::kDownloadAll;
  int num_servers = 8;                       // §4 main experiments
  core::TreeShape tree_shape = core::TreeShape::kCompleteBinary;
  int iterations = 180;
  sim::SimTime relocation_period_seconds = 600;  // "once every 10 minutes"
  int local_extra_candidates = 0;

  // Unread: the run sizes its workload from `iterations` above. Kept only
  // because existing callers copy it.
  workload::WorkloadParams workload;
  monitor::MonitorParams monitor;
  net::NetworkParams network;
  NetworkConfigParams config;

  // Base engine parameters; algorithm, relocation period, extra-candidate
  // count and seed are overridden from the fields above, obs from `obs`
  // below, and the run stack points fault_injector and cache_fabric at the
  // run's own. What is left to set here are the ablation knobs
  // control_priority and oracle_bandwidth (the session runtime sets
  // session_id per session).
  dataflow::EngineParams engine_base;

  // Seed identifying the network configuration (the trace→link assignment)
  // and the workload draw.
  std::uint64_t config_seed = 1;

  // Transport backend. kSim is the paper's simulation; kTcp moves every
  // transfer over real loopback sockets in (scaled) wall-clock time, with
  // frames paced to the configured link bandwidths. The tcp knob below is
  // ignored under kSim.
  Backend backend = Backend::kSim;
  // kTcp: simulated seconds per wall second (a 3-hour simulated run at the
  // default 600 takes ~18 wall seconds).
  double tcp_time_scale = 600;

  // Result cache (src/cache, docs/CACHING.md). Disabled (the default) runs
  // exactly the cache-free simulation — same events, same RNG draws,
  // byte-identical output (the goldens pin this). When enabled, the run
  // drivers build one CacheFabric per run and hand it to every engine; in
  // session mode all concurrent sessions share it, which is where
  // cross-session reuse comes from.
  cache::CacheConfig cache;

  // Fault injection. Empty (the default) runs exactly the fault-free
  // simulation — same events, same RNG draws, byte-identical output. When
  // non-empty, run_experiment builds a FaultInjector from it (seeded with
  // config_seed), arms it, and hands it to the engine, which then runs in
  // fault-tolerant mode (timeouts, retries, relocation-based repair).
  fault::FaultSpec fault;

  // Observability sink for the run: attached to the network, the monitoring
  // subsystem, and the engine, so one run's transfer/relocation/barrier/
  // probe events, metrics, and adaptation-decision records land in one
  // place. Null by default (no overhead). The sweep runners treat this as
  // the sweep-level sink: each run records into private sinks which are
  // merged into these pointers in (series, configuration) order after all
  // workers join, so the combined output is byte-identical for any jobs
  // count. When obs.timeline is set, the run drives an exp-layer
  // TimelineSampler at `timeline_sample_seconds` of simulated time.
  obs::Obs obs;

  // Sampling interval for obs.timeline, in simulated seconds.
  sim::SimTime timeline_sample_seconds = 60;

  dataflow::EngineParams engine_params(std::uint64_t seed) const;
};

struct RunResult {
  dataflow::RunStats stats;
  double completion_seconds = 0;
  double mean_interarrival_seconds = 0;
};

// A caller-owned warm arena for single-engine runs, for callers that keep
// one across many runs: perfbench's fig6 loop and the tests. Runs on one
// context must be serialized. Each run builds its whole stack inside the
// context's arena and copies its result out, exactly as a pooled run does
// in a leased arena (run_experiment below), so a sink-free run leaves
// nothing behind and the arena rewinds fully. Sink contents recorded by a
// run live in the arena, so the context must outlive them; it need not
// outlive the results. A run through a warm RunContext is byte-identical
// to a run through a fresh stack: exp_test's
// RunContext.WarmRunsMatchFreshRuns pins this for every algorithm, with
// and without faults and the result cache, on every artifact (run JSON,
// metrics, trace, decision log, timeline).
class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // Arena + global-allocator counters for this context's runs; feeds the
  // profiler's sim.alloc.* counters. Warmth-dependent, hence never exported
  // through deterministic (golden) channels.
  const sim::ArenaStats& arena_stats() const { return arena_.stats(); }

 private:
  friend RunResult run_experiment(const trace::TraceLibrary& library,
                                  const ExperimentSpec& spec,
                                  RunContext& ctx);

  sim::Arena arena_;
};

// Builds the whole stack (simulation, network, monitoring, engine) for one
// configuration and runs it to completion.
//
// Pooled runs. A Backend::kSim run whose spec.obs has no sink leases an
// idle warm arena from a process-wide pool, builds the whole stack inside
// it, and returns the lease when it ends. The simulation and network are
// built per run, never kept across runs: kept kernel objects would hold
// their buffers in the arena between runs, so its reset() could never
// rewind. The pool grows on demand and is never freed, so it holds at
// most one arena per concurrent run, and any thread may lease any idle
// arena. Before the lease ends the result is copied out to the caller's
// allocator (the global heap, unless the caller installed an arena; a
// SessionStats copy costs two allocations, a RunResult copy one per
// non-empty vector) and everything the run allocated in the arena is
// freed, so nothing it allocated outlives the run and the arena's reset()
// always rewinds fully. A lease that ends with arena memory still live
// retires its arena instead of returning it (RunPoolStats::retired; the
// tests pin it at 0).
//
// Runs with sinks attached stay on the global heap on a fresh stack,
// because sink contents outlive the run; so do tcp runs, which open real
// sockets. Output is byte-identical either way (exp_test's PooledRuns
// cases compare the two).
RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec);

// The same run in a caller-owned RunContext's arena, sinks or not (a tcp
// run goes through the overload above). The first run on a context grows
// its arena blocks; steady-state runs reuse them and make only a handful
// of global-allocator calls, the result's copy-out and spills included
// (tests/alloc_budget_test.cc pins the budget). Output is byte-identical
// to the overload above.
RunResult run_experiment(const trace::TraceLibrary& library,
                         const ExperimentSpec& spec, RunContext& ctx);

// Multi-client variant: builds ONE shared stack (simulation, network,
// monitoring) for the configuration and runs `sessions` concurrent query
// sessions over it under the session runtime (session/session_manager.h).
// spec.algorithm/engine_base configure every session's engine; per-session
// seeds fork from config_seed. A non-empty spec.fault arms a FaultInjector
// against the shared network; every admitted engine runs fault-tolerant.
// Prefer transient (crash + restart) schedules — detached session engines
// have no run deadline, and a permanently dead client/server aborts the
// affected sessions (see session/session_manager.h). Pooled exactly as
// run_experiment is.
session::SessionStats run_session_experiment(
    const trace::TraceLibrary& library, const ExperimentSpec& spec,
    const session::SessionSpec& sessions);

// Totals over the process-wide arena pool behind pooled runs (for tests).
struct RunPoolStats {
  int arenas = 0;   // created so far; the pool never frees one
  int leased = 0;   // leased right now
  int retired = 0;  // leases that ended with arena memory still live
  std::uint64_t block_allocs = 0;  // arena blocks malloc'd, all arenas
};
RunPoolStats run_pool_stats();

// ---- sweeps over many configurations (the paper's 300) -------------------

struct SweepSpec {
  int configs = 300;
  std::uint64_t base_seed = 1000;
  ExperimentSpec experiment;  // algorithm field is overridden per series

  // Worker threads for the sweep: every (configuration x algorithm) cell is
  // an independent run, so they execute on a fixed-size pool. 0 (the
  // default) resolves through WADC_JOBS, falling back to serial; results,
  // ordering and any attached obs output are byte-identical for every jobs
  // value (see docs/PERFORMANCE.md). Each worker leases one arena from the
  // run pool for the whole sweep and runs its cells in it as pooled runs;
  // cells recording into the sweep's sinks run on fresh stacks.
  int jobs = 0;

  // Optional wall-clock profiler for the sweep runner itself (setup /
  // engine-run / obs-merge / result-collection phases, per worker).
  // Non-deterministic by nature; never merged into the obs sinks above.
  obs::Profiler* profiler = nullptr;
};

struct AlgorithmSeries {
  core::AlgorithmKind algorithm;
  int local_extra_candidates = 0;
  std::vector<double> completion_seconds;    // per configuration
  std::vector<double> mean_interarrival;     // per configuration
  std::vector<double> speedup;               // vs download-all, per config
  std::vector<int> relocations;              // per configuration
};

// Sweep progress observer. The runner serializes invocations (one at a
// time, under a lock) and `done` increases by exactly 1 per call, whatever
// the worker count; callbacks need no synchronization of their own.
using ProgressFn = std::function<void(int done, int total)>;

// Runs every algorithm on every configuration. The first entry of
// `algorithms` need not be download-all: the baseline is always run and the
// speedups of all series are measured against it (§5: "the download-all
// placement algorithm is used as the base-case").
std::vector<AlgorithmSeries> run_sweep(
    const trace::TraceLibrary& library, const SweepSpec& sweep,
    const std::vector<core::AlgorithmKind>& algorithms,
    const ProgressFn& progress = {});

// Variant for Figure 7: local algorithm with several k values. Returns one
// series per k (speedups vs download-all).
std::vector<AlgorithmSeries> run_local_extras_sweep(
    const trace::TraceLibrary& library, const SweepSpec& sweep,
    const std::vector<int>& extra_candidate_counts,
    const ProgressFn& progress = {});

// Environment-variable helpers shared by the bench binaries:
// WADC_CONFIGS overrides the configuration count, WADC_SEED the base seed.
// Parsing is strict: the whole value must be a number in range, and
// malformed values (WADC_CONFIGS=8x, WADC_SEED=abc) are fatal (exit 2)
// instead of being silently truncated or ignored.
int env_configs(int fallback);
std::uint64_t env_seed(std::uint64_t fallback);

}  // namespace wadc::exp
