// Configuration types for the dataflow engine. Result types (RunStats,
// FailureSummary) live in run_stats.h.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "core/algorithm_kind.h"
#include "obs/obs.h"
#include "sim/types.h"

namespace wadc::cache {
class CacheFabric;
}  // namespace wadc::cache

namespace wadc::fault {
class FaultInjector;
}  // namespace wadc::fault

namespace wadc::dataflow {

struct EngineParams {
  core::AlgorithmKind algorithm = core::AlgorithmKind::kDownloadAll;

  // On-line adaptation period (§4: the global and local algorithms were run
  // once every 10 minutes in the main experiments; Figure 9 sweeps this).
  // For the local algorithm, the epoch length is this period divided by the
  // tree depth, so each operator reconsiders its placement once per period
  // while the staggered wavefront (§2.3) sweeps all levels within it.
  sim::SimTime relocation_period_seconds = 600;

  // Extra randomly-chosen candidate sites for the local rule (Figure 7's k).
  int local_extra_candidates = 0;

  // Priority used for barrier/control traffic. The paper assigns barrier
  // messages a higher priority (§2.2); setting this to net::kDataPriority
  // ablates that design choice.
  int control_priority = 10;  // == net::kControlPriority

  // Ablation: plan from ground-truth link bandwidth instead of the
  // monitoring subsystem (an idealized upper bound on what better
  // monitoring could buy; never used by the paper's algorithms).
  bool oracle_bandwidth = false;

  // Seed for engine-local randomness (the local rule's k extra sites).
  std::uint64_t seed = 1;

  // Query-session id under the multi-client session runtime (wadc_session).
  // Tags every transfer this engine issues so shared-network traces and
  // metrics can be attributed per session. -1 (the default) leaves
  // transfers untagged — single-session output stays byte-identical.
  int session_id = -1;

  // Shared result-cache fabric (src/cache). When non-null the engine
  // consults it before scheduling a sub-tree: a hit fetches the
  // materialized result from the nearest replica and prunes the subtree
  // for that iteration; every composed result is registered back. The
  // session runtime hands every concurrent engine the same fabric, which
  // is where cross-session reuse comes from. When null (the default) the
  // engine behaves exactly as the cache-free original — same events, same
  // RNG draws, byte-identical output (the goldens pin this).
  cache::CacheFabric* cache_fabric = nullptr;

  // Failure recovery. When non-null, the engine runs fault-tolerant:
  // transfers carry timeouts, failed hops are retried with capped
  // exponential backoff, operators stranded on dead hosts are repaired by
  // out-of-cycle relocation, and the run ends at a deadline (engine.cc
  // holds these constants). When null (the default) the engine behaves
  // exactly as the fault-free original — same events, same RNG draws, same
  // output.
  fault::FaultInjector* fault_injector = nullptr;

  // Observability sink (tracing + metrics). Defaults to the null sink;
  // attach the same Obs to the Network and MonitoringSystem so one run's
  // events land in one trace (exp::run_experiment does this).
  obs::Obs obs;
};

// Returns an empty string if the parameters are usable, otherwise a
// human-readable description of the first problem found. The Engine asserts
// this at construction; wadc_run turns it into exit code 2.
inline std::string validate(const EngineParams& p) {
  if (!std::isfinite(p.relocation_period_seconds) ||
      p.relocation_period_seconds <= 0) {
    return "relocation_period_seconds must be finite and > 0, got " +
           std::to_string(p.relocation_period_seconds);
  }
  if (p.local_extra_candidates < 0) {
    return "local_extra_candidates must be >= 0, got " +
           std::to_string(p.local_extra_candidates);
  }
  return {};
}

}  // namespace wadc::dataflow
