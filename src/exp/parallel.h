// Fixed-size worker pool for the embarrassingly parallel experiment
// sweeps: every (network-configuration x algorithm) cell builds its own
// sim::Simulation / net::Network / dataflow::Engine, shares only the
// read-only trace::TraceLibrary, and writes its result into an index-keyed
// slot — so parallel execution is byte-identical to serial.
//
// Each parallel_for call starts its own std::jthreads and joins them before
// it returns, so nothing thread-local outlives a call: a thread-local arena
// would be a new cold one per worker per sweep, never reused. Warm run
// memory instead lives in the run pool of exp/experiment.h, whose arenas
// any thread may lease.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

namespace wadc::exp {

// Number of workers to use for a sweep. `requested` > 0 is taken as-is;
// 0 means "default": the WADC_JOBS environment variable if set (where 0
// selects all hardware threads), otherwise 1 (serial).
int resolve_jobs(int requested);

// A --jobs or WADC_JOBS value: a whole non-negative decimal integer, where
// 0 selects all hardware threads. nullopt for anything else.
std::optional<int> parse_jobs(std::string_view text);

// WADC_JOBS override with the same meaning as --jobs. Garbage is fatal
// (exit 2), never silently ignored.
int env_jobs(int fallback);

// Runs fn(i) exactly once for every i in [0, n), on up to `jobs` worker
// threads (std::jthread). fn must only write to slots keyed by its index.
// The first exception thrown by fn stops new work from being claimed and
// is rethrown here after all workers join.
void parallel_for(int n, int jobs, const std::function<void(int)>& fn);

// Worker-aware variant: fn(i, worker) additionally receives the index of
// the pool worker executing the item (0-based; the serial path — one
// worker or fewer items than workers — always reports worker 0). Used by
// the sweep profiler to break phase wall-clock down per worker.
void parallel_for(int n, int jobs,
                  const std::function<void(int, int)>& fn);

}  // namespace wadc::exp
