// Machine-readable export of run results.
//
// Writes a RunStats (arrival times, relocation trace, adaptation counters)
// or a whole sweep as JSON so results can be plotted or post-processed
// outside the harness. No external JSON dependency: the emitter covers the
// few types we need.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dataflow/run_stats.h"
#include "session/session_stats.h"

namespace wadc::exp {

struct AlgorithmSeries;  // exp/experiment.h

// JSON object with completion, arrivals[], relocations[] ({time, op, from,
// to}), and the adaptation counters.
void write_run_json(const dataflow::RunStats& stats, std::ostream& out);
void write_run_json_file(const dataflow::RunStats& stats,
                         const std::string& path);

// JSON array of series objects: {algorithm, extras, speedup[],
// completion_seconds[], mean_interarrival[], relocations[]}.
void write_series_json(const std::vector<AlgorithmSeries>& series,
                       std::ostream& out);

// JSON object for a multi-client session run: the aggregate metrics
// (makespan, mean/p95 response, queueing, Jain fairness, throughput) plus
// one record per session.
void write_sessions_json(const session::SessionStats& stats,
                         std::ostream& out);
void write_sessions_json_file(const session::SessionStats& stats,
                              const std::string& path);

}  // namespace wadc::exp
