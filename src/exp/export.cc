#include "exp/export.h"

#include <ostream>

#include "common/output_file.h"
#include "core/algorithm_kind.h"
#include "exp/experiment.h"

namespace wadc::exp {

namespace {

void write_doubles(std::ostream& out, const std::vector<double>& xs) {
  out << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out << ",";
    out << xs[i];
  }
  out << "]";
}

void write_ints(std::ostream& out, const std::vector<int>& xs) {
  out << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out << ",";
    out << xs[i];
  }
  out << "]";
}

}  // namespace

void write_run_json(const dataflow::RunStats& stats, std::ostream& out) {
  out.precision(17);
  out << "{\n";
  if (!stats.backend.empty()) {
    // Only non-default backends are labeled, so sim-backend output stays
    // byte-identical to pre-backend builds (golden harness).
    out << "  \"backend\": \"" << stats.backend << "\",\n";
  }
  out << "  \"completed\": " << (stats.completed ? "true" : "false") << ",\n";
  out << "  \"completion_seconds\": " << stats.completion_seconds << ",\n";
  out << "  \"mean_interarrival_seconds\": "
      << stats.mean_interarrival_seconds() << ",\n";
  out << "  \"replans\": " << stats.replans << ",\n";
  out << "  \"barriers_initiated\": " << stats.barriers_initiated << ",\n";
  out << "  \"barriers_completed\": " << stats.barriers_completed << ",\n";
  out << "  \"messages_forwarded\": " << stats.messages_forwarded << ",\n";
  if (stats.failure_summary.active) {
    // Emitted only for fault-tolerant runs so fault-free output stays
    // byte-identical to what it was before fault injection existed.
    const dataflow::FailureSummary& fs = stats.failure_summary;
    out << "  \"failure_summary\": {\n";
    out << "    \"faults_injected\": " << fs.faults_injected << ",\n";
    out << "    \"host_crashes\": " << fs.host_crashes << ",\n";
    out << "    \"host_restarts\": " << fs.host_restarts << ",\n";
    out << "    \"link_blackouts\": " << fs.link_blackouts << ",\n";
    out << "    \"link_blackout_ends\": " << fs.link_blackout_ends << ",\n";
    out << "    \"transfers_failed\": " << fs.transfers_failed << ",\n";
    out << "    \"transfers_timed_out\": " << fs.transfers_timed_out << ",\n";
    out << "    \"transfer_retries\": " << fs.transfer_retries << ",\n";
    out << "    \"recovery_replans\": " << fs.recovery_replans << ",\n";
    out << "    \"repair_relocations\": " << fs.repair_relocations << ",\n";
    out << "    \"recovery_seconds_total\": " << fs.recovery_seconds_total
        << ",\n";
    out << "    \"mean_recovery_seconds\": " << fs.mean_recovery_seconds()
        << ",\n";
    out << "    \"abort_reason\": \"" << fs.abort_reason << "\"\n";
    out << "  },\n";
  }
  out << "  \"arrival_seconds\": ";
  write_doubles(out, stats.arrival_seconds);
  out << ",\n  \"relocations\": [";
  for (std::size_t i = 0; i < stats.relocation_trace.size(); ++i) {
    const auto& ev = stats.relocation_trace[i];
    if (i > 0) out << ",";
    out << "\n    {\"time\": " << ev.time << ", \"op\": " << ev.op
        << ", \"from\": " << ev.from << ", \"to\": " << ev.to << "}";
  }
  out << (stats.relocation_trace.empty() ? "]" : "\n  ]") << "\n}\n";
}

void write_run_json_file(const dataflow::RunStats& stats,
                         const std::string& path) {
  write_file(path, [&stats](std::ostream& out) { write_run_json(stats, out); });
}

void write_series_json(const std::vector<AlgorithmSeries>& series,
                       std::ostream& out) {
  out.precision(17);
  out << "[\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const AlgorithmSeries& s = series[i];
    if (i > 0) out << ",\n";
    out << "  {\n    \"algorithm\": \""
        << core::algorithm_name(s.algorithm) << "\",\n";
    out << "    \"local_extra_candidates\": " << s.local_extra_candidates
        << ",\n";
    out << "    \"speedup\": ";
    write_doubles(out, s.speedup);
    out << ",\n    \"completion_seconds\": ";
    write_doubles(out, s.completion_seconds);
    out << ",\n    \"mean_interarrival\": ";
    write_doubles(out, s.mean_interarrival);
    out << ",\n    \"relocations\": ";
    write_ints(out, s.relocations);
    out << "\n  }";
  }
  out << "\n]\n";
}

void write_sessions_json(const session::SessionStats& stats,
                         std::ostream& out) {
  out.precision(17);
  out << "{\n";
  if (!stats.backend.empty()) {
    // Same contract as write_run_json: only non-default backends are
    // labeled, so sim-mode session artifacts are unchanged.
    out << "  \"backend\": \"" << stats.backend << "\",\n";
  }
  out << "  \"makespan_seconds\": " << stats.makespan_seconds() << ",\n";
  out << "  \"completed\": " << stats.completed_count() << ",\n";
  out << "  \"admitted\": " << stats.admitted_count() << ",\n";
  out << "  \"shed\": " << stats.shed_count() << ",\n";
  out << "  \"deferred\": " << stats.deferred_count() << ",\n";
  out << "  \"shed_fraction\": " << stats.shed_fraction() << ",\n";
  out << "  \"mean_response_seconds\": " << stats.mean_response_seconds()
      << ",\n";
  out << "  \"p95_response_seconds\": " << stats.p95_response_seconds()
      << ",\n";
  out << "  \"mean_queue_seconds\": " << stats.mean_queue_seconds() << ",\n";
  out << "  \"max_queue_seconds\": " << stats.max_queue_seconds() << ",\n";
  out << "  \"jain_fairness\": " << stats.jain_fairness() << ",\n";
  out << "  \"aggregate_throughput\": " << stats.aggregate_throughput()
      << ",\n";
  out << "  \"goodput_per_hour\": " << stats.goodput_per_hour() << ",\n";
  out << "  \"sessions\": [";
  const std::vector<session::SessionRecord>& sessions = stats.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const session::SessionRecord& s = sessions[i];
    if (i > 0) out << ",";
    out << "\n    {\"id\": " << s.id << ", \"client\": " << s.client
        << ", \"arrival_seconds\": " << s.arrival_seconds
        << ", \"admit_seconds\": " << s.admit_seconds
        << ", \"end_seconds\": " << s.end_seconds << ", \"completed\": "
        << (s.completed ? "true" : "false") << ", \"shed\": "
        << (s.shed ? "true" : "false") << ", \"deferred\": "
        << (s.deferred ? "true" : "false") << ", \"images\": " << s.images
        << ", \"queue_seconds\": " << s.queue_seconds()
        << ", \"response_seconds\": " << s.response_seconds()
        << ", \"deadline_seconds\": " << s.deadline_seconds
        << ", \"predicted_response_seconds\": "
        << s.predicted_response_seconds
        << ", \"relocations\": " << s.relocations << "}";
  }
  out << (sessions.empty() ? "]" : "\n  ]") << "\n}\n";
}

void write_sessions_json_file(const session::SessionStats& stats,
                              const std::string& path) {
  write_file(path,
             [&stats](std::ostream& out) { write_sessions_json(stats, out); });
}

}  // namespace wadc::exp
