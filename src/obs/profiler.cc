#include "obs/profiler.h"

#include <algorithm>

#include "common/output_file.h"
#include "obs/json_util.h"

namespace wadc::obs {

void Profiler::add(const std::string& phase, int worker, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  PhaseStat& s = phases_[phase];
  if (s.count == 0) {
    s.min = s.max = seconds;
  } else {
    s.min = std::min(s.min, seconds);
    s.max = std::max(s.max, seconds);
  }
  s.total += seconds;
  ++s.count;
  s.by_worker[worker] += seconds;
}

void Profiler::count(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::string Profiler::dominant_phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string best;
  double best_total = -1;
  for (const auto& [name, s] : phases_) {
    if (s.total > best_total) {
      best_total = s.total;
      best = name;
    }
  }
  return best;
}

double Profiler::phase_seconds(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.total;
}

double Profiler::wall_seconds() const {
  const auto elapsed = std::chrono::steady_clock::now() - created_;
  return std::chrono::duration<double>(elapsed).count();
}

void Profiler::write_json(std::ostream& out) const {
  const double wall = wall_seconds();
  const std::string dominant = dominant_phase();
  std::lock_guard<std::mutex> lock(mu_);
  out.precision(17);
  out << "{\n  \"wall_seconds\": " << wall << ",\n  \"dominant_phase\": ";
  write_json_string(out, dominant);
  out << ",\n  \"phases\": {";
  bool first = true;
  for (const auto& [name, s] : phases_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": {\"total_seconds\": " << s.total << ", \"count\": " << s.count
        << ", \"min_seconds\": " << s.min << ", \"max_seconds\": " << s.max
        << ", \"by_worker\": {";
    bool wfirst = true;
    for (const auto& [worker, seconds] : s.by_worker) {
      if (!wfirst) out << ", ";
      wfirst = false;
      out << "\"" << worker << "\": " << seconds;
    }
    out << "}}";
  }
  out << (phases_.empty() ? "}" : "\n  }") << ",\n  \"counters\": {";
  first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": " << v;
  }
  out << (counters_.empty() ? "}" : "\n  }") << "\n}\n";
}

void Profiler::write_json_file(const std::string& path) const {
  write_file(path, [this](std::ostream& out) { write_json(out); });
}

}  // namespace wadc::obs
