#include "obs/tracer.h"

#include <iterator>

#include "common/assert.h"
#include "common/output_file.h"
#include "obs/json_util.h"

namespace wadc::obs {

namespace {

// Simulated seconds -> Chrome trace microseconds.
double to_us(sim::SimTime t) { return t * 1e6; }

}  // namespace

void write_trace_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const TraceArg& a = args[i];
    if (i > 0) out << ",";
    write_json_string(out, a.key);
    out << ":";
    switch (a.kind) {
      case TraceArg::Kind::kInt:
        out << a.int_value;
        break;
      case TraceArg::Kind::kDouble:
        out << a.double_value;
        break;
      case TraceArg::Kind::kString:
        write_json_string(out, a.string_value);
        break;
    }
  }
  out << "}";
}

void Tracer::complete(const char* cat, const char* name, int pid, int tid,
                      sim::SimTime begin, sim::SimTime end,
                      std::vector<TraceArg> args) {
  WADC_ASSERT(end >= begin, "trace span ends before it begins");
  events_.push_back(Event{'X', cat, name, pid, tid, begin, end,
                          std::move(args)});
}

void Tracer::instant(const char* cat, const char* name, int pid, int tid,
                     sim::SimTime t, std::vector<TraceArg> args) {
  events_.push_back(Event{'i', cat, name, pid, tid, t, t, std::move(args)});
}

void Tracer::name_process(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void Tracer::name_thread(int pid, int tid, std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

void Tracer::merge_from(Tracer&& other) {
  events_.insert(events_.end(),
                 std::make_move_iterator(other.events_.begin()),
                 std::make_move_iterator(other.events_.end()));
  other.events_.clear();
  for (auto& [pid, name] : other.process_names_) {
    process_names_[pid] = std::move(name);
  }
  other.process_names_.clear();
  for (auto& [key, name] : other.thread_names_) {
    thread_names_[key] = std::move(name);
  }
  other.thread_names_.clear();
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Metadata first: stable map order keeps the serialization deterministic.
  for (const auto& [pid, name] : process_names_) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":";
    write_json_string(out, name);
    out << "}}";
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << key.first
        << ",\"tid\":" << key.second << ",\"args\":{\"name\":";
    write_json_string(out, name);
    out << "}}";
  }

  for (const Event& ev : events_) {
    sep();
    out << "{\"ph\":\"" << ev.ph << "\",\"cat\":";
    write_json_string(out, ev.cat);
    out << ",\"name\":";
    write_json_string(out, ev.name);
    out << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid
        << ",\"ts\":" << to_us(ev.begin);
    if (ev.ph == 'X') {
      out << ",\"dur\":" << to_us(ev.end - ev.begin);
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"args\":";
    write_trace_args(out, ev.args);
    out << "}";
  }
  out << "\n]}\n";
}

void Tracer::write_chrome_json_file(const std::string& path) const {
  write_file(path, [this](std::ostream& out) { write_chrome_json(out); });
}

}  // namespace wadc::obs
