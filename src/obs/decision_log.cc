#include "obs/decision_log.h"

#include <iterator>

#include "common/output_file.h"
#include "obs/json_util.h"

namespace wadc::obs {

void DecisionLog::record(sim::SimTime t, const char* category,
                         const char* action, int session,
                         std::vector<TraceArg> args) {
  records_.push_back(
      DecisionRecord{t, category, action, session, std::move(args)});
}

void DecisionLog::merge_from(DecisionLog&& other) {
  records_.insert(records_.end(),
                  std::make_move_iterator(other.records_.begin()),
                  std::make_move_iterator(other.records_.end()));
  other.records_.clear();
}

void DecisionLog::write_jsonl(std::ostream& out) const {
  out.precision(17);
  for (const DecisionRecord& r : records_) {
    out << "{\"t\":" << r.t << ",\"category\":";
    write_json_string(out, r.category);
    out << ",\"action\":";
    write_json_string(out, r.action);
    out << ",\"session\":" << r.session << ",\"args\":";
    write_trace_args(out, r.args);
    out << "}\n";
  }
}

void DecisionLog::write_jsonl_file(const std::string& path) const {
  write_file(path, [this](std::ostream& out) { write_jsonl(out); });
}

}  // namespace wadc::obs
