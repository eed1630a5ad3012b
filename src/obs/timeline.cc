#include "obs/timeline.h"

#include <iterator>

#include "common/output_file.h"
#include "obs/json_util.h"

namespace wadc::obs {

void Timeline::merge_from(Timeline&& other) {
  rows_.insert(rows_.end(), std::make_move_iterator(other.rows_.begin()),
               std::make_move_iterator(other.rows_.end()));
  other.rows_.clear();
}

void Timeline::write_csv(std::ostream& out) const {
  out.precision(17);
  out << "t,kind,id,est_bw,est_age_s,truth_bw,active,queued,state,images,"
         "bytes\n";
  for (const Row& r : rows_) {
    out << r.t << "," << r.kind << ",";
    if (r.id >= 0) out << r.id;
    out << ",";
    if (r.est_bw >= 0) out << r.est_bw;
    out << ",";
    if (r.est_age >= 0) out << r.est_age;
    out << ",";
    if (r.truth_bw >= 0) out << r.truth_bw;
    out << ",";
    if (r.active >= 0) out << r.active;
    out << ",";
    if (r.queued >= 0) out << r.queued;
    out << "," << r.state << ",";
    if (r.images >= 0) out << r.images;
    out << ",";
    if (r.bytes >= 0) out << r.bytes;
    out << "\n";
  }
}

void Timeline::write_json(std::ostream& out) const {
  out.precision(17);
  out << "{\"rows\": [";
  bool first = true;
  for (const Row& r : rows_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"t\":" << r.t << ",\"kind\":";
    write_json_string(out, r.kind);
    if (r.id >= 0) out << ",\"id\":" << r.id;
    if (r.est_bw >= 0) out << ",\"est_bw\":" << r.est_bw;
    if (r.est_age >= 0) out << ",\"est_age_s\":" << r.est_age;
    if (r.truth_bw >= 0) out << ",\"truth_bw\":" << r.truth_bw;
    if (r.active >= 0) out << ",\"active\":" << r.active;
    if (r.queued >= 0) out << ",\"queued\":" << r.queued;
    if (r.state[0] != '\0') {
      out << ",\"state\":";
      write_json_string(out, r.state);
    }
    if (r.images >= 0) out << ",\"images\":" << r.images;
    if (r.bytes >= 0) out << ",\"bytes\":" << r.bytes;
    out << "}";
  }
  out << (rows_.empty() ? "]}\n" : "\n]}\n");
}

void Timeline::write_file(const std::string& path) const {
  const bool json = path.ends_with(".json");
  wadc::write_file(path, [this, json](std::ostream& out) {
    json ? write_json(out) : write_csv(out);
  });
}

}  // namespace wadc::obs
