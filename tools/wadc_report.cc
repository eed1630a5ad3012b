// wadc_report — one-command reproduction report, plus a run inspector.
//
// Report mode runs scaled-down versions of every experiment in the paper's
// evaluation (plus this repository's extensions) and writes a
// self-contained Markdown report with ASCII charts: the Figure 6 sorted
// speedup curves, the scaling and period sweeps, the tree-shape comparison,
// and the ablations.
//
//   wadc_report [--configs=N] [--out=FILE]
//
// Defaults: 60 configurations (the full paper scale of 300 takes a few
// minutes; pass --configs=300), report to stdout.
//
// Inspect mode reads the artifacts a wadc_run invocation exported
// (--dump-run / --timeline-out / --metrics-out / --decisions-out) and
// prints a human-readable digest: the run summary (labeling tcp-backend
// runs, whose timestamps are scaled wall clock rather than simulated
// seconds), per-host estimate-vs-truth staleness statistics, per-session
// summaries, and the adaptation-decision audit trail.
//
//   wadc_report inspect [--run=FILE] [--timeline=FILE] [--metrics=FILE]
//                       [--decisions=FILE] [--max-trail=N]
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/output_file.h"
#include "common/parse.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "trace/library.h"
#include "trace/stats.h"

namespace {

using namespace wadc;

// ---- tiny ASCII chart helpers ------------------------------------------------

// Plots sorted series as curves on a character grid (x = configuration
// rank, y = value). Series are drawn in order with the given glyphs; later
// glyphs win collisions.
std::string ascii_curves(const std::vector<std::vector<double>>& series,
                         const std::vector<char>& glyphs, int width = 64,
                         int height = 14) {
  double lo = 1e300, hi = -1e300;
  for (const auto& s : series) {
    for (const double v : s) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (hi <= lo) hi = lo + 1;
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  for (std::size_t k = 0; k < series.size(); ++k) {
    std::vector<double> sorted = series[k];
    std::sort(sorted.begin(), sorted.end());
    for (int x = 0; x < width; ++x) {
      const std::size_t idx =
          sorted.size() <= 1
              ? 0
              : static_cast<std::size_t>(
                    static_cast<double>(x) / (width - 1) *
                    static_cast<double>(sorted.size() - 1));
      const double v = sorted[idx];
      int y = static_cast<int>((v - lo) / (hi - lo) *
                               static_cast<double>(height - 1));
      y = std::min(std::max(y, 0), height - 1);
      grid[static_cast<std::size_t>(height - 1 - y)]
          [static_cast<std::size_t>(x)] = glyphs[k];
    }
  }
  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%6.2f ", hi);
  out << buf << "┐\n";
  for (const auto& row : grid) out << "       │" << row << "\n";
  std::snprintf(buf, sizeof(buf), "%6.2f ", lo);
  out << buf << "┴" << std::string(static_cast<std::size_t>(64), '-')
      << "> configs (sorted)\n";
  return out.str();
}

std::string bar(double value, double max_value, int width = 40) {
  const int n = max_value > 0
                    ? static_cast<int>(value / max_value * width + 0.5)
                    : 0;
  return std::string(static_cast<std::size_t>(std::min(n, width)), '#');
}

// ---- minimal JSON reader (inspect mode; no external dependencies) ----------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double number_or(const std::string& key, double fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  std::string string_or(const std::string& key,
                        const std::string& fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->string : fallback;
  }
};

// Strict enough for the files this repo writes; throws std::runtime_error
// with a byte offset on anything malformed.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return {};
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          // The repo's writers only emit \u00XX control escapes; decode the
          // code point as a single byte and keep anything else verbatim.
          const char* hex = text_.data() + pos_;
          unsigned code = 0;
          if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            fail("bad \\u escape");
          }
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::optional<double> number = parse_number<double>(
        std::string_view(text_).substr(start, pos_ - start));
    if (!number) fail("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = *number;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) throw std::runtime_error("read failed: " + path);
  return buf.str();
}

// ---- inspect mode ----------------------------------------------------------

// One parsed timeline row (obs::Timeline's flat schema, with strings owned).
struct TimelineRow {
  double t = 0;
  std::string kind;
  int id = -1;
  double est_bw = -1;
  double est_age = -1;
  double truth_bw = -1;
  int active = -1;
  int queued = -1;
  std::string state;
  long long images = -1;
  double bytes = -1;
};

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells.push_back(cell);
  return cells;
}

// Loads a timeline exported by wadc_run --timeline-out, in either format
// (CSV by default, JSON when the export path ended in .json).
std::vector<TimelineRow> load_timeline(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<TimelineRow> rows;

  std::size_t first = 0;
  while (first < text.size() &&
         std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  if (first < text.size() && text[first] == '{') {
    const JsonValue root = JsonParser(text).parse();
    const JsonValue* array = root.find("rows");
    if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
      throw std::runtime_error(path + ": no \"rows\" array");
    }
    for (const JsonValue& r : array->array) {
      TimelineRow row;
      row.t = r.number_or("t", 0);
      row.kind = r.string_or("kind", "");
      row.id = static_cast<int>(r.number_or("id", -1));
      row.est_bw = r.number_or("est_bw", -1);
      row.est_age = r.number_or("est_age_s", -1);
      row.truth_bw = r.number_or("truth_bw", -1);
      row.active = static_cast<int>(r.number_or("active", -1));
      row.queued = static_cast<int>(r.number_or("queued", -1));
      row.state = r.string_or("state", "");
      row.images = static_cast<long long>(r.number_or("images", -1));
      row.bytes = r.number_or("bytes", -1);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error(path + ": empty");
  const std::string expected =
      "t,kind,id,est_bw,est_age_s,truth_bw,active,queued,state,images,bytes";
  if (line != expected) {
    throw std::runtime_error(path + ": unexpected CSV header '" + line + "'");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_line(line);
    if (cells.size() != 11) {
      throw std::runtime_error(path + ": malformed CSV row '" + line + "'");
    }
    const auto num = [&](const std::string& s, double fallback) {
      if (s.empty()) return fallback;
      if (const auto v = parse_number<double>(s)) return *v;
      throw std::runtime_error(path + ": malformed CSV cell '" + s + "'");
    };
    TimelineRow row;
    row.t = num(cells[0], 0);
    row.kind = cells[1];
    row.id = static_cast<int>(num(cells[2], -1));
    row.est_bw = num(cells[3], -1);
    row.est_age = num(cells[4], -1);
    row.truth_bw = num(cells[5], -1);
    row.active = static_cast<int>(num(cells[6], -1));
    row.queued = static_cast<int>(num(cells[7], -1));
    row.state = cells[8];
    row.images = static_cast<long long>(num(cells[9], -1));
    row.bytes = num(cells[10], -1);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Digest of a --dump-run artifact. Runs executed on a non-default transport
// backend carry a "backend" field; their timestamps are scaled wall clock,
// not deterministic simulated seconds, and the digest says so instead of
// presenting them as reproducible.
void print_run_digest(const std::string& path) {
  const JsonValue root = JsonParser(read_file(path)).parse();
  const std::string backend = root.string_or("backend", "sim");
  std::printf("## Run digest\n\n");
  if (backend == "sim") {
    std::printf("backend: sim (deterministic; timestamps are simulated "
                "seconds)\n");
  } else {
    std::printf("backend: %s (wall-clock run; timestamps are scaled wall "
                "clock and vary run to run — do not diff against sim "
                "artifacts)\n",
                backend.c_str());
  }
  const JsonValue* completed = root.find("completed");
  std::printf("completed: %s\n",
              completed != nullptr && completed->boolean ? "yes" : "NO");
  std::printf("completion: %.1f %s\n",
              root.number_or("completion_seconds", 0),
              backend == "sim" ? "simulated seconds"
                               : "scaled-wall-clock seconds");
  std::printf("mean interarrival: %.2f s\n",
              root.number_or("mean_interarrival_seconds", 0));
  std::printf("replans: %lld\n",
              static_cast<long long>(root.number_or("replans", 0)));
  if (const JsonValue* relocations = root.find("relocations");
      relocations != nullptr &&
      relocations->kind == JsonValue::Kind::kArray) {
    std::printf("relocations: %zu\n", relocations->array.size());
  }
  if (const JsonValue* fs = root.find("failure_summary"); fs != nullptr) {
    std::printf("faults: %lld injected, %lld retries, %d repairs\n",
                static_cast<long long>(fs->number_or("faults_injected", 0)),
                static_cast<long long>(fs->number_or("transfer_retries", 0)),
                static_cast<int>(fs->number_or("repair_relocations", 0)));
  }
  std::printf("\n");
}

void print_host_staleness(const std::vector<TimelineRow>& rows) {
  struct HostAgg {
    int samples = 0;       // host rows seen
    int with_estimate = 0; // rows where the client held any estimate
    double age_sum = 0, age_max = 0;
    double err_sum = 0;    // relative |est - truth| / truth, truth > 0
    int err_count = 0;
    double truth_sum = 0;
    int truth_count = 0;
  };
  std::map<int, HostAgg> hosts;
  for (const TimelineRow& r : rows) {
    if (r.kind != "host") continue;
    HostAgg& h = hosts[r.id];
    ++h.samples;
    if (r.truth_bw >= 0) {
      h.truth_sum += r.truth_bw;
      ++h.truth_count;
    }
    if (r.est_bw >= 0) {
      ++h.with_estimate;
      h.age_sum += r.est_age;
      h.age_max = std::max(h.age_max, r.est_age);
      if (r.truth_bw > 0) {
        h.err_sum += std::fabs(r.est_bw - r.truth_bw) / r.truth_bw;
        ++h.err_count;
      }
    }
  }
  std::printf("## Host bandwidth estimates (client's cache vs ground "
              "truth)\n\n");
  if (hosts.empty()) {
    std::printf("no host rows in the timeline\n\n");
    return;
  }
  std::printf("host  samples  coverage  mean_age_s  max_age_s  mean_|err|  "
              "mean_truth_bw\n");
  for (const auto& [id, h] : hosts) {
    const double coverage =
        h.samples > 0 ? 100.0 * h.with_estimate / h.samples : 0;
    const double mean_age =
        h.with_estimate > 0 ? h.age_sum / h.with_estimate : 0;
    const double mean_err = h.err_count > 0 ? h.err_sum / h.err_count : 0;
    const double mean_truth =
        h.truth_count > 0 ? h.truth_sum / h.truth_count : 0;
    if (h.truth_count == 0 && h.with_estimate == 0) {
      // The client host: no client->client link, only NIC activity.
      std::printf("%-4d  %7d  (client host: NIC activity only)\n", id,
                  h.samples);
      continue;
    }
    std::printf("%-4d  %7d  %7.1f%%  %10.1f  %9.1f  %9.1f%%  %13.0f\n", id,
                h.samples, coverage, mean_age, h.age_max, 100.0 * mean_err,
                mean_truth);
  }
  std::printf("\n");
}

void print_session_summaries(const std::vector<TimelineRow>& rows) {
  struct SessionAgg {
    std::string last_state;
    long long last_images = 0;
    double last_bytes = 0;
    double first_seen = 0, last_seen = 0;
    int samples_queued = 0;
    int samples = 0;
  };
  std::map<int, SessionAgg> sessions;
  for (const TimelineRow& r : rows) {
    if (r.kind != "session") continue;
    SessionAgg& s = sessions[r.id];
    if (s.samples == 0) s.first_seen = r.t;
    ++s.samples;
    s.last_seen = r.t;
    s.last_state = r.state;
    s.last_images = r.images;
    s.last_bytes = r.bytes;
    if (r.state == "queued") ++s.samples_queued;
  }
  if (sessions.empty()) return;
  std::printf("## Sessions (timeline)\n\n");
  std::printf("session  final_state  images  bytes_moved    queued_samples  "
              "observed_s\n");
  for (const auto& [id, s] : sessions) {
    std::printf("%-7d  %-11s  %6lld  %12.0f  %14d  %10.0f\n", id,
                s.last_state.c_str(), s.last_images, s.last_bytes,
                s.samples_queued, s.last_seen - s.first_seen);
  }
  std::printf("\n");
}

// Result-cache digest: per-host hit ratios, occupancy, and the fabric
// totals (diffusions, invalidations, bytes saved). Printed only when the
// artifact carries cache.* instruments, so cache-off runs inspect exactly
// as before.
void print_cache_digest(const JsonValue& root) {
  const JsonValue* counters = root.find("counters");
  if (counters == nullptr) return;
  bool any = false;
  for (const auto& [name, v] : counters->object) {
    (void)v;
    if (name.rfind("cache.", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) return;

  const auto counter = [&](const std::string& name) {
    const JsonValue* v = counters->find(name);
    return v == nullptr ? 0.0 : v->number;
  };
  const JsonValue* gauges = root.find("gauges");
  const auto gauge_last = [&](const std::string& name) {
    if (gauges == nullptr) return 0.0;
    const JsonValue* v = gauges->find(name);
    return v == nullptr ? 0.0 : v->number_or("last", 0);
  };

  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  const double lookups = hits + misses;
  std::printf("## Result cache\n\n");
  std::printf("lookups: %.0f  (%.0f hits / %.0f misses, %.1f%% hit ratio)\n",
              lookups, hits, misses,
              lookups > 0 ? 100.0 * hits / lookups : 0.0);
  std::printf("insertions: %.0f   evictions: %.0f   diffusions: %.0f\n",
              counter("cache.insertions"), counter("cache.evictions"),
              counter("cache.diffusions"));
  std::printf("invalidated replicas: %.0f   live replicas: %.0f\n",
              counter("cache.invalidated_replicas"),
              gauge_last("cache.replicas"));
  std::printf("network bytes saved: %.0f\n\n", counter("cache.bytes_saved"));

  // Per-host rows, for every host that shows up in any cache.hostN.*
  // instrument. std::map keys iterate sorted, so hosts print in order.
  std::map<int, bool> host_ids;
  const auto collect = [&](const JsonValue* section) {
    if (section == nullptr) return;
    for (const auto& [name, v] : section->object) {
      (void)v;
      // cache.host<N>.<instrument>
      if (name.rfind("cache.host", 0) != 0) continue;
      const std::size_t digits = std::strlen("cache.host");
      const std::size_t dot = name.find('.', digits);
      const std::optional<int> id = parse_number<int>(
          std::string_view(name).substr(digits, dot - digits));
      if (id) host_ids[*id] = true;
    }
  };
  collect(counters);
  collect(gauges);
  if (host_ids.empty()) return;
  std::printf("host  hits  misses  hit_ratio  evictions  entries  bytes\n");
  for (const auto& [id, seen] : host_ids) {
    (void)seen;
    const std::string prefix = "cache.host" + std::to_string(id);
    const double h = counter(prefix + ".hits");
    const double m = counter(prefix + ".misses");
    std::printf("%-4d  %4.0f  %6.0f  %8.1f%%  %9.0f  %7.0f  %5.0f\n", id, h,
                m, h + m > 0 ? 100.0 * h / (h + m) : 0.0,
                counter(prefix + ".evictions"),
                gauge_last(prefix + ".entries"), gauge_last(prefix + ".bytes"));
  }
  std::printf("\n");
}

void print_metrics_digest(const std::string& path) {
  const JsonValue root = JsonParser(read_file(path)).parse();
  std::printf("## Metrics digest\n\n");
  if (const JsonValue* gauges = root.find("gauges");
      gauges != nullptr && !gauges->object.empty()) {
    std::printf("gauges (last / min / max / updates):\n");
    for (const auto& [name, g] : gauges->object) {
      std::printf("  %-28s %12.0f %10.0f %10.0f %10.0f\n", name.c_str(),
                  g.number_or("last", 0), g.number_or("min", 0),
                  g.number_or("max", 0), g.number_or("updates", 0));
    }
  }
  if (const JsonValue* counters = root.find("counters");
      counters != nullptr) {
    bool header = false;
    for (const auto& [name, v] : counters->object) {
      if (name.rfind("session.", 0) != 0 && name.rfind("fault.", 0) != 0 &&
          name.rfind("engine.retr", 0) != 0 &&
          name.rfind("engine.repair", 0) != 0) {
        continue;
      }
      if (!header) {
        std::printf("session/fault counters:\n");
        header = true;
      }
      std::printf("  %-28s %12.0f\n", name.c_str(), v.number);
    }
  }
  std::printf("\n");
  print_cache_digest(root);
}

// Integral values print as integers, everything else with 3 decimals —
// decision args mix host/op ids with costs and durations.
std::string format_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

int print_decision_trail(const std::string& path, int max_trail) {
  const std::string text = read_file(path);
  std::istringstream in(text);
  std::string line;
  std::map<std::string, int> counts;  // "category/action" -> count
  std::vector<std::string> trail;
  int total = 0;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue rec;
    try {
      rec = JsonParser(line).parse();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), lineno, e.what());
      return 2;
    }
    const std::string category = rec.string_or("category", "?");
    const std::string action = rec.string_or("action", "?");
    ++counts[category + "/" + action];
    ++total;
    if (static_cast<int>(trail.size()) >= max_trail) continue;
    std::ostringstream f;
    f << "  t=" << format_number(rec.number_or("t", 0)) << "  " << category
      << "/" << action;
    if (const JsonValue* session = rec.find("session");
        session != nullptr && session->number >= 0) {
      f << "  session=" << static_cast<int>(session->number);
    }
    if (const JsonValue* args = rec.find("args");
        args != nullptr && !args->object.empty()) {
      f << "  {";
      bool first = true;
      for (const auto& [k, v] : args->object) {
        if (!first) f << ", ";
        first = false;
        f << k << "=";
        if (v.kind == JsonValue::Kind::kString) {
          f << v.string;
        } else if (v.kind == JsonValue::Kind::kNumber) {
          f << format_number(v.number);
        } else if (v.kind == JsonValue::Kind::kBool) {
          f << (v.boolean ? "true" : "false");
        }
      }
      f << "}";
    }
    trail.push_back(f.str());
  }

  std::printf("## Decision audit trail\n\n");
  std::printf("%d decision record(s):\n", total);
  for (const auto& [key, n] : counts) {
    std::printf("  %-28s %6d\n", key.c_str(), n);
  }
  std::printf("\n");
  for (const std::string& entry : trail) std::printf("%s\n", entry.c_str());
  if (total > static_cast<int>(trail.size())) {
    std::printf("  ... %d more (raise --max-trail to see them)\n",
                total - static_cast<int>(trail.size()));
  }
  std::printf("\n");
  return 0;
}

constexpr const char* kUsage =
    "usage: wadc_report [--configs=N] [--out=FILE]\n"
    "       wadc_report inspect [--run=FILE] [--timeline=FILE] "
    "[--metrics=FILE] [--decisions=FILE] [--max-trail=N]\n";

// The exit code when read_flags stopped early: 0 after --help, 2 after an
// error, whose line comes first (after `prefix`).
std::optional<int> early_exit(const FlagsRead& read, const char* prefix) {
  if (read.help) {
    std::fputs(kUsage, stderr);
    return 0;
  }
  if (read.error.empty()) return std::nullopt;
  std::fprintf(stderr, "%s%s\n%s", prefix, read.error.c_str(), kUsage);
  return 2;
}

int run_inspect(int argc, char** argv) {
  std::string run_path;  // run.json from wadc_run --dump-run
  std::string timeline_path, metrics_path, decisions_path;
  int max_trail = 200;  // decision records printed in full
  const FlagsRead read =
      read_flags(std::vector<std::string_view>(argv + 2, argv + argc),
                 {path_flag("--run", run_path),
                  path_flag("--timeline", timeline_path),
                  path_flag("--metrics", metrics_path),
                  path_flag("--decisions", decisions_path),
                  number_flag("--max-trail", max_trail, 0)});
  if (const std::optional<int> rc = early_exit(read, "inspect: ")) return *rc;
  if (run_path.empty() && timeline_path.empty() && metrics_path.empty() &&
      decisions_path.empty()) {
    std::fprintf(stderr,
                 "inspect: nothing to do — pass at least one of "
                 "--run / --timeline / --metrics / --decisions\n");
    return 2;
  }

  std::printf("# wadc run inspection\n\n");
  try {
    if (!run_path.empty()) print_run_digest(run_path);
    if (!timeline_path.empty()) {
      const std::vector<TimelineRow> rows = load_timeline(timeline_path);
      print_host_staleness(rows);
      print_session_summaries(rows);
    }
    if (!metrics_path.empty()) print_metrics_digest(metrics_path);
    if (!decisions_path.empty()) {
      if (const int rc =
              print_decision_trail(decisions_path, max_trail);
          rc != 0) {
        return rc;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "inspect: %s\n", e.what());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "inspect") == 0) {
    return run_inspect(argc, argv);
  }

  int configs = 60;
  std::string out_path;  // report to stdout when empty
  const FlagsRead read =
      read_flags(std::vector<std::string_view>(argv + 1, argv + argc),
                 {number_flag("--configs", configs, 1),
                  path_flag("--out", out_path)});
  if (const std::optional<int> rc = early_exit(read, "")) return *rc;

  std::optional<OutputFile> file;
  if (!out_path.empty()) {
    try {
      file.emplace(out_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  std::ostream& out = file ? file->stream() : std::cout;

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  exp::SweepSpec sweep;
  sweep.configs = configs;
  sweep.base_seed = exp::env_seed(1000);

  const auto progress = [](int done, int total) {
    if (done % 100 == 0) {
      std::fprintf(stderr, "  ... %d/%d runs\r", done, total);
    }
  };

  out << "# wadc reproduction report\n\n";
  out << "Ranganathan, Acharya, Saltz — *Adapting to Bandwidth Variations "
         "in Wide-Area Data Combination* (ICDCS 1998)\n\n";
  out << configs << " network configurations per experiment, seed "
      << sweep.base_seed << ".\n\n";

  // ---- Figure 6 ---------------------------------------------------------
  std::fprintf(stderr, "[1/5] figure 6 ...\n");
  using core::AlgorithmKind;
  const auto fig6 = exp::run_sweep(
      library, sweep,
      {AlgorithmKind::kOneShot, AlgorithmKind::kGlobal, AlgorithmKind::kLocal},
      progress);
  out << "## Relocation speedup over download-all (Figure 6)\n\n";
  out << "```\n"
      << ascii_curves({fig6[0].speedup, fig6[2].speedup, fig6[1].speedup},
                      {'o', 'l', 'G'})
      << "   o = one-shot   l = local   G = global\n```\n\n";
  const auto s6_one = exp::stats_of(fig6[0].speedup);
  const auto s6_glo = exp::stats_of(fig6[1].speedup);
  const auto s6_loc = exp::stats_of(fig6[2].speedup);
  out << "| algorithm | mean | median | p10 | p90 |\n";
  out << "|---|---|---|---|---|\n";
  char line[256];
  const auto row = [&](const char* name, const exp::SeriesStats& s) {
    std::snprintf(line, sizeof(line),
                  "| %s | %.2fx | %.2fx | %.2fx | %.2fx |\n", name, s.mean,
                  s.median, s.p10, s.p90);
    out << line;
  };
  row("one-shot", s6_one);
  row("global", s6_glo);
  row("local", s6_loc);
  std::vector<double> ratio_g_os, ratio_g_l;
  for (std::size_t i = 0; i < fig6[1].speedup.size(); ++i) {
    ratio_g_os.push_back(fig6[1].speedup[i] / fig6[0].speedup[i]);
    ratio_g_l.push_back(fig6[1].speedup[i] / fig6[2].speedup[i]);
  }
  std::snprintf(line, sizeof(line),
                "\nmedian global/one-shot ratio **%.2f** (paper ~1.40), "
                "global/local **%.2f** (paper ~1.25)\n\n",
                trace::median_of(ratio_g_os), trace::median_of(ratio_g_l));
  out << line;

  // ---- Figure 8 ----------------------------------------------------------
  std::fprintf(stderr, "[2/5] figure 8 ...\n");
  out << "## Scaling with the number of servers (Figure 8)\n\n";
  out << "| servers | one-shot | global | local |\n|---|---|---|---|\n";
  for (const int servers : {4, 8, 16}) {
    exp::SweepSpec s = sweep;
    s.experiment.num_servers = servers;
    const auto r = exp::run_sweep(library, s,
                                  {AlgorithmKind::kOneShot,
                                   AlgorithmKind::kGlobal,
                                   AlgorithmKind::kLocal},
                                  progress);
    std::snprintf(line, sizeof(line), "| %d | %.2fx | %.2fx | %.2fx |\n",
                  servers, exp::stats_of(r[0].speedup).mean,
                  exp::stats_of(r[1].speedup).mean,
                  exp::stats_of(r[2].speedup).mean);
    out << line;
  }
  out << "\n";

  // ---- Figure 9 ----------------------------------------------------------
  std::fprintf(stderr, "[3/5] figure 9 ...\n");
  out << "## Relocation period (Figure 9)\n\n```\n";
  std::vector<std::pair<double, double>> period_points;
  for (const double minutes : {2.0, 5.0, 10.0, 30.0, 60.0}) {
    exp::SweepSpec s = sweep;
    s.experiment.relocation_period_seconds = minutes * 60;
    const auto r =
        exp::run_sweep(library, s, {AlgorithmKind::kGlobal}, progress);
    period_points.push_back({minutes, exp::stats_of(r[0].speedup).mean});
  }
  double max_speedup = 0;
  for (const auto& [m, v] : period_points) max_speedup = std::max(max_speedup, v);
  for (const auto& [m, v] : period_points) {
    std::snprintf(line, sizeof(line), "%5.0f min  %-40s %.2fx\n", m,
                  bar(v, max_speedup).c_str(), v);
    out << line;
  }
  out << "```\n\n";

  // ---- Figure 10 ---------------------------------------------------------
  std::fprintf(stderr, "[4/5] figure 10 ...\n");
  out << "## Combination order (Figure 10)\n\n";
  out << "| series | binary | left-deep |\n|---|---|---|\n";
  {
    exp::SweepSpec s = sweep;
    const auto binary = exp::run_sweep(
        library, s, {AlgorithmKind::kGlobal, AlgorithmKind::kLocal},
        progress);
    s.experiment.tree_shape = core::TreeShape::kLeftDeep;
    const auto ldeep = exp::run_sweep(
        library, s, {AlgorithmKind::kGlobal, AlgorithmKind::kLocal},
        progress);
    std::snprintf(line, sizeof(line), "| global | %.2fx | %.2fx |\n",
                  exp::stats_of(binary[0].speedup).mean,
                  exp::stats_of(ldeep[0].speedup).mean);
    out << line;
    std::snprintf(line, sizeof(line), "| local | %.2fx | %.2fx |\n",
                  exp::stats_of(binary[1].speedup).mean,
                  exp::stats_of(ldeep[1].speedup).mean);
    out << line;
  }
  out << "\n";

  // ---- extensions ---------------------------------------------------------
  std::fprintf(stderr, "[5/5] extensions ...\n");
  out << "## Extensions\n\n";
  {
    exp::SweepSpec s = sweep;
    const auto r = exp::run_sweep(
        library, s,
        {AlgorithmKind::kGlobalOrder, AlgorithmKind::kReorderOnly},
        progress);
    std::snprintf(line, sizeof(line),
                  "- adaptive order+location (`global-order`): mean "
                  "**%.2fx**\n",
                  exp::stats_of(r[0].speedup).mean);
    out << line;
    std::snprintf(line, sizeof(line),
                  "- reorder-only (query-scrambling analog): mean "
                  "**%.2fx** — §1's \"inherently limited\" claim, "
                  "quantified\n",
                  exp::stats_of(r[1].speedup).mean);
    out << line;
  }
  out << "\nSee EXPERIMENTS.md for the full-scale numbers and the "
         "paper-vs-measured discussion.\n";

  std::fprintf(stderr, "done.\n");
  if (file) {
    try {
      file->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  }
  return 0;
}
