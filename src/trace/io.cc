#include "trace/io.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "common/parse.h"

namespace wadc::trace {

namespace {

constexpr const char* kSpec = "trace input";

// Reads the format one numbered line at a time, so every error names its
// line ("trace input line N: ...").
class TraceReader {
 public:
  explicit TraceReader(std::istream& in) : in_(in) {}

  // Fails unless the next line is exactly `header`.
  void expect(const std::string& header) {
    const std::string text = next(header);
    if (text != header) {
      spec_error(kSpec, line_no_,
                 "expected '" + header + "', got '" + text + "'");
    }
  }

  // The one number on the next line, after the word `what` when `keyed`.
  // Every number in the format must be positive.
  template <typename T>
  T positive(const char* what, bool keyed) {
    const std::string text = next(what);
    SpecLine line(kSpec, line_no_, text);
    if (keyed && line.word(what) != what) {
      line.fail(std::string("expected '") + what + " <value>'");
    }
    const T v = line.read_last<T>(what);
    if (v <= 0) line.fail(std::string(what) + " must be positive");
    return v;
  }

 private:
  std::string next(const std::string& context) {
    std::string text;
    if (!std::getline(in_, text)) {
      spec_error(kSpec, line_no_ + 1, "unexpected end of input at " + context);
    }
    ++line_no_;
    return text;
  }

  std::istream& in_;
  int line_no_ = 0;
};

// Counts come from the file, so nothing is reserved up front: a bogus huge
// count fails at the end of the input, not in the allocator.
BandwidthTrace read_trace(TraceReader& reader) {
  reader.expect("wadc-trace v1");
  const double step = reader.positive<double>("step", /*keyed=*/true);
  const auto samples =
      reader.positive<std::uint64_t>("samples", /*keyed=*/true);
  std::vector<double> values;
  for (std::uint64_t i = 0; i < samples; ++i) {
    values.push_back(reader.positive<double>("sample", /*keyed=*/false));
  }
  return BandwidthTrace(step, std::move(values));
}

}  // namespace

void save_trace(const BandwidthTrace& trace, std::ostream& out) {
  // max_digits10 so doubles survive the text round trip exactly.
  out.precision(17);
  out << "wadc-trace v1\n";
  out << "step " << trace.step_seconds() << "\n";
  out << "samples " << trace.sample_count() << "\n";
  for (const double v : trace.values()) out << v << "\n";
}

BandwidthTrace load_trace(std::istream& in) {
  TraceReader reader(in);
  return read_trace(reader);
}

void save_trace_set(const std::vector<BandwidthTrace>& traces,
                    std::ostream& out) {
  out << "wadc-trace-set v1\n";
  out << "count " << traces.size() << "\n";
  for (const auto& t : traces) save_trace(t, out);
}

std::vector<BandwidthTrace> load_trace_set(std::istream& in) {
  TraceReader reader(in);
  reader.expect("wadc-trace-set v1");
  const auto count = reader.positive<std::uint64_t>("count", /*keyed=*/true);
  std::vector<BandwidthTrace> traces;
  for (std::uint64_t i = 0; i < count; ++i) {
    traces.push_back(read_trace(reader));
  }
  return traces;
}

void save_trace_file(const BandwidthTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_trace(trace, out);
}

BandwidthTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace(in);
}

void save_trace_set_file(const std::vector<BandwidthTrace>& traces,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_trace_set(traces, out);
}

std::vector<BandwidthTrace> load_trace_set_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace_set(in);
}

}  // namespace wadc::trace
