#include "obs/metrics.h"

#include <algorithm>

#include "common/assert.h"
#include "common/output_file.h"
#include "obs/json_util.h"

namespace wadc::obs {

void Gauge::merge_from(const Gauge& other) {
  if (other.updates_ == 0) return;
  if (updates_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  value_ = other.value_;
  updates_ += other.updates_;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  WADC_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  WADC_ASSERT(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
              "histogram bounds must be distinct");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge_from(const Histogram& other) {
  WADC_ASSERT(bounds_ == other.bounds_,
              "merging histograms with different bucket bounds");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::vector<double> exponential_buckets(double start, double factor,
                                        int count) {
  WADC_ASSERT(start > 0 && factor > 1 && count > 0,
              "bad exponential bucket spec");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).merge_from(*g);
  }
  for (const auto& [name, h] : other.histograms_) {
    auto& slot = histograms_[name];
    if (!slot) {
      slot = std::make_unique<Histogram>(*h);
    } else {
      slot->merge_from(*h);
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out.precision(17);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": " << c->value();
  }
  out << (counters_.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": {\"last\": " << g->value() << ", \"min\": " << g->min()
        << ", \"max\": " << g->max() << ", \"updates\": " << g->updates()
        << "}";
  }
  out << (gauges_.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
        << ", \"min\": " << h->min() << ", \"max\": " << h->max()
        << ", \"bounds\": [";
    for (std::size_t i = 0; i + 1 < h->num_buckets(); ++i) {
      if (i > 0) out << ",";
      out << h->upper_bound(i);
    }
    out << "], \"buckets\": [";
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      if (i > 0) out << ",";
      out << h->bucket_count(i);
    }
    out << "]}";
  }
  out << (histograms_.empty() ? "}" : "\n  }") << "\n}\n";
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  write_file(path, [this](std::ostream& out) { write_json(out); });
}

void MetricsRegistry::write_text(std::ostream& out) const {
  out.precision(17);
  for (const auto& [name, c] : counters_) {
    out << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " last=" << g->value() << " min=" << g->min()
        << " max=" << g->max() << " updates=" << g->updates() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << name << " count=" << h->count() << " sum=" << h->sum()
        << " min=" << h->min() << " max=" << h->max() << "\n";
  }
}

}  // namespace wadc::obs
