#include "trace/bandwidth_trace.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace wadc::trace {

BandwidthTrace::BandwidthTrace(double step_seconds, std::vector<double> values,
                               double floor_bytes_per_second)
    : step_(step_seconds), values_(std::move(values)) {
  WADC_ASSERT(step_ > 0, "non-positive trace step");
  WADC_ASSERT(!values_.empty(), "empty trace");
  WADC_ASSERT(std::isfinite(floor_bytes_per_second) &&
                  floor_bytes_per_second >= 0,
              "bandwidth floor must be finite and >= 0");
  prefix_.resize(values_.size() + 1);
  prefix_[0] = 0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    WADC_ASSERT(std::isfinite(values_[i]),
                "non-finite bandwidth sample at index ", i);
    if (floor_bytes_per_second > 0) {
      values_[i] = std::max(values_[i], floor_bytes_per_second);
      WADC_DASSERT(values_[i] > 0, "clamp left a non-positive sample");
    } else {
      WADC_ASSERT(values_[i] > 0, "non-positive bandwidth sample at index ",
                  i);
    }
    prefix_[i + 1] = prefix_[i] + values_[i] * step_;
  }
}

double BandwidthTrace::at(sim::SimTime t) const {
  if (t <= 0) return values_.front();
  const auto idx = static_cast<std::size_t>(t / step_);
  if (idx >= values_.size()) return values_.back();
  return values_[idx];
}

double BandwidthTrace::integral_to(sim::SimTime t) const {
  if (t <= 0) return 0;
  const double end = duration_seconds();
  if (t >= end) return prefix_.back() + (t - end) * values_.back();
  const auto idx = static_cast<std::size_t>(t / step_);
  const double within = t - static_cast<double>(idx) * step_;
  return prefix_[idx] + values_[idx] * within;
}

sim::SimTime BandwidthTrace::finish_time(sim::SimTime t0, double bytes) const {
  WADC_ASSERT(t0 >= 0, "transfer starts before time 0");
  WADC_ASSERT(bytes >= 0, "negative transfer size");
  if (bytes == 0) return t0;
  const double target = integral_to(t0) + bytes;
  // Past the trace end bandwidth is constant, so solve directly.
  if (target >= prefix_.back()) {
    const double end = duration_seconds();
    const double base = std::max(t0, end);
    const double remaining = target - integral_to(base);
    return base + remaining / values_.back();
  }
  // The first prefix entry >= target, then interpolate within the step
  // before it. The search starts at t0's step: a transfer spans a few
  // steps, so a gallop forward brackets the entry in a handful of probes,
  // and the entry found is exactly the one a lower_bound over the whole
  // two-day prefix array returns.
  const std::size_t idx =
      first_prefix_at_least(target, static_cast<std::size_t>(t0 / step_));
  WADC_ASSERT(idx > 0 && idx < prefix_.size(), "prefix search out of range");
  const std::size_t seg = idx - 1;
  const double into = (target - prefix_[seg]) / values_[seg];
  const double finish = static_cast<double>(seg) * step_ + into;
  // The transfer cannot finish before it starts (guards float round-off).
  return std::max(finish, t0);
}

std::size_t BandwidthTrace::first_prefix_at_least(double target,
                                                  std::size_t hint) const {
  const auto first = prefix_.begin();
  const std::size_t last = prefix_.size() - 1;
  hint = std::min(hint, last);
  if (prefix_[hint] >= target) {
    // Only when rounding absorbed the whole transfer into t0's step.
    return static_cast<std::size_t>(
        std::lower_bound(first, first + static_cast<std::ptrdiff_t>(hint) + 1,
                         target) -
        first);
  }
  // Gallop: prefix_[lo] < target throughout, and the answer lies in
  // (lo, lo + span] once the loop stops (prefix_[last] > target here).
  std::size_t lo = hint;
  std::size_t span = 1;
  while (lo + span < last && prefix_[lo + span] < target) {
    lo += span;
    span *= 2;
  }
  const std::size_t hi = std::min(lo + span, last);
  return static_cast<std::size_t>(
      std::lower_bound(first + static_cast<std::ptrdiff_t>(lo) + 1,
                       first + static_cast<std::ptrdiff_t>(hi), target) -
      first);
}

double BandwidthTrace::average(sim::SimTime t0, sim::SimTime t1) const {
  WADC_ASSERT(t1 > t0, "average over empty interval");
  return (integral_to(t1) - integral_to(t0)) / (t1 - t0);
}

}  // namespace wadc::trace
