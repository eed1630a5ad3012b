// Piecewise-constant application-level bandwidth traces.
//
// The paper drives its simulation with two-day Internet bandwidth traces
// measured by repeated 16KB TCP round-trips (§1, §4). A trace here is the
// same object: a sequence of application-level bandwidth samples at a fixed
// cadence, interpreted as piecewise-constant bandwidth in bytes/second.
#pragma once

#include <vector>

#include "sim/types.h"

namespace wadc::trace {

class BandwidthTrace {
 public:
  // `step_seconds` is the sampling cadence; `values` are bandwidths in
  // bytes/second. With `floor_bytes_per_second` == 0 (the default) every
  // sample must already be strictly positive (hard assert). A positive
  // floor instead clamps zero/negative/sub-floor samples up to the floor —
  // use this when ingesting externally-measured traces that may contain
  // probe failures recorded as 0 — and a debug assert double-checks the
  // clamped values.
  BandwidthTrace(double step_seconds, std::vector<double> values,
                 double floor_bytes_per_second = 0);

  double step_seconds() const { return step_; }
  std::size_t sample_count() const { return values_.size(); }
  double duration_seconds() const {
    return step_ * static_cast<double>(values_.size());
  }

  // Bandwidth at time t. Before the trace start, the first sample; past the
  // end, the last sample.
  double at(sim::SimTime t) const;

  // Time at which a transfer of `bytes` beginning at `t0` finishes, i.e. the
  // earliest t with integral of bandwidth over [t0, t] == bytes. Bandwidth
  // changes mid-transfer are honored exactly.
  sim::SimTime finish_time(sim::SimTime t0, double bytes) const;

  // Average bandwidth over [t0, t1] (t1 > t0).
  double average(sim::SimTime t0, sim::SimTime t1) const;

  const std::vector<double>& values() const { return values_; }

 private:
  // Integral of bandwidth over [0, t].
  double integral_to(sim::SimTime t) const;
  // Index of the first prefix_ entry >= target (target < prefix_.back()),
  // searched outward from prefix_[hint].
  std::size_t first_prefix_at_least(double target, std::size_t hint) const;

  double step_;
  std::vector<double> values_;
  std::vector<double> prefix_;  // prefix_[i] = integral over first i steps
};

}  // namespace wadc::trace
