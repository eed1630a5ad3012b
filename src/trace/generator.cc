#include "trace/generator.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace wadc::trace {

const char* pair_class_name(PairClass c) {
  switch (c) {
    case PairClass::kRegional:
      return "regional";
    case PairClass::kCrossCountry:
      return "cross-country";
    case PairClass::kTransatlantic:
      return "transatlantic";
    case PairClass::kIntercontinental:
      return "intercontinental";
  }
  return "unknown";
}

TraceGenerator::TraceGenerator(const TraceGenParams& params,
                               std::uint64_t seed)
    : params_(params), seed_(seed) {
  const auto n = static_cast<std::size_t>(
      std::ceil(params_.duration_seconds / params_.step_seconds));
  WADC_ASSERT(n > 0, "trace duration shorter than one step");
  diurnal_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params_.step_seconds;
    const double hour = std::fmod(t / 3600.0, 24.0);
    diurnal_.push_back(1.0 + params_.diurnal_amplitude *
                                 std::cos(2.0 * std::numbers::pi *
                                          (hour - params_.diurnal_peak_hour) /
                                          24.0));
  }
}

double TraceGenerator::class_base(PairClass cls) const {
  switch (cls) {
    case PairClass::kRegional:
      return params_.regional_base;
    case PairClass::kCrossCountry:
      return params_.cross_country_base;
    case PairClass::kTransatlantic:
      return params_.transatlantic_base;
    case PairClass::kIntercontinental:
      return params_.intercontinental_base;
  }
  WADC_FATAL("unknown pair class");
}

BandwidthTrace TraceGenerator::generate(PairClass cls,
                                        std::uint64_t label) const {
  // Decorrelate streams across (class, label) pairs.
  Rng rng = Rng(seed_).fork(static_cast<std::uint64_t>(cls) * 0x10001 + 1)
                .fork(label);

  const std::size_t n = diurnal_.size();
  const double base =
      class_base(cls) * rng.lognormal(0.0, params_.base_sigma);

  // Level-shift process state.
  double level = rng.lognormal(0.0, params_.level_jump_sigma);
  double level_until = rng.exponential(params_.level_hold_mean_seconds);

  // Congestion episode state.
  double congestion_next = rng.exponential(
      params_.congestion_interarrival_mean_seconds);
  double congestion_until = -1.0;
  double congestion_factor = 1.0;

  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params_.step_seconds;

    if (t >= level_until) {
      level *= rng.lognormal(0.0, params_.level_jump_sigma);
      // Mean-revert gently so levels do not random-walk away from base.
      level = std::pow(level, 0.95);
      level_until = t + rng.exponential(params_.level_hold_mean_seconds);
    }

    if (congestion_until >= 0 && t >= congestion_until) {
      congestion_until = -1.0;
      congestion_factor = 1.0;
    }
    if (congestion_until < 0 && t >= congestion_next) {
      congestion_factor = rng.uniform(params_.congestion_factor_min,
                                      params_.congestion_factor_max);
      congestion_until =
          t + rng.exponential(params_.congestion_duration_mean_seconds);
      congestion_next =
          congestion_until +
          rng.exponential(params_.congestion_interarrival_mean_seconds);
    }

    const double jitter = rng.lognormal(0.0, params_.jitter_sigma);

    const double bw =
        base * level * diurnal_[i] * congestion_factor * jitter;
    values.push_back(bw);
  }

  // The floor clamp lives in the BandwidthTrace constructor so pathological
  // parameter combinations (or future model terms) can never produce a
  // trace with zero or negative bandwidth.
  return BandwidthTrace(params_.step_seconds, std::move(values),
                        params_.floor_bytes_per_second);
}

}  // namespace wadc::trace
