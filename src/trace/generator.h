// Synthetic wide-area bandwidth trace generation.
//
// Substitution (see DESIGN.md §2): the paper drove its simulation with
// bandwidth traces measured over two-day periods between US, European and
// Brazilian hosts. We synthesize traces with the same statistical character
// the paper reports and relies on:
//   - app-level bandwidths measured with 16KB round-trips (tens to hundreds
//     of KB/s across host-pair classes, late-1990s Internet);
//   - the expected time between significant (>= 10%) bandwidth changes is
//     about 2 minutes (§4, the basis for the T_thres = 40 s cache timeout);
//   - persistent congestion episodes and diurnal drift, which are what makes
//     *re*-location (not just initial placement) worthwhile.
//
// The model per trace: a base rate drawn from a pair-class distribution, a
// level-shift process (levels hold for ~Exponential(2 min), then jump by a
// lognormal factor), small per-sample jitter, a diurnal modulation, and
// Poisson congestion episodes that multiply bandwidth down for minutes at a
// time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/bandwidth_trace.h"

namespace wadc::trace {

// Host-pair classes, mirroring the geographic spread of the paper's study
// (US east/west/midwest/south, Spain, France, Austria, Brazil).
enum class PairClass {
  kRegional,          // same region, e.g. east-coast to east-coast
  kCrossCountry,      // e.g. Wisconsin to UCLA (the paper's Figure 2 pair)
  kTransatlantic,     // US to Spain/France/Austria
  kIntercontinental,  // e.g. US to Brazil; heavily congested
};

const char* pair_class_name(PairClass c);

struct TraceGenParams {
  double step_seconds = 10.0;          // probe cadence
  double duration_seconds = 2 * 86400; // two-day traces, as in the paper

  // Median base bandwidth per class, bytes/second. Calibrated to late-1990s
  // application-level TCP throughput on 16KB messages (the paper's probe):
  // a few hundred KB/s within a region, tens of KB/s across the US, and
  // single-digit KB/s to heavily congested international hosts.
  double regional_base = 200e3;
  double cross_country_base = 60e3;
  double transatlantic_base = 20e3;
  double intercontinental_base = 6e3;
  // Log-sigma of the base-rate draw across traces of one class.
  double base_sigma = 0.35;

  // Level-shift process: expected level duration (the paper's "expected
  // time between significant changes"), and log-sigma of the jump factor.
  double level_hold_mean_seconds = 120.0;
  double level_jump_sigma = 0.25;

  // Per-sample multiplicative jitter (log-sigma).
  double jitter_sigma = 0.02;

  // Diurnal modulation amplitude (0 disables) and peak-bandwidth hour.
  double diurnal_amplitude = 0.25;
  double diurnal_peak_hour = 3.0;  // night-time is fast

  // Congestion episodes: Poisson interarrival mean, duration mean, and the
  // range of the multiplicative slowdown factor. These are the persistent
  // changes (Figure 2's character) that make *on-line* relocation pay off
  // over a one-time placement.
  double congestion_interarrival_mean_seconds = 2400.0;
  double congestion_duration_mean_seconds = 600.0;
  double congestion_factor_min = 0.1;
  double congestion_factor_max = 0.4;

  // Hard floor so transfers always make progress.
  double floor_bytes_per_second = 500.0;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(const TraceGenParams& params, std::uint64_t seed);

  // Generates the trace for a (class, label) pair. The output is a pure
  // function of (params, seed, cls, label).
  BandwidthTrace generate(PairClass cls, std::uint64_t label) const;

  const TraceGenParams& params() const { return params_; }

 private:
  double class_base(PairClass cls) const;

  TraceGenParams params_;
  std::uint64_t seed_;
  // Diurnal modulation factor per sample index. It depends only on the
  // sample's time, so every trace shares one table.
  std::vector<double> diurnal_;
};

}  // namespace wadc::trace
