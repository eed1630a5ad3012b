// Unit tests for bandwidth traces, the synthetic generator and trace stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "trace/bandwidth_trace.h"
#include "trace/generator.h"
#include "trace/library.h"
#include "trace/stats.h"

namespace wadc::trace {
namespace {

TEST(BandwidthTrace, AtReadsPiecewiseConstantSamples) {
  const BandwidthTrace tr(10.0, {100, 200, 50});
  EXPECT_DOUBLE_EQ(tr.at(0), 100);
  EXPECT_DOUBLE_EQ(tr.at(9.999), 100);
  EXPECT_DOUBLE_EQ(tr.at(10.0), 200);
  EXPECT_DOUBLE_EQ(tr.at(25.0), 50);
  EXPECT_DOUBLE_EQ(tr.at(-5.0), 100);   // before start: first sample
  EXPECT_DOUBLE_EQ(tr.at(1000.0), 50);  // past end: last sample
}

TEST(BandwidthTrace, FinishTimeWithinOneSegment) {
  const BandwidthTrace tr(10.0, {100, 200});
  // 500 bytes at 100 B/s starting at t=2 -> finishes at t=7.
  EXPECT_DOUBLE_EQ(tr.finish_time(2.0, 500.0), 7.0);
}

TEST(BandwidthTrace, FinishTimeSpansSegments) {
  const BandwidthTrace tr(10.0, {100, 200});
  // From t=5: 500 B in segment 0 (5 s), then 1000 B at 200 B/s (5 s).
  EXPECT_DOUBLE_EQ(tr.finish_time(5.0, 1500.0), 15.0);
}

TEST(BandwidthTrace, FinishTimeBeyondEndUsesLastRate) {
  const BandwidthTrace tr(10.0, {100, 200});
  // Whole trace holds 1000 + 2000 = 3000 B; 1000 more at 200 B/s.
  EXPECT_DOUBLE_EQ(tr.finish_time(0.0, 4000.0), 25.0);
  // Starting past the end entirely.
  EXPECT_DOUBLE_EQ(tr.finish_time(100.0, 400.0), 102.0);
}

TEST(BandwidthTrace, FinishTimeZeroBytesIsInstant) {
  const BandwidthTrace tr(10.0, {100});
  EXPECT_DOUBLE_EQ(tr.finish_time(3.0, 0.0), 3.0);
}

TEST(BandwidthTrace, FinishTimeExactSegmentBoundary) {
  const BandwidthTrace tr(10.0, {100, 200});
  // Exactly segment 0's capacity from t=0.
  EXPECT_DOUBLE_EQ(tr.finish_time(0.0, 1000.0), 10.0);
}

TEST(BandwidthTrace, AverageMatchesHandComputation) {
  const BandwidthTrace tr(10.0, {100, 200, 50});
  // Over [5, 25]: 5 s at 100 + 10 s at 200 + 5 s at 50 = 2750 B over 20 s.
  EXPECT_DOUBLE_EQ(tr.average(5.0, 25.0), 137.5);
}

TEST(BandwidthTrace, TransferTimeInverseOfIntegral) {
  // Property: transferring exactly average(t0,t1)*(t1-t0) bytes from t0
  // finishes at t1.
  Rng rng(17);
  std::vector<double> vals;
  for (int i = 0; i < 50; ++i) vals.push_back(rng.uniform(10, 1000));
  const BandwidthTrace tr(5.0, vals);
  for (int i = 0; i < 100; ++i) {
    const double t0 = rng.uniform(0, 200);
    const double t1 = t0 + rng.uniform(0.1, 40);
    const double bytes = tr.average(t0, t1) * (t1 - t0);
    EXPECT_NEAR(tr.finish_time(t0, bytes), t1, 1e-6);
  }
}

TEST(BandwidthTrace, FinishTimeMonotoneInBytes) {
  Rng rng(23);
  std::vector<double> vals;
  for (int i = 0; i < 30; ++i) vals.push_back(rng.uniform(10, 500));
  const BandwidthTrace tr(7.0, vals);
  double prev = tr.finish_time(3.0, 0);
  for (double bytes = 100; bytes < 50000; bytes *= 1.7) {
    const double t = tr.finish_time(3.0, bytes);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// finish_time with a binary search over the whole prefix array, as the
// trace integrator did before the search started at t0's step.
double full_search_finish_time(const BandwidthTrace& tr, double t0,
                               double bytes) {
  const std::vector<double>& v = tr.values();
  const double step = tr.step_seconds();
  std::vector<double> prefix(v.size() + 1, 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    prefix[i + 1] = prefix[i] + v[i] * step;
  }
  const auto integral_to = [&](double t) {
    if (t <= 0) return 0.0;
    const double end = tr.duration_seconds();
    if (t >= end) return prefix.back() + (t - end) * v.back();
    const auto idx = static_cast<std::size_t>(t / step);
    return prefix[idx] + v[idx] * (t - static_cast<double>(idx) * step);
  };
  if (bytes == 0) return t0;
  const double target = integral_to(t0) + bytes;
  if (target >= prefix.back()) {
    const double base = std::max(t0, tr.duration_seconds());
    return base + (target - integral_to(base)) / v.back();
  }
  const auto seg = static_cast<std::size_t>(
      std::lower_bound(prefix.begin(), prefix.end(), target) -
      prefix.begin() - 1);
  const double finish =
      static_cast<double>(seg) * step + (target - prefix[seg]) / v[seg];
  return std::max(finish, t0);
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

TEST(BandwidthTrace, FinishTimeMatchesFullPrefixSearchBitForBit) {
  Rng rng(4242);
  int crossed_end = 0;
  int many_steps = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double step = rng.bernoulli(0.5) ? 10.0 : rng.uniform(0.5, 30);
    const std::size_t n = 1 + rng.next_below(400);
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly realistic rates, some so small that a step adds almost
      // nothing to the prefix sum.
      values.push_back(rng.bernoulli(0.05) ? rng.uniform(1e-9, 1e-3)
                                           : rng.uniform(1e3, 1e6));
    }
    const BandwidthTrace tr(step, values);
    const double duration = tr.duration_seconds();
    for (int call = 0; call < 400; ++call) {
      double t0 = rng.uniform(0, duration * 1.1);
      if (rng.bernoulli(0.1)) {  // exactly on a step boundary
        t0 = step * static_cast<double>(rng.next_below(n + 1));
      }
      double bytes = 0;
      switch (rng.next_below(4)) {
        case 0:
          bytes = rng.uniform(0, 2e5);
          break;
        case 1:
          bytes = rng.uniform(1e5, 1e8);
          break;
        case 2:
          bytes = rng.uniform(0, 1e-6);
          break;
        default:
          bytes = rng.uniform(0, 1e10);  // usually past the end
          break;
      }
      const double got = tr.finish_time(t0, bytes);
      const double want = full_search_finish_time(tr, t0, bytes);
      ASSERT_TRUE(same_bits(got, want))
          << "trial " << trial << " t0=" << t0 << " bytes=" << bytes
          << " got " << got << " want " << want;
      if (got > duration) ++crossed_end;
      if (got - t0 > 8 * step) ++many_steps;
    }
  }
  EXPECT_GT(crossed_end, 0);
  EXPECT_GT(many_steps, 0);
}

TEST(BandwidthTrace, RejectsNonPositiveSamples) {
  EXPECT_DEATH(BandwidthTrace(10.0, {100, 0, 50}), "non-positive");
}

TEST(BandwidthTrace, RejectsEmpty) {
  EXPECT_DEATH(BandwidthTrace(10.0, {}), "empty");
}

// ---- floor clamp (hardening against zero/negative samples) -----------------

TEST(BandwidthTrace, FloorClampsNonPositiveSamples) {
  // With a positive floor, zero and negative samples (e.g. failed probes in
  // an ingested trace) are clamped up instead of tripping the assert.
  const BandwidthTrace tr(10.0, {0.0, -25.0, 100.0}, 1.0);
  EXPECT_DOUBLE_EQ(tr.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.at(20.0), 100.0);
  // The regression this guards: a zero-bandwidth segment used to make
  // finish_time divide by zero / never terminate. Clamped, it stays finite
  // and monotone.
  double prev = 0.0;
  for (double bytes = 1; bytes < 2000; bytes *= 3) {
    const double t = tr.finish_time(0.0, bytes);
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(BandwidthTrace, FloorLeavesSamplesAboveItAlone) {
  const BandwidthTrace tr(10.0, {100.0, 200.0}, 50.0);
  EXPECT_DOUBLE_EQ(tr.at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(tr.at(10.0), 200.0);
}

TEST(BandwidthTrace, ZeroFloorKeepsStrictValidation) {
  // floor == 0 (the default) is the pre-existing strict contract.
  EXPECT_DEATH(BandwidthTrace(10.0, {100.0, 0.0}, 0.0), "non-positive");
}

TEST(BandwidthTrace, RejectsBadFloor) {
  EXPECT_DEATH(BandwidthTrace(10.0, {100.0}, -1.0), "floor");
  EXPECT_DEATH(BandwidthTrace(10.0, {100.0},
                              std::numeric_limits<double>::infinity()),
               "floor");
}

// ---- generator --------------------------------------------------------------

TEST(TraceGenerator, DeterministicInSeedAndLabel) {
  const TraceGenParams params;
  const TraceGenerator gen_a(params, 42);
  const TraceGenerator gen_b(params, 42);
  const auto t1 = gen_a.generate(PairClass::kCrossCountry, 3);
  const auto t2 = gen_b.generate(PairClass::kCrossCountry, 3);
  EXPECT_EQ(t1.values(), t2.values());
}

TEST(TraceGenerator, DifferentLabelsDiffer) {
  const TraceGenerator gen(TraceGenParams{}, 42);
  const auto t1 = gen.generate(PairClass::kCrossCountry, 1);
  const auto t2 = gen.generate(PairClass::kCrossCountry, 2);
  EXPECT_NE(t1.values(), t2.values());
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  const auto t1 = TraceGenerator(TraceGenParams{}, 1).generate(
      PairClass::kRegional, 0);
  const auto t2 = TraceGenerator(TraceGenParams{}, 2).generate(
      PairClass::kRegional, 0);
  EXPECT_NE(t1.values(), t2.values());
}

TEST(TraceGenerator, CoversRequestedDuration) {
  TraceGenParams params;
  params.duration_seconds = 3600;
  params.step_seconds = 30;
  const auto tr =
      TraceGenerator(params, 7).generate(PairClass::kRegional, 0);
  EXPECT_EQ(tr.sample_count(), 120u);
  EXPECT_DOUBLE_EQ(tr.duration_seconds(), 3600);
}

TEST(TraceGenerator, RespectsFloor) {
  TraceGenParams params;
  params.floor_bytes_per_second = 500;
  const TraceGenerator gen(params, 11);
  for (const auto cls :
       {PairClass::kRegional, PairClass::kIntercontinental}) {
    const auto tr = gen.generate(cls, 0);
    for (const double v : tr.values()) EXPECT_GE(v, 500.0);
  }
}

TEST(TraceGenerator, ClassMediansAreOrdered) {
  const TraceGenerator gen(TraceGenParams{}, 5);
  auto median_over_labels = [&](PairClass cls) {
    std::vector<double> medians;
    for (std::uint64_t label = 0; label < 12; ++label) {
      medians.push_back(summarize(gen.generate(cls, label)).median);
    }
    return median_of(std::move(medians));
  };
  const double regional = median_over_labels(PairClass::kRegional);
  const double cross = median_over_labels(PairClass::kCrossCountry);
  const double transatlantic = median_over_labels(PairClass::kTransatlantic);
  const double intercontinental =
      median_over_labels(PairClass::kIntercontinental);
  EXPECT_GT(regional, cross);
  EXPECT_GT(cross, transatlantic);
  EXPECT_GT(transatlantic, intercontinental);
}

// The paper's calibration anchor: expected time between significant (>=10%)
// bandwidth changes is about two minutes (§4). Parameterized over classes.
class CalibrationTest : public ::testing::TestWithParam<PairClass> {};

TEST_P(CalibrationTest, SignificantChangeIntervalNearTwoMinutes) {
  const TraceGenerator gen(TraceGenParams{}, 2026);
  std::vector<double> intervals;
  for (std::uint64_t label = 0; label < 8; ++label) {
    intervals.push_back(mean_time_between_significant_changes(
        gen.generate(GetParam(), label), 0.10));
  }
  const double mean = mean_of(intervals);
  EXPECT_GT(mean, 40.0) << "changes implausibly frequent";
  EXPECT_LT(mean, 300.0) << "changes implausibly rare";
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, CalibrationTest,
    ::testing::Values(PairClass::kRegional, PairClass::kCrossCountry,
                      PairClass::kTransatlantic,
                      PairClass::kIntercontinental),
    [](const auto& info) {
      std::string name = pair_class_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(TraceGenerator, HasPersistentCongestionEpisodes) {
  // Over a two-day trace there should be windows where the 10-minute mean
  // drops well below the overall median — the persistent changes on-line
  // relocation exploits.
  const TraceGenerator gen(TraceGenParams{}, 9);
  int traces_with_episode = 0;
  for (std::uint64_t label = 0; label < 10; ++label) {
    const auto tr = gen.generate(PairClass::kCrossCountry, label);
    const double med = summarize(tr).median;
    for (double t = 0; t + 600 <= tr.duration_seconds(); t += 600) {
      if (tr.average(t, t + 600) < 0.5 * med) {
        ++traces_with_episode;
        break;
      }
    }
  }
  EXPECT_GE(traces_with_episode, 5);
}

// ---- library ----------------------------------------------------------------

TEST(TraceLibrary, HoldsConfiguredMix) {
  TraceLibraryParams params;
  params.regional = 3;
  params.cross_country = 4;
  params.transatlantic = 2;
  params.intercontinental = 1;
  const TraceLibrary lib(params, 1);
  EXPECT_EQ(lib.size(), 10u);
  EXPECT_EQ(lib.trace_class(0), PairClass::kRegional);
  EXPECT_EQ(lib.trace_class(3), PairClass::kCrossCountry);
  EXPECT_EQ(lib.trace_class(7), PairClass::kTransatlantic);
  EXPECT_EQ(lib.trace_class(9), PairClass::kIntercontinental);
}

// Pins every sample of the library the benchmarks and sweeps build: an
// FNV-1a hash over each trace's step and the bit pattern of each value. A
// change to how the generator computes a sample — even one that moves only
// the last bit of a double — changes the hash.
TEST(TraceLibrary, DefaultLibrarySamplesArePinned) {
  const TraceLibrary lib(TraceLibraryParams{}, 2026);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  std::size_t samples = 0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const BandwidthTrace& tr = lib.trace(i);
    mix(tr.step_seconds());
    for (const double v : tr.values()) mix(v);
    samples += tr.sample_count();
  }
  EXPECT_EQ(lib.size(), 56u);
  EXPECT_EQ(samples, 56u * 17280u);
  EXPECT_EQ(hash, 0x4d0319c6f58daab0ull) << std::hex << hash;
}

TEST(TraceLibrary, SampleIndexCoversPool) {
  const TraceLibrary lib(TraceLibraryParams{}, 1);
  Rng rng(4);
  std::vector<int> hits(lib.size(), 0);
  for (int i = 0; i < 4000; ++i) ++hits[lib.sample_index(rng)];
  for (const int h : hits) EXPECT_GT(h, 0);
}

// ---- stats helpers ----------------------------------------------------------

TEST(Stats, MeanMedianPercentile) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(mean_of(xs), 3.0);
  EXPECT_DOUBLE_EQ(median_of(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 3.0);
}

TEST(Stats, MedianOfEvenCountInterpolates) {
  EXPECT_DOUBLE_EQ(median_of({1, 2, 3, 4}), 2.5);
}

TEST(Stats, StddevMatchesHandComputation) {
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  EXPECT_NEAR(stddev_of({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0),
              1e-12);
}

TEST(Stats, SignificantChangesCountedAgainstReference) {
  // 100 -> 105 (5%, no) -> 111 (11% vs 100, yes) -> 112 (no) -> 130 (yes).
  const BandwidthTrace tr(10.0, {100, 105, 111, 112, 130});
  // Changes at t=20 and t=40; intervals {20, 20}.
  EXPECT_DOUBLE_EQ(mean_time_between_significant_changes(tr, 0.10), 20.0);
}

TEST(Stats, NoSignificantChangesReturnsDuration) {
  const BandwidthTrace tr(10.0, {100, 101, 102, 101});
  EXPECT_DOUBLE_EQ(mean_time_between_significant_changes(tr, 0.10), 40.0);
}

}  // namespace
}  // namespace wadc::trace
