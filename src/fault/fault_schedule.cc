#include "fault/fault_schedule.h"

#include <cmath>
#include <cstdio>

#include "common/assert.h"
#include "common/rng.h"

namespace wadc::fault {
namespace {

// Fork labels for per-entity sub-streams. Arbitrary constants; fixed so a
// schedule is a pure function of (spec, num_hosts, seed).
constexpr std::uint64_t kCrashStream = 0xc4a5'0000'0000'0000ULL;
constexpr std::uint64_t kBlackoutStream = 0xb1ac'0000'0000'0000ULL;

// An event count for a message: whole below a trillion, else in e-notation.
std::string count_text(double n) {
  char buf[32];
  std::snprintf(buf, sizeof buf, n < 1e12 ? "%.0f" : "%.3g", n);
  return buf;
}

}  // namespace

int FaultSchedule::event_count() const {
  int n = 0;
  for (const HostCrash& c : crashes) {
    ++n;
    if (c.restart_at != sim::kTimeInfinity) ++n;
  }
  for (const LinkBlackout& b : blackouts) {
    ++n;
    if (b.end != sim::kTimeInfinity) ++n;
  }
  return n;
}

FaultSchedule FaultSchedule::random(const RandomFaultParams& params,
                                    int num_hosts, std::uint64_t seed) {
  WADC_ASSERT(num_hosts >= 2, "need at least two hosts");
  WADC_ASSERT(params.horizon_seconds > 0, "non-positive fault horizon");
  FaultSchedule schedule;
  const Rng base(seed);

  if (params.crash_rate_per_hour > 0) {
    WADC_ASSERT(params.mean_downtime_seconds > 0, "non-positive downtime");
    const double mean_gap = 3600.0 / params.crash_rate_per_hour;
    const net::HostId first = params.protect_client ? 1 : 0;
    for (net::HostId h = first; h < num_hosts; ++h) {
      Rng rng = base.fork(kCrashStream + static_cast<std::uint64_t>(h));
      sim::SimTime t = 0;
      for (;;) {
        t += rng.exponential(mean_gap);
        if (t >= params.horizon_seconds) break;
        const double down = rng.exponential(params.mean_downtime_seconds);
        schedule.crashes.push_back(HostCrash{h, t, t + down});
        t += down;  // a dead host cannot crash again until it restarts
      }
    }
  }

  if (params.blackout_rate_per_hour > 0) {
    WADC_ASSERT(params.mean_blackout_seconds > 0, "non-positive blackout");
    const double mean_gap = 3600.0 / params.blackout_rate_per_hour;
    for (net::HostId a = 0; a < num_hosts; ++a) {
      for (net::HostId b = a + 1; b < num_hosts; ++b) {
        Rng rng = base.fork(kBlackoutStream +
                            net::pair_index(a, b, num_hosts));
        sim::SimTime t = 0;
        for (;;) {
          t += rng.exponential(mean_gap);
          if (t >= params.horizon_seconds) break;
          const double len = rng.exponential(params.mean_blackout_seconds);
          schedule.blackouts.push_back(LinkBlackout{a, b, t, t + len});
          t += len;
        }
      }
    }
  }

  return schedule;
}

std::string FaultSpec::validate(int num_hosts) const {
  const auto bad_host = [num_hosts](net::HostId h) {
    return h < 0 || h >= num_hosts;
  };
  for (const HostCrash& c : crashes) {
    if (bad_host(c.host)) {
      return "crash host " + std::to_string(c.host) +
             " out of range [0, " + std::to_string(num_hosts) + ")";
    }
    if (!(c.at >= 0)) return "crash time must be >= 0";
    if (!(c.restart_at > c.at)) {
      return "restart time must be after the crash time";
    }
  }
  for (const LinkBlackout& b : blackouts) {
    if (bad_host(b.a) || bad_host(b.b) || b.a == b.b) {
      return "blackout link {" + std::to_string(b.a) + ", " +
             std::to_string(b.b) + "} is not a valid host pair";
    }
    if (!(b.begin >= 0)) return "blackout begin must be >= 0";
    if (!(b.end > b.begin)) return "blackout end must be after its begin";
  }
  if (!(drop_probability >= 0 && drop_probability <= 1)) {
    return "drop probability must be in [0, 1], got " +
           std::to_string(drop_probability);
  }
  if (random.crash_rate_per_hour < 0 || random.blackout_rate_per_hour < 0) {
    return "fault rates must be >= 0";
  }
  if (has_random()) {
    if (!(random.horizon_seconds > 0)) {
      return "fault horizon must be > 0 when random rates are set";
    }
    if (random.crash_rate_per_hour > 0 &&
        !(random.mean_downtime_seconds > 0)) {
      return "mean downtime must be > 0";
    }
    if (random.blackout_rate_per_hour > 0 &&
        !(random.mean_blackout_seconds > 0)) {
      return "mean blackout length must be > 0";
    }
    const double crashable = num_hosts - (random.protect_client ? 1 : 0);
    const double pairs = static_cast<double>(num_hosts) * (num_hosts - 1) / 2;
    const double expected =
        random.horizon_seconds / 3600 *
        (random.crash_rate_per_hour * crashable +
         random.blackout_rate_per_hour * pairs);
    if (!(expected <= kMaxRandomFaultEvents)) {
      return "random faults would draw about " + count_text(expected) +
             " events over the horizon, more than the bound of " +
             count_text(kMaxRandomFaultEvents);
    }
  }
  return {};
}

FaultSchedule FaultSpec::build(int num_hosts, std::uint64_t seed) const {
  const std::string problem = validate(num_hosts);
  WADC_ASSERT(problem.empty(), "bad FaultSpec: ", problem);
  FaultSchedule schedule;
  schedule.crashes = crashes;
  schedule.blackouts = blackouts;
  schedule.drop_probability = drop_probability;
  if (has_random()) {
    FaultSchedule drawn = FaultSchedule::random(random, num_hosts, seed);
    schedule.crashes.insert(schedule.crashes.end(), drawn.crashes.begin(),
                            drawn.crashes.end());
    schedule.blackouts.insert(schedule.blackouts.end(),
                              drawn.blackouts.begin(), drawn.blackouts.end());
  }
  return schedule;
}

}  // namespace wadc::fault
