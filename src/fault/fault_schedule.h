// Deterministic fault schedules: what breaks, when, and for how long.
//
// The paper assumes perfectly reliable hosts and links; this module supplies
// the wide-area reality. A FaultSpec describes faults declaratively —
// explicit crash/blackout events, Poisson rates for randomized schedules,
// and a per-transfer drop probability — and build() expands it into a
// concrete FaultSchedule. Everything is a pure function of (spec, num_hosts,
// seed), so fault runs replay exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/types.h"

namespace wadc::fault {

// Host `host` dies at `at`; if `restart_at` is finite it comes back then.
struct HostCrash {
  net::HostId host = net::kInvalidHost;
  sim::SimTime at = 0;
  sim::SimTime restart_at = sim::kTimeInfinity;
};

// Link {a, b} is unusable during [begin, end); end may be infinite.
struct LinkBlackout {
  net::HostId a = net::kInvalidHost;
  net::HostId b = net::kInvalidHost;
  sim::SimTime begin = 0;
  sim::SimTime end = sim::kTimeInfinity;
};

// Poisson fault process parameters for randomized schedules.
struct RandomFaultParams {
  // Crash arrivals per host per hour (0 disables). While a host is down it
  // cannot crash again; the clock resumes at restart.
  double crash_rate_per_hour = 0;
  double mean_downtime_seconds = 120;

  // Blackout arrivals per link per hour (0 disables).
  double blackout_rate_per_hour = 0;
  double mean_blackout_seconds = 60;

  // Faults are generated on [0, horizon_seconds).
  double horizon_seconds = 2 * 86400.0;

  // When set, host 0 (the client) never crashes — the run can always be
  // accounted for at the client.
  bool protect_client = true;
};

// A concrete, fully-expanded schedule ready for injection.
struct FaultSchedule {
  std::vector<HostCrash> crashes;
  std::vector<LinkBlackout> blackouts;
  double drop_probability = 0;

  bool empty() const {
    return crashes.empty() && blackouts.empty() && drop_probability == 0;
  }

  // Total number of injectable events (crash + finite restart + blackout
  // begin + finite blackout end). Drop probability is a mode, not an event.
  int event_count() const;

  // Draws a randomized schedule from Poisson processes. Per-host and
  // per-link sub-streams are forked from `seed`, so the schedule for host h
  // does not depend on how many other hosts exist.
  static FaultSchedule random(const RandomFaultParams& params, int num_hosts,
                              std::uint64_t seed);
};

// The most random fault events a spec may expect to draw. A schedule is
// drawn whole before the run starts, so its cost grows with the horizon
// without limit; the benchmark's churn schedule draws about 84.
inline constexpr double kMaxRandomFaultEvents = 1'000'000;

// Declarative fault description: explicit events plus optional random rates.
// This is what rides on ExperimentSpec and what --fault-spec files parse to.
struct FaultSpec {
  std::vector<HostCrash> crashes;
  std::vector<LinkBlackout> blackouts;
  double drop_probability = 0;
  RandomFaultParams random;

  bool has_random() const {
    return random.crash_rate_per_hour > 0 || random.blackout_rate_per_hour > 0;
  }
  bool empty() const {
    return crashes.empty() && blackouts.empty() && drop_probability == 0 &&
           !has_random();
  }

  // Returns an empty string if the spec is well-formed for a run with
  // `num_hosts` hosts, otherwise a description of the first problem. A
  // spec whose random processes expect more than kMaxRandomFaultEvents
  // events over the horizon (horizon/3600 x (crash rate x crashable hosts
  // + blackout rate x host pairs)) is a problem.
  std::string validate(int num_hosts) const;

  // Expands explicit events plus (if enabled) a randomized draw into one
  // schedule. Callers should validate() first; build() asserts.
  FaultSchedule build(int num_hosts, std::uint64_t seed) const;
};

}  // namespace wadc::fault
