// Session workload specifications for the multi-client session runtime
// (wadc_run --sessions-spec=FILE / --num-clients=N).
//
// Line-oriented text format; '#' starts a comment, blank lines are ignored.
// Times are simulated seconds. Exactly one arrival mode must be given:
//
//   session <arrival_seconds> [id=<n>] [deadline=<s>]
//                                            # one explicit query session;
//                                            # id must be unique, deadline
//                                            # overrides the default below
//   open <count> <rate_per_hour>             # Poisson open-loop arrivals
//   closed <clients> <queries> <think_s>     # closed loop: each client runs
//                                            # <queries> sessions back to
//                                            # back with <think_s> think time
//   admission unbounded                      # default: admit immediately
//   admission cap <max_concurrent>           # FIFO queue beyond the cap
//   admission shed <max_concurrent> [max_queue]
//                                            # load shedding: queue at most
//                                            # max_queue (default 0) behind
//                                            # the cap, reject the rest
//   admission deadline <deadline_s>          # reject sessions whose
//                                            # predicted response exceeds
//                                            # their deadline (default
//                                            # <deadline_s>, overridable
//                                            # per session line)
//
// Parse errors throw std::runtime_error with the offending line number;
// wadc_run turns that into exit code 2, like the fault-spec path.
#pragma once

#include <string>
#include <vector>

namespace wadc::session {

// How the admission controller treats an arriving session. The first two
// are the original policies; the last two are the overload-control
// policies (docs/SESSIONS.md "Overload control"), which decide which
// sessions run at all.
enum class AdmissionPolicy {
  kUnbounded,      // start every session the moment it arrives
  kFixedCap,       // at most max_concurrent running; FIFO queue beyond
  kLoadShedding,   // cap + bounded queue; beyond both, shed (reject)
  kDeadlineAware,  // shed sessions predicted to miss their deadline
};

const char* admission_policy_name(AdmissionPolicy policy);

struct AdmissionParams {
  AdmissionPolicy policy = AdmissionPolicy::kUnbounded;
  int max_concurrent = 4;  // kFixedCap / kLoadShedding
  int max_queue = 0;       // kLoadShedding FIFO room behind the cap
  // kDeadlineAware default per-session response deadline, seconds. 0 means
  // "no deadline": sessions without an explicit per-session deadline are
  // always admitted.
  double deadline_seconds = 0;
};

// How query sessions arrive.
enum class ArrivalMode {
  kExplicit,    // arrival times listed in the spec
  kOpenLoop,    // seeded Poisson arrivals, fixed count
  kClosedLoop,  // N clients, each issuing its next query one think time
                // after the previous one completes
};

// One explicit `session` line: arrival time plus optional stable id and
// per-session deadline (0 = use AdmissionParams::deadline_seconds).
struct ExplicitArrival {
  double arrival_seconds = 0;
  int id = -1;                  // unique across the spec; -1 = line ordinal
  double deadline_seconds = 0;  // 0 = default
};

struct SessionSpec {
  ArrivalMode mode = ArrivalMode::kExplicit;

  std::vector<ExplicitArrival> arrivals;  // kExplicit

  int open_count = 0;  // kOpenLoop
  double open_rate_per_hour = 0;

  int clients = 0;  // kClosedLoop
  int queries_per_client = 0;
  double think_seconds = 0;

  AdmissionParams admission;

  // Sessions the spec will generate in total.
  int total_sessions() const;

  // Empty string if usable, else a description of the first problem found
  // (the SessionManager asserts this; wadc_run turns it into exit code 2).
  std::string validate() const;

  // N sessions all arriving at t=0, unbounded admission — the shape behind
  // wadc_run --num-clients.
  static SessionSpec concurrent_clients(int n);

  // N open-loop Poisson sessions at `rate_per_hour` — the shape behind the
  // capacity-study ramp harness (bench/ext_capacity).
  static SessionSpec poisson(int count, double rate_per_hour);
};

// Parses the format above from a string.
SessionSpec parse_session_spec(const std::string& text);

// Reads and parses a file; throws std::runtime_error if unreadable.
SessionSpec load_session_spec_file(const std::string& path);

}  // namespace wadc::session
