#include "session/session_spec.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "common/parse.h"

namespace wadc::session {

constexpr const char* kSpec = "session spec";

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kUnbounded:
      return "unbounded";
    case AdmissionPolicy::kFixedCap:
      return "cap";
    case AdmissionPolicy::kLoadShedding:
      return "shed";
    case AdmissionPolicy::kDeadlineAware:
      return "deadline";
  }
  return "?";
}

int SessionSpec::total_sessions() const {
  switch (mode) {
    case ArrivalMode::kExplicit:
      return static_cast<int>(arrivals.size());
    case ArrivalMode::kOpenLoop:
      return open_count;
    case ArrivalMode::kClosedLoop:
      return clients * queries_per_client;
  }
  return 0;
}

std::string SessionSpec::validate() const {
  const auto finite_nonneg = [](double v) { return std::isfinite(v) && v >= 0; };
  switch (mode) {
    case ArrivalMode::kExplicit: {
      if (arrivals.empty()) return "spec generates no sessions";
      std::set<int> ids;
      for (const ExplicitArrival& a : arrivals) {
        if (!finite_nonneg(a.arrival_seconds)) {
          return "session arrival time must be finite and >= 0, got " +
                 std::to_string(a.arrival_seconds);
        }
        if (!finite_nonneg(a.deadline_seconds)) {
          return "session deadline must be finite and >= 0, got " +
                 std::to_string(a.deadline_seconds);
        }
        if (a.id < 0) return "session id must be >= 0";
        if (!ids.insert(a.id).second) {
          return "duplicate session id " + std::to_string(a.id);
        }
      }
      break;
    }
    case ArrivalMode::kOpenLoop:
      if (open_count <= 0) {
        return "open-loop count must be >= 1, got " +
               std::to_string(open_count);
      }
      if (!std::isfinite(open_rate_per_hour) || open_rate_per_hour <= 0) {
        return "open-loop rate must be finite and > 0, got " +
               std::to_string(open_rate_per_hour);
      }
      break;
    case ArrivalMode::kClosedLoop:
      if (clients <= 0) {
        return "closed-loop clients must be >= 1, got " +
               std::to_string(clients);
      }
      if (queries_per_client <= 0) {
        return "closed-loop queries per client must be >= 1, got " +
               std::to_string(queries_per_client);
      }
      // total_sessions() is an int; the product must fit before anything
      // sizes a container from it.
      if (const std::int64_t sessions =
              static_cast<std::int64_t>(clients) * queries_per_client;
          sessions > std::numeric_limits<int>::max()) {
        return "closed-loop clients x queries must be <= " +
               std::to_string(std::numeric_limits<int>::max()) + ", got " +
               std::to_string(sessions);
      }
      if (!finite_nonneg(think_seconds)) {
        return "closed-loop think time must be finite and >= 0, got " +
               std::to_string(think_seconds);
      }
      break;
  }
  switch (admission.policy) {
    case AdmissionPolicy::kUnbounded:
      break;
    case AdmissionPolicy::kFixedCap:
      if (admission.max_concurrent < 1) {
        return "admission cap must be >= 1, got " +
               std::to_string(admission.max_concurrent);
      }
      break;
    case AdmissionPolicy::kLoadShedding:
      // Cap 0 is legal: every session sheds (the degenerate "serve nobody"
      // controller is a meaningful overload experiment).
      if (admission.max_concurrent < 0) {
        return "shed cap must be >= 0, got " +
               std::to_string(admission.max_concurrent);
      }
      if (admission.max_queue < 0) {
        return "shed queue bound must be >= 0, got " +
               std::to_string(admission.max_queue);
      }
      break;
    case AdmissionPolicy::kDeadlineAware:
      if (!std::isfinite(admission.deadline_seconds) ||
          admission.deadline_seconds < 0) {
        return "admission deadline must be finite and >= 0, got " +
               std::to_string(admission.deadline_seconds);
      }
      break;
  }
  return {};
}

SessionSpec SessionSpec::concurrent_clients(int n) {
  SessionSpec spec;
  spec.mode = ArrivalMode::kExplicit;
  spec.arrivals.reserve(static_cast<std::size_t>(n > 0 ? n : 0));
  for (int i = 0; i < n; ++i) {
    ExplicitArrival a;
    a.id = i;
    spec.arrivals.push_back(a);
  }
  return spec;
}

SessionSpec SessionSpec::poisson(int count, double rate_per_hour) {
  SessionSpec spec;
  spec.mode = ArrivalMode::kOpenLoop;
  spec.open_count = count;
  spec.open_rate_per_hour = rate_per_hour;
  return spec;
}

SessionSpec parse_session_spec(const std::string& text) {
  SessionSpec spec;
  bool have_explicit = false;
  bool have_open = false;
  bool have_closed = false;
  const int lines = for_each_spec_line(kSpec, text, [&](SpecLine& line) {
    const std::string keyword = line.word("keyword");
    if (keyword == "session") {
      if (have_open || have_closed) {
        line.fail("'session' cannot be combined with open/closed mode");
      }
      have_explicit = true;
      spec.mode = ArrivalMode::kExplicit;
      ExplicitArrival a;
      a.arrival_seconds = line.read<double>("arrival seconds");
      // Optional key=value tokens: id=<n>, deadline=<s>.
      while (const auto kv = line.read_key_value()) {
        if (kv->key == "id") {
          a.id = line.value<int>(*kv);
          if (a.id < 0) line.fail("session id must be >= 0");
        } else if (kv->key == "deadline") {
          a.deadline_seconds = line.value<double>(*kv);
        } else {
          line.fail("unknown session option '" + kv->key + "'");
        }
      }
      if (a.id < 0) a.id = static_cast<int>(spec.arrivals.size());
      spec.arrivals.push_back(a);
    } else if (keyword == "open") {
      if (have_explicit || have_closed || have_open) {
        line.fail("only one arrival mode may be specified");
      }
      have_open = true;
      spec.mode = ArrivalMode::kOpenLoop;
      spec.open_count = line.read<int>("session count");
      spec.open_rate_per_hour = line.read<double>("rate per hour");
    } else if (keyword == "closed") {
      if (have_explicit || have_open || have_closed) {
        line.fail("only one arrival mode may be specified");
      }
      have_closed = true;
      spec.mode = ArrivalMode::kClosedLoop;
      spec.clients = line.read<int>("client count");
      spec.queries_per_client = line.read<int>("queries per client");
      spec.think_seconds = line.read<double>("think seconds");
    } else if (keyword == "admission") {
      const std::string policy =
          line.word("'unbounded', 'cap', 'shed' or 'deadline'");
      if (policy == "unbounded") {
        spec.admission.policy = AdmissionPolicy::kUnbounded;
      } else if (policy == "cap") {
        spec.admission.policy = AdmissionPolicy::kFixedCap;
        spec.admission.max_concurrent =
            line.read<int>("max concurrent sessions");
      } else if (policy == "shed") {
        spec.admission.policy = AdmissionPolicy::kLoadShedding;
        spec.admission.max_concurrent =
            line.read<int>("max concurrent sessions");
        if (const auto max_queue = line.read_optional<int>("max queue")) {
          spec.admission.max_queue = *max_queue;
        }
      } else if (policy == "deadline") {
        spec.admission.policy = AdmissionPolicy::kDeadlineAware;
        spec.admission.deadline_seconds =
            line.read<double>("deadline seconds");
      } else {
        line.fail("unknown admission policy '" + policy + "'");
      }
    } else {
      line.fail("unknown keyword '" + keyword + "'");
    }
  });
  if (!have_explicit && !have_open && !have_closed) {
    spec_error(kSpec, lines == 0 ? 1 : lines, "spec defines no sessions");
  }
  if (const std::string problem = spec.validate(); !problem.empty()) {
    spec_error(kSpec, lines, problem);
  }
  return spec;
}

SessionSpec load_session_spec_file(const std::string& path) {
  return parse_session_spec(read_spec_file(kSpec, path));
}

}  // namespace wadc::session
