// Extension: saturation capacity of the session runtime under overload
// control. An open-loop Poisson source ramps the arrival rate (doubling per
// step) over one shared network and the harness compares admission policies:
// unbounded admission, load shedding and deadline-aware rejection. For each
// (policy, rate) cell it reports goodput (completed sessions per simulated
// hour), the p95 response time of *admitted* sessions, and the shed
// fraction — the saturation curves of EXPERIMENTS.md — and writes them as
// JSON (default BENCH_ext_capacity.json, deterministic for any --jobs
// value).
//
// The ramp is anchored to the measured unloaded response time: a solo
// baseline run per configuration yields the unloaded mean/p95, the first
// ramp step offers ~0.5 sessions of concurrent demand, and each step
// doubles the rate. Saturation is the first rate where unbounded p95
// exceeds 2x the unloaded p95; the ramp extends far enough that its top
// rates are >= 4x saturation, where shedding and deadline admission should
// hold the p95 of admitted sessions near unloaded while unbounded does not.
//
// --fault-spec=FILE composes a fault schedule (docs/FAULTS.md) into every
// run, making overload-during-faults a first-class scenario. Extra
// environment knobs for short CI ramps: WADC_CAPACITY_SESSIONS (arrivals
// per run), WADC_CAPACITY_STEPS (ramp steps).
#include <cstdio>
#include <exception>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "common/output_file.h"
#include "common/parse.h"
#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "fault/spec_io.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"
#include "trace/stats.h"

namespace {

// One admission policy under test.
struct PolicyUnderTest {
  const char* name;
  wadc::session::AdmissionParams admission;
};

// Per-(policy, rate) point of a saturation curve, averaged over the
// configurations.
struct CurvePoint {
  double rate_per_hour = 0;
  double goodput_per_hour = 0;
  double p95_response_seconds = 0;
  double shed_fraction = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wadc;

  std::string fault_spec_path;
  std::string curves_out = "BENCH_ext_capacity.json";
  exp::BenchHarness bench(
      argc, argv, "ext_capacity",
      {{path_flag("--out", curves_out),
        "  --out=FILE         saturation-curve JSON (default "
        "BENCH_ext_capacity.json)"},
       {path_flag("--fault-spec", fault_spec_path),
        "  --fault-spec=FILE  compose a fault schedule into every run "
        "(docs/FAULTS.md)"}});

  fault::FaultSpec fault;
  if (!fault_spec_path.empty()) {
    try {
      fault = fault::load_fault_spec_file(fault_spec_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ext_capacity: %s\n", e.what());
      return 2;
    }
  }

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  const int configs = exp::env_configs(4);
  const std::uint64_t base_seed = exp::env_seed(1000);
  const int sessions =
      env_number<int>("WADC_CAPACITY_SESSIONS", 1).value_or(24);
  const int steps = env_number<int>("WADC_CAPACITY_STEPS", 1).value_or(6);
  const int jobs = exp::resolve_jobs(bench.jobs());

  const auto make_spec = [&](int c) {
    exp::ExperimentSpec spec;
    spec.algorithm = core::AlgorithmKind::kGlobal;
    spec.num_servers = 5;
    spec.iterations = 30;
    spec.relocation_period_seconds = 300;
    spec.config_seed = base_seed + static_cast<std::uint64_t>(c);
    spec.fault = fault;
    return spec;
  };

  std::printf("=== Extension: saturation capacity under overload control, "
              "%d configurations per cell ===\n\n",
              configs);

  // ---- unloaded baseline: one solo session per configuration -------------
  std::vector<session::SessionStats> solo(static_cast<std::size_t>(configs));
  exp::parallel_for(configs, jobs, [&](int c) {
    solo[static_cast<std::size_t>(c)] = exp::run_session_experiment(
        library, make_spec(c), session::SessionSpec::concurrent_clients(1));
  });
  std::vector<double> solo_responses;
  solo_responses.reserve(static_cast<std::size_t>(configs));
  for (const session::SessionStats& st : solo) {
    solo_responses.push_back(st.mean_response_seconds());
  }
  bench.add_runs(configs);
  const double unloaded_mean = trace::mean_of(solo_responses);
  const double unloaded_p95 = trace::percentile_of(solo_responses, 95.0);
  std::printf("unloaded response: mean %.1f s, p95 %.1f s "
              "(%d solo sessions)\n\n",
              unloaded_mean, unloaded_p95, configs);

  // ---- the ramp: arrival rates anchored to the unloaded service time -----
  // Step 0 offers ~0.5 concurrent sessions of demand; each step doubles it.
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(steps));
  const double rate0 = 1800.0 / unloaded_mean;  // sessions per hour
  for (int k = 0; k < steps; ++k) {
    rates.push_back(rate0 * static_cast<double>(1 << k));
  }

  std::vector<PolicyUnderTest> policies;
  {
    PolicyUnderTest p;
    p.name = "unbounded";
    p.admission.policy = session::AdmissionPolicy::kUnbounded;
    policies.push_back(p);

    // One at a time, no queue: the classic loss system. Two concurrent
    // sessions split the same client NIC and each take twice as long, so
    // cap 1 gives the same goodput with an unloaded-shaped response tail.
    p = PolicyUnderTest{};
    p.name = "shed";
    p.admission.policy = session::AdmissionPolicy::kLoadShedding;
    p.admission.max_concurrent = 1;
    p.admission.max_queue = 0;
    policies.push_back(p);

    p = PolicyUnderTest{};
    p.name = "deadline";
    p.admission.policy = session::AdmissionPolicy::kDeadlineAware;
    p.admission.deadline_seconds = 1.6 * unloaded_p95;
    policies.push_back(p);
  }
  const int num_policies = static_cast<int>(policies.size());

  // Every (policy, rate, configuration) cell is an independent session run;
  // results land in index-keyed slots so output is byte-identical for any
  // worker count.
  const int total = num_policies * steps * configs;
  std::vector<session::SessionStats> outcomes(static_cast<std::size_t>(total));
  exp::parallel_for(total, jobs, [&](int idx) {
    const int c = idx % configs;
    const int k = (idx / configs) % steps;
    const int p = idx / (configs * steps);
    session::SessionSpec arrivals = session::SessionSpec::poisson(
        sessions, rates[static_cast<std::size_t>(k)]);
    arrivals.admission = policies[static_cast<std::size_t>(p)].admission;
    outcomes[static_cast<std::size_t>(idx)] =
        exp::run_session_experiment(library, make_spec(c), arrivals);
  });
  bench.add_runs(static_cast<long long>(total) * sessions);

  // ---- aggregate the curves ---------------------------------------------
  std::vector<std::vector<CurvePoint>> curves(
      static_cast<std::size_t>(num_policies));
  for (int p = 0; p < num_policies; ++p) {
    for (int k = 0; k < steps; ++k) {
      std::vector<double> goodput, p95, shed;
      for (int c = 0; c < configs; ++c) {
        const session::SessionStats& st = outcomes[static_cast<std::size_t>(
            (p * steps + k) * configs + c)];
        goodput.push_back(st.goodput_per_hour());
        p95.push_back(st.p95_response_seconds());
        shed.push_back(st.shed_fraction());
      }
      CurvePoint pt;
      pt.rate_per_hour = rates[static_cast<std::size_t>(k)];
      pt.goodput_per_hour = trace::mean_of(goodput);
      pt.p95_response_seconds = trace::mean_of(p95);
      pt.shed_fraction = trace::mean_of(shed);
      curves[static_cast<std::size_t>(p)].push_back(pt);
    }
  }

  // Saturation: the first ramp step where unbounded admission blows the
  // 2x-unloaded p95 budget.
  int saturation_step = steps - 1;
  for (int k = 0; k < steps; ++k) {
    if (curves[0][static_cast<std::size_t>(k)].p95_response_seconds >
        2.0 * unloaded_p95) {
      saturation_step = k;
      break;
    }
  }
  const double saturation_rate = rates[static_cast<std::size_t>(saturation_step)];

  std::printf("policy\trate_per_hour\tx_saturation\tgoodput_per_hour\t"
              "p95_response_s\tshed_frac\n");
  for (int p = 0; p < num_policies; ++p) {
    for (int k = 0; k < steps; ++k) {
      const CurvePoint& pt = curves[static_cast<std::size_t>(p)][
          static_cast<std::size_t>(k)];
      std::printf("%s\t%.2f\t%.2f\t%.2f\t%.1f\t%.3f\n",
                  policies[static_cast<std::size_t>(p)].name,
                  pt.rate_per_hour, pt.rate_per_hour / saturation_rate,
                  pt.goodput_per_hour, pt.p95_response_seconds,
                  pt.shed_fraction);
    }
    std::fflush(stdout);
  }

  std::printf("\nsaturation: unbounded p95 first exceeds 2x unloaded "
              "(%.1f s) at %.2f sessions/hour (step %d)\n",
              2.0 * unloaded_p95, saturation_rate, saturation_step);
  // The overload-control verdict at the deepest >= 4x-saturation rate.
  int deep = -1;
  for (int k = 0; k < steps; ++k) {
    if (rates[static_cast<std::size_t>(k)] >= 4.0 * saturation_rate) deep = k;
  }
  if (deep >= 0) {
    std::printf("at %.2fx saturation (%.2f sessions/hour):\n",
                rates[static_cast<std::size_t>(deep)] / saturation_rate,
                rates[static_cast<std::size_t>(deep)]);
    for (int p = 0; p < num_policies; ++p) {
      const CurvePoint& pt = curves[static_cast<std::size_t>(p)][
          static_cast<std::size_t>(deep)];
      std::printf("  %-10s p95 %.1f s (%.2fx unloaded p95) -> %s\n",
                  policies[static_cast<std::size_t>(p)].name,
                  pt.p95_response_seconds,
                  unloaded_p95 > 0 ? pt.p95_response_seconds / unloaded_p95
                                   : 0.0,
                  pt.p95_response_seconds <= 2.0 * unloaded_p95
                      ? "holds the 2x budget"
                      : "blows the 2x budget");
    }
  } else {
    std::printf("ramp too short to reach 4x saturation; raise "
                "WADC_CAPACITY_STEPS\n");
  }

  // ---- the deterministic saturation-curve JSON --------------------------
  try {
    write_file(curves_out, [&](std::ostream& f) {
      f << std::fixed << std::setprecision(6);
      f << "{\n  \"name\": \"ext_capacity\",\n";
      f << "  \"configs\": " << configs << ",\n  \"sessions_per_run\": "
        << sessions << ",\n";
      f << "  \"fault_spec\": \"" << fault_spec_path << "\",\n";
      f << "  \"unloaded_mean_response_seconds\": " << unloaded_mean << ",\n"
        << "  \"unloaded_p95_response_seconds\": " << unloaded_p95 << ",\n"
        << "  \"saturation_rate_per_hour\": " << saturation_rate << ",\n";
      f << "  \"policies\": [\n";
      for (int p = 0; p < num_policies; ++p) {
        f << "    {\"policy\": \"" << policies[static_cast<std::size_t>(p)].name
          << "\", \"curve\": [\n";
        for (int k = 0; k < steps; ++k) {
          const CurvePoint& pt = curves[static_cast<std::size_t>(p)][
              static_cast<std::size_t>(k)];
          f << "      {\"rate_per_hour\": " << pt.rate_per_hour
            << ", \"goodput_per_hour\": " << pt.goodput_per_hour
            << ", \"p95_response_seconds\": " << pt.p95_response_seconds
            << ", \"shed_fraction\": " << pt.shed_fraction << "}"
            << (k + 1 < steps ? "," : "") << "\n";
        }
        f << "    ]}" << (p + 1 < num_policies ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ext_capacity: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "[bench] ext_capacity: saturation curves -> %s\n",
               curves_out.c_str());

  return bench.finish(jobs);
}
