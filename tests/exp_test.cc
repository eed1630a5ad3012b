// Tests for the experiment harness: configuration sampling, runners and
// sweep bookkeeping.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "exp/experiment.h"
#include "exp/export.h"
#include "exp/parallel.h"
#include "exp/report.h"
#include "fault/spec_io.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "session/session_spec.h"
#include "trace/library.h"

namespace wadc::exp {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

TEST(NetworkConfig, AssignsEveryLink) {
  const auto table = make_network_config(shared_library(), 9, 1);
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      EXPECT_TRUE(table.has_link(a, b));
      EXPECT_GT(table.bandwidth_at(a, b, 0.0), 0);
    }
  }
}

TEST(NetworkConfig, DeterministicInSeed) {
  const auto t1 = make_network_config(shared_library(), 9, 5);
  const auto t2 = make_network_config(shared_library(), 9, 5);
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      EXPECT_EQ(t1.bandwidth_at(a, b, 123.0), t2.bandwidth_at(a, b, 123.0));
    }
  }
}

TEST(NetworkConfig, DifferentSeedsProduceDifferentAssignments) {
  const auto t1 = make_network_config(shared_library(), 9, 5);
  const auto t2 = make_network_config(shared_library(), 9, 6);
  int diffs = 0;
  for (net::HostId a = 0; a < 9; ++a) {
    for (net::HostId b = a + 1; b < 9; ++b) {
      if (t1.bandwidth_at(a, b, 0.0) != t2.bandwidth_at(a, b, 0.0)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 10);
}

TEST(NetworkConfig, StartAtNoonOffsetApplied) {
  NetworkConfigParams params;
  params.trace_start_offset_seconds = 12 * 3600;
  const auto noon = make_network_config(shared_library(), 3, 9, params);
  params.trace_start_offset_seconds = 0;
  const auto midnight = make_network_config(shared_library(), 3, 9, params);
  // Same traces, different offsets: at sim t=0 the values differ for at
  // least one link.
  int diffs = 0;
  for (net::HostId a = 0; a < 3; ++a) {
    for (net::HostId b = a + 1; b < 3; ++b) {
      if (noon.bandwidth_at(a, b, 0.0) != midnight.bandwidth_at(a, b, 0.0)) {
        ++diffs;
      }
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(RunExperiment, IsReproducible) {
  ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobal;
  spec.num_servers = 4;
  spec.iterations = 30;
  spec.config_seed = 7;
  const auto r1 = run_experiment(shared_library(), spec);
  const auto r2 = run_experiment(shared_library(), spec);
  EXPECT_EQ(r1.completion_seconds, r2.completion_seconds);
  EXPECT_EQ(r1.stats.relocations, r2.stats.relocations);
}

// Every artifact of one run with all four obs sinks attached, as the
// exporters write them.
struct RunArtifacts {
  std::string run, metrics, trace, decisions, timeline;
};

// Runs `base` through `ctx`, or through a fresh stack when `ctx` is null.
RunArtifacts run_with_sinks(const ExperimentSpec& base, RunContext* ctx) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::DecisionLog decisions;
  obs::Timeline timeline;
  ExperimentSpec spec = base;
  spec.obs.tracer = &tracer;
  spec.obs.metrics = &metrics;
  spec.obs.decisions = &decisions;
  spec.obs.timeline = &timeline;
  const RunResult result = ctx != nullptr
                               ? run_experiment(shared_library(), spec, *ctx)
                               : run_experiment(shared_library(), spec);
  std::ostringstream run, metrics_out, trace, decisions_out, timeline_out;
  write_run_json(result.stats, run);
  metrics.write_json(metrics_out);
  tracer.write_chrome_json(trace);
  decisions.write_jsonl(decisions_out);
  timeline.write_csv(timeline_out);
  return {run.str(), metrics_out.str(), trace.str(), decisions_out.str(),
          timeline_out.str()};
}

// The bench sweeps run through reused worker contexts and wadc_run through
// fresh stacks; both must produce the same bytes.
TEST(RunContext, WarmRunsMatchFreshRuns) {
  const fault::FaultSpec faults = fault::parse_fault_spec(
      "crash 2 300 900\nblackout 1 3 200 500\ndrop 0.01\n");
  // The warm runs' sinks allocate from the context's arena, so the context
  // outlives every one of them.
  RunContext ctx;
  int runs = 0;
  for (const core::AlgorithmKind algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kGlobal, core::AlgorithmKind::kLocal,
        core::AlgorithmKind::kGlobalOrder,
        core::AlgorithmKind::kReorderOnly}) {
    for (const bool faulted : {false, true}) {
      for (const bool cached : {false, true}) {
        for (std::uint64_t seed = 1000; seed <= 1002; ++seed) {
          ExperimentSpec spec;
          spec.algorithm = algorithm;
          spec.num_servers = 4;
          spec.iterations = 40;
          spec.relocation_period_seconds = 150;
          spec.local_extra_candidates = 2;
          spec.config_seed = seed;
          if (faulted) spec.fault = faults;
          if (cached) spec.cache = cache::parse_cache_spec("capacity=8m");
          SCOPED_TRACE(std::string(core::algorithm_name(algorithm)) +
                       (faulted ? " faulted" : " plain") +
                       (cached ? " cached" : "") + " seed " +
                       std::to_string(seed));
          const RunArtifacts warm = run_with_sinks(spec, &ctx);
          const RunArtifacts fresh = run_with_sinks(spec, nullptr);
          EXPECT_TRUE(warm.run == fresh.run) << "run JSON differs";
          EXPECT_TRUE(warm.metrics == fresh.metrics) << "metrics differ";
          EXPECT_TRUE(warm.trace == fresh.trace) << "Chrome trace differs";
          EXPECT_TRUE(warm.decisions == fresh.decisions)
              << "decision log differs";
          EXPECT_TRUE(warm.timeline == fresh.timeline)
              << "timeline differs";
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 72);
}

// ---- pooled runs: run_experiment and run_session_experiment without sinks

// One pooled-run case: a single-engine run when `sessions` is 0, else a
// session run with that many concurrent clients.
struct PooledCase {
  ExperimentSpec spec;
  int sessions = 0;
  std::string name;
};

// one-shot and global, cache off and on, with and without the golden fault
// schedule (tests/golden/golden.fault), as a single engine and as 1 and 8
// sessions.
std::vector<PooledCase> pooled_cases() {
  const fault::FaultSpec faults = fault::parse_fault_spec(
      "crash 2 300 900\nblackout 1 3 200 500\ndrop 0.01\n");
  std::vector<PooledCase> cases;
  for (const core::AlgorithmKind algorithm :
       {core::AlgorithmKind::kOneShot, core::AlgorithmKind::kGlobal}) {
    for (const bool cached : {false, true}) {
      for (const bool faulted : {false, true}) {
        for (const int sessions : {0, 1, 8}) {
          PooledCase c;
          c.spec.algorithm = algorithm;
          c.spec.num_servers = 4;
          c.spec.iterations = 40;
          c.spec.relocation_period_seconds = 150;
          c.spec.config_seed = 1000 + cases.size();
          if (cached) c.spec.cache = cache::parse_cache_spec("capacity=8m");
          if (faulted) c.spec.fault = faults;
          c.sessions = sessions;
          c.name = std::string(core::algorithm_name(algorithm)) +
                   (cached ? " cached" : "") +
                   (faulted ? " faulted" : " plain") + " sessions " +
                   std::to_string(sessions);
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

// The run or session JSON of one case. With `sinks` every sink is
// attached, which keeps the run on a fresh stack on the global heap;
// without, the run is served from the run pool.
std::string case_json(const PooledCase& c, bool sinks) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::DecisionLog decisions;
  obs::Timeline timeline;
  ExperimentSpec spec = c.spec;
  if (sinks) {
    spec.obs.tracer = &tracer;
    spec.obs.metrics = &metrics;
    spec.obs.decisions = &decisions;
    spec.obs.timeline = &timeline;
  }
  std::ostringstream out;
  if (c.sessions == 0) {
    write_run_json(run_experiment(shared_library(), spec).stats, out);
  } else {
    write_sessions_json(
        run_session_experiment(
            shared_library(), spec,
            session::SessionSpec::concurrent_clients(c.sessions)),
        out);
  }
  return out.str();
}

std::vector<std::string> fresh_jsons(const std::vector<PooledCase>& cases) {
  std::vector<std::string> out;
  for (const PooledCase& c : cases) out.push_back(case_json(c, true));
  return out;
}

TEST(PooledRuns, BackToBackRunsOnOneThreadMatchFreshRuns) {
  const std::vector<PooledCase> cases = pooled_cases();
  const std::vector<std::string> fresh = fresh_jsons(cases);
  const RunPoolStats before = run_pool_stats();
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(cases[i].name + " round " + std::to_string(round));
      EXPECT_TRUE(case_json(cases[i], false) == fresh[i])
          << "the pooled run's JSON differs from the fresh run's";
      const RunPoolStats pool = run_pool_stats();
      EXPECT_EQ(pool.leased, 0);
      // A lease that ends with arena memory still live retires its arena:
      // the run left 0 outstanding allocations exactly when none retired.
      EXPECT_EQ(pool.retired, before.retired);
      // Serial runs take turns on one arena.
      EXPECT_LE(pool.arenas, before.arenas + 1);
    }
  }
}

TEST(PooledRuns, RunsFromFourThreadsMatchFreshRuns) {
  const std::vector<PooledCase> cases = pooled_cases();
  const std::vector<std::string> fresh = fresh_jsons(cases);
  const RunPoolStats before = run_pool_stats();
  const std::size_t n = cases.size();
  // Twice over, so later runs lease arenas other threads warmed.
  std::vector<std::string> pooled(2 * n);
  parallel_for(static_cast<int>(2 * n), 4, [&](int i) {
    const auto slot = static_cast<std::size_t>(i);
    pooled[slot] = case_json(cases[slot % n], false);
  });
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    SCOPED_TRACE(cases[i % n].name);
    EXPECT_TRUE(pooled[i] == fresh[i % n])
        << "the pooled run's JSON differs from the fresh run's";
  }
  const RunPoolStats pool = run_pool_stats();
  EXPECT_EQ(pool.leased, 0);
  EXPECT_EQ(pool.retired, before.retired);
  // At most one arena per concurrent run.
  EXPECT_LE(pool.arenas, before.arenas + 4);
}

TEST(RunSweep, SpeedupIsBaselineOverCompletion) {
  SweepSpec sweep;
  sweep.configs = 3;
  sweep.base_seed = 400;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 25;
  const auto series = run_sweep(shared_library(), sweep,
                                {core::AlgorithmKind::kDownloadAll,
                                 core::AlgorithmKind::kOneShot});
  ASSERT_EQ(series.size(), 2u);
  const auto& base = series[0];
  const auto& one_shot = series[1];
  ASSERT_EQ(base.completion_seconds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(base.speedup[i], 1.0);
    EXPECT_NEAR(one_shot.speedup[i],
                base.completion_seconds[i] / one_shot.completion_seconds[i],
                1e-12);
  }
}

TEST(RunSweep, AppendsBaselineWhenNotRequested) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 500;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  const auto series =
      run_sweep(shared_library(), sweep, {core::AlgorithmKind::kOneShot});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].algorithm, core::AlgorithmKind::kOneShot);
  EXPECT_EQ(series[1].algorithm, core::AlgorithmKind::kDownloadAll);
}

TEST(RunSweep, ProgressCallbackCoversAllRuns) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 600;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  int last = 0, total_seen = 0;
  run_sweep(shared_library(), sweep, {core::AlgorithmKind::kOneShot},
            [&](int done, int total) {
              EXPECT_EQ(done, last + 1);
              last = done;
              total_seen = total;
            });
  EXPECT_EQ(last, total_seen);
  EXPECT_EQ(last, 4);  // 2 configs x (baseline + one-shot)
}

TEST(LocalExtrasSweep, OneSeriesPerK) {
  SweepSpec sweep;
  sweep.configs = 2;
  sweep.base_seed = 700;
  sweep.experiment.num_servers = 4;
  sweep.experiment.iterations = 20;
  const auto series =
      run_local_extras_sweep(shared_library(), sweep, {0, 2});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].local_extra_candidates, 0);
  EXPECT_EQ(series[1].local_extra_candidates, 2);
  for (const auto& s : series) {
    EXPECT_EQ(s.speedup.size(), 2u);
    for (const double sp : s.speedup) EXPECT_GT(sp, 0);
  }
}

TEST(SeriesStats, ComputesSummary) {
  const auto st = stats_of({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(st.mean, 3.0);
  EXPECT_DOUBLE_EQ(st.median, 3.0);
  EXPECT_DOUBLE_EQ(st.p10, 1.4);
  EXPECT_DOUBLE_EQ(st.p90, 4.6);
}

TEST(EnvHelpers, FallBackWithoutVariables) {
  unsetenv("WADC_CONFIGS");
  unsetenv("WADC_SEED");
  EXPECT_EQ(env_configs(42), 42);
  EXPECT_EQ(env_seed(7), 7u);
}

TEST(EnvHelpers, ReadOverrides) {
  setenv("WADC_CONFIGS", "12", 1);
  setenv("WADC_SEED", "99", 1);
  EXPECT_EQ(env_configs(42), 12);
  EXPECT_EQ(env_seed(7), 99u);
  unsetenv("WADC_CONFIGS");
  unsetenv("WADC_SEED");
}

TEST(EnvHelpers, SeedZeroIsAValidOverride) {
  setenv("WADC_SEED", "0", 1);
  EXPECT_EQ(env_seed(7), 0u);
  unsetenv("WADC_SEED");
}

TEST(EnvHelpersDeathTest, TrailingGarbageInConfigsIsFatal) {
  setenv("WADC_CONFIGS", "8x", 1);
  EXPECT_EXIT(env_configs(1), testing::ExitedWithCode(2), "WADC_CONFIGS");
  unsetenv("WADC_CONFIGS");
}

TEST(EnvHelpersDeathTest, NegativeConfigsIsFatal) {
  setenv("WADC_CONFIGS", "-2", 1);
  EXPECT_EXIT(env_configs(1), testing::ExitedWithCode(2), "WADC_CONFIGS");
  unsetenv("WADC_CONFIGS");
}

TEST(EnvHelpersDeathTest, NonNumericSeedIsFatal) {
  setenv("WADC_SEED", "abc", 1);
  EXPECT_EXIT(env_seed(1), testing::ExitedWithCode(2), "WADC_SEED");
  unsetenv("WADC_SEED");
}

}  // namespace
}  // namespace wadc::exp
