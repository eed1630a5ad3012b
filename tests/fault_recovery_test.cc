// End-to-end fault-recovery matrix: every adaptive algorithm must survive
// randomized crash/blackout schedules (with restarts) and account for every
// injected fault in the failure summary. Also covers the degradation paths:
// permanent server/client crashes abort cleanly instead of hanging.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "exp/experiment.h"
#include "exp/export.h"
#include "obs/decision_log.h"
#include "trace/library.h"

namespace wadc::dataflow {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

exp::ExperimentSpec base_spec(core::AlgorithmKind algorithm,
                              std::uint64_t seed) {
  exp::ExperimentSpec spec;
  spec.algorithm = algorithm;
  spec.num_servers = 5;
  spec.iterations = 15;
  spec.relocation_period_seconds = 150;
  spec.config_seed = seed;
  return spec;
}

using RecoveryParam = std::tuple<core::AlgorithmKind, std::uint64_t>;

class FaultRecoveryMatrixTest : public ::testing::TestWithParam<RecoveryParam> {
};

TEST_P(FaultRecoveryMatrixTest, CompletesUnderTransientFaults) {
  const auto [algorithm, seed] = GetParam();
  exp::ExperimentSpec spec = base_spec(algorithm, 4000 + seed);
  // Transient-only schedule: every crash restarts, the client is protected,
  // so completion must always be reachable.
  spec.fault.random.crash_rate_per_hour = 2.0;
  spec.fault.random.mean_downtime_seconds = 200;
  spec.fault.random.blackout_rate_per_hour = 1.5;
  spec.fault.random.mean_blackout_seconds = 100;
  spec.fault.random.horizon_seconds = 86400;
  spec.fault.random.protect_client = true;
  spec.fault.drop_probability = 0.001;

  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_TRUE(r.stats.completed) << "abort: " << fs.abort_reason;
  EXPECT_TRUE(fs.abort_reason.empty()) << fs.abort_reason;
  EXPECT_EQ(r.stats.arrival_seconds.size(), 15u);
  // Every injected fault is accounted for, by kind.
  EXPECT_EQ(fs.faults_injected, fs.host_crashes + fs.host_restarts +
                                    fs.link_blackouts + fs.link_blackout_ends);
  // Transient schedule: a crash observed during the run either restarted
  // during the run too, or the run finished while the host was still down.
  EXPECT_LE(fs.host_restarts, fs.host_crashes);
  EXPECT_LE(fs.link_blackout_ends, fs.link_blackouts);
}

std::string recovery_name(
    const ::testing::TestParamInfo<RecoveryParam>& info) {
  const auto [algorithm, seed] = info.param;
  std::string name = std::string(core::algorithm_name(algorithm)) + "_seed" +
                     std::to_string(seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

const auto kAdaptiveAlgorithms =
    ::testing::Values(core::AlgorithmKind::kOneShot,
                      core::AlgorithmKind::kGlobal,
                      core::AlgorithmKind::kLocal,
                      core::AlgorithmKind::kGlobalOrder);

// 4 algorithms x 16 seeds. The CI sanitizer job runs this suite and the
// determinism suite below via `ctest -R Fault`.
INSTANTIATE_TEST_SUITE_P(
    SeedMatrix, FaultRecoveryMatrixTest,
    ::testing::Combine(kAdaptiveAlgorithms,
                       ::testing::Range<std::uint64_t>(1, 17)),
    recovery_name);

// ---- determinism -----------------------------------------------------------

// A fault run replays exactly from its seed, and observing it does not
// change it: a run that records a decision log (every retry's backoff among
// its records) must equal the same run without one.
class FaultDeterminismTest : public ::testing::TestWithParam<RecoveryParam> {
};

TEST_P(FaultDeterminismTest, FaultRunsAreDeterministic) {
  const auto [algorithm, seed] = GetParam();
  exp::ExperimentSpec spec = base_spec(algorithm, 6000 + seed);
  spec.fault.random.crash_rate_per_hour = 0.8;
  spec.fault.random.mean_downtime_seconds = 240;
  spec.fault.random.horizon_seconds = 86400;
  // Loss heavy enough that retry backoffs sit on the critical path of every
  // instance, so a shifted backoff shows up in the run.
  spec.fault.drop_probability = 0.1;
  const auto a = exp::run_experiment(shared_library(), spec);
  const auto b = exp::run_experiment(shared_library(), spec);
  obs::DecisionLog decisions;
  exp::ExperimentSpec logged = spec;
  logged.obs.decisions = &decisions;
  const auto c = exp::run_experiment(shared_library(), logged);
  ASSERT_GT(a.stats.failure_summary.transfer_retries, 0u)
      << "the schedule must exercise retries";
  EXPECT_GT(decisions.size(), 0u);
  // The full run export: completion, every arrival, relocation and fault
  // tally.
  const auto run_json = [](const exp::RunResult& r) {
    std::ostringstream out;
    exp::write_run_json(r.stats, out);
    return out.str();
  };
  EXPECT_EQ(run_json(a), run_json(b));
  EXPECT_EQ(run_json(a), run_json(c))
      << "attaching a decision log changed the run";
}

INSTANTIATE_TEST_SUITE_P(
    FirstSeeds, FaultDeterminismTest,
    ::testing::Combine(kAdaptiveAlgorithms,
                       ::testing::Range<std::uint64_t>(1, 5)),
    recovery_name);

// ---- degradation paths -----------------------------------------------------

class FaultRecoveryAbortTest
    : public ::testing::TestWithParam<core::AlgorithmKind> {};

TEST_P(FaultRecoveryAbortTest, PermanentServerCrashAbortsWithReason) {
  exp::ExperimentSpec spec = base_spec(GetParam(), 99);
  // Early enough that every algorithm is still mid-run (completion is
  // ~350-500 s for this spec); no restart makes it permanent.
  spec.fault.crashes.push_back({2, 100.0});
  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(fs.abort_reason.find("server host 2 crashed permanently"),
            std::string::npos)
      << fs.abort_reason;
}

TEST_P(FaultRecoveryAbortTest, PermanentClientCrashAbortsWithReason) {
  exp::ExperimentSpec spec = base_spec(GetParam(), 99);
  spec.fault.crashes.push_back({0, 100.0});
  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(fs.abort_reason.find("client host crashed permanently"),
            std::string::npos)
      << fs.abort_reason;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FaultRecoveryAbortTest,
    ::testing::Values(core::AlgorithmKind::kDownloadAll,
                      core::AlgorithmKind::kOneShot,
                      core::AlgorithmKind::kGlobal,
                      core::AlgorithmKind::kLocal,
                      core::AlgorithmKind::kGlobalOrder),
    [](const auto& info) {
      std::string name = core::algorithm_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- focused scenarios -----------------------------------------------------

TEST(FaultRecoveryScenario, TransientCrashIsSurvivedAndAccounted) {
  exp::ExperimentSpec spec = base_spec(core::AlgorithmKind::kGlobal, 7);
  spec.fault.crashes.push_back({2, 100.0, 250.0});
  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_TRUE(r.stats.completed) << fs.abort_reason;
  EXPECT_EQ(fs.host_crashes, 1);
  EXPECT_EQ(fs.host_restarts, 1);
  EXPECT_EQ(fs.faults_injected, 2);
}

TEST(FaultRecoveryScenario, DropOnlyScheduleCompletes) {
  exp::ExperimentSpec spec = base_spec(core::AlgorithmKind::kLocal, 11);
  spec.fault.drop_probability = 0.01;
  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_TRUE(r.stats.completed) << fs.abort_reason;
  EXPECT_EQ(fs.host_crashes, 0);
  // Retries must cover at least the transfers that were dropped.
  EXPECT_GE(fs.transfer_retries, fs.transfers_failed > 0 ? 1u : 0u);
}

TEST(FaultRecoveryScenario, EmptyFaultSpecMatchesFaultFreeRunExactly) {
  // The load-bearing byte-identity property at the API level: a default
  // (empty) FaultSpec takes the exact fault-free code path.
  exp::ExperimentSpec spec = base_spec(core::AlgorithmKind::kGlobalOrder, 21);
  const auto plain = exp::run_experiment(shared_library(), spec);
  exp::ExperimentSpec with_empty_fault = spec;
  with_empty_fault.fault = fault::FaultSpec{};
  const auto faulted = exp::run_experiment(shared_library(), with_empty_fault);
  EXPECT_EQ(plain.completion_seconds, faulted.completion_seconds);
  EXPECT_EQ(plain.stats.arrival_seconds, faulted.stats.arrival_seconds);
  EXPECT_EQ(plain.stats.relocations, faulted.stats.relocations);
  EXPECT_FALSE(faulted.stats.failure_summary.active);
  EXPECT_EQ(faulted.stats.failure_summary.faults_injected, 0);
}

TEST(FaultRecoveryScenario, RunDeadlineBoundsAnUncompletableRun) {
  // Blackout the client's every link forever but crash nobody: no abort
  // trigger fires, so the deadline backstop must end the run.
  exp::ExperimentSpec spec = base_spec(core::AlgorithmKind::kGlobal, 33);
  for (int s = 1; s <= spec.num_servers; ++s) {
    spec.fault.blackouts.push_back({0, s, 50.0, sim::kTimeInfinity});
  }
  const auto r = exp::run_experiment(shared_library(), spec);
  const FailureSummary& fs = r.stats.failure_summary;
  ASSERT_TRUE(fs.active);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(fs.abort_reason, "run deadline exceeded");
}

}  // namespace
}  // namespace wadc::dataflow
