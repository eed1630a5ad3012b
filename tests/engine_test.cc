// Integration tests for the dataflow engine: every placement algorithm runs
// the full protocol over the simulated network, and the engine's internal
// invariant checks (lineage verification, coordinated change-over edges,
// light-move windows) are active throughout.
#include <gtest/gtest.h>

#include <memory>

#include "core/algorithm_kind.h"
#include "dataflow/engine.h"
#include "exp/network_config.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "trace/library.h"

namespace wadc::dataflow {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

struct Stack {
  Stack(core::AlgorithmKind algorithm, std::uint64_t config_seed,
        int servers = 4, int iterations = 40,
        core::TreeShape shape = core::TreeShape::kCompleteBinary,
        EngineParams engine_overrides = {}) {
    links = std::make_unique<net::LinkTable>(exp::make_network_config(
        shared_library(), servers + 1, config_seed));
    network = std::make_unique<net::Network>(sim, *links,
                                             net::NetworkParams{});
    monitoring = std::make_unique<monitor::MonitoringSystem>(
        *network, monitor::MonitorParams{});
    tree = std::make_unique<core::CombinationTree>(
        core::CombinationTree::make(shape, servers));
    workload::WorkloadParams wp;
    wp.iterations = iterations;
    workload = std::make_unique<workload::ImageWorkload>(wp, servers,
                                                         config_seed);
    EngineParams ep = engine_overrides;
    ep.algorithm = algorithm;
    ep.seed = config_seed;
    engine = std::make_unique<Engine>(sim, *network, *monitoring, *tree,
                                      *workload, ep);
  }

  RunStats run() { return engine->run(); }

  sim::Simulation sim;
  std::unique_ptr<net::LinkTable> links;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<monitor::MonitoringSystem> monitoring;
  std::unique_ptr<core::CombinationTree> tree;
  std::unique_ptr<workload::ImageWorkload> workload;
  std::unique_ptr<Engine> engine;
};

class AlgorithmRunTest
    : public ::testing::TestWithParam<core::AlgorithmKind> {};

TEST_P(AlgorithmRunTest, DeliversEveryImageInOrder) {
  Stack stack(GetParam(), /*config_seed=*/11);
  const RunStats stats = stack.run();
  EXPECT_TRUE(stats.completed);
  ASSERT_EQ(stats.arrival_seconds.size(), 40u);
  for (std::size_t i = 1; i < stats.arrival_seconds.size(); ++i) {
    EXPECT_LE(stats.arrival_seconds[i - 1], stats.arrival_seconds[i]);
  }
  EXPECT_GT(stats.completion_seconds, 0);
  EXPECT_DOUBLE_EQ(stats.completion_seconds, stats.arrival_seconds.back());
}

TEST_P(AlgorithmRunTest, IsDeterministic) {
  Stack a(GetParam(), 17);
  Stack b(GetParam(), 17);
  const RunStats ra = a.run();
  const RunStats rb = b.run();
  EXPECT_EQ(ra.completion_seconds, rb.completion_seconds);
  EXPECT_EQ(ra.relocations, rb.relocations);
  EXPECT_EQ(ra.arrival_seconds, rb.arrival_seconds);
}

TEST_P(AlgorithmRunTest, LeftDeepTreeAlsoCompletes) {
  Stack stack(GetParam(), 13, /*servers=*/5, /*iterations=*/30,
              core::TreeShape::kLeftDeep);
  const RunStats stats = stack.run();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.arrival_seconds.size(), 30u);
}

TEST_P(AlgorithmRunTest, OddServerCountCompletes) {
  Stack stack(GetParam(), 19, /*servers=*/5, /*iterations=*/25);
  EXPECT_TRUE(stack.run().completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmRunTest,
    ::testing::Values(core::AlgorithmKind::kDownloadAll,
                      core::AlgorithmKind::kOneShot,
                      core::AlgorithmKind::kGlobal,
                      core::AlgorithmKind::kLocal),
    [](const auto& info) {
      std::string name = core::algorithm_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DownloadAll, NeverRelocatesAndStaysAtClient) {
  Stack stack(core::AlgorithmKind::kDownloadAll, 23);
  const RunStats stats = stack.run();
  EXPECT_EQ(stats.relocations, 0);
  EXPECT_EQ(stats.barriers_initiated, 0);
  for (core::OperatorId op = 0; op < stack.tree->num_operators(); ++op) {
    EXPECT_EQ(stack.engine->operator_location(op), 0);
  }
}

TEST(OneShot, PlacementIsFixedAfterStartup) {
  Stack stack(core::AlgorithmKind::kOneShot, 23);
  const RunStats stats = stack.run();
  EXPECT_EQ(stats.relocations, 0);  // no on-line moves
  EXPECT_EQ(stats.barriers_initiated, 0);
  EXPECT_GT(stats.plan_rounds, 0u);
}

TEST(Global, BarriersInitiatedAreCompleted) {
  // Longer run with a short relocation period to force several barriers.
  EngineParams ep;
  ep.relocation_period_seconds = 120;
  Stack stack(core::AlgorithmKind::kGlobal, 29, /*servers=*/8,
              /*iterations=*/120, core::TreeShape::kCompleteBinary, ep);
  const RunStats stats = stack.run();
  EXPECT_GT(stats.replans, 0u);
  EXPECT_EQ(stats.barriers_initiated, stats.barriers_completed);
  // Every relocation happened through the coordinated change-over.
  if (stats.barriers_completed == 0) {
    EXPECT_EQ(stats.relocations, 0);
  }
  // Relocation trace entries are well-formed.
  for (const auto& ev : stats.relocation_trace) {
    EXPECT_NE(ev.from, ev.to);
    EXPECT_GE(ev.op, 0);
    EXPECT_LT(ev.op, stack.tree->num_operators());
    EXPECT_GE(ev.time, 0);
  }
}

TEST(Global, NoForwardingEverNeeded) {
  // Placement-routed modes must never hit the stale-route forwarding path.
  EngineParams ep;
  ep.relocation_period_seconds = 120;
  Stack stack(core::AlgorithmKind::kGlobal, 31, 8, 120,
              core::TreeShape::kCompleteBinary, ep);
  const RunStats stats = stack.run();
  EXPECT_EQ(stats.messages_forwarded, 0u);
}

TEST(Local, RelocatesAndStaysConsistent) {
  EngineParams ep;
  ep.relocation_period_seconds = 120;
  Stack stack(core::AlgorithmKind::kLocal, 37, 8, 120,
              core::TreeShape::kCompleteBinary, ep);
  const RunStats stats = stack.run();
  EXPECT_TRUE(stats.completed);
  // The local algorithm performs no global barriers.
  EXPECT_EQ(stats.barriers_initiated, 0);
}

TEST(Local, ExtraCandidatesStillComplete) {
  for (const int k : {1, 3, 6}) {
    EngineParams ep;
    ep.relocation_period_seconds = 150;
    ep.local_extra_candidates = k;
    Stack stack(core::AlgorithmKind::kLocal, 41, 6, 60,
                core::TreeShape::kCompleteBinary, ep);
    EXPECT_TRUE(stack.run().completed) << "k=" << k;
  }
}

TEST(Engine, RelocationsRespectTheLightMoveWindow) {
  // Every relocation for the global algorithm must land exactly at a
  // change-over boundary: the destination equals the new placement.
  EngineParams ep;
  ep.relocation_period_seconds = 100;
  Stack stack(core::AlgorithmKind::kGlobal, 47, 8, 150,
              core::TreeShape::kCompleteBinary, ep);
  const RunStats stats = stack.run();
  for (const auto& ev : stats.relocation_trace) {
    EXPECT_EQ(stack.engine->operator_location(ev.op),
              stack.engine->placement_for(1 << 20).location(ev.op))
        << "final locations must match the final placement";
  }
}

TEST(Engine, AdaptiveAlgorithmsBeatDownloadAllOnAverage) {
  // Small smoke version of Figure 6: over a handful of configurations the
  // mean speedup of each relocation algorithm must exceed 1.
  const int configs = 6;
  double sum_global = 0, sum_oneshot = 0, sum_local = 0;
  for (int c = 0; c < configs; ++c) {
    const auto seed = static_cast<std::uint64_t>(100 + c);
    Stack base(core::AlgorithmKind::kDownloadAll, seed, 8, 60);
    const double base_time = base.run().completion_seconds;
    Stack one(core::AlgorithmKind::kOneShot, seed, 8, 60);
    Stack glob(core::AlgorithmKind::kGlobal, seed, 8, 60);
    Stack loc(core::AlgorithmKind::kLocal, seed, 8, 60);
    sum_oneshot += base_time / one.run().completion_seconds;
    sum_global += base_time / glob.run().completion_seconds;
    sum_local += base_time / loc.run().completion_seconds;
  }
  EXPECT_GT(sum_oneshot / configs, 1.0);
  EXPECT_GT(sum_global / configs, 1.0);
  EXPECT_GT(sum_local / configs, 1.0);
}

TEST(Engine, ConstructDestroyWithoutRunIsClean) {
  Stack stack(core::AlgorithmKind::kGlobal, 51);
  // Destroying an engine whose processes never ran must not crash.
}

TEST(Engine, MonitoringSeesTraffic) {
  Stack stack(core::AlgorithmKind::kOneShot, 53);
  stack.run();
  EXPECT_GT(stack.monitoring->passive_samples(), 0u);
  EXPECT_GT(stack.network->transfers_completed(), 0u);
  EXPECT_GT(stack.network->bytes_delivered(), 0.0);
}

class ConfigSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigSweepTest, AllAlgorithmsCompleteOnRandomConfigs) {
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kGlobal, core::AlgorithmKind::kLocal}) {
    EngineParams ep;
    ep.relocation_period_seconds = 200;
    Stack stack(algorithm, GetParam(), 8, 50,
                core::TreeShape::kCompleteBinary, ep);
    const RunStats stats = stack.run();
    EXPECT_TRUE(stats.completed)
        << core::algorithm_name(algorithm) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigSweepTest,
                         ::testing::Range<std::uint64_t>(200, 212));

// ---- parameter validation ---------------------------------------------------

TEST(EngineParamsValidation, DefaultsAreValid) {
  EXPECT_EQ(validate(EngineParams{}), "");
}

TEST(EngineParamsValidation, EachBadFieldNamesItselfInTheMessage) {
  const auto problem_with = [](auto&& mutate) {
    EngineParams p;
    mutate(p);
    return validate(p);
  };
  EXPECT_NE(problem_with([](EngineParams& p) {
              p.relocation_period_seconds = 0;
            }).find("relocation_period_seconds"),
            std::string::npos);
  EXPECT_NE(problem_with([](EngineParams& p) {
              p.local_extra_candidates = -1;
            }).find("local_extra_candidates"),
            std::string::npos);
}

TEST(NetworkParamsValidation, RejectsBadCapacity) {
  net::NetworkParams p;
  EXPECT_EQ(p.validate(), "");
  p.host_capacity = 0;
  EXPECT_NE(p.validate().find("capacity"), std::string::npos);
}

}  // namespace
}  // namespace wadc::dataflow
