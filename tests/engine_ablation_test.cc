// Ablation and failure-injection tests for the dataflow engine: degraded
// monitoring, oracle knowledge, barrier priority off, link collapses, and
// the right-deep tree extension.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dataflow/engine.h"
#include "exp/experiment.h"
#include "net/network.h"
#include "obs/metrics.h"
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
  spec.num_servers = 6;
  spec.iterations = 50;
  spec.relocation_period_seconds = 200;
  spec.config_seed = seed;
  return spec;
}

TEST(Ablation, OracleKnowledgeCompletesAndPlans) {
  auto spec = base_spec(core::AlgorithmKind::kGlobal, 301);
  spec.engine_base.oracle_bandwidth = true;
  const auto r = exp::run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
  EXPECT_GT(r.stats.plan_rounds, 0u);
}

TEST(Ablation, OracleNeverNeedsProbes) {
  auto spec = base_spec(core::AlgorithmKind::kGlobal, 301);
  spec.engine_base.oracle_bandwidth = true;
  spec.monitor.probing_enabled = false;  // would cripple the real planner
  const auto oracle = exp::run_experiment(shared_library(), spec);

  auto blind = base_spec(core::AlgorithmKind::kGlobal, 301);
  blind.monitor.probing_enabled = false;
  const auto real = exp::run_experiment(shared_library(), blind);

  // Without probes the monitored planner cannot discover detours, so the
  // oracle must do at least as well.
  EXPECT_LE(oracle.completion_seconds, real.completion_seconds + 1e-6);
}

TEST(Ablation, OracleReachesTheOrderPlanners) {
  // The order-adaptive planners plan from ground truth too: with the
  // oracle on, neither start-up nor replanning probes a link. The same
  // runs without the oracle do probe.
  for (const auto algorithm : {core::AlgorithmKind::kGlobalOrder,
                               core::AlgorithmKind::kReorderOnly}) {
    for (const bool oracle : {true, false}) {
      SCOPED_TRACE(std::string(core::algorithm_name(algorithm)) +
                   (oracle ? " with the oracle" : " without"));
      obs::MetricsRegistry metrics;
      auto spec = base_spec(algorithm, 301);
      spec.engine_base.oracle_bandwidth = oracle;
      spec.obs.metrics = &metrics;
      const auto r = exp::run_experiment(shared_library(), spec);
      EXPECT_TRUE(r.stats.completed);
      EXPECT_GT(r.stats.plan_rounds, 0u);
      const double probes = metrics.counter("monitor.probes_issued").value();
      if (oracle) {
        EXPECT_EQ(probes, 0);
      } else {
        EXPECT_GT(probes, 0);
      }
    }
  }
}

TEST(Ablation, NoProbesMeansNoStartupRelocation) {
  // Cold caches + no probing => the one-shot planner sees only pessimistic
  // estimates and keeps everything at the client.
  auto spec = base_spec(core::AlgorithmKind::kOneShot, 303);
  spec.monitor.probing_enabled = false;
  const auto one_shot = exp::run_experiment(shared_library(), spec);
  auto base = base_spec(core::AlgorithmKind::kDownloadAll, 303);
  const auto download = exp::run_experiment(shared_library(), base);
  // Identical behavior modulo the (free) planning attempt.
  EXPECT_NEAR(one_shot.completion_seconds, download.completion_seconds,
              1.0);
}

TEST(Ablation, BarrierPriorityOffStillCorrect) {
  auto spec = base_spec(core::AlgorithmKind::kGlobal, 305);
  spec.engine_base.control_priority = net::kDataPriority;
  const auto r = exp::run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
  EXPECT_EQ(r.stats.barriers_initiated, r.stats.barriers_completed);
}

TEST(Ablation, PassiveOnlyMonitoringStillCompletes) {
  for (const auto algorithm :
       {core::AlgorithmKind::kGlobal, core::AlgorithmKind::kLocal}) {
    auto spec = base_spec(algorithm, 307);
    spec.monitor.piggyback_enabled = false;
    spec.monitor.probing_enabled = false;
    const auto r = exp::run_experiment(shared_library(), spec);
    EXPECT_TRUE(r.stats.completed);
  }
}

// ---- failure injection -------------------------------------------------------

// A network where every link collapses to the floor bandwidth partway
// through: the run crawls but must still complete, and the engine's
// invariant checks must stay green.
TEST(FailureInjection, GlobalLinkCollapseMidRun) {
  const double step = 10.0;
  std::vector<double> vals;
  for (double t = 0; t < 4 * 3600; t += step) {
    vals.push_back(t < 400 ? 80e3 : 600.0);  // collapse at t=400 s
  }
  const trace::BandwidthTrace collapsing(step, vals);
  net::LinkTable links(5);
  for (net::HostId a = 0; a < 5; ++a) {
    for (net::HostId b = a + 1; b < 5; ++b) {
      links.set_link(a, b, &collapsing);
    }
  }
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kGlobal,
        core::AlgorithmKind::kLocal}) {
    sim::Simulation sim;
    net::Network network(sim, links, net::NetworkParams{});
    monitor::MonitoringSystem monitoring(network, monitor::MonitorParams{});
    const auto tree = core::CombinationTree::complete_binary(4);
    workload::WorkloadParams wp;
    wp.iterations = 25;
    const workload::ImageWorkload workload(wp, 4, 1);
    EngineParams ep;
    ep.algorithm = algorithm;
    ep.relocation_period_seconds = 120;
    Engine engine(sim, network, monitoring, tree, workload, ep);
    const auto stats = engine.run();
    EXPECT_TRUE(stats.completed) << core::algorithm_name(algorithm);
    EXPECT_EQ(stats.arrival_seconds.size(), 25u);
  }
}

TEST(FailureInjection, AsymmetricStarvationOfOneServer) {
  // One server's every link is at the floor: it throttles the whole
  // pipeline (composition needs all inputs), but nothing deadlocks.
  const trace::BandwidthTrace fast(10.0, {100e3});
  const trace::BandwidthTrace dead(10.0, {600.0});
  net::LinkTable links(5);
  for (net::HostId a = 0; a < 5; ++a) {
    for (net::HostId b = a + 1; b < 5; ++b) {
      links.set_link(a, b, (a == 4 || b == 4) ? &dead : &fast);
    }
  }
  sim::Simulation sim;
  net::Network network(sim, links, net::NetworkParams{});
  monitor::MonitoringSystem monitoring(network, monitor::MonitorParams{});
  const auto tree = core::CombinationTree::complete_binary(4);
  workload::WorkloadParams wp;
  wp.iterations = 10;
  const workload::ImageWorkload workload(wp, 4, 2);
  EngineParams ep;
  ep.algorithm = core::AlgorithmKind::kGlobal;
  ep.relocation_period_seconds = 300;
  Engine engine(sim, network, monitoring, tree, workload, ep);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.completed);
  // Interarrival is dominated by the dead server's ~218 s transfers.
  EXPECT_GT(stats.mean_interarrival_seconds(), 100.0);
}

// ---- extensions ---------------------------------------------------------------

TEST(RightDeepTree, AllAlgorithmsComplete) {
  for (const auto algorithm :
       {core::AlgorithmKind::kDownloadAll, core::AlgorithmKind::kOneShot,
        core::AlgorithmKind::kGlobal, core::AlgorithmKind::kLocal}) {
    auto spec = base_spec(algorithm, 311);
    spec.tree_shape = core::TreeShape::kRightDeep;
    spec.iterations = 30;
    const auto r = exp::run_experiment(shared_library(), spec);
    EXPECT_TRUE(r.stats.completed) << core::algorithm_name(algorithm);
  }
}

TEST(Ablation, ShorterTThresStillAdapts) {
  auto spec = base_spec(core::AlgorithmKind::kGlobal, 313);
  spec.monitor.t_thres_seconds = 10.0;
  const auto r = exp::run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
}

}  // namespace
}  // namespace wadc::dataflow
