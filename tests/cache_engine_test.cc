// Engine integration tests for the result cache (src/cache wired through
// dataflow/session/exp): cross-session reuse produces hits, cached results
// are correct (the engine's lineage invariants fire on any wrong image),
// cache runs are deterministic, pruned-demand runs compose with faults
// across every placement algorithm, and a crashed replica host is never
// served — its entries are invalidated and sessions fall back to
// recomputing.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "cache/cache_config.h"
#include "core/algorithm_kind.h"
#include "exp/experiment.h"
#include "fault/spec_io.h"
#include "obs/metrics.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"

namespace wadc::exp {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

ExperimentSpec cached_spec(core::AlgorithmKind algorithm, std::uint64_t seed,
                           std::uint64_t capacity = 64ull << 20) {
  ExperimentSpec spec;
  spec.algorithm = algorithm;
  spec.num_servers = 4;
  spec.iterations = 10;
  spec.relocation_period_seconds = 300;
  spec.config_seed = seed;
  spec.cache.enabled = true;
  spec.cache.capacity_bytes = capacity;
  return spec;
}

TEST(CacheEngine, SingleSessionInsertsButNeverHits) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 21);
  spec.obs.metrics = &metrics;
  const RunResult r = run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
  // Keys include the iteration, so a lone session never re-asks for a
  // result it already computed: all insertions, no hits.
  EXPECT_GT(metrics.counter("cache.insertions").value(), 0);
  EXPECT_EQ(metrics.counter("cache.hits").value(), 0);
  EXPECT_GT(metrics.counter("cache.misses").value(), 0);
}

TEST(CacheEngine, ConcurrentSessionsReuseEachOthersResults) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 22);
  spec.obs.metrics = &metrics;
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(4));
  ASSERT_EQ(stats.completed_count(), 4);
  // All four sessions combine the same partitions, so whoever materializes
  // a sub-tree first serves everyone else. Every session still delivers
  // the full image sequence — the engine asserts each delivered image's
  // lineage, so a wrong cached result would abort the run, not just skew a
  // counter.
  EXPECT_GT(metrics.counter("cache.hits").value(), 0);
  EXPECT_GT(metrics.counter("cache.bytes_saved").value(), 0);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.images, spec.iterations);
  }
}

TEST(CacheEngine, StaggeredSessionsShipFewerBytesWithCache) {
  session::SessionSpec sessions;
  sessions.mode = session::ArrivalMode::kExplicit;
  for (int i = 0; i < 3; ++i) {
    session::ExplicitArrival a;
    a.arrival_seconds = 400.0 * i;  // later arrivals find a warm cache
    a.id = i;
    sessions.arrivals.push_back(a);
  }

  ExperimentSpec off = cached_spec(core::AlgorithmKind::kGlobal, 23);
  off.cache = cache::CacheConfig{};  // disabled
  const session::SessionStats cold =
      run_session_experiment(shared_library(), off, sessions);

  const ExperimentSpec on = cached_spec(core::AlgorithmKind::kGlobal, 23);
  const session::SessionStats warm =
      run_session_experiment(shared_library(), on, sessions);

  ASSERT_EQ(cold.completed_count(), 3);
  ASSERT_EQ(warm.completed_count(), 3);
  // Pruned sub-trees ship no leaf or intermediate images; only the cached
  // root result crosses the network. Aggregate delivered bytes must drop.
  EXPECT_LT(warm.network_bytes_delivered, cold.network_bytes_delivered);
}

TEST(CacheEngine, CacheRunsAreDeterministic) {
  const ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 24);
  const auto sessions = session::SessionSpec::concurrent_clients(3);
  obs::MetricsRegistry ma;
  obs::MetricsRegistry mb;
  ExperimentSpec sa = spec;
  sa.obs.metrics = &ma;
  ExperimentSpec sb = spec;
  sb.obs.metrics = &mb;
  const session::SessionStats a =
      run_session_experiment(shared_library(), sa, sessions);
  const session::SessionStats b =
      run_session_experiment(shared_library(), sb, sessions);
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    EXPECT_EQ(a.sessions()[i].end_seconds, b.sessions()[i].end_seconds);
    EXPECT_EQ(a.sessions()[i].images, b.sessions()[i].images);
  }
  EXPECT_EQ(ma.counter("cache.hits").value(),
            mb.counter("cache.hits").value());
  EXPECT_EQ(ma.counter("cache.evictions").value(),
            mb.counter("cache.evictions").value());
  EXPECT_EQ(ma.counter("cache.bytes_saved").value(),
            mb.counter("cache.bytes_saved").value());
}

TEST(CacheEngine, TinyCapacityEvictsAndStillCompletes) {
  obs::MetricsRegistry metrics;
  // ~2 mean images worth of space per host: constant eviction pressure.
  ExperimentSpec spec =
      cached_spec(core::AlgorithmKind::kGlobal, 25, /*capacity=*/256 << 10);
  spec.cache.policy = cache::EvictionPolicy::kCost;
  spec.obs.metrics = &metrics;
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(3));
  ASSERT_EQ(stats.completed_count(), 3);
  EXPECT_GT(metrics.counter("cache.evictions").value(), 0);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
}

TEST(CacheEngine, FaultedSessionsSurviveAZeroByteTransfer) {
  // On this configuration a session's engine sends an empty image after it
  // has finished, onto a link shifted deep into its trace. The zero-byte
  // transfer must not finish a round-off before it starts (which aborts
  // the whole run).
  ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobal;
  spec.iterations = 30;
  spec.relocation_period_seconds = 300;
  spec.config_seed = 4001973;
  spec.cache = cache::parse_cache_spec("capacity=512k,policy=lru");
  spec.fault = fault::parse_fault_spec(
      "rate crash 1 120\nrate blackout 0.2 60\nhorizon 20000\n"
      "protect_client 1\ndrop 0.002\n");
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec,
      session::parse_session_spec("open 8 6\nadmission shed 4 2\n"));
  EXPECT_EQ(stats.completed_count(), 6);
  EXPECT_EQ(stats.shed_count(), 2);
}

TEST(CacheEngine, ClientKeysDeliveredResultByTheTreeThatBuiltIt) {
  // On this configuration global-order change-overs switch iterations to
  // a new combination order while the client's demand for them is in
  // flight. The client must insert each delivered result under the key of
  // the tree that built it, as computed on arrival, not the key it looked
  // up before demanding: keyed by the old tree, the same run makes 100
  // hits and 483 evictions, not 103 and 481.
  obs::MetricsRegistry metrics;
  ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobalOrder;
  spec.num_servers = 3;
  spec.iterations = 60;
  spec.relocation_period_seconds = 100;
  spec.config_seed = 2120;
  spec.cache = cache::parse_cache_spec("capacity=1m,policy=cost");
  spec.fault = fault::parse_fault_spec(
      "crash 2 300 900\nblackout 1 3 200 500\ndrop 0.01\n");
  spec.obs.metrics = &metrics;
  const session::SessionStats stats = run_session_experiment(
      shared_library(), spec,
      session::parse_session_spec("session 0 id=0\nsession 120 id=1\n"
                                  "session 240 id=2\nsession 360 id=3\n"));
  EXPECT_EQ(stats.completed_count(), 4);
  EXPECT_EQ(metrics.counter("cache.hits").value(), 103);
  EXPECT_EQ(metrics.counter("cache.evictions").value(), 481);
}

TEST(CacheEngine, CrashedReplicaHostIsInvalidatedAndRecomputed) {
  obs::MetricsRegistry metrics;
  ExperimentSpec spec = cached_spec(core::AlgorithmKind::kGlobal, 26);
  spec.obs.metrics = &metrics;
  // Crash every server host transiently, staggered mid-run: every replica
  // a host held is dropped the moment it dies, so no later lookup can be
  // served stale bytes from it. Replicas live at operator hosts (placement-
  // dependent) plus the client, so crashing all servers guarantees at least
  // one populated cache is invalidated. Sessions arriving after a crash
  // recompute what was lost — the run must still complete with full,
  // correct results (the engine's lineage asserts police correctness).
  for (int s = 0; s < spec.num_servers; ++s) {
    fault::HostCrash crash;
    crash.host = 1 + s;
    crash.at = 600 + 150.0 * s;
    crash.restart_at = crash.at + 400;
    spec.fault.crashes.push_back(crash);
  }

  session::SessionSpec sessions;
  sessions.mode = session::ArrivalMode::kExplicit;
  for (int i = 0; i < 3; ++i) {
    session::ExplicitArrival a;
    a.arrival_seconds = 500.0 * i;  // spans the crash window
    a.id = i;
    sessions.arrivals.push_back(a);
  }
  const session::SessionStats stats =
      run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(stats.completed_count(), 3);
  for (const session::SessionRecord& r : stats.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
  EXPECT_GT(metrics.counter("cache.invalidated_replicas").value(), 0);
}

// Every placement algorithm must compose with the cache's pruned-demand
// protocol under transient faults — the prune path touches the demand wave
// the §2.2 barrier rides on, so this matrix is the regression net for the
// change-over/prune interaction.
using CacheFaultParam = std::tuple<core::AlgorithmKind, std::uint64_t>;

class CacheFaultMatrixTest
    : public ::testing::TestWithParam<CacheFaultParam> {};

TEST_P(CacheFaultMatrixTest, CompletesUnderFaultsWithCache) {
  const auto [algorithm, seed] = GetParam();
  ExperimentSpec spec = cached_spec(algorithm, 7000 + seed);
  spec.fault.random.crash_rate_per_hour = 1.5;
  spec.fault.random.mean_downtime_seconds = 200;
  spec.fault.random.horizon_seconds = 86400;
  spec.fault.random.protect_client = true;
  spec.fault.drop_probability = 0.001;
  const session::SessionStats a = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(2));
  ASSERT_EQ(a.completed_count(), 2);
  for (const session::SessionRecord& r : a.sessions()) {
    EXPECT_EQ(r.images, spec.iterations);
  }
  // And deterministically so.
  const session::SessionStats b = run_session_experiment(
      shared_library(), spec, session::SessionSpec::concurrent_clients(2));
  ASSERT_EQ(b.sessions().size(), a.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    EXPECT_EQ(a.sessions()[i].end_seconds, b.sessions()[i].end_seconds);
  }
}

std::string cache_fault_name(
    const ::testing::TestParamInfo<CacheFaultParam>& info) {
  const auto [algorithm, seed] = info.param;
  std::string name = std::string(core::algorithm_name(algorithm)) + "_seed" +
                     std::to_string(seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    SeedMatrix, CacheFaultMatrixTest,
    ::testing::Combine(::testing::Values(core::AlgorithmKind::kOneShot,
                                         core::AlgorithmKind::kGlobal,
                                         core::AlgorithmKind::kLocal,
                                         core::AlgorithmKind::kGlobalOrder),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    cache_fault_name);

}  // namespace
}  // namespace wadc::exp
