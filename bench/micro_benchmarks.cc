// Google-benchmark microbenchmarks for the substrate hot paths: the event
// queue (including cancelled timeouts and current-time wake-ups), trace
// integration, the branch-and-bound critical path, the one-shot
// planner (from scratch, and replanning on sparse knowledge as runs do),
// piggyback payload construction (memo hits, and a rebuild after each
// record as runs do), the result cache's evicting insert and replica
// lookup, callback dispatch (sim::Callback vs std::function), the parallel
// sweep runner, and a full end-to-end run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <functional>
#include <thread>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cache_key.h"
#include "cache/fabric.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "core/bandwidth_resolver.h"
#include "core/cost_model.h"
#include "core/one_shot.h"
#include "exp/experiment.h"
#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/link_table.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"
#include "trace/generator.h"
#include "trace/library.h"

namespace {

using namespace wadc;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    long counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(static_cast<double>(i % 97), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

// The fault-mode hop shape: every message arms a cancellable timeout ~450 s
// out (120 s plus 128 KiB at the pessimistic 400 B/s) and cancels it when
// the message lands a fraction of a second later. `flows` messages are in
// flight at once, each with one live timeout.
struct TimeoutFlow {
  sim::Simulation* sim;
  double hop_seconds;
  int hops_left;
  sim::EventSeq timeout = sim::kNoEventSeq;

  void send() {
    timeout = sim->schedule_at_cancellable(sim->now() + 450.0, [] {});
    sim->schedule_in(hop_seconds, [this] { land(); });
  }
  void land() {
    sim->cancel_scheduled(timeout);
    if (--hops_left > 0) send();
  }
};

void BM_EventQueueTimeouts(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  constexpr int kHops = 256;
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<TimeoutFlow> fs;
    fs.reserve(static_cast<std::size_t>(flows));
    for (int i = 0; i < flows; ++i) {
      fs.push_back(TimeoutFlow{&sim, 0.2 + 0.01 * (i % 37), kHops});
      fs.back().send();
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * flows * kHops);
}
BENCHMARK(BM_EventQueueTimeouts)->Arg(16)->Arg(128);

// Wake-ups at the current time — resumed waiters, zero-delay yields — with
// `pending` later events in the queue, as in a run between two transfers.
void BM_EventQueueWakeNow(benchmark::State& state) {
  const auto pending = static_cast<int>(state.range(0));
  constexpr int kWakeUps = 4096;
  struct Chain {
    sim::Simulation* sim;
    int* left;
    void operator()() const {
      if (--*left > 0) sim->schedule_in(0.0, *this);
    }
  };
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < pending; ++i) {
      sim.schedule_at(10.0 + static_cast<double>(i), [] {});
    }
    int left = kWakeUps;
    sim.schedule_at(1.0, Chain{&sim, &left});
    sim.run(2.0);
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(state.iterations() * kWakeUps);
}
BENCHMARK(BM_EventQueueWakeNow)->Arg(4)->Arg(256);

// Same schedule/run loop with a by-value capture larger than the Callback
// inline buffer, forcing the heap storage path on every event.
void BM_EventQueueScheduleRunLargeCapture(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::array<unsigned char, 96> blob{};
  for (auto _ : state) {
    sim::Simulation sim;
    long counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(static_cast<double>(i % 97),
                      [&counter, blob] { counter += 1 + blob[0]; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRunLargeCapture)->Arg(1024)->Arg(16384);

// Construct + invoke + destroy cost of the SBO callback vs std::function,
// with a pointer-sized capture (inline for both) and a 96-byte capture
// (heap for sim::Callback, heap for std::function too).
void BM_CallbackDispatchSmall(benchmark::State& state) {
  long counter = 0;
  for (auto _ : state) {
    sim::Callback cb([&counter] { ++counter; });
    cb();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_CallbackDispatchSmall);

void BM_StdFunctionDispatchSmall(benchmark::State& state) {
  long counter = 0;
  for (auto _ : state) {
    std::function<void()> fn([&counter] { ++counter; });
    fn();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_StdFunctionDispatchSmall);

// 40-byte capture: the shape of the kernel's transfer-completion lambdas.
// Inline for sim::Callback (40-byte buffer), heap for std::function (16-byte
// buffer on libstdc++) — the case the SBO width was chosen for.
void BM_CallbackDispatchMid(benchmark::State& state) {
  long counter = 0;
  std::array<unsigned char, 32> blob{};
  for (auto _ : state) {
    sim::Callback cb([&counter, blob] { counter += 1 + blob[0]; });
    cb();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_CallbackDispatchMid);

void BM_StdFunctionDispatchMid(benchmark::State& state) {
  long counter = 0;
  std::array<unsigned char, 32> blob{};
  for (auto _ : state) {
    std::function<void()> fn([&counter, blob] { counter += 1 + blob[0]; });
    fn();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_StdFunctionDispatchMid);

void BM_CallbackDispatchLarge(benchmark::State& state) {
  long counter = 0;
  std::array<unsigned char, 96> blob{};
  for (auto _ : state) {
    sim::Callback cb([&counter, blob] { counter += 1 + blob[0]; });
    cb();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_CallbackDispatchLarge);

void BM_StdFunctionDispatchLarge(benchmark::State& state) {
  long counter = 0;
  std::array<unsigned char, 96> blob{};
  for (auto _ : state) {
    std::function<void()> fn([&counter, blob] { counter += 1 + blob[0]; });
    fn();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_StdFunctionDispatchLarge);

void BM_TraceFinishTime(benchmark::State& state) {
  const trace::TraceGenerator gen(trace::TraceGenParams{}, 7);
  const auto tr = gen.generate(trace::PairClass::kCrossCountry, 0);
  double t = 0;
  for (auto _ : state) {
    t = tr.finish_time(t, 128.0 * 1024);
    if (t > tr.duration_seconds()) t = 0;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TraceFinishTime);

void BM_TraceGeneration(benchmark::State& state) {
  const trace::TraceGenerator gen(trace::TraceGenParams{}, 7);
  std::uint64_t label = 0;
  for (auto _ : state) {
    const auto tr = gen.generate(trace::PairClass::kTransatlantic, label++);
    benchmark::DoNotOptimize(tr.sample_count());
  }
}
BENCHMARK(BM_TraceGeneration);

core::MapResolver full_resolver(int hosts, std::uint64_t seed) {
  Rng rng(seed);
  core::MapResolver r;
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) {
      r.set(a, b, rng.uniform(2e3, 300e3));
    }
  }
  return r;
}

void BM_CriticalPath(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const auto tree = core::CombinationTree::complete_binary(servers);
  const core::CostModel model(tree, core::CostModelParams{});
  auto resolver = full_resolver(tree.num_hosts(), 11);
  Rng rng(3);
  core::Placement p = core::Placement::all_at_client(tree);
  for (core::OperatorId op = 0; op < tree.num_operators(); ++op) {
    p.set_location(op, static_cast<net::HostId>(
                           rng.next_below(static_cast<std::uint64_t>(
                               tree.num_hosts()))));
  }
  for (auto _ : state) {
    const auto cp = model.critical_path(p, resolver);
    benchmark::DoNotOptimize(cp.cost);
  }
}
BENCHMARK(BM_CriticalPath)->Arg(8)->Arg(32);

void BM_OneShotPlan(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const auto tree = core::CombinationTree::complete_binary(servers);
  const core::CostModel model(tree, core::CostModelParams{});
  const core::OneShotPlanner planner(model);
  auto resolver = full_resolver(tree.num_hosts(), 11);
  for (auto _ : state) {
    const auto outcome = planner.plan_from_scratch(resolver);
    benchmark::DoNotOptimize(outcome.cost);
  }
}
BENCHMARK(BM_OneShotPlan)->Arg(8)->Arg(32);

// A replan as a run makes it: from the placement an earlier plan chose,
// on what the client knows now — other bandwidths, with 18% of the pairs
// unknown. At 8 servers the plan reports 7 unknown pairs (counter
// `unknown_pairs`).
void BM_OneShotReplanSparse(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const auto tree = core::CombinationTree::complete_binary(servers);
  const core::CostModel model(tree, core::CostModelParams{});
  const core::OneShotPlanner planner(model);
  auto earlier = full_resolver(tree.num_hosts(), 11);
  const core::Placement current = planner.plan_from_scratch(earlier).placement;
  Rng rng(17);
  core::MapResolver known;
  for (int a = 0; a < tree.num_hosts(); ++a) {
    for (int b = a + 1; b < tree.num_hosts(); ++b) {
      if (!rng.bernoulli(0.18)) known.set(a, b, rng.uniform(2e3, 300e3));
    }
  }
  core::PlanOutcome outcome;
  for (auto _ : state) {
    outcome = planner.plan(known, current);
    benchmark::DoNotOptimize(outcome.cost);
  }
  state.counters["unknown_pairs"] =
      static_cast<double>(outcome.unknown_pairs.size());
  state.counters["candidates"] =
      static_cast<double>(outcome.candidates_evaluated);
}
BENCHMARK(BM_OneShotReplanSparse)->Arg(8)->Arg(32);

void BM_PiggybackPayload(benchmark::State& state) {
  const int hosts = 33;
  monitor::BandwidthCache cache(hosts, 40.0);
  Rng rng(5);
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) {
      cache.record(a, b, rng.uniform(1e3, 1e5), rng.uniform(0, 39));
    }
  }
  for (auto _ : state) {
    const auto payload = cache.freshest(40.0, 64);
    benchmark::DoNotOptimize(payload.size());
  }
}
BENCHMARK(BM_PiggybackPayload);

// A payload rebuild after each record: 9 hosts (8 servers and the
// client), one new sample every 7 s of simulated time against the 40 s
// T_thres, so 6 pairs are fresh at each build, and no message still holds
// the previous payload.
void BM_PiggybackRebuild(benchmark::State& state) {
  const int hosts = 9;
  monitor::BandwidthCache cache(hosts, 40.0);
  std::vector<std::array<int, 2>> pairs;
  for (int a = 0; a < hosts; ++a) {
    for (int b = a + 1; b < hosts; ++b) pairs.push_back({a, b});
  }
  double now = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    now += 7.0;
    const auto [a, b] = pairs[next];
    next = (next + 1) % pairs.size();
    cache.record(a, b, 1e3 + 100.0 * static_cast<double>(next), now);
    benchmark::DoNotOptimize(cache.freshest_shared(now, 64)->size());
  }
}
BENCHMARK(BM_PiggybackRebuild);

// The result cache at the sessions_cache shape: 8 MiB per host holding
// 128 KiB results, ~64 per host.
constexpr std::uint64_t kCacheCapacity = 8ull << 20;
constexpr double kCacheImageBytes = 128.0 * 1024;

cache::CacheKey bench_key(std::uint64_t i) {
  return cache::CacheKey{0x9e3779b97f4a7c15ull * (i + 1),
                         static_cast<std::int32_t>(i % 30)};
}

// Arg: 0 = lru, 1 = cost. The cache holds exactly 64 entries, so every
// insert evicts one.
void BM_ResultCacheInsertAtCapacity(benchmark::State& state) {
  cache::ResultCache rc(kCacheCapacity, state.range(0) == 0
                                            ? cache::EvictionPolicy::kLru
                                            : cache::EvictionPolicy::kCost);
  Rng rng(7);
  std::uint64_t next = 0;
  const auto insert_next = [&] {
    rc.insert(bench_key(next), workload::ImageSpec{kCacheImageBytes, next},
              rng.uniform(1, 100), next + 1);
    ++next;
  };
  while (next < 64) insert_next();
  for (auto _ : state) insert_next();
  benchmark::DoNotOptimize(rc.entries());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultCacheInsertAtCapacity)->Arg(0)->Arg(1);

// Arg: 0 = miss, 1 = hit. Nine hosts (eight servers and a client), ~64
// results on each server, every key on three servers; the client asks, and
// ranks the replicas by its bandwidth estimates.
void BM_CacheFabricLookup(benchmark::State& state) {
  constexpr int kHosts = 9;
  constexpr net::HostId kClient = kHosts - 1;
  constexpr std::uint64_t kKeys = 170;  // 3 replicas each: ~64 per server
  sim::Simulation sim;
  const trace::BandwidthTrace trace(10.0, {10000.0});
  net::LinkTable links(kHosts);
  for (net::HostId a = 0; a < kHosts; ++a) {
    for (net::HostId b = a + 1; b < kHosts; ++b) links.set_link(a, b, &trace);
  }
  net::Network network(sim, links, net::NetworkParams{});
  monitor::MonitoringSystem monitoring(network, monitor::MonitorParams{});
  for (net::HostId h = 0; h < kClient; ++h) {
    monitoring.cache(kClient).record(kClient, h, 1000.0 * (h + 1), 0);
  }
  cache::CacheConfig config;
  config.enabled = true;
  config.capacity_bytes = kCacheCapacity;
  cache::CacheFabric fabric(config, kHosts, &monitoring, obs::Obs{});
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    for (const std::uint64_t offset : {0, 3, 5}) {
      fabric.insert(bench_key(i), workload::ImageSpec{kCacheImageBytes, i},
                    static_cast<net::HostId>((i + offset) % kClient), 10,
                    /*now=*/0, /*session=*/0);
    }
  }
  const std::function<bool(net::HostId)> alive = [](net::HostId) {
    return true;
  };
  const std::uint64_t first = state.range(0) == 0 ? kKeys : 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto hit = fabric.lookup(bench_key(first + i), kClient, alive);
    benchmark::DoNotOptimize(hit);
    i = i + 1 == kKeys ? 0 : i + 1;
  }
}
BENCHMARK(BM_CacheFabricLookup)->Arg(0)->Arg(1);

// The parallel sweep runner over worker counts: 1 (serial path), 2, and all
// hardware threads. Results are byte-identical across worker counts; only
// the wall-clock should change.
void BM_SweepParallel(benchmark::State& state) {
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  exp::SweepSpec sweep;
  sweep.configs = 8;
  sweep.base_seed = 1000;
  sweep.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto series =
        exp::run_sweep(library, sweep, {core::AlgorithmKind::kGlobal});
    benchmark::DoNotOptimize(series[0].speedup.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * sweep.configs);
}
BENCHMARK(BM_SweepParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EndToEndRun(benchmark::State& state) {
  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  exp::ExperimentSpec spec;
  spec.algorithm = static_cast<core::AlgorithmKind>(state.range(0));
  spec.config_seed = 77;
  for (auto _ : state) {
    const auto r = exp::run_experiment(library, spec);
    benchmark::DoNotOptimize(r.completion_seconds);
  }
}
BENCHMARK(BM_EndToEndRun)
    ->Arg(0)   // download-all
    ->Arg(2)   // global
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
