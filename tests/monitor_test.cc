// Unit tests for the monitoring subsystem: caches, passive measurement,
// piggybacking and on-demand probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"

namespace wadc::monitor {
namespace {

TEST(BandwidthCache, RecordsAndLooksUp) {
  BandwidthCache cache(4, 40.0);
  cache.record(1, 2, 5000.0, 10.0);
  const auto s = cache.lookup(2, 1, 20.0);  // symmetric lookup
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->bandwidth, 5000.0);
  EXPECT_DOUBLE_EQ(s->measured_at, 10.0);
}

TEST(BandwidthCache, MissingEntryIsNullopt) {
  BandwidthCache cache(4, 40.0);
  EXPECT_FALSE(cache.lookup(0, 1, 0.0).has_value());
}

TEST(BandwidthCache, EntriesTimeOutAfterTThres) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1000.0, 0.0);
  EXPECT_TRUE(cache.lookup(0, 1, 40.0).has_value());   // exactly at TTL
  EXPECT_FALSE(cache.lookup(0, 1, 40.01).has_value());  // expired
  // But lookup_any_age still sees it.
  EXPECT_TRUE(cache.lookup_any_age(0, 1).has_value());
}

TEST(BandwidthCache, NewerMeasurementWins) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1000.0, 5.0);
  cache.record(0, 1, 2000.0, 10.0);
  cache.record(0, 1, 3000.0, 7.0);  // older: ignored
  EXPECT_DOUBLE_EQ(cache.lookup(0, 1, 12.0)->bandwidth, 2000.0);
}

TEST(BandwidthCache, FreshestReturnsNewestFirstUpToBudget) {
  BandwidthCache cache(5, 40.0);
  cache.record(0, 1, 1.0, 1.0);
  cache.record(0, 2, 2.0, 9.0);
  cache.record(1, 2, 3.0, 5.0);
  cache.record(3, 4, 4.0, 7.0);
  const auto top2 = cache.freshest(10.0, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].sample.measured_at, 9.0);
  EXPECT_DOUBLE_EQ(top2[1].sample.measured_at, 7.0);
}

TEST(BandwidthCache, FreshestSkipsExpired) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1.0, 0.0);
  cache.record(0, 2, 2.0, 50.0);
  const auto fresh = cache.freshest(80.0, 10);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].a, 0);
  EXPECT_EQ(fresh[0].b, 2);
}

TEST(BandwidthCache, MergeTakesNewerEntries) {
  BandwidthCache mine(4, 40.0);
  mine.record(0, 1, 100.0, 5.0);
  mine.record(0, 2, 200.0, 8.0);
  std::vector<PairSample> incoming = {
      {0, 1, {999.0, 9.0}},  // newer: taken
      {0, 2, {888.0, 2.0}},  // older: ignored
      {1, 3, {777.0, 3.0}},  // new pair: taken
  };
  mine.merge(incoming);
  EXPECT_DOUBLE_EQ(mine.lookup(0, 1, 10.0)->bandwidth, 999.0);
  EXPECT_DOUBLE_EQ(mine.lookup(0, 2, 10.0)->bandwidth, 200.0);
  EXPECT_DOUBLE_EQ(mine.lookup(1, 3, 10.0)->bandwidth, 777.0);
  EXPECT_EQ(mine.entry_count(), 3u);
}

TEST(BandwidthCache, UnexpiredCount) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 1.0, 0.0);
  cache.record(0, 2, 2.0, 30.0);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.unexpired_count(50.0), 1u);
}

// ---- MonitoringSystem --------------------------------------------------------

struct MonitorFixture {
  explicit MonitorFixture(MonitorParams params = {}, int hosts = 4)
      : tr(10.0, {10000.0}), links(hosts) {
    for (net::HostId a = 0; a < hosts; ++a) {
      for (net::HostId b = a + 1; b < hosts; ++b) links.set_link(a, b, &tr);
    }
    network = std::make_unique<net::Network>(sim, links, net::NetworkParams{});
    monitoring = std::make_unique<MonitoringSystem>(*network, params);
  }
  sim::Simulation sim;
  trace::BandwidthTrace tr;
  net::LinkTable links;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<MonitoringSystem> monitoring;
};

TEST(MonitoringSystem, PassiveMeasurementAtBothEndpoints) {
  MonitorFixture f;
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 20000.0);  // >= S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 1u);
  const auto now = f.sim.now();
  EXPECT_TRUE(f.monitoring->cached_bandwidth(0, 0, 1).has_value());
  EXPECT_TRUE(f.monitoring->cached_bandwidth(1, 0, 1).has_value());
  EXPECT_FALSE(f.monitoring->cached_bandwidth(2, 0, 1).has_value());
  // Measured app-level bandwidth includes the startup cost.
  const double expected = 20000.0 / (0.05 + 2.0);
  EXPECT_NEAR(*f.monitoring->cached_bandwidth(0, 0, 1), expected, 1e-6);
  (void)now;
}

TEST(MonitoringSystem, SmallMessagesAreNotMeasured) {
  MonitorFixture f;
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 1000.0);  // below S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 0u);
  EXPECT_FALSE(f.monitoring->cached_bandwidth(0, 0, 1).has_value());
}

TEST(MonitoringSystem, PiggybackPayloadRespectsBudget) {
  // The 1 KB budget holds 64 samples of 16 bytes; a cache with 66 carries
  // the freshest 64.
  MonitorFixture f(MonitorParams{}, 13);
  auto& cache = f.monitoring->cache(0);
  int recorded = 0;
  for (net::HostId a = 0; a < 13; ++a) {
    for (net::HostId b = a + 1; b < 13 && recorded < 66; ++b) {
      ++recorded;
      cache.record(a, b, 1000.0 + recorded, recorded);
    }
  }
  ASSERT_EQ(recorded, 66);
  const auto payload = f.monitoring->piggyback_payload(0);
  EXPECT_EQ(payload.size(), 64u);
  EXPECT_DOUBLE_EQ(f.monitoring->payload_bytes(payload), 1024.0);
  for (const auto& sample : payload) {
    EXPECT_GT(sample.sample.measured_at, 2.0);  // the two oldest stay out
  }
}

TEST(MonitoringSystem, PayloadDeliveryMergesIntoReceiver) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 123.0, 1.0);
  const auto payload = f.monitoring->piggyback_payload(0);
  ASSERT_EQ(payload.size(), 1u);
  f.monitoring->deliver_payload(3, payload);
  EXPECT_TRUE(f.monitoring->cached_bandwidth(3, 0, 1).has_value());
}

TEST(MonitoringSystem, PiggybackDisabledYieldsEmptyPayload) {
  MonitorParams params;
  params.piggyback_enabled = false;
  MonitorFixture f(params);
  f.monitoring->cache(0).record(0, 1, 123.0, 1.0);
  EXPECT_TRUE(f.monitoring->piggyback_payload(0).empty());
}

TEST(MonitoringSystem, FetchUsesCacheWithoutProbing) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 4242.0, 0.0);
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 4242.0);
  EXPECT_EQ(f.monitoring->probes_issued(), 0u);
}

TEST(MonitoringSystem, FetchProbesDirectPair) {
  MonitorFixture f;
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 2);
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(f.monitoring->probes_issued(), 1u);
  // Both probe endpoints now know the bandwidth.
  EXPECT_TRUE(f.monitoring->cached_bandwidth(2, 0, 2).has_value());
  // The probe took simulated time (two 16KB transfers).
  EXPECT_GT(f.sim.now(), 0.0);
}

TEST(MonitoringSystem, FetchDelegatesThirdPartyProbe) {
  MonitorFixture f;
  std::optional<double> got;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 2, 3);  // requester not an endpoint
  }(*f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(f.monitoring->probes_issued(), 1u);
  // The requester learned the third-party bandwidth via the reply payload.
  EXPECT_TRUE(f.monitoring->cache(0).lookup_any_age(2, 3).has_value());
}

TEST(MonitoringSystem, ProbingDisabledFallsBackToStale) {
  MonitorParams params;
  params.probing_enabled = false;
  MonitorFixture f(params);
  f.monitoring->cache(0).record(0, 1, 777.0, 0.0);
  std::optional<double> got;
  f.sim.spawn([](sim::Simulation& s, MonitoringSystem& m,
                 std::optional<double>& out) -> sim::Task<> {
    co_await s.delay(100.0);  // let the entry expire (TTL 40 s)
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(f.sim, *f.monitoring, got));
  f.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 777.0);  // stale value, but better than nothing
  EXPECT_EQ(f.monitoring->probes_issued(), 0u);
}

TEST(MonitoringSystem, ProbingDisabledUnknownPairIsNullopt) {
  MonitorParams params;
  params.probing_enabled = false;
  MonitorFixture f(params);
  std::optional<double> got = 1.0;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 1, 2);
  }(*f.monitoring, got));
  f.sim.run();
  EXPECT_FALSE(got.has_value());
}

TEST(MonitoringSystem, ProbeLegsFeedPassiveMonitoringEverywhere) {
  // The two probe legs are ordinary >= S_thres transfers, so they also
  // refresh the passive samples (2 legs -> 2 passive samples).
  MonitorFixture f;
  f.sim.spawn([](MonitoringSystem& m) -> sim::Task<> {
    (void)co_await m.fetch_bandwidth(1, 1, 3);
  }(*f.monitoring));
  f.sim.run();
  EXPECT_EQ(f.monitoring->passive_samples(), 2u);
}

// ---- cache-expiry and invalidation edge cases -----------------------------

TEST(BandwidthCache, InvalidateDropsOnlyTheNamedPair) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 1.0);
  cache.record(0, 2, 200.0, 1.0);
  cache.invalidate(1, 0);  // order-insensitive
  EXPECT_FALSE(cache.lookup_any_age(0, 1).has_value());
  EXPECT_TRUE(cache.lookup_any_age(0, 2).has_value());
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(BandwidthCache, InvalidateHostDropsEveryPairTouchingIt) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 1.0);
  cache.record(1, 2, 200.0, 1.0);
  cache.record(1, 3, 300.0, 1.0);
  cache.record(2, 3, 400.0, 1.0);
  cache.invalidate_host(1);
  EXPECT_FALSE(cache.lookup_any_age(0, 1).has_value());
  EXPECT_FALSE(cache.lookup_any_age(1, 2).has_value());
  EXPECT_FALSE(cache.lookup_any_age(1, 3).has_value());
  EXPECT_TRUE(cache.lookup_any_age(2, 3).has_value());
  // An invalidated entry can be re-learned afterwards.
  cache.record(0, 1, 555.0, 2.0);
  EXPECT_DOUBLE_EQ(cache.lookup(0, 1, 3.0)->bandwidth, 555.0);
}

TEST(BandwidthCache, FreshestAndUnexpiredAgreeAtExactTtlBoundary) {
  // Age == TTL is *fresh* everywhere (lookup, freshest, unexpired_count):
  // the three consumers must share one expiry rule.
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 0.0);
  EXPECT_TRUE(cache.lookup(0, 1, 40.0).has_value());
  EXPECT_EQ(cache.freshest(40.0, 10).size(), 1u);
  EXPECT_EQ(cache.unexpired_count(40.0), 1u);
  EXPECT_FALSE(cache.lookup(0, 1, 40.0 + 1e-9).has_value());
  EXPECT_EQ(cache.freshest(40.0 + 1e-9, 10).size(), 0u);
  EXPECT_EQ(cache.unexpired_count(40.0 + 1e-9), 0u);
}

TEST(MonitoringSystem, ProbeRacingPassiveUpdateKeepsNewestSample) {
  // A probe for {0, 1} and a large passive-measured transfer on the same
  // pair contend for the same endpoints; whichever measurement lands last
  // must win in both caches (newer-timestamp-wins, no clobbering by the
  // slower path).
  MonitorFixture f;
  f.sim.spawn([](MonitoringSystem& m) -> sim::Task<> {
    (void)co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring));
  f.sim.spawn([](net::Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 64.0 * 1024);  // passive: >= S_thres
  }(*f.network));
  f.sim.run();
  EXPECT_GE(f.monitoring->passive_samples(), 3u);  // 2 probe legs + transfer
  const auto at0 = f.monitoring->cache(0).lookup_any_age(0, 1);
  const auto at1 = f.monitoring->cache(1).lookup_any_age(0, 1);
  ASSERT_TRUE(at0.has_value());
  ASSERT_TRUE(at1.has_value());
  // Both endpoints observed every measurement, so they agree on the newest.
  EXPECT_DOUBLE_EQ(at0->measured_at, at1->measured_at);
  EXPECT_DOUBLE_EQ(at0->bandwidth, at1->bandwidth);
}

TEST(MonitoringSystem, InvalidateHostScrubsEveryCache) {
  MonitorFixture f;
  f.monitoring->cache(0).record(0, 1, 100.0, 1.0);
  f.monitoring->cache(0).record(2, 3, 400.0, 1.0);
  f.monitoring->cache(2).record(1, 2, 200.0, 1.0);
  f.monitoring->cache(3).record(1, 3, 300.0, 1.0);
  f.monitoring->invalidate_host(1);
  EXPECT_FALSE(f.monitoring->cache(0).lookup_any_age(0, 1).has_value());
  EXPECT_FALSE(f.monitoring->cache(2).lookup_any_age(1, 2).has_value());
  EXPECT_FALSE(f.monitoring->cache(3).lookup_any_age(1, 3).has_value());
  EXPECT_TRUE(f.monitoring->cache(0).lookup_any_age(2, 3).has_value());
}

TEST(MonitoringSystem, ProbeAgainstDeadHostTimesOutInsteadOfHanging) {
  MonitorParams params;
  params.probe_timeout_seconds = 30.0;
  MonitorFixture f(params);
  f.network->set_host_alive(1, false);
  std::optional<double> got = 1.0;
  f.sim.spawn([](MonitoringSystem& m, std::optional<double>& out)
                  -> sim::Task<> {
    out = co_await m.fetch_bandwidth(0, 0, 1);
  }(*f.monitoring, got));
  f.sim.run();  // must terminate: the probe leg times out at t=30
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(f.monitoring->passive_samples(), 0u);
  EXPECT_GE(f.sim.now(), 30.0);
}

// ---- self pairs ------------------------------------------------------------

TEST(BandwidthCacheDeathTest, RejectsAPairOfAHostWithItself) {
  // A host has no link to itself, so there is no entry to read or write;
  // every build type refuses instead of indexing outside the table.
  BandwidthCache cache(4, 40.0);
  const char* msg = "bandwidth cache pair of host 0 with itself";
  EXPECT_DEATH(cache.record(0, 0, 100.0, 1.0), msg);
  EXPECT_DEATH((void)cache.lookup(0, 0, 1.0), msg);
  EXPECT_DEATH((void)cache.lookup_any_age(0, 0), msg);
  EXPECT_DEATH(cache.invalidate(0, 0), msg);
  // Likewise a measurement before time 0: a negative time marks "never
  // measured".
  EXPECT_DEATH(cache.record(0, 1, 100.0, -1.0), "measurement before time 0");
}

// ---- differential: payload builder against scan, sort and truncate --------
//
// ReferenceCache is the payload builder with nothing incremental in it:
// every rebuild scans all pairs, sorts and truncates, memoized on a version
// counter that every content change bumps. BandwidthCache must return the
// same payloads on seeded random sequences of records in both argument
// orders, merges, invalidations and advancing time — including samples
// exactly at age == TTL, truncation at K, memo hits, and samples that
// arrive already expired. A payload that is not truncated comes in no
// particular order, so a sorted copy of it is compared.

// Newest first, ties by pair: the order of a truncated payload.
bool newer_first(const PairSample& x, const PairSample& y) {
  if (x.sample.measured_at != y.sample.measured_at) {
    return x.sample.measured_at > y.sample.measured_at;
  }
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

std::vector<PairSample> sorted(std::vector<PairSample> samples) {
  std::sort(samples.begin(), samples.end(), newer_first);
  return samples;
}

class ReferenceCache {
 public:
  ReferenceCache(int n, double ttl)
      : n_(n), ttl_(ttl), entries_(net::pair_count(n)) {}

  void record(net::HostId a, net::HostId b, double bw, double at) {
    Sample& e = entries_[net::pair_index(a, b, n_)];
    if (at > e.measured_at) {
      e = Sample{bw, at};
      ++version_;
    }
  }
  void invalidate(net::HostId a, net::HostId b) {
    entries_[net::pair_index(a, b, n_)] = Sample{};
    ++version_;
  }
  void invalidate_host(net::HostId h) {
    for (net::HostId o = 0; o < n_; ++o) {
      if (o != h) entries_[net::pair_index(h, o, n_)] = Sample{};
    }
    ++version_;
  }
  // Entries with age <= TTL at `now`; every measured entry at infinity.
  std::size_t fresh_count(double now) const {
    std::size_t count = 0;
    for (const Sample& e : entries_) {
      if (e.measured_at >= 0 &&
          (now == sim::kTimeInfinity || now - e.measured_at <= ttl_)) {
        ++count;
      }
    }
    return count;
  }
  std::vector<PairSample> freshest(double now, std::size_t k) {
    memo_hit_ = memo_version_ == version_ && memo_k_ == k && now <= memo_until_;
    if (memo_hit_) return memo_;
    std::vector<PairSample> fresh;
    for (net::HostId a = 0; a < n_; ++a) {
      for (net::HostId b = a + 1; b < n_; ++b) {
        const Sample& e = entries_[net::pair_index(a, b, n_)];
        if (e.measured_at < 0 || now - e.measured_at > ttl_) continue;
        fresh.push_back(PairSample{a, b, e});
      }
    }
    std::sort(fresh.begin(), fresh.end(), newer_first);
    if (fresh.size() > k) fresh.resize(k);
    memo_ = fresh;
    memo_version_ = version_;
    memo_k_ = k;
    memo_until_ = fresh.empty() ? sim::kTimeInfinity
                                : fresh.back().sample.measured_at + ttl_;
    return fresh;
  }
  // Whether the last freshest() call was served from the memo.
  bool memo_hit() const { return memo_hit_; }

 private:
  int n_;
  double ttl_;
  std::vector<Sample> entries_;
  std::uint64_t version_ = 0;
  std::vector<PairSample> memo_;
  std::uint64_t memo_version_ = ~std::uint64_t{0};
  std::size_t memo_k_ = 0;
  double memo_until_ = -1;
  bool memo_hit_ = false;
};

bool same_samples(const std::vector<PairSample>& x,
                  const std::vector<PairSample>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b ||
        x[i].sample.bandwidth != y[i].sample.bandwidth ||
        x[i].sample.measured_at != y[i].sample.measured_at) {
      return false;
    }
  }
  return true;
}

TEST(BandwidthCacheDifferential, MatchesScanSortTruncateReference) {
  constexpr double kTtl = 40.0;
  std::uint64_t memo_hits = 0;
  std::uint64_t reused = 0;  // rebuilds into the memo's own vector
  std::uint64_t truncated = 0;
  std::uint64_t at_ttl = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int n = 3 + static_cast<int>(rng.next_below(7));
    BandwidthCache cache(n, kTtl);
    ReferenceCache ref(n, kTtl);
    const auto host = [&] {
      return static_cast<net::HostId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
    };
    const auto pair = [&] {
      const net::HostId a = host();
      net::HostId b = host();
      if (b == a) b = (a + 1) % n;
      return std::make_pair(a, b);
    };
    // Quarter-second grid: ages land exactly on the TTL, and equal
    // timestamps exercise the (a, b) tie order.
    const auto stamp = [&](double now) {
      return std::max(0.0, now - 0.25 * static_cast<double>(
                                            rng.next_below(200)));
    };
    const std::size_t ks[] = {1, 3, 8, 64};
    std::size_t k = ks[rng.next_below(4)];
    double now = 0;
    // Payloads handed out earlier, as in-flight messages hold them; a later
    // rebuild must never change them.
    std::vector<std::pair<Payload, std::vector<PairSample>>> held;
    const void* last_built = nullptr;
    for (int step = 0; step < 400; ++step) {
      switch (rng.next_below(10)) {
        case 0:
        case 1:
        case 2: {
          const auto [a, b] = pair();
          const double at = stamp(now);
          const double bw = rng.uniform(1e3, 1e5);
          cache.record(a, b, bw, at);
          ref.record(a, b, bw, at);
          break;
        }
        case 3: {
          std::vector<PairSample> incoming;
          for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
            const auto [a, b] = pair();
            incoming.push_back(
                PairSample{a, b, Sample{rng.uniform(1e3, 1e5), stamp(now)}});
          }
          cache.merge(incoming);
          for (const PairSample& ps : incoming) {
            ref.record(ps.a, ps.b, ps.sample.bandwidth,
                       ps.sample.measured_at);
          }
          break;
        }
        case 4:
          if (rng.bernoulli(0.3)) {
            const auto [a, b] = pair();
            cache.invalidate(a, b);
            ref.invalidate(a, b);
          } else if (rng.bernoulli(0.2)) {
            const net::HostId h = host();
            cache.invalidate_host(h);
            ref.invalidate_host(h);
          }
          break;
        case 5:
        case 6:
          now += 0.25 * static_cast<double>(rng.next_below(40));
          break;
        case 7:
          if (rng.bernoulli(0.1)) k = ks[rng.next_below(4)];
          break;
        default: {
          const Payload got = cache.freshest_shared(now, k);
          const std::vector<PairSample> want = ref.freshest(now, k);
          ASSERT_TRUE(same_samples(sorted(*got), want)) << "step " << step;
          // The previous snapshot is either still alive or reused, so the
          // same address on a rebuild means its vector was reused.
          if (ref.memo_hit()) {
            ++memo_hits;
          } else if (got.get() == last_built) {
            ++reused;
          }
          last_built = got.get();
          if (want.size() == k) ++truncated;
          for (const PairSample& ps : want) {
            if (now - ps.sample.measured_at == kTtl) ++at_ttl;
          }
          EXPECT_EQ(cache.unexpired_count(now), ref.fresh_count(now));
          if (rng.bernoulli(0.3)) held.emplace_back(got, *got);
          if (held.size() > 4) held.erase(held.begin());
          break;
        }
      }
      for (const auto& [payload, copy] : held) {
        ASSERT_TRUE(same_samples(*payload, copy)) << "step " << step;
      }
      // The running measured-pair count matches a full scan after every
      // step, not only at payload builds.
      ASSERT_EQ(cache.entry_count(), ref.fresh_count(sim::kTimeInfinity))
          << "step " << step;
    }
  }
  // The sequences reach the cases that matter.
  EXPECT_GT(memo_hits, 0u);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(at_ttl, 0u);
}

// Merging is order-insensitive: one payload merged forwards, reversed and
// shuffled into three copies of a cache leaves the same lookups, counts and
// next payload (as a set). The payloads carry each pair once, and the
// copies hold older and newer samples of the same pairs, so some merged
// samples win and some lose.
TEST(BandwidthCache, MergeOrderDoesNotMatter) {
  constexpr double kTtl = 40.0;
  std::uint64_t taken = 0;
  std::uint64_t ignored = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int n = 3 + static_cast<int>(rng.next_below(10));
    BandwidthCache sender(n, kTtl);
    BandwidthCache forwards(n, kTtl);
    BandwidthCache reversed(n, kTtl);
    BandwidthCache shuffled(n, kTtl);
    double now = 0;
    for (int step = 0; step < 200; ++step) {
      now += 0.25 * static_cast<double>(rng.next_below(8));
      const auto a = static_cast<net::HostId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<net::HostId>(
          (a + 1 + static_cast<net::HostId>(rng.next_below(
                       static_cast<std::uint64_t>(n - 1)))) % n);
      const double bw = rng.uniform(1e3, 1e5);
      const double at = std::max(
          0.0, now - 0.25 * static_cast<double>(rng.next_below(200)));
      if (rng.bernoulli(0.5)) {
        sender.record(a, b, bw, at);
      } else {
        for (BandwidthCache* c : {&forwards, &reversed, &shuffled}) {
          c->record(a, b, bw, at);
        }
      }
      if (!rng.bernoulli(0.1)) continue;

      const std::size_t k = rng.bernoulli(0.2) ? 4 : 64;
      std::vector<PairSample> payload = sender.freshest(now, k);
      for (const PairSample& ps : payload) {
        const auto held = forwards.lookup_any_age(ps.a, ps.b);
        if (held && held->measured_at >= ps.sample.measured_at) {
          ++ignored;
        } else {
          ++taken;
        }
      }
      forwards.merge(payload);
      std::reverse(payload.begin(), payload.end());
      reversed.merge(payload);
      for (std::size_t i = payload.size(); i > 1; --i) {
        std::swap(payload[i - 1], payload[rng.next_below(i)]);
      }
      shuffled.merge(payload);

      const double later = now + 0.25 * static_cast<double>(rng.next_below(80));
      const auto want = sorted(forwards.freshest(later, k));
      for (const BandwidthCache* c : {&reversed, &shuffled}) {
        ASSERT_EQ(c->entry_count(), forwards.entry_count());
        ASSERT_EQ(c->unexpired_count(later), forwards.unexpired_count(later));
        for (net::HostId x = 0; x < n; ++x) {
          for (net::HostId y = x + 1; y < n; ++y) {
            const auto got = c->lookup(x, y, later);
            const auto ref = forwards.lookup(x, y, later);
            ASSERT_EQ(got.has_value(), ref.has_value());
            if (got) {
              ASSERT_EQ(got->bandwidth, ref->bandwidth);
              ASSERT_EQ(got->measured_at, ref->measured_at);
            }
          }
        }
        ASSERT_TRUE(same_samples(sorted(c->freshest(later, k)), want));
      }
      now = later;
    }
  }
  // Merged samples both replace and lose to what the receivers hold.
  EXPECT_GT(taken, 0u);
  EXPECT_GT(ignored, 0u);
}

TEST(BandwidthCache, PayloadTimeMustNotGoBackwards) {
  BandwidthCache cache(4, 40.0);
  cache.record(0, 1, 100.0, 0.0);
  (void)cache.freshest_shared(50.0, 8);  // forgets the expired pair
  EXPECT_DEATH((void)cache.freshest_shared(10.0, 8),
               "payload time went backwards");
}

}  // namespace
}  // namespace wadc::monitor
