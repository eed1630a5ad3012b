// Tests for the engine-free result-cache layer (src/cache): content-
// addressed key canonicalization, the strict --cache-spec parser, both
// eviction policies (held to a map-and-scan reference by a differential
// test), and the fabric's replica choice / diffusion / host-invalidation
// bookkeeping. Everything here runs with hand-built keys and images — no
// engine (one test adds a real monitoring system for replica ranking) —
// which is the point of the layering rule pinned by
// tools/check_layering.sh.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cache_key.h"
#include "cache/fabric.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "monitor/bandwidth_cache.h"
#include "monitor/monitoring_system.h"
#include "net/link_table.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"
#include "workload/image_workload.h"

namespace wadc::cache {
namespace {

workload::ImageSpec image(double bytes, std::uint64_t lineage = 1) {
  workload::ImageSpec img;
  img.bytes = bytes;
  img.lineage = lineage;
  return img;
}

CacheKey key_of(std::uint64_t signature, int iteration = 0) {
  CacheKey key;
  key.signature = signature;
  key.iteration = iteration;
  return key;
}

// ---------------------------------------------------------------------------
// cache keys

std::uint64_t signature(std::vector<int> leaf_ids, std::uint64_t digest,
                        std::string_view op_tag) {
  return subtree_signature(leaf_ids, digest, op_tag);
}

TEST(CacheKey, SignatureIgnoresLeafEnumerationOrder) {
  const std::uint64_t a = signature({3, 1, 2}, 99, "compose");
  const std::uint64_t b = signature({1, 2, 3}, 99, "compose");
  const std::uint64_t c = signature({2, 3, 1}, 99, "compose");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(CacheKey, SignatureSeparatesLeafSetsDigestsAndTags) {
  const std::uint64_t base = signature({1, 2, 3}, 99, "compose");
  EXPECT_NE(base, signature({1, 2, 4}, 99, "compose"));
  EXPECT_NE(base, signature({1, 2}, 99, "compose"));
  // Same leaves, different composition structure: the order-adaptive
  // algorithm can rebuild the tree mid-run, and the structure digest must
  // keep those results from aliasing.
  EXPECT_NE(base, signature({1, 2, 3}, 98, "compose"));
  EXPECT_NE(base, signature({1, 2, 3}, 99, "other"));
}

TEST(CacheKey, OrdersBySignatureThenIteration) {
  EXPECT_EQ(key_of(7, 3), key_of(7, 3));
  EXPECT_NE(key_of(7, 3), key_of(7, 4));
  EXPECT_LT(key_of(7, 3), key_of(7, 4));
  EXPECT_LT(key_of(7, 9), key_of(8, 0));
}

// ---------------------------------------------------------------------------
// spec parsing

TEST(CacheSpec, ParsesCapacityWithSuffixes) {
  EXPECT_EQ(parse_cache_spec("capacity=4096").capacity_bytes, 4096u);
  EXPECT_EQ(parse_cache_spec("capacity=64k").capacity_bytes, 64u << 10);
  EXPECT_EQ(parse_cache_spec("capacity=64m").capacity_bytes, 64u << 20);
  EXPECT_EQ(parse_cache_spec("capacity=2G").capacity_bytes, 2ull << 30);
  const CacheConfig config = parse_cache_spec("capacity=1m");
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.policy, EvictionPolicy::kLru);  // default
  EXPECT_TRUE(config.diffusion);                   // default
  EXPECT_TRUE(config.validate().empty());
}

TEST(CacheSpec, ParsesPolicyAndDiffusion) {
  const CacheConfig config =
      parse_cache_spec("capacity=8m,policy=cost,diffusion=off");
  EXPECT_EQ(config.capacity_bytes, 8u << 20);
  EXPECT_EQ(config.policy, EvictionPolicy::kCost);
  EXPECT_FALSE(config.diffusion);
}

TEST(CacheSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_cache_spec(""), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("policy=lru"), std::runtime_error);  // no cap
  EXPECT_THROW(parse_cache_spec("capacity=0"), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=-4"), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64q"), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64mb"), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64m,"), std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64m,policy=mru"),
               std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64m,diffusion=maybe"),
               std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity=64m,flavor=mint"),
               std::runtime_error);
  EXPECT_THROW(parse_cache_spec("capacity"), std::runtime_error);
}

TEST(CacheSpec, PolicyNames) {
  EXPECT_STREQ(eviction_policy_name(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(eviction_policy_name(EvictionPolicy::kCost), "cost");
  EXPECT_EQ(parse_eviction_policy("lru"), EvictionPolicy::kLru);
  EXPECT_EQ(parse_eviction_policy("cost"), EvictionPolicy::kCost);
  EXPECT_EQ(parse_eviction_policy("fifo"), std::nullopt);
}

TEST(CacheSpec, ValidateFlagsZeroCapacity) {
  CacheConfig config;
  config.enabled = true;
  EXPECT_FALSE(config.validate().empty());
  config.capacity_bytes = 1;
  EXPECT_TRUE(config.validate().empty());
  config.enabled = false;
  config.capacity_bytes = 0;
  EXPECT_TRUE(config.validate().empty());  // disabled is always fine
}

// ---------------------------------------------------------------------------
// per-host result cache

// Inserts and returns the keys the insert evicted, in eviction order.
std::vector<CacheKey> insert_evicting(ResultCache& cache, const CacheKey& key,
                                      const workload::ImageSpec& img,
                                      double recreate_seconds,
                                      std::uint64_t tick) {
  std::vector<CacheKey> evicted;
  cache.insert(key, img, recreate_seconds, tick, &evicted);
  return evicted;
}

TEST(ResultCache, FindTouchEraseRoundTrip) {
  ResultCache cache(1 << 20, EvictionPolicy::kLru);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(1), image(100), /*recreate_seconds=*/5, /*tick=*/1);
  const ResultCache::Entry* entry = cache.find(key_of(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->image.bytes, 100);
  EXPECT_EQ(entry->recreate_seconds, 5);
  EXPECT_EQ(entry->last_use, 1u);
  EXPECT_EQ(entry->hits, 0u);
  cache.touch(key_of(1), 7);
  entry = cache.find(key_of(1));
  EXPECT_EQ(entry->last_use, 7u);
  EXPECT_EQ(entry->hits, 1u);
  EXPECT_EQ(cache.bytes_used(), 100);
  EXPECT_TRUE(cache.erase(key_of(1)));
  EXPECT_FALSE(cache.erase(key_of(1)));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0);
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(300, EvictionPolicy::kLru);
  cache.insert(key_of(1), image(100), 1, /*tick=*/1);
  cache.insert(key_of(2), image(100), 1, /*tick=*/2);
  cache.insert(key_of(3), image(100), 1, /*tick=*/3);
  cache.touch(key_of(1), /*tick=*/4);  // key 2 is now the coldest
  const std::vector<CacheKey> evicted =
      insert_evicting(cache, key_of(4), image(100), 1, /*tick=*/5);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key_of(2));
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(4)), nullptr);
}

TEST(ResultCache, CostPolicyEvictsCheapestToRecreate) {
  ResultCache cache(300, EvictionPolicy::kCost);
  cache.insert(key_of(1), image(100), /*recreate_seconds=*/30, 1);
  cache.insert(key_of(2), image(100), /*recreate_seconds=*/5, 2);
  cache.insert(key_of(3), image(100), /*recreate_seconds=*/90, 3);
  // Key 2 is cheapest to rebuild, so it goes first even though key 1 is
  // older — that's the bandwidth-to-recreate rule.
  const std::vector<CacheKey> evicted =
      insert_evicting(cache, key_of(4), image(100), 50, 4);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key_of(2));
}

TEST(ResultCache, CostPolicyBreaksTiesByRecency) {
  ResultCache cache(200, EvictionPolicy::kCost);
  cache.insert(key_of(1), image(100), /*recreate_seconds=*/10, /*tick=*/1);
  cache.insert(key_of(2), image(100), /*recreate_seconds=*/10, /*tick=*/2);
  const std::vector<CacheKey> evicted =
      insert_evicting(cache, key_of(3), image(100), 10, 3);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key_of(1));  // equal cost: older entry goes
}

TEST(ResultCache, EvictsAsManyVictimsAsNeeded) {
  ResultCache cache(300, EvictionPolicy::kLru);
  cache.insert(key_of(1), image(100), 1, 1);
  cache.insert(key_of(2), image(100), 1, 2);
  cache.insert(key_of(3), image(100), 1, 3);
  const std::vector<CacheKey> evicted =
      insert_evicting(cache, key_of(4), image(250), 1, 4);
  ASSERT_EQ(evicted.size(), 3u);  // 250 bytes needs all three slots freed
  EXPECT_EQ(evicted[0], key_of(1));
  EXPECT_EQ(evicted[1], key_of(2));
  EXPECT_EQ(evicted[2], key_of(3));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes_used(), 250);
}

TEST(ResultCache, OversizedImageIsNotAdmitted) {
  ResultCache cache(100, EvictionPolicy::kLru);
  cache.insert(key_of(1), image(60), 1, 1);
  std::vector<CacheKey> evicted;
  EXPECT_FALSE(cache.insert(key_of(2), image(101), 1, 2, &evicted));
  // Nothing evicted, nothing admitted: the entry could never fit.
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.bytes_used(), 60);
}

TEST(ResultCache, ReinsertRefreshesInPlace) {
  ResultCache cache(200, EvictionPolicy::kLru);
  cache.insert(key_of(1), image(100), /*recreate_seconds=*/5, /*tick=*/1);
  std::vector<CacheKey> evicted;
  EXPECT_TRUE(cache.insert(key_of(1), image(100), /*recreate_seconds=*/9,
                           /*tick=*/8, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes_used(), 100);
  const ResultCache::Entry* entry = cache.find(key_of(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->recreate_seconds, 9);
  EXPECT_EQ(entry->last_use, 8u);
}

// The map-and-scan ResultCache the heap replaced: entries in key order,
// and each victim found by a full scan that keeps the first entry of the
// policy's minimum. The differential test holds the heap to its choices.
class ScanResultCache {
 public:
  ScanResultCache(double capacity_bytes, EvictionPolicy policy)
      : capacity_bytes_(capacity_bytes), policy_(policy) {}

  const ResultCache::Entry* find(const CacheKey& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  void touch(const CacheKey& key, std::uint64_t tick) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    it->second.last_use = tick;
    ++it->second.hits;
  }

  std::vector<CacheKey> insert(const CacheKey& key,
                               const workload::ImageSpec& image,
                               double recreate_seconds, std::uint64_t tick) {
    std::vector<CacheKey> evicted;
    if (image.bytes > capacity_bytes_) return evicted;
    if (const auto it = entries_.find(key); it != entries_.end()) {
      it->second.recreate_seconds = recreate_seconds;
      it->second.last_use = tick;
      return evicted;
    }
    while (bytes_used_ + image.bytes > capacity_bytes_) {
      const CacheKey victim = pick_victim();
      evicted.push_back(victim);
      erase(victim);
    }
    ResultCache::Entry entry;
    entry.image = image;
    entry.recreate_seconds = recreate_seconds;
    entry.last_use = tick;
    entries_.emplace(key, entry);
    bytes_used_ += image.bytes;
    return evicted;
  }

  bool erase(const CacheKey& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    bytes_used_ -= it->second.image.bytes;
    if (bytes_used_ < 0) bytes_used_ = 0;
    entries_.erase(it);
    return true;
  }

  void clear() {
    entries_.clear();
    bytes_used_ = 0;
  }

  std::size_t entries() const { return entries_.size(); }
  double bytes_used() const { return bytes_used_; }

 private:
  CacheKey pick_victim() const {
    const std::pair<const CacheKey, ResultCache::Entry>* victim = nullptr;
    for (const auto& kv : entries_) {
      if (victim == nullptr) {
        victim = &kv;
        continue;
      }
      bool better = false;
      if (policy_ == EvictionPolicy::kCost &&
          kv.second.recreate_seconds != victim->second.recreate_seconds) {
        better = kv.second.recreate_seconds < victim->second.recreate_seconds;
      } else {
        better = kv.second.last_use < victim->second.last_use;
      }
      if (better) victim = &kv;
    }
    return victim->first;
  }

  double capacity_bytes_;
  EvictionPolicy policy_;
  double bytes_used_ = 0;
  std::map<CacheKey, ResultCache::Entry> entries_;
};

void expect_same_entry(const ResultCache::Entry* got,
                       const ResultCache::Entry* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(got->image.bytes, want->image.bytes);
  EXPECT_EQ(got->image.lineage, want->image.lineage);
  EXPECT_EQ(got->recreate_seconds, want->recreate_seconds);
  EXPECT_EQ(got->last_use, want->last_use);
  EXPECT_EQ(got->hits, want->hits);
}

TEST(ResultCacheDifferential, MatchesMapAndScanReference) {
  // Random operation sequences over a small key pool under capacity
  // pressure. Recreate costs come from a short list and ticks repeat and
  // sometimes run backwards, so (recreate, last_use) ties are common and
  // only the key can break them; fractional sizes make bytes_used()
  // accumulate rounding, which must match bit for bit.
  constexpr double kCapacity = 1000;
  constexpr double kCosts[] = {1, 2, 2.5, 7};
  constexpr int kKeys = 24;
  for (const EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kCost}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(testing::Message() << eviction_policy_name(policy)
                                      << " seed " << seed);
      Rng rng(seed);
      ResultCache heap(static_cast<std::uint64_t>(kCapacity), policy);
      ScanResultCache scan(kCapacity, policy);
      std::uint64_t evictions = 0;
      for (int step = 0; step < 600; ++step) {
        const CacheKey key = key_of(rng.next_below(kKeys) * 0x9e37 + 11,
                                    static_cast<int>(rng.next_below(2)));
        std::uint64_t tick = static_cast<std::uint64_t>(step / 3);
        if (rng.bernoulli(0.1)) tick = rng.next_below(tick + 1);
        const std::uint64_t op = rng.next_below(100);
        if (op < 55) {
          const double bytes = rng.bernoulli(0.03)
                                   ? kCapacity + 1 + rng.uniform(0, 50)
                                   : rng.uniform(40, 360);
          const double cost = kCosts[rng.next_below(4)];
          const workload::ImageSpec img = image(bytes, key.signature);
          std::vector<CacheKey> got;
          const bool cached = heap.insert(key, img, cost, tick, &got);
          const std::vector<CacheKey> want = scan.insert(key, img, cost, tick);
          ASSERT_EQ(got, want) << "step " << step;
          EXPECT_EQ(cached, scan.find(key) != nullptr) << "step " << step;
          evictions += got.size();
        } else if (op < 80) {
          heap.touch(key, tick);
          scan.touch(key, tick);
        } else if (op < 95) {
          EXPECT_EQ(heap.erase(key), scan.erase(key)) << "step " << step;
        } else if (op < 97) {
          heap.clear();
          scan.clear();
        } else {
          expect_same_entry(heap.find(key), scan.find(key));
        }
        ASSERT_EQ(heap.entries(), scan.entries()) << "step " << step;
        ASSERT_EQ(heap.bytes_used(), scan.bytes_used()) << "step " << step;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          for (int iteration = 0; iteration < 2; ++iteration) {
            const CacheKey probe = key_of(k * 0x9e37 + 11, iteration);
            expect_same_entry(heap.find(probe), scan.find(probe));
          }
        }
      }
      EXPECT_GT(evictions, 50u);  // the sequence did exercise eviction
    }
  }
}

// ---------------------------------------------------------------------------
// fabric

CacheConfig fabric_config(std::uint64_t capacity = 1 << 20,
                          bool diffusion = true) {
  CacheConfig config;
  config.enabled = true;
  config.capacity_bytes = capacity;
  config.diffusion = diffusion;
  return config;
}

const std::function<bool(net::HostId)> kAllAlive = [](net::HostId) {
  return true;
};

TEST(CacheFabric, LocalReplicaAlwaysWins) {
  CacheFabric fabric(fabric_config(), /*num_hosts=*/4, nullptr, obs::Obs{});
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, /*now=*/0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/3, 5, /*now=*/0, 0);
  const auto hit = fabric.lookup(key_of(1), /*requester=*/3, kAllAlive);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->replica, 3);
  EXPECT_TRUE(hit->local);
}

TEST(CacheFabric, RemoteChoiceIsDeterministicWithoutEstimates) {
  CacheFabric fabric(fabric_config(), /*num_hosts=*/4, nullptr, obs::Obs{});
  fabric.insert(key_of(1), image(100), /*host=*/3, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/1, 5, 0, 0);
  // No monitoring: every remote replica ranks equally slow, so the lowest
  // host id wins the tie — the choice must still be deterministic.
  const auto hit = fabric.lookup(key_of(1), /*requester=*/0, kAllAlive);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->replica, 1);
  EXPECT_FALSE(hit->local);
}

TEST(CacheFabric, LookupSkipsDeadReplicas) {
  CacheFabric fabric(fabric_config(), /*num_hosts=*/4, nullptr, obs::Obs{});
  fabric.insert(key_of(1), image(100), /*host=*/1, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);
  const auto alive = [](net::HostId h) { return h != 1; };
  const auto hit = fabric.lookup(key_of(1), /*requester=*/0, alive);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->replica, 2);
  const auto none =
      fabric.lookup(key_of(1), /*requester=*/0, [](net::HostId) { return false; });
  EXPECT_FALSE(none.has_value());
}

TEST(CacheFabric, ReplicasAreTheHostsHoldingTheKey) {
  obs::MetricsRegistry metrics;
  obs::Obs obs;
  obs.metrics = &metrics;
  CacheFabric fabric(fabric_config(), /*num_hosts=*/4, nullptr, obs);
  EXPECT_FALSE(fabric.lookup(key_of(1), /*requester=*/0, kAllAlive));
  fabric.insert(key_of(1), image(100), /*host=*/3, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/1, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);  // refresh
  EXPECT_EQ(fabric.replicas(), 3u);
  EXPECT_EQ(metrics.gauge("cache.replicas").value(), 3);
  // With no estimates, hosts are probed in ascending id.
  EXPECT_EQ(fabric.lookup(key_of(1), /*requester=*/0, kAllAlive)->replica, 1);
  fabric.invalidate_host(1, /*now=*/10);
  EXPECT_EQ(fabric.lookup(key_of(1), /*requester=*/0, kAllAlive)->replica, 2);
  fabric.invalidate_host(2, 10);
  fabric.invalidate_host(3, 10);
  EXPECT_FALSE(fabric.lookup(key_of(1), /*requester=*/0, kAllAlive));
  EXPECT_EQ(fabric.replicas(), 0u);
  EXPECT_EQ(metrics.gauge("cache.replicas").value(), 0);
}

TEST(CacheFabric, RemoteHitDiffusesTowardRequester) {
  obs::MetricsRegistry metrics;
  obs::Obs obs;
  obs.metrics = &metrics;
  CacheFabric fabric(fabric_config(), /*num_hosts=*/3, nullptr, obs);
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);
  const auto hit = fabric.lookup(key_of(1), /*requester=*/0, kAllAlive);
  ASSERT_TRUE(hit.has_value());
  fabric.on_hit(key_of(1), *hit, /*requester=*/0, /*bytes_saved=*/100,
                /*now=*/10, /*session=*/0);
  EXPECT_EQ(fabric.hits(), 1u);
  EXPECT_EQ(fabric.diffusions(), 1u);
  EXPECT_EQ(fabric.bytes_saved(), 100);
  // The entry now lives at the requester too; the next lookup is local.
  EXPECT_NE(fabric.host_cache(0).find(key_of(1)), nullptr);
  const auto again = fabric.lookup(key_of(1), /*requester=*/0, kAllAlive);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->local);
  // Counters mirror into the obs registry (run artifacts read these).
  EXPECT_EQ(metrics.counter("cache.hits").value(), 1);
  EXPECT_EQ(metrics.counter("cache.diffusions").value(), 1);
  EXPECT_EQ(metrics.counter("cache.bytes_saved").value(), 100);
  EXPECT_EQ(metrics.counter("cache.host0.hits").value(), 1);
}

TEST(CacheFabric, DiffusionOffKeepsSingleReplica) {
  CacheFabric fabric(fabric_config(1 << 20, /*diffusion=*/false),
                     /*num_hosts=*/3, nullptr, obs::Obs{});
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);
  const auto hit = fabric.lookup(key_of(1), /*requester=*/0, kAllAlive);
  ASSERT_TRUE(hit.has_value());
  fabric.on_hit(key_of(1), *hit, /*requester=*/0, 100, 10, 0);
  EXPECT_EQ(fabric.hits(), 1u);
  EXPECT_EQ(fabric.diffusions(), 0u);
  EXPECT_EQ(fabric.host_cache(0).find(key_of(1)), nullptr);
  EXPECT_EQ(fabric.replicas(), 1u);
}

TEST(CacheFabric, InvalidateHostDropsItsReplicasOnly) {
  CacheFabric fabric(fabric_config(), /*num_hosts=*/3, nullptr, obs::Obs{});
  fabric.insert(key_of(1), image(100), /*host=*/1, 5, 0, 0);
  fabric.insert(key_of(1), image(100), /*host=*/2, 5, 0, 0);
  fabric.insert(key_of(2), image(100), /*host=*/1, 5, 0, 0);
  fabric.invalidate_host(1, /*now=*/50);
  EXPECT_EQ(fabric.invalidated_replicas(), 2u);
  EXPECT_EQ(fabric.host_cache(1).entries(), 0u);
  // Key 1 survives at host 2; key 2 is gone entirely.
  const auto hit = fabric.lookup(key_of(1), /*requester=*/0, kAllAlive);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->replica, 2);
  EXPECT_FALSE(fabric.lookup(key_of(2), /*requester=*/0, kAllAlive));
  // Repeat notifications (restart storms) are no-ops.
  fabric.invalidate_host(1, 60);
  EXPECT_EQ(fabric.invalidated_replicas(), 2u);
}

TEST(CacheFabric, EvictionsUpdateDirectoryAndCounters) {
  obs::MetricsRegistry metrics;
  obs::Obs obs;
  obs.metrics = &metrics;
  CacheFabric fabric(fabric_config(/*capacity=*/250), /*num_hosts=*/2,
                     nullptr, obs);
  fabric.insert(key_of(1), image(100), /*host=*/1, 5, 0, 0);
  fabric.insert(key_of(2), image(100), /*host=*/1, 5, 0, 0);
  fabric.insert(key_of(3), image(100), /*host=*/1, 5, 0, 0);  // evicts key 1
  EXPECT_EQ(fabric.insertions(), 3u);
  EXPECT_EQ(fabric.evictions(), 1u);
  EXPECT_FALSE(fabric.lookup(key_of(1), /*requester=*/0, kAllAlive));
  EXPECT_EQ(fabric.replicas(), 2u);
  EXPECT_EQ(metrics.counter("cache.evictions").value(), 1);
  EXPECT_EQ(metrics.counter("cache.host1.evictions").value(), 1);
  EXPECT_EQ(metrics.gauge("cache.replicas").value(), 2);
}

TEST(CacheFabric, ReplicaChoiceRanksByRequesterBandwidth) {
  // A real monitoring system whose requester-side caches hold crafted
  // samples: the ranking the engine gets, without an engine.
  constexpr int kHosts = 5;
  sim::Simulation sim;
  const trace::BandwidthTrace trace(10.0, {10000.0});
  net::LinkTable links(kHosts);
  for (net::HostId a = 0; a < kHosts; ++a) {
    for (net::HostId b = a + 1; b < kHosts; ++b) links.set_link(a, b, &trace);
  }
  net::Network network(sim, links, net::NetworkParams{});
  monitor::MonitoringSystem monitoring(network, monitor::MonitorParams{});
  CacheFabric fabric(fabric_config(), kHosts, &monitoring, obs::Obs{});
  const auto place = [&](net::HostId host) {
    fabric.insert(key_of(1), image(100), host, 5, /*now=*/0, /*session=*/0);
  };
  const auto chosen = [&](net::HostId requester) {
    const auto hit = fabric.lookup(key_of(1), requester, kAllAlive);
    return hit ? hit->replica : -1;
  };
  monitor::BandwidthCache& view = monitoring.cache(0);

  // Host 1 is unknown to the requester; host 2 is known, however slow.
  place(1);
  place(2);
  view.record(0, 2, 1e-3, /*measured_at=*/10);
  EXPECT_EQ(chosen(0), 2);

  // The fastest estimate beats lower host ids; equal estimates go to the
  // lower id.
  place(3);
  place(4);
  view.record(0, 3, 900, 10);
  view.record(0, 4, 900, 10);
  EXPECT_EQ(chosen(0), 3);

  // Only the requester's own cache ranks.
  monitoring.cache(1).record(1, 2, 1e9, 10);
  EXPECT_EQ(chosen(0), 3);

  // An expired sample still ranks (any-age lookup).
  view.record(0, 1, 5000, /*measured_at=*/0);
  ASSERT_FALSE(view.lookup(0, 1, /*now=*/1000).has_value());
  EXPECT_EQ(chosen(0), 1);

  // A local replica beats a faster remote one.
  monitoring.cache(3).record(3, 1, 1e12, 10);
  const auto local = fabric.lookup(key_of(1), /*requester=*/3, kAllAlive);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->replica, 3);
  EXPECT_TRUE(local->local);
}

TEST(CacheFabric, MissCountsAgainstRequesterHost) {
  obs::MetricsRegistry metrics;
  obs::Obs obs;
  obs.metrics = &metrics;
  CacheFabric fabric(fabric_config(), /*num_hosts=*/2, nullptr, obs);
  EXPECT_FALSE(fabric.lookup(key_of(9), /*requester=*/1, kAllAlive));
  fabric.on_miss(/*requester=*/1);
  EXPECT_EQ(fabric.misses(), 1u);
  EXPECT_EQ(metrics.counter("cache.misses").value(), 1);
  EXPECT_EQ(metrics.counter("cache.host1.misses").value(), 1);
}

}  // namespace
}  // namespace wadc::cache
