// One host's cache of materialized sub-tree combination results.
//
// Entries are addressed by CacheKey and bounded by a byte capacity; when an
// insert would overflow, victims are chosen by the configured eviction
// policy until the new entry fits. Recency is tracked with a logical tick
// supplied by the caller (the fabric's monotonic use counter), never wall
// or simulated time, so eviction order is exactly reproducible.
//
// Entries live in a hash map; an indexed binary heap orders them for
// eviction under the policy's total order — (recreate_seconds, last_use,
// key) for kCost, (last_use, key) for kLru — so find is O(1) and insert,
// touch and erase are O(log n). The key makes the order total, so the
// victim never depends on hash-map layout.
//
// This type is deliberately dumb storage: replica placement, diffusion,
// observability and bandwidth-awareness all live a layer up in CacheFabric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cache_key.h"
#include "workload/image_workload.h"

namespace wadc::cache {

class ResultCache {
 public:
  struct Entry {
    workload::ImageSpec image;
    // Estimated seconds to recreate this result from its inputs (transfer
    // at the bandwidth estimates current at insert time, plus composition);
    // the kCost policy evicts the cheapest-to-recreate entry first.
    double recreate_seconds = 0;
    std::uint64_t last_use = 0;  // logical tick of last insert/touch
    std::uint64_t hits = 0;
  };

  ResultCache(std::uint64_t capacity_bytes, EvictionPolicy policy)
      : capacity_bytes_(static_cast<double>(capacity_bytes)),
        policy_(policy) {}

  ResultCache(const ResultCache&) = delete;  // the heap points into entries_
  ResultCache& operator=(const ResultCache&) = delete;

  // Null if absent. The pointer is invalidated by any mutating call.
  const Entry* find(const CacheKey& key) const;

  // Marks a hit: bumps recency and the per-entry hit count.
  void touch(const CacheKey& key, std::uint64_t tick);

  // Inserts (or refreshes) an entry, evicting per policy until it fits;
  // appends the evicted keys to `evicted`, when given, in eviction order.
  // Returns whether `key` is cached afterwards: an image larger than the
  // whole capacity is not admitted (nothing is evicted and the cache is
  // unchanged).
  bool insert(const CacheKey& key, const workload::ImageSpec& image,
              double recreate_seconds, std::uint64_t tick,
              std::vector<CacheKey>* evicted = nullptr);

  // True if the entry existed.
  bool erase(const CacheKey& key);
  void clear();

  std::size_t entries() const { return entries_.size(); }
  double bytes_used() const { return bytes_used_; }
  double capacity_bytes() const { return capacity_bytes_; }
  EvictionPolicy policy() const { return policy_; }

 private:
  struct Slot {
    Entry entry;
    std::size_t heap_index = 0;  // position in heap_
  };
  using Map = std::unordered_map<CacheKey, Slot, CacheKeyHash>;
  using Item = Map::value_type;

  // True if `a` is evicted before `b` under the policy's total order.
  bool evicts_before(const Item& a, const Item& b) const;
  void place(std::size_t index, Item* item);
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  // Restores heap order after the item at `index` changed its order key.
  void reorder(std::size_t index);
  void erase_item(Map::iterator it);

  double capacity_bytes_;
  EvictionPolicy policy_;
  double bytes_used_ = 0;
  Map entries_;  // element addresses are stable, so heap_ can point at them
  std::vector<Item*> heap_;  // heap_[0] is the next victim
};

}  // namespace wadc::cache
