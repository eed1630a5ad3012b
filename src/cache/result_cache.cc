#include "cache/result_cache.h"

#include "common/assert.h"

namespace wadc::cache {

const ResultCache::Entry* ResultCache::find(const CacheKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

void ResultCache::touch(const CacheKey& key, std::uint64_t tick) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  it->second.entry.last_use = tick;
  ++it->second.entry.hits;
  reorder(it->second.heap_index);
}

bool ResultCache::evicts_before(const Item& a, const Item& b) const {
  const Entry& x = a.second.entry;
  const Entry& y = b.second.entry;
  // kCost: cheapest to recreate goes first; recency breaks ties.
  if (policy_ == EvictionPolicy::kCost &&
      x.recreate_seconds != y.recreate_seconds) {
    return x.recreate_seconds < y.recreate_seconds;
  }
  if (x.last_use != y.last_use) return x.last_use < y.last_use;
  return a.first < b.first;
}

void ResultCache::place(std::size_t index, Item* item) {
  heap_[index] = item;
  item->second.heap_index = index;
}

void ResultCache::sift_up(std::size_t index) {
  Item* const item = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!evicts_before(*item, *heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, item);
}

void ResultCache::sift_down(std::size_t index) {
  Item* const item = heap_[index];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * index + 1;
    if (child >= n) break;
    if (child + 1 < n && evicts_before(*heap_[child + 1], *heap_[child])) {
      ++child;
    }
    if (!evicts_before(*heap_[child], *item)) break;
    place(index, heap_[child]);
    index = child;
  }
  place(index, item);
}

void ResultCache::reorder(std::size_t index) {
  if (index > 0 && evicts_before(*heap_[index], *heap_[(index - 1) / 2])) {
    sift_up(index);
  } else {
    sift_down(index);
  }
}

bool ResultCache::insert(const CacheKey& key,
                         const workload::ImageSpec& image,
                         double recreate_seconds, std::uint64_t tick,
                         std::vector<CacheKey>* evicted) {
  const auto it = entries_.find(key);
  if (image.bytes > capacity_bytes_) {
    return it != entries_.end();  // can never fit
  }

  if (it != entries_.end()) {
    // Refresh in place (same content by construction; sizes can only match).
    it->second.entry.recreate_seconds = recreate_seconds;
    it->second.entry.last_use = tick;
    reorder(it->second.heap_index);
    return true;
  }

  while (bytes_used_ + image.bytes > capacity_bytes_) {
    WADC_ASSERT(!heap_.empty(), "eviction from an empty cache");
    const CacheKey victim = heap_.front()->first;
    if (evicted != nullptr) evicted->push_back(victim);
    erase_item(entries_.find(victim));
  }

  Slot slot;
  slot.entry.image = image;
  slot.entry.recreate_seconds = recreate_seconds;
  slot.entry.last_use = tick;
  Item& item = *entries_.emplace(key, slot).first;
  bytes_used_ += image.bytes;
  heap_.push_back(&item);
  sift_up(heap_.size() - 1);
  return true;
}

void ResultCache::erase_item(Map::iterator it) {
  const std::size_t index = it->second.heap_index;
  Item* const last = heap_.back();
  heap_.pop_back();
  if (index < heap_.size()) {
    place(index, last);
    reorder(index);
  }
  bytes_used_ -= it->second.entry.image.bytes;
  if (bytes_used_ < 0) bytes_used_ = 0;  // float dust
  entries_.erase(it);
}

bool ResultCache::erase(const CacheKey& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  erase_item(it);
  return true;
}

void ResultCache::clear() {
  entries_.clear();
  heap_.clear();
  bytes_used_ = 0;
}

}  // namespace wadc::cache
