// Content-addressed keys for materialized sub-tree combination results.
//
// A key names "the output of combining this set of leaf images, in this
// structure, at this iteration" — independent of which session computed it,
// where its operators ran, or in which order the leaves were listed. Two
// engines over the same workload that combine the same leaves the same way
// therefore address the same cache entry, which is exactly the
// cross-session reuse opportunity (docs/CACHING.md).
//
// The signature is a canonical FNV-1a hash over the *sorted* leaf image
// ids plus the combination-operator tag. A structure digest (the
// workload-lineage value the subtree is expected to produce) is folded in
// as well: the order-adaptive algorithm can restructure a tree mid-run, and
// while pixel-selection composition is value-commutative, the run
// invariants track exact composition structure — folding the digest in
// guarantees a hit can never serve a structurally different result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace wadc::cache {

struct CacheKey {
  std::uint64_t signature = 0;
  std::int32_t iteration = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
  friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
};

// The signature is already a hash; the iteration is folded in so the same
// subtree at different iterations spreads across buckets.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(
        key.signature ^ (static_cast<std::uint32_t>(key.iteration) *
                         0x9e3779b97f4a7c15ull));
  }
};

// Canonical signature for a subtree result: hashes `op_tag`, then the leaf
// ids in ascending order (`leaf_ids` is sorted in place, so any
// enumeration order yields the same signature), then `structure_digest`.
std::uint64_t subtree_signature(std::span<int> leaf_ids,
                                std::uint64_t structure_digest,
                                std::string_view op_tag);

}  // namespace wadc::cache
