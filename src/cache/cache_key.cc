#include "cache/cache_key.h"

#include <algorithm>

namespace wadc::cache {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_byte(std::uint64_t& h, unsigned char b) {
  h ^= b;
  h *= kFnvPrime;
}

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    mix_byte(h, static_cast<unsigned char>(v >> (8 * i)));
  }
}

}  // namespace

std::uint64_t subtree_signature(std::span<int> leaf_ids,
                                std::uint64_t structure_digest,
                                std::string_view op_tag) {
  std::sort(leaf_ids.begin(), leaf_ids.end());
  std::uint64_t h = kFnvOffset;
  for (const char c : op_tag) mix_byte(h, static_cast<unsigned char>(c));
  // Separator so ("ab", [1]) and ("a", [b-ish collision]) cannot alias.
  mix_byte(h, 0xff);
  for (const int id : leaf_ids) {
    mix_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  mix_u64(h, structure_digest);
  return h;
}

}  // namespace wadc::cache
