#include "cache/cache_config.h"

#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/parse.h"

namespace wadc::cache {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("cache spec: " + what);
}

// BYTES with an optional binary k/m/g suffix.
std::uint64_t parse_capacity(const std::string& value) {
  std::string_view digits = value;
  std::uint64_t scale = 1;
  switch (digits.empty() ? '\0' : digits.back()) {
    case 'k': case 'K': scale = 1ull << 10; break;
    case 'm': case 'M': scale = 1ull << 20; break;
    case 'g': case 'G': scale = 1ull << 30; break;
    default: break;
  }
  if (scale != 1) digits.remove_suffix(1);
  const std::optional<std::uint64_t> v = parse_number<std::uint64_t>(digits);
  if (!v) fail("capacity must be a positive byte count, got '" + value + "'");
  if (*v == 0 || *v > ~0ull / scale) {
    fail("capacity out of range: '" + value + "'");
  }
  return *v * scale;
}

}  // namespace

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kCost:
      return "cost";
  }
  return "?";
}

std::optional<EvictionPolicy> parse_eviction_policy(std::string_view name) {
  if (name == "lru") return EvictionPolicy::kLru;
  if (name == "cost") return EvictionPolicy::kCost;
  return std::nullopt;
}

std::string CacheConfig::validate() const {
  if (!enabled) return {};
  if (capacity_bytes == 0) {
    return "cache capacity_bytes must be > 0 when the cache is enabled";
  }
  return {};
}

CacheConfig parse_cache_spec(const std::string& text) {
  CacheConfig config;
  config.enabled = true;
  bool saw_capacity = false;

  std::vector<std::string> pairs;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    pairs.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  for (const std::string& pair : pairs) {
    if (pair.empty()) fail("empty key=value pair");
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      fail("expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "capacity") {
      config.capacity_bytes = parse_capacity(value);
      saw_capacity = true;
    } else if (key == "policy") {
      const auto policy = parse_eviction_policy(value);
      if (!policy) {
        fail("unknown eviction policy '" + value + "' (want lru or cost)");
      }
      config.policy = *policy;
    } else if (key == "diffusion") {
      if (value == "on") {
        config.diffusion = true;
      } else if (value == "off") {
        config.diffusion = false;
      } else {
        fail("diffusion must be on or off, got '" + value + "'");
      }
    } else {
      fail("unknown key '" + key + "'");
    }
  }

  if (!saw_capacity) fail("capacity=BYTES is required");
  return config;
}

}  // namespace wadc::cache
