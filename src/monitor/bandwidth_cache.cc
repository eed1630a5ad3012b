#include "monitor/bandwidth_cache.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::monitor {

BandwidthCache::BandwidthCache(int num_hosts, sim::SimTime ttl_seconds)
    : num_hosts_(num_hosts),
      ttl_(ttl_seconds),
      entries_(net::pair_count(num_hosts)),
      live_slot_(entries_.size(), kNotLive) {
  WADC_ASSERT(ttl_seconds > 0, "non-positive cache TTL");
  live_.reserve(entries_.size());
}

std::size_t BandwidthCache::index_of(net::HostId a, net::HostId b) const {
  WADC_ASSERT(a != b, "bandwidth cache pair of host ", a, " with itself");
  return net::pair_index(a, b, num_hosts_);
}

void BandwidthCache::drop_live(std::size_t pos) const {
  live_slot_[live_[pos].index] = kNotLive;
  const LivePair last = live_.back();
  live_.pop_back();
  if (pos < live_.size()) {
    live_[pos] = last;
    live_slot_[last.index] = static_cast<std::uint32_t>(pos);
  }
}

void BandwidthCache::record(net::HostId a, net::HostId b, double bandwidth,
                            sim::SimTime measured_at) {
  WADC_ASSERT(bandwidth > 0, "non-positive bandwidth measurement");
  WADC_ASSERT(measured_at >= 0, "measurement before time 0");
  const std::size_t i = index_of(a, b);
  Sample& e = entries_[i];
  if (measured_at > e.measured_at) {
    if (e.measured_at < 0) ++measured_;
    e.bandwidth = bandwidth;
    e.measured_at = measured_at;
    memo_stale_ = true;
    if (live_slot_[i] == kNotLive) {
      live_slot_[i] = static_cast<std::uint32_t>(live_.size());
      const auto index = static_cast<std::uint32_t>(i);
      live_.push_back(a < b ? LivePair{a, b, index} : LivePair{b, a, index});
    }
  }
}

std::optional<Sample> BandwidthCache::lookup(net::HostId a, net::HostId b,
                                             sim::SimTime now) const {
  const Sample& e = entries_[index_of(a, b)];
  if (e.measured_at < 0) return std::nullopt;
  if (now - e.measured_at > ttl_) return std::nullopt;  // timed out
  return e;
}

std::optional<Sample> BandwidthCache::lookup_any_age(net::HostId a,
                                                     net::HostId b) const {
  const Sample& e = entries_[index_of(a, b)];
  if (e.measured_at < 0) return std::nullopt;
  return e;
}

Payload BandwidthCache::freshest_shared(sim::SimTime now,
                                        std::size_t max_entries) const {
  WADC_ASSERT(now >= last_payload_now_, "payload time went backwards: ", now,
              " after ", last_payload_now_);
  last_payload_now_ = now;
  // Memo hit: the cache content is unchanged, the request shape matches,
  // and no entry in the memo has crossed its TTL horizon yet (see the
  // header for why excluded entries cannot re-enter). This is the per-
  // message hot path — a payload is recomputed only after a record/merge
  // actually changed something or time passed an expiry boundary.
  if (memo_ && !memo_stale_ && memo_max_entries_ == max_entries &&
      now <= memo_valid_until_) {
    return memo_;
  }

  // Rebuild into the memo's own vector when no message holds it any more
  // (a run's payloads never leave its thread, so the count is exact);
  // otherwise into a fresh one, allocated once at the live-list size.
  if (memo_ && memo_.use_count() == 1) {
    memo_->clear();
  } else {
    memo_ = std::make_shared<std::vector<PairSample>>();
    memo_->reserve(live_.size());
  }
  std::vector<PairSample>& fresh = *memo_;
  for (std::size_t pos = 0; pos < live_.size();) {
    const LivePair p = live_[pos];
    const Sample& e = entries_[p.index];
    if (now - e.measured_at > ttl_) {
      drop_live(pos);  // expired for good; re-examine the pair moved here
      continue;
    }
    fresh.push_back(PairSample{p.a, p.b, e});
    ++pos;
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const PairSample& x, const PairSample& y) {
              if (x.sample.measured_at != y.sample.measured_at) {
                return x.sample.measured_at > y.sample.measured_at;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (fresh.size() > max_entries) fresh.resize(max_entries);
  // Truncation drops the *oldest* entries; they can only re-enter after an
  // included entry expires, which already invalidates the memo.
  memo_valid_until_ = fresh.empty()
                          ? sim::kTimeInfinity
                          : fresh.back().sample.measured_at + ttl_;
  memo_stale_ = false;
  memo_max_entries_ = max_entries;
  return memo_;
}

std::vector<PairSample> BandwidthCache::freshest(
    sim::SimTime now, std::size_t max_entries) const {
  return *freshest_shared(now, max_entries);
}

void BandwidthCache::merge(const std::vector<PairSample>& samples) {
  for (const PairSample& ps : samples) {
    record(ps.a, ps.b, ps.sample.bandwidth, ps.sample.measured_at);
  }
}

void BandwidthCache::invalidate(net::HostId a, net::HostId b) {
  const std::size_t i = index_of(a, b);
  if (entries_[i].measured_at >= 0) --measured_;
  entries_[i] = Sample{};
  if (live_slot_[i] != kNotLive) drop_live(live_slot_[i]);
  memo_stale_ = true;
}

void BandwidthCache::invalidate_host(net::HostId h) {
  for (net::HostId other = 0; other < num_hosts_; ++other) {
    if (other != h) invalidate(h, other);
  }
}

std::size_t BandwidthCache::unexpired_count(sim::SimTime now) const {
  std::size_t n = 0;
  for (const Sample& e : entries_) {
    if (e.measured_at >= 0 && now - e.measured_at <= ttl_) ++n;
  }
  return n;
}

}  // namespace wadc::monitor
