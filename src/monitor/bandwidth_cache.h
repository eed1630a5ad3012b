// Per-host cache of measured pair bandwidths.
//
// Models the paper's monitoring state (§4): "each node maintains a bandwidth
// measurement cache; entries are timed out after T_thres seconds". The cache
// holds one sample per unordered host pair; a newer measurement always
// replaces an older one. This *is* the "sparse matrix" of bandwidth
// information that the placement algorithms consume (§2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/types.h"
#include "sim/types.h"

namespace wadc::monitor {

struct Sample {
  double bandwidth = 0;           // bytes/second, application-level
  sim::SimTime measured_at = -1;  // simulation time of the measurement
};

struct PairSample {
  net::HostId a = net::kInvalidHost;
  net::HostId b = net::kInvalidHost;
  Sample sample;
};

// Immutable snapshot of a freshest() result, shared between the cache's
// memo and every in-flight message carrying it. Copying a Payload is a
// refcount bump, so attaching the piggyback list to a message is O(1)
// instead of a vector copy per send.
using Payload = std::shared_ptr<const std::vector<PairSample>>;

class BandwidthCache {
 public:
  // `ttl_seconds` is the paper's T_thres (40 s in the main experiments).
  BandwidthCache(int num_hosts, sim::SimTime ttl_seconds);

  int num_hosts() const { return num_hosts_; }
  sim::SimTime ttl() const { return ttl_; }

  // Every call naming a pair rejects a == b in all build types: a host has
  // no link to itself, so there is no entry to read or write.

  // Records a measurement (taken at sim time >= 0); kept only if newer
  // than the current entry.
  void record(net::HostId a, net::HostId b, double bandwidth,
              sim::SimTime measured_at);

  // The cached sample for {a, b} if present and not older than T_thres.
  std::optional<Sample> lookup(net::HostId a, net::HostId b,
                               sim::SimTime now) const;

  // Like lookup but ignores expiry (stale data is better than nothing for
  // some consumers; the placement algorithms use lookup()).
  std::optional<Sample> lookup_any_age(net::HostId a, net::HostId b) const;

  // Up to `max_entries` freshest unexpired entries, newest first (ties by
  // pair) — the payload source for piggybacking. The shared form returns
  // the memoized snapshot itself (never null); the vector form copies it.
  // Precondition: `now` never decreases from one call to the next (sim
  // time); a rebuild forgets the pairs it finds expired.
  Payload freshest_shared(sim::SimTime now, std::size_t max_entries) const;
  std::vector<PairSample> freshest(sim::SimTime now,
                                   std::size_t max_entries) const;

  // Merges foreign samples (from piggyback payloads); newer timestamp wins.
  void merge(const std::vector<PairSample>& samples);

  // Drops the entry for {a, b} (back to "never measured").
  void invalidate(net::HostId a, net::HostId b);

  // Drops every entry for a pair involving `h` — measurements through a
  // crashed host describe a network that no longer exists.
  void invalidate_host(net::HostId h);

  // Measured pairs, expired or not: a running count, O(1).
  std::size_t entry_count() const { return measured_; }
  std::size_t unexpired_count(sim::SimTime now) const;

 private:
  static constexpr std::uint32_t kNotLive = ~std::uint32_t{0};

  std::size_t index_of(net::HostId a, net::HostId b) const;
  // Removes live_[pos] by swapping the last live pair into its place.
  void drop_live(std::size_t pos) const;

  int num_hosts_;
  sim::SimTime ttl_;
  std::vector<Sample> entries_;  // indexed by pair_index; measured_at<0 = none
  // Entries with measured_at >= 0. record() counts a never-measured pair
  // it fills, invalidate() a measured pair it clears; nothing else changes
  // whether a pair is measured.
  std::size_t measured_ = 0;

  // The measured pairs that may still be fresh, unordered, and each pair's
  // position in that list (kNotLive when absent), so record() and
  // invalidate() update it in O(1). A payload rebuild walks only this list
  // and drops the pairs it finds expired: expiry is monotone in `now`, so
  // a dropped pair stays out until record() measures it again.
  struct LivePair {
    net::HostId a;  // a < b
    net::HostId b;
    std::uint32_t index;  // pair_index(a, b)
  };
  mutable std::vector<LivePair> live_;
  mutable std::vector<std::uint32_t> live_slot_;  // by pair_index

  // freshest() memo. The hottest call in a run is freshest() — once per
  // outgoing message for the piggyback payload — while the cache content
  // changes far less often, so the sorted result is cached. It stays valid
  // while (a) nothing was recorded or invalidated (memo_stale_), (b) the
  // request shape is unchanged, and (c) no included entry has crossed its
  // TTL horizon — entries excluded at compute time stay excluded, because
  // "never measured" only changes through record() and expiry is monotone
  // in now. A rebuild reuses the memo's vector only when nothing else
  // holds it: snapshots held by in-flight messages never change.
  mutable std::shared_ptr<std::vector<PairSample>> memo_;
  mutable bool memo_stale_ = true;
  mutable sim::SimTime memo_valid_until_ = -1;  // min(measured_at)+ttl
  mutable std::size_t memo_max_entries_ = 0;
  mutable sim::SimTime last_payload_now_ = -sim::kTimeInfinity;
};

}  // namespace wadc::monitor
