// Timestamp-vector tracking of operator locations (§2.3).
//
// "All participating hosts maintain two vectors — a timestamp vector and a
// location vector. Each vector has one entry for each operator. When an
// operator is repositioned, the original site updates the corresponding
// entry in the location vector and increments the corresponding entry in
// the timestamp vector. The new information is propagated to peers ... by
// piggybacking it on outgoing messages."
//
// For the merge rule, the paper overwrites both vectors only when the
// incoming timestamp vector *dominates* the receiver's. With concurrent
// moves of different operators (which the staggered epochs allow within one
// tree level), neither vector dominates and the whole-vector rule can stall
// propagation. The directory therefore merges entry-wise (per-operator
// newer timestamp wins), which is what a working implementation needs; see
// DESIGN.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement.h"
#include "net/types.h"

namespace wadc::core {

class OperatorDirectory {
 public:
  OperatorDirectory() = default;
  explicit OperatorDirectory(const Placement& initial);

  int num_operators() const {
    return static_cast<int>(locations_.size());
  }

  net::HostId location(OperatorId op) const;
  std::uint64_t timestamp(OperatorId op) const;

  // Called at the site performing a relocation: bumps the operator's
  // timestamp and records the new location.
  void record_move(OperatorId op, net::HostId new_location);

  // Applies a single foreign entry if it is newer (used to seed the
  // destination host's directory when an operator arrives there).
  void apply_entry(OperatorId op, net::HostId location,
                   std::uint64_t timestamp);

  // Merges a peer's directory (arrived by piggyback) entry-wise. Returns
  // true if any entry changed (meaning propagation should continue).
  bool merge(const OperatorDirectory& incoming);

  const std::vector<net::HostId>& locations() const { return locations_; }
  const std::vector<std::uint64_t>& timestamps() const { return timestamps_; }

  // Host liveness, fed by failure detection. Liveness is engine-global
  // knowledge (fault notifications), not part of the gossiped vectors, so
  // merge() deliberately ignores it.
  void set_host_alive(net::HostId host, bool alive);
  bool host_alive(net::HostId host) const;

 private:
  std::vector<net::HostId> locations_;
  std::vector<std::uint64_t> timestamps_;
  std::vector<net::HostId> dead_hosts_;  // sorted, unique
};

}  // namespace wadc::core
