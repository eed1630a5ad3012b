// Assignment of combination operators to hosts.
#pragma once

#include <string>
#include <vector>

#include "core/combination_tree.h"
#include "net/types.h"

namespace wadc::core {

// A placement maps every operator of a CombinationTree to a host. Servers
// and the client are pinned (data is not replicated, §2); only operators
// move.
class Placement {
 public:
  Placement() = default;
  Placement(int num_operators, net::HostId everywhere)
      : locations_(static_cast<std::size_t>(num_operators), everywhere) {}
  explicit Placement(std::vector<net::HostId> locations)
      : locations_(std::move(locations)) {}

  // All operators at the client — both the download-all baseline (§4) and
  // the one-shot algorithm's starting point (§2.1).
  static Placement all_at_client(const CombinationTree& tree) {
    return Placement(tree.num_operators(), tree.client_host());
  }

  int num_operators() const { return static_cast<int>(locations_.size()); }

  net::HostId location(OperatorId op) const {
    return locations_[check(op)];
  }
  void set_location(OperatorId op, net::HostId host) {
    locations_[check(op)] = host;
  }
  // Every operator's host, indexed by OperatorId.
  const std::vector<net::HostId>& locations() const { return locations_; }

  // Host producing the output of a child (server host or operator host).
  net::HostId child_host(const CombinationTree& tree, const Child& c) const {
    return c.is_server() ? tree.server_host(c.index)
                         : location(c.index);
  }
  // Host consuming an operator's output (parent's host, or the client).
  net::HostId consumer_host(const CombinationTree& tree,
                            OperatorId op) const {
    const OperatorId p = tree.parent(op);
    return p == kNoOperator ? tree.client_host() : location(p);
  }

  bool operator==(const Placement& other) const = default;

  // Operators that differ between two placements (the set a change-over
  // must relocate).
  std::vector<OperatorId> diff(const Placement& other) const;

  std::string to_string() const;

 private:
  std::size_t check(OperatorId op) const;

  std::vector<net::HostId> locations_;
};

}  // namespace wadc::core
