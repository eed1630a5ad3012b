#include "core/operator_directory.h"

#include <algorithm>

#include "common/assert.h"
#include "core/placement.h"

namespace wadc::core {

OperatorDirectory::OperatorDirectory(const Placement& initial) {
  locations_.reserve(static_cast<std::size_t>(initial.num_operators()));
  for (OperatorId op = 0; op < initial.num_operators(); ++op) {
    locations_.push_back(initial.location(op));
  }
  timestamps_.assign(locations_.size(), 0);
}

net::HostId OperatorDirectory::location(OperatorId op) const {
  WADC_ASSERT(op >= 0 && static_cast<std::size_t>(op) < locations_.size(),
              "operator id out of range");
  return locations_[static_cast<std::size_t>(op)];
}

std::uint64_t OperatorDirectory::timestamp(OperatorId op) const {
  WADC_ASSERT(op >= 0 && static_cast<std::size_t>(op) < timestamps_.size(),
              "operator id out of range");
  return timestamps_[static_cast<std::size_t>(op)];
}

void OperatorDirectory::record_move(OperatorId op, net::HostId new_location) {
  WADC_ASSERT(op >= 0 && static_cast<std::size_t>(op) < locations_.size(),
              "operator id out of range");
  locations_[static_cast<std::size_t>(op)] = new_location;
  ++timestamps_[static_cast<std::size_t>(op)];
}

void OperatorDirectory::apply_entry(OperatorId op, net::HostId location,
                                    std::uint64_t timestamp) {
  WADC_ASSERT(op >= 0 && static_cast<std::size_t>(op) < locations_.size(),
              "operator id out of range");
  const auto i = static_cast<std::size_t>(op);
  if (timestamp > timestamps_[i]) {
    timestamps_[i] = timestamp;
    locations_[i] = location;
  }
}

bool OperatorDirectory::merge(const OperatorDirectory& incoming) {
  WADC_ASSERT(timestamps_.size() == incoming.timestamps_.size(),
              "directories of different sizes");
  bool changed = false;
  for (std::size_t i = 0; i < timestamps_.size(); ++i) {
    if (incoming.timestamps_[i] > timestamps_[i]) {
      timestamps_[i] = incoming.timestamps_[i];
      locations_[i] = incoming.locations_[i];
      changed = true;
    }
  }
  return changed;
}

void OperatorDirectory::set_host_alive(net::HostId host, bool alive) {
  const auto it =
      std::lower_bound(dead_hosts_.begin(), dead_hosts_.end(), host);
  const bool known_dead = it != dead_hosts_.end() && *it == host;
  if (alive && known_dead) {
    dead_hosts_.erase(it);
  } else if (!alive && !known_dead) {
    dead_hosts_.insert(it, host);
  }
}

bool OperatorDirectory::host_alive(net::HostId host) const {
  return !std::binary_search(dead_hosts_.begin(), dead_hosts_.end(), host);
}

}  // namespace wadc::core
