// Engine messaging: the routing sublayer between the actors (engine.cc)
// and the reliable transport (net/reliable_transfer.h). The MessageRouter
// (engine_messaging.h) resolves destinations and forwards around stale
// locations through the EngineServices seam; the engine-specific pieces
// here attach the per-hop piggyback payloads and deliver into mailboxes.
#include "dataflow/engine.h"
#include "dataflow/engine_messaging.h"

#include "common/assert.h"

namespace wadc::dataflow {

net::HostId MessageRouter::believed_location(net::HostId from_host,
                                             core::OperatorId target,
                                             int iteration) {
  if (uses_directory_) {
    return services_.directory(from_host).location(target);
  }
  return placement_for_(iteration).location(target);
}

sim::Task<net::HostId> MessageRouter::route_to_operator(net::HostId from,
                                                        core::OperatorId target,
                                                        int iteration,
                                                        double bytes,
                                                        int priority) {
  const net::HostId believed = believed_location(from, target, iteration);
  if (!co_await services_.hop(from, believed, bytes, priority)) {
    co_return net::kInvalidHost;
  }
  if (!uses_directory_) {
    // Placement-based routing is authoritative: the change-over protocol
    // guarantees the operator is (or is about to be) at this host for this
    // iteration.
    co_return believed;
  }
  // The local algorithm can be stale; the old host forwards (it performed
  // the move, so it knows the new location).
  net::HostId at = believed;
  int forwards = 0;
  while (at != services_.operator_location(target)) {
    if (services_.faults_active()) {
      // Repair can move an operator several times while a message chases
      // it; give up (and let the caller re-resolve) rather than assert.
      if (++forwards > 8 + services_.base_tree().num_hosts()) {
        co_return net::kInvalidHost;
      }
    } else {
      WADC_ASSERT(++forwards <= 8, "operator forwarding chain too long");
    }
    const net::HostId next = services_.operator_location(target);
    if (obs::Tracer* tracer = services_.observability().tracer) {
      tracer->instant("engine", "stale_forward", at,
                      obs::operator_lane(target),
                      services_.simulation().now(),
                      {{"op", target}, {"next", next}});
    }
    if (!co_await services_.hop(at, next, bytes, priority)) {
      co_return net::kInvalidHost;
    }
    ++services_.stats().messages_forwarded;
    if (forwards_counter_) forwards_counter_->add();
    at = next;
  }
  co_return at;
}

sim::Task<bool> Engine::hop(net::HostId from, net::HostId to, double bytes,
                            int priority) {
  if (from == to) co_return true;
  // The channel re-invokes the builder before every attempt: the piggyback
  // payload and directory snapshot are rebuilt because the sender's
  // knowledge may have advanced during the backoff.
  monitor::Payload payload;
  std::unique_ptr<core::OperatorDirectory> directory_snapshot;
  co_return co_await channel_.send(
      from, to, priority,
      [&] {
        payload = monitoring_.piggyback_payload_shared(from);
        double total = bytes + monitoring_.payload_bytes(payload);
        directory_snapshot.reset();
        if (uses_directory_) {
          // §2.3: location/timestamp vectors ride on every outgoing message.
          total += directory_bytes();
          directory_snapshot = std::make_unique<core::OperatorDirectory>(
              *host_state(from).directory);
        }
        return total;
      },
      [&] {
        monitoring_.deliver_payload(to, payload);
        if (directory_snapshot) {
          host_state(to).directory->merge(*directory_snapshot);
        }
      },
      [&] { return done_ || aborted_; });
}

sim::Task<net::HostId> Engine::route_to_operator(net::HostId from,
                                                 core::OperatorId target,
                                                 int iteration, double bytes,
                                                 int priority) {
  return router_.route_to_operator(from, target, iteration, bytes, priority);
}

sim::Task<bool> Engine::send_demand_to_child(core::OperatorId from_op,
                                             const core::Child& child,
                                             Demand demand) {
  const net::HostId from = coordinator_.operator_location(from_op);
  if (uses_barrier_ && demand.pending_version > 0) {
    coordinator_.note_version_forwarded(from_op, demand.pending_version);
  }
  if (child.is_server()) {
    if (!co_await hop(from, tree_.server_host(child.index), kDemandBytes,
                      net::kDataPriority)) {
      co_return false;
    }
    servers_[static_cast<std::size_t>(child.index)].demands->send(demand);
  } else {
    if (co_await route_to_operator(from, child.index, demand.iteration,
                                   kDemandBytes, net::kDataPriority) ==
        net::kInvalidHost) {
      co_return false;
    }
    op_state(child.index).demands->send(demand);
  }
  co_return true;
}

sim::Task<bool> Engine::send_data_to_consumer(core::OperatorId producer,
                                              DataMessage message) {
  const net::HostId from = coordinator_.operator_location(producer);
  const core::OperatorId parent =
      tree_for(message.iteration).parent(producer);
  if (parent == core::kNoOperator) {
    if (!co_await hop(from, tree_.client_host(), message.image.bytes,
                      net::kDataPriority)) {
      co_return false;
    }
    client_data_->send(message);
  } else {
    if (co_await route_to_operator(from, parent, message.iteration,
                                   message.image.bytes, net::kDataPriority) ==
        net::kInvalidHost) {
      co_return false;
    }
    op_state(parent).data->send(message);
  }
  co_return true;
}

}  // namespace wadc::dataflow
