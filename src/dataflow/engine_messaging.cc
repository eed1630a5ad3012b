// Engine messaging: the routing sublayer between the actors (engine.cc)
// and the reliable transport (net/reliable_transfer.h). The MessageRouter
// (engine_messaging.h) decides each hop of a message through the
// EngineServices seam; the engine's awaiters here (Hop, Route, Post;
// declared in engine_awaiters.h) make those hops with the per-hop
// piggyback payloads and deliver into mailboxes, without a coroutine
// frame.
#include "dataflow/engine_messaging.h"

#include "common/assert.h"
#include "dataflow/engine_awaiters.h"

namespace wadc::dataflow {

net::HostId MessageRouter::believed_location(net::HostId from_host,
                                             core::OperatorId target,
                                             int iteration) {
  if (uses_directory_) {
    return services_.directory(from_host).location(target);
  }
  return placement_for_(iteration).location(target);
}

bool MessageRouter::advance(Chase& chase, bool delivered) {
  if (!delivered) {
    chase.at = net::kInvalidHost;
    return true;
  }
  if (chase.forwards > 0) {
    // Every hop after the first is a forward from a stale location.
    ++services_.stats().messages_forwarded;
    if (forwards_counter_) forwards_counter_->add();
  }
  chase.at = chase.next;
  // A message for a host has arrived. Placement-based routing is
  // authoritative: the change-over protocol guarantees the operator is (or
  // is about to be) at this host for this iteration.
  if (chase.target == core::kNoOperator || !uses_directory_) return true;
  // The local algorithm can be stale; the old host forwards (it performed
  // the move, so it knows the new location).
  if (chase.at == services_.operator_location(chase.target)) return true;
  ++chase.forwards;
  if (services_.faults_active()) {
    // Repair can move an operator several times while a message chases
    // it; give up (and let the caller re-resolve) rather than assert.
    if (chase.forwards > 8 + services_.base_tree().num_hosts()) {
      chase.at = net::kInvalidHost;
      return true;
    }
  } else {
    WADC_ASSERT(chase.forwards <= 8, "operator forwarding chain too long");
  }
  chase.next = services_.operator_location(chase.target);
  if (obs::Tracer* tracer = services_.observability().tracer) {
    tracer->instant("engine", "stale_forward", chase.at,
                    obs::operator_lane(chase.target),
                    services_.simulation().now(),
                    {{"op", chase.target}, {"next", chase.next}});
  }
  return false;
}

// ---------------------------------------------------------------------------
// Engine::Hop

Engine::Hop::Hop(Engine& engine, net::HostId from, net::HostId to,
                 double bytes, int priority)
    : engine_(engine),
      from_(from),
      to_(to),
      bytes_(bytes),
      send_(engine.channel_.send(
          from, to, priority,
          {&Hop::build_bytes, &Hop::on_delivered, &Hop::cancelled, this})) {}

bool Engine::Hop::start(sim::Continuation done) {
  if (from_ == to_) return true;
  return send_.start(done);
}

void Engine::Hop::rearm(net::HostId from, net::HostId to) {
  from_ = from;
  to_ = to;
  send_.rearm(from, to);
}

double Engine::Hop::build_bytes(void* self) {
  // Rebuilt before every attempt: the sender's knowledge may have advanced
  // during the backoff.
  Hop& hop = *static_cast<Hop*>(self);
  Engine& engine = hop.engine_;
  hop.payload_ = engine.monitoring_.piggyback_payload_shared(hop.from_);
  double total = hop.bytes_ + engine.monitoring_.payload_bytes(hop.payload_);
  hop.directory_snapshot_.reset();
  if (engine.uses_directory_) {
    // §2.3: location/timestamp vectors ride on every outgoing message.
    total += engine.directory_bytes();
    hop.directory_snapshot_ = std::make_unique<core::OperatorDirectory>(
        *engine.host_state(hop.from_).directory);
  }
  return total;
}

void Engine::Hop::on_delivered(void* self) {
  Hop& hop = *static_cast<Hop*>(self);
  Engine& engine = hop.engine_;
  engine.monitoring_.deliver_payload(hop.to_, hop.payload_);
  if (hop.directory_snapshot_) {
    engine.host_state(hop.to_).directory->merge(*hop.directory_snapshot_);
  }
}

bool Engine::Hop::cancelled(void* self) {
  const Engine& engine = static_cast<Hop*>(self)->engine_;
  return engine.done_ || engine.aborted_;
}

sim::Task<bool> Engine::hop(net::HostId from, net::HostId to, double bytes,
                            int priority) {
  co_return co_await Hop(*this, from, to, bytes, priority);
}

// ---------------------------------------------------------------------------
// Engine::Route

bool Engine::Route::start(sim::Continuation done) {
  done_ = done;
  return run();
}

bool Engine::Route::run() {
  for (;;) {
    if (!hop_.start(sim::Continuation::member<Route, &Route::on_leg>(this))) {
      return false;
    }
    if (router_.advance(chase_, hop_.delivered())) return true;
    hop_.rearm(chase_.at, chase_.next);
  }
}

void Engine::Route::on_leg() {
  if (!router_.advance(chase_, hop_.delivered())) {
    hop_.rearm(chase_.at, chase_.next);
    if (!run()) return;
  }
  // The caller may destroy this awaiter as soon as done_ runs.
  done_();
}

// ---------------------------------------------------------------------------
// demand and data sends

Engine::Post<Demand> Engine::send_demand_to_child(core::OperatorId from_op,
                                                  const core::Child& child,
                                                  const Demand& demand) {
  const net::HostId from = coordinator_.operator_location(from_op);
  if (uses_barrier_ && demand.pending_version > 0) {
    coordinator_.note_version_forwarded(from_op, demand.pending_version);
  }
  if (child.is_server()) {
    return Post<Demand>(
        *this, MessageRouter::to_host(from, tree_.server_host(child.index)),
        kDemandBytes, net::kDataPriority, demand,
        *servers_[static_cast<std::size_t>(child.index)].demands);
  }
  return Post<Demand>(*this,
                      router_.to_operator(from, child.index, demand.iteration),
                      kDemandBytes, net::kDataPriority, demand,
                      *op_state(child.index).demands);
}

Engine::Post<DataMessage> Engine::send_data_to_consumer(
    core::OperatorId producer, const DataMessage& message) {
  const net::HostId from = coordinator_.operator_location(producer);
  const core::OperatorId parent =
      tree_for(message.iteration).parent(producer);
  if (parent == core::kNoOperator) {
    return Post<DataMessage>(
        *this, MessageRouter::to_host(from, tree_.client_host()),
        message.image.bytes, net::kDataPriority, message, *client_data_);
  }
  return Post<DataMessage>(
      *this, router_.to_operator(from, parent, message.iteration),
      message.image.bytes, net::kDataPriority, message,
      *op_state(parent).data);
}

}  // namespace wadc::dataflow
