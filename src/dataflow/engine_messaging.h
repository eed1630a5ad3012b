// Message routing: the sublayer between the engine's actors and the
// reliable transport. Resolves where a message should go under the active
// plan or directory and forwards around stale locations (§2.3's
// location/timestamp vectors can lag the truth).
//
// The router only decides; it never awaits. A message's way is a Chase:
// the engine's route awaiter (Engine::Route, engine_awaiters.h) makes each
// hop the chase names and hands the outcome back to advance(), which says
// whether the message has arrived, must be forwarded, or is given up.
// Extracted behind EngineServices so routing is unit-testable against
// MockEngineServices without constructing a full Engine (see
// tests/engine_messaging_test.cc).
#pragma once

#include <functional>

#include "core/combination_tree.h"
#include "core/placement.h"
#include "dataflow/engine_services.h"
#include "net/types.h"
#include "obs/metrics.h"

namespace wadc::dataflow {

class MessageRouter {
 public:
  // `placement_for` resolves the placement governing a given iteration —
  // richer than EngineServices::current_placement(), which only exposes the
  // newest installed plan (epoch history lives in the change-over
  // coordinator).
  using PlacementFn = std::function<const core::Placement&(int iteration)>;

  MessageRouter(EngineServices& services, bool uses_directory,
                PlacementFn placement_for)
      : services_(services),
        uses_directory_(uses_directory),
        placement_for_(std::move(placement_for)) {}

  MessageRouter(const MessageRouter&) = delete;
  MessageRouter& operator=(const MessageRouter&) = delete;

  // Where `from_host` believes operator `target` lives, for a message
  // belonging to `iteration`: the sender's directory under directory-based
  // routing, the iteration's placement otherwise.
  net::HostId believed_location(net::HostId from_host, core::OperatorId target,
                                int iteration);

  // One message's way to its destination: it is at `at`, and the hop in
  // flight (or about to start) takes it to `next`. `target` is the
  // destination operator, or kNoOperator for a message to a host.
  struct Chase {
    core::OperatorId target = core::kNoOperator;
    net::HostId at = net::kInvalidHost;
    net::HostId next = net::kInvalidHost;
    int forwards = 0;  // forward hops begun so far
  };

  // A message from `from` to host `host`: one hop, nothing to chase.
  static Chase to_host(net::HostId from, net::HostId host) {
    return Chase{core::kNoOperator, from, host, 0};
  }
  // A message from `from` to operator `target`, for `iteration`: first a
  // hop to the sender's believed location.
  Chase to_operator(net::HostId from, core::OperatorId target,
                    int iteration) {
    return Chase{target, from, believed_location(from, target, iteration),
                 0};
  }

  // Takes the outcome of the hop to `chase.next`. Returns true when the
  // message's way is over: `chase.at` is then the host it arrived at, or
  // kInvalidHost if the hop failed or the chase gave up (fault mode only;
  // the caller should re-resolve and try again). Returns false when the
  // message must be forwarded from a stale location: `chase.next` is then
  // the next hop, and its stale_forward trace instant has been emitted.
  // Placement-based routing is authoritative and never forwards.
  bool advance(Chase& chase, bool delivered);

  void set_forwards_counter(obs::Counter* counter) {
    forwards_counter_ = counter;
  }

 private:
  EngineServices& services_;
  const bool uses_directory_;
  PlacementFn placement_for_;
  obs::Counter* forwards_counter_ = nullptr;
};

}  // namespace wadc::dataflow
