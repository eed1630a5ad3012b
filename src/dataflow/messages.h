// Message types exchanged by the demand-driven dataflow engine.
#pragma once

#include <cstdint>

#include "workload/image_workload.h"

namespace wadc::dataflow {

// Wire sizes of the protocol messages. A data message weighs its image's
// bytes; every message also carries its piggybacked bandwidth samples, and
// under directory routing the location/timestamp vectors (§2.3).
inline constexpr double kDemandBytes = 512;         // demand message body
inline constexpr double kControlBytes = 256;        // barrier reports/releases
inline constexpr double kOperatorMoveBytes = 1024;  // light-move state (§2)
inline constexpr double kDirectoryEntryBytes = 12;  // per-operator entry

// Demand for the next data partition, flowing from a consumer to a
// producer. Carries the protocol piggyback fields of §2.2 and §2.3.
struct Demand {
  int iteration = 0;

  // Later-producer feedback (§2.3): true iff the receiver delivered its
  // previous partition later than its sibling did.
  bool marked_later = false;
  // The sender's current critical-path belief (§2.3); the client always
  // sends true (the root of the tree is on the critical path by
  // definition).
  bool consumer_on_critical_path = false;

  // Pending placement version riding on demands toward the servers (§2.2's
  // barrier-based change-over); 0 means none.
  int pending_version = 0;

  // Result-cache pruning (src/cache, docs/CACHING.md): the consumer already
  // obtained this iteration's output from the cache fabric, so the receiver
  // must advance its iteration counter (and honor the barrier piggyback)
  // but produce and send nothing. Never set when the cache is disabled.
  bool pruned = false;
};

// A data partition flowing from a producer to its consumer.
struct DataMessage {
  workload::ImageSpec image;
  int iteration = 0;
  // Which input of the consumer this fills: 0 = left, 1 = right. For the
  // client (single producer) it is always 0.
  int producer_side = 0;
};

// Server -> client control message of the change-over protocol (§2.2):
// "it sends a message to the client containing its current iteration
// number and suspends its processing".
struct BarrierReport {
  int version = 0;
  int server = 0;
  int iteration = 0;  // next partition index the server would serve
};

}  // namespace wadc::dataflow
