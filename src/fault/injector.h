// Drives a FaultSchedule into a live simulation.
//
// The constructor flattens the schedule into a time-sorted event list.
// arm() reserves one kernel sequence number per fault event and schedules
// only the first; fault event i schedules event i+1 under its reserved
// seq before it applies itself. So the event heap holds at most one fault
// event at a time (a Poisson schedule to a 20000 s horizon has hundreds),
// and every fault still pops at the (time, seq) key that scheduling all of
// them at arm() would give it (sim::Simulation::reserve_seqs). When a
// fault fires, the injector first mutates the network (kill/revive a host,
// begin/end a blackout), then notifies listeners — so recovery code always
// observes the post-fault network.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_schedule.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace wadc::fault {

struct FaultEvent {
  enum class Kind { kHostDown, kHostUp, kBlackoutBegin, kBlackoutEnd };

  Kind kind = Kind::kHostDown;
  net::HostId host = net::kInvalidHost;  // kHostDown / kHostUp
  net::HostId a = net::kInvalidHost;     // blackout endpoints
  net::HostId b = net::kInvalidHost;
  sim::SimTime time = 0;
};

const char* fault_event_name(FaultEvent::Kind kind);

class FaultInjector {
 public:
  using Listener = std::function<void(const FaultEvent&)>;

  // `seed` feeds the network's drop-probability stream; it does not affect
  // the (already expanded) schedule.
  FaultInjector(sim::Simulation& sim, net::Network& network,
                FaultSchedule schedule, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Counters are created lazily on the first fault, so attaching obs to an
  // injector with an empty schedule changes nothing.
  void set_obs(const obs::Obs& obs) { obs_ = obs; }

  // Reserves the fault events' place in the kernel's event order, schedules
  // the first, and enables the drop probability. Call once, before
  // sim.run(). Events landing during teardown are dropped by the kernel,
  // which ends the chain.
  void arm();

  // Listeners run after the network mutation, in registration order.
  void add_listener(Listener listener);

  const FaultSchedule& schedule() const { return schedule_; }
  int events_injected() const { return events_injected_; }
  int events_total() const { return static_cast<int>(events_.size()); }

  // True if the schedule restarts `host` strictly after time `t`. Recovery
  // uses this to distinguish a transient crash from a permanent one.
  bool host_restarts_after(net::HostId host, sim::SimTime t) const;

 private:
  // Schedules events_[index] under its reserved seq.
  void schedule_event(std::size_t index);
  // Fires events_[index]: schedules the next event, then applies this one.
  void fire(std::size_t index);
  void apply(std::size_t index);

  sim::Simulation& sim_;
  net::Network& network_;
  FaultSchedule schedule_;
  std::uint64_t seed_;
  std::vector<FaultEvent> events_;  // sorted by (time, flatten order)
  sim::EventSeq first_seq_ = 0;     // events_[i] fires under first_seq_ + i
  std::vector<Listener> listeners_;
  int events_injected_ = 0;
  bool armed_ = false;

  obs::Obs obs_;
  obs::Counter* crash_counter_ = nullptr;
  obs::Counter* restart_counter_ = nullptr;
  obs::Counter* blackout_counter_ = nullptr;
  obs::Counter* blackout_end_counter_ = nullptr;
};

}  // namespace wadc::fault
