#include "fault/injector.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::fault {

const char* fault_event_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kHostDown:
      return "crash";
    case FaultEvent::Kind::kHostUp:
      return "restart";
    case FaultEvent::Kind::kBlackoutBegin:
      return "blackout_begin";
    case FaultEvent::Kind::kBlackoutEnd:
      return "blackout_end";
  }
  return "unknown";
}

FaultInjector::FaultInjector(sim::Simulation& sim, net::Network& network,
                             FaultSchedule schedule, std::uint64_t seed)
    : sim_(sim),
      network_(network),
      schedule_(std::move(schedule)),
      seed_(seed) {
  using Kind = FaultEvent::Kind;
  for (const HostCrash& c : schedule_.crashes) {
    events_.push_back(
        FaultEvent{Kind::kHostDown, c.host, net::kInvalidHost,
                   net::kInvalidHost, c.at});
    if (c.restart_at != sim::kTimeInfinity) {
      events_.push_back(
          FaultEvent{Kind::kHostUp, c.host, net::kInvalidHost,
                     net::kInvalidHost, c.restart_at});
    }
  }
  for (const LinkBlackout& b : schedule_.blackouts) {
    events_.push_back(
        FaultEvent{Kind::kBlackoutBegin, net::kInvalidHost, b.a, b.b,
                   b.begin});
    if (b.end != sim::kTimeInfinity) {
      events_.push_back(
          FaultEvent{Kind::kBlackoutEnd, net::kInvalidHost, b.a, b.b, b.end});
    }
  }
  // Stable: equal-time events fire in flatten order, deterministically.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.time < y.time;
                   });
}

void FaultInjector::add_listener(Listener listener) {
  listeners_.push_back(std::move(listener));
}

void FaultInjector::arm() {
  WADC_ASSERT(!armed_, "FaultInjector armed twice");
  armed_ = true;
  if (schedule_.drop_probability > 0) {
    network_.set_drop_probability(schedule_.drop_probability, seed_);
  }
  if (events_.empty()) return;
  // events_ is sorted, so the first event is the earliest.
  WADC_ASSERT(events_.front().time >= sim_.now(),
              "fault scheduled in the past");
  first_seq_ = sim_.reserve_seqs(events_.size());
  schedule_event(0);
}

void FaultInjector::schedule_event(std::size_t index) {
  auto fire_event = [this, index] { fire(index); };
  static_assert(sim::Callback::fits_inline<decltype(fire_event)>(),
                "fault events must stay allocation-free");
  sim_.schedule_reserved(events_[index].time, first_seq_ + index, fire_event);
}

void FaultInjector::fire(std::size_t index) {
  // The next event's key follows this one's, so scheduling it now, before
  // anything ordered after it can pop, keeps the up-front order exactly.
  if (index + 1 < events_.size()) schedule_event(index + 1);
  apply(index);
}

bool FaultInjector::host_restarts_after(net::HostId host,
                                        sim::SimTime t) const {
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultEvent::Kind::kHostUp && ev.host == host &&
        ev.time > t) {
      return true;
    }
  }
  return false;
}

void FaultInjector::apply(std::size_t index) {
  using Kind = FaultEvent::Kind;
  const FaultEvent& ev = events_[index];
  switch (ev.kind) {
    case Kind::kHostDown:
      network_.set_host_alive(ev.host, false);
      if (obs_.metrics) {
        if (!crash_counter_) {
          crash_counter_ = &obs_.metrics->counter("fault.crashes");
        }
        crash_counter_->add();
      }
      if (obs_.tracer) {
        obs_.tracer->instant("fault", "crash", ev.host, obs::kControlLane,
                             ev.time, {{"host", ev.host}});
      }
      break;
    case Kind::kHostUp:
      network_.set_host_alive(ev.host, true);
      if (obs_.metrics) {
        if (!restart_counter_) {
          restart_counter_ = &obs_.metrics->counter("fault.restarts");
        }
        restart_counter_->add();
      }
      if (obs_.tracer) {
        obs_.tracer->instant("fault", "restart", ev.host, obs::kControlLane,
                             ev.time, {{"host", ev.host}});
      }
      break;
    case Kind::kBlackoutBegin:
      network_.set_link_blackout(ev.a, ev.b, true);
      if (obs_.metrics) {
        if (!blackout_counter_) {
          blackout_counter_ = &obs_.metrics->counter("fault.blackouts");
        }
        blackout_counter_->add();
      }
      if (obs_.tracer) {
        obs_.tracer->instant("fault", "blackout_begin", ev.a,
                             obs::kControlLane, ev.time,
                             {{"a", ev.a}, {"b", ev.b}});
      }
      break;
    case Kind::kBlackoutEnd:
      network_.set_link_blackout(ev.a, ev.b, false);
      if (obs_.metrics) {
        if (!blackout_end_counter_) {
          blackout_end_counter_ =
              &obs_.metrics->counter("fault.blackout_ends");
        }
        blackout_end_counter_->add();
      }
      if (obs_.tracer) {
        obs_.tracer->instant("fault", "blackout_end", ev.a, obs::kControlLane,
                             ev.time, {{"a", ev.a}, {"b", ev.b}});
      }
      break;
  }
  ++events_injected_;
  for (const Listener& listener : listeners_) listener(ev);
}

}  // namespace wadc::fault
