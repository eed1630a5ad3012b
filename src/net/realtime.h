// The realtime bridge: maps simulated seconds onto CLOCK_MONOTONIC and
// drives the TCP loopback transport while the event loop waits.
//
// This is the one translation unit that sees both sides of the seam — the
// discrete-event kernel (sim::Clock, sim::Simulation) and the sim-free
// socket layer (net/tcp). tools/check_layering.sh enforces the split:
// net/tcp must not include sim/, and nothing outside src/net may include
// net/tcp; everything above this file talks to net::Transport and
// sim::Clock only.
//
// Time mapping: sim_time = (monotonic - epoch) * time_scale, with the epoch
// latched at the first wait. Simulation::run calls wait_until(t) before
// dispatching the event at sim time t; the bridge services the epoll loop
// (socket readiness, pacing timers) until the wall clock reaches t's image.
// Socket completions observed while waiting are deferred by Network into
// the event queue at external_now(), so the kernel's (time, seq) dispatch
// order and every engine/monitor/session code path are untouched — the tcp
// backend changes *when* events happen, never *how* they are processed.
#pragma once

#include <memory>
#include <vector>

#include "net/tcp/epoll_loop.h"
#include "net/tcp/tcp_transport.h"
#include "sim/clock.h"
#include "sim/simulation.h"

namespace wadc::net {

class Network;
class LinkTable;

class RealtimeBackend final : public sim::Clock {
 public:
  // `time_scale` is simulated seconds per wall second (finite, > 0); frames
  // are paced to the configured link bandwidths.
  explicit RealtimeBackend(double time_scale);
  ~RealtimeBackend() override;

  RealtimeBackend(const RealtimeBackend&) = delete;
  RealtimeBackend& operator=(const RealtimeBackend&) = delete;

  // Builds the loopback mesh for the network's host count, installs the
  // transport on the network and this clock on the simulation, and points
  // the transport's pacer at the network's bandwidth traces (sampled at the
  // current sim time per transfer, so pacing follows the traces). Call once
  // after constructing the Network, before Simulation::run.
  void attach(sim::Simulation& sim, Network& network);

  // sim::Clock.
  sim::Clock::Wait wait_until(sim::SimTime t) override;
  sim::SimTime now(sim::SimTime event_now) override;

  tcp::TcpTransport* transport() { return transport_.get(); }
  tcp::EpollLoop& loop() { return loop_; }

 private:
  static double rate_trampoline(void* ctx, int src, int dst);
  // No-op timer handler: arms the loop's timerfd at an event deadline so
  // poll() wakes with nanosecond rather than millisecond precision.
  static void wake_trampoline(void* ctx, std::uint64_t timer_id);

  double time_scale_;
  tcp::EpollLoop loop_;
  std::unique_ptr<tcp::TcpTransport> transport_;
  sim::Simulation* sim_ = nullptr;
  Network* network_ = nullptr;
  const LinkTable* links_ = nullptr;
  // Monotonic seconds corresponding to sim time 0; < 0 until the run's
  // first wait latches it.
  double epoch_ = -1;
};

}  // namespace wadc::net
