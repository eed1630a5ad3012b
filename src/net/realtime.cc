#include "net/realtime.h"

#include <cmath>

#include "common/assert.h"
#include "net/link_table.h"
#include "net/network.h"

namespace wadc::net {

namespace {

// Longest single epoll wait while the event queue is empty but transfers
// are on the wire: bounds how long a lost wakeup could stall the run.
constexpr double kIdleWaitSeconds = 0.25;

}  // namespace

RealtimeBackend::RealtimeBackend(double time_scale)
    : time_scale_(time_scale) {
  WADC_ASSERT(std::isfinite(time_scale_) && time_scale_ > 0,
              "time scale must be finite and > 0, got ", time_scale_);
}

RealtimeBackend::~RealtimeBackend() {
  // Detach from anything still pointing at us: the backend's lifetime is
  // one run, the Simulation/Network may be reused after.
  if (sim_ != nullptr && sim_->clock() == this) sim_->set_clock(nullptr);
  if (network_ != nullptr && network_->transport() == transport_.get()) {
    network_->set_transport(nullptr);
  }
}

void RealtimeBackend::attach(sim::Simulation& sim, Network& network) {
  WADC_ASSERT(transport_ == nullptr, "attach called twice");
  sim_ = &sim;
  network_ = &network;
  links_ = &network.links();
  const int n = network.num_hosts();
  // Static fallback table (t=0 snapshot); the rate source below overrides
  // it with per-transfer trace samples.
  std::vector<double> rates(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(n),
                            0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && links_->has_link(a, b)) {
        rates[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(b)] = links_->bandwidth_at(a, b, 0);
      }
    }
  }
  transport_ = std::make_unique<tcp::TcpTransport>(loop_, n, time_scale_,
                                                   std::move(rates));
  transport_->set_rate_source(&RealtimeBackend::rate_trampoline, this);
  network.set_transport(transport_.get());
  sim.set_clock(this);
}

double RealtimeBackend::rate_trampoline(void* ctx, int src, int dst) {
  auto* self = static_cast<RealtimeBackend*>(ctx);
  if (!self->links_->has_link(src, dst)) return 0;  // unlimited
  // Sample the trace at the wall-mapped sim time, so pacing tracks the
  // bandwidth variations the adaptation algorithms are reacting to.
  return self->links_->bandwidth_at(src, dst,
                                    self->sim_->external_now());
}

sim::Clock::Wait RealtimeBackend::wait_until(sim::SimTime t) {
  if (epoch_ < 0) epoch_ = tcp::monotonic_seconds();
  if (t >= sim::kTimeInfinity) {
    // Empty event queue. Transfers still on the wire will complete (or
    // fail) and inject events; with nothing in flight there is no source
    // of further work.
    if (transport_ == nullptr || transport_->inflight() == 0) {
      return Wait::kExhausted;
    }
    loop_.poll(kIdleWaitSeconds);
    return Wait::kRecheck;
  }
  const double deadline = epoch_ + t / time_scale_;
  const double now = tcp::monotonic_seconds();
  if (now >= deadline) {
    // The event is due. Drain any ready I/O first without blocking:
    // completions it injects may belong *before* this event.
    return loop_.poll(0) > 0 ? Wait::kRecheck : Wait::kReady;
  }
  // Block until the event's wall time or earlier I/O/timer activity; the
  // caller re-reads the queue either way (a dispatched completion may have
  // scheduled ahead of t). The deadline is armed on the loop's timerfd
  // (nanosecond precision) rather than left to epoll_wait's millisecond
  // timeout: a 1 ms oversleep is time_scale milliseconds of simulated
  // lateness on every chained transfer hop, which visibly inflates
  // completion times at high --time-scale.
  const std::uint64_t wake =
      loop_.add_timer(deadline, &RealtimeBackend::wake_trampoline, nullptr);
  loop_.poll(deadline - now + 0.01);
  loop_.cancel_timer(wake);
  return Wait::kRecheck;
}

void RealtimeBackend::wake_trampoline(void*, std::uint64_t) {
  // Nothing to do: the timer exists to make poll() return at the deadline.
}

sim::SimTime RealtimeBackend::now(sim::SimTime event_now) {
  if (epoch_ < 0) epoch_ = tcp::monotonic_seconds();
  const sim::SimTime wall =
      (tcp::monotonic_seconds() - epoch_) * time_scale_;
  return wall > event_now ? wall : event_now;
}

}  // namespace wadc::net
