// Real-socket transport backend: one loopback listener per simulated host,
// a full mesh of non-blocking TCP connections, length-prefixed frames, and
// an optional per-link pacer so configured bandwidths are approximated in
// real time.
//
// Implements net::Transport (the only seam the rest of the stack sees —
// tools/check_layering.sh forbids including this header from outside
// src/net). Everything runs single-threaded on the EpollLoop the caller
// drives; completions fire from inside EpollLoop::poll.
//
// Pacing model: each ordered link (src, dst) has a virtual-transmission
// clock. A frame carrying L logical bytes on a link whose configured rate
// is R logical bytes per wall second is released to the socket at
//   release = max(now, link_next_free);  link_next_free = release + L / R
// i.e. the classic leaky-bucket with full drain. The frame's real bytes
// (capped at 64 KiB) then cross loopback in microseconds, so the receiver
// sees the last byte at ≈ the time the modeled transmission would have
// finished — measured app-level bandwidth approximates the configured link
// bandwidth. On a link with no configured rate, frames release immediately
// and loopback throughput is whatever the kernel gives.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "net/tcp/epoll_loop.h"
#include "net/tcp/frame.h"
#include "net/transport.h"

namespace wadc::net::tcp {

class TcpTransport final : public Transport {
 public:
  // `time_scale` is simulated seconds per wall second (finite, > 0): a link
  // configured at B logical bytes per simulated second is paced at
  // B * time_scale logical bytes per wall second. `link_rates` is
  // num_hosts x num_hosts row-major (src * num_hosts + dst), logical bytes
  // per *simulated* second; entries <= 0 mean unlimited. The constructor
  // binds one ephemeral loopback listener per host and connects the full
  // ordered mesh (hello handshake included) before returning; construction
  // failure is fatal.
  TcpTransport(EpollLoop& loop, int num_hosts, double time_scale,
               std::vector<double> link_rates);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Optional dynamic rate source, overriding the constructor's static
  // table: queried once per transfer at start, so pacing follows a
  // *varying* bandwidth trace instead of a t=0 snapshot. Same units and
  // <= 0 = unlimited convention as `link_rates`. A function pointer so this
  // header stays free of sim/ includes; the realtime bridge points it at
  // the link table.
  using RateFn = double (*)(void* ctx, int src, int dst);
  void set_rate_source(RateFn fn, void* ctx) {
    rate_fn_ = fn;
    rate_ctx_ = ctx;
  }

  // Transport interface.
  void set_completion(CompletionFn fn, void* ctx) override;
  void start_transfer(int src, int dst, double bytes, int priority, int tag,
                      std::uint64_t seq) override;
  void cancel_transfer(std::uint64_t seq) override;
  const char* name() const override { return "tcp"; }

  // Transfers started but not yet completed, failed, or cancelled. The
  // realtime clock uses this to decide whether an empty event queue means
  // "run over" or "wait for the wire".
  int inflight() const { return static_cast<int>(inflight_.size()); }

  int num_hosts() const { return num_hosts_; }
  // Bound loopback port of a host's listener (tests / debugging).
  int listen_port(int host) const;

  // Test & fault hook: hard-closes the src->dst channel as if the peer
  // died. Every transfer in flight on it fails; subsequent transfers on
  // the channel fail immediately at start.
  void close_channel(int src, int dst);

  // Cumulative real bytes written to sockets (headers + payloads).
  std::uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  struct OutFrame {
    FrameHeader header;
    double release_at = 0;      // monotonic seconds; 0 = immediately
    std::size_t written = 0;    // bytes of header+payload already written
  };

  // One ordered channel src->dst: the connected socket pair's two fds live
  // in different Conn entries (the sender's and the receiver's view are
  // the same Conn here, since both ends are this process: fd is the
  // *sender-side* fd, peer_fd the receiver side accepted by dst's
  // listener).
  struct Conn {
    TcpTransport* owner = nullptr;  // for the fn-pointer trampolines
    int src = -1;
    int dst = -1;
    int send_fd = -1;   // connected from src's side
    int recv_fd = -1;   // accepted by dst's listener
    bool open = false;
    double next_free = 0;               // pacing clock (monotonic seconds)
    std::deque<OutFrame> write_queue;
    std::uint64_t pace_timer = 0;       // outstanding EpollLoop timer id
    bool want_writable = false;         // EPOLLOUT armed on send_fd
    // Receive-side parse state.
    std::vector<char> rx;
    std::size_t rx_consumed = 0;
  };

  Conn& channel(int src, int dst);
  const Conn& channel(int src, int dst) const;

  void setup_mesh();
  void flush(Conn& conn);                 // write released frames
  void on_send_writable(Conn& conn);
  void on_recv_readable(Conn& conn);
  void parse_frames(Conn& conn);
  void fail_channel(Conn& conn);          // peer closed / error
  void deliver(std::uint64_t seq, bool delivered);

  static void send_io_trampoline(void* ctx, std::uint32_t events);
  static void recv_io_trampoline(void* ctx, std::uint32_t events);
  static void pace_timer_trampoline(void* ctx, std::uint64_t timer_id);

  EpollLoop& loop_;
  int num_hosts_;
  double time_scale_;
  std::vector<double> link_rates_;       // logical bytes per sim second
  RateFn rate_fn_ = nullptr;             // overrides link_rates_ when set
  void* rate_ctx_ = nullptr;
  CompletionFn completion_fn_ = nullptr;
  void* completion_ctx_ = nullptr;

  std::vector<int> listen_fds_;
  std::vector<int> listen_ports_;
  std::vector<Conn> conns_;              // src * num_hosts + dst
  // seq -> channel index, for cancellation and channel-failure fan-out.
  std::map<std::uint64_t, std::size_t> inflight_;
  // Frames already on the wire whose completion must be swallowed.
  std::set<std::uint64_t> cancelled_;
  std::vector<char> payload_scratch_;    // zeros, one full frame payload
  std::uint64_t wire_bytes_sent_ = 0;
  std::uint64_t frames_delivered_ = 0;
};

}  // namespace wadc::net::tcp
