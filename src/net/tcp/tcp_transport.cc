#include "net/tcp/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace wadc::net::tcp {

namespace {

// Real payload bytes per frame, capping what actually crosses loopback.
constexpr std::uint32_t kMaxWireBytes = 64 * 1024;
// Pacing floor, logical bytes per wall second: keeps progress when a trace
// dips to near-zero bandwidth (a paced run must still terminate).
constexpr double kMinRateBytesPerWallSecond = 1024;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  WADC_ASSERT(flags >= 0, "fcntl(F_GETFL) failed: ", strerror(errno));
  const int rc = fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  WADC_ASSERT(rc == 0, "fcntl(F_SETFL) failed: ", strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  // Nagle would add up to 40 ms per small frame — fatal for a transport
  // whose whole job is faithful timing. Failure is tolerated (not a
  // correctness issue).
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ssize_t write_some(int fd, const char* data, std::size_t len) {
  for (;;) {
    const ssize_t n = write(fd, data, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t read_some(int fd, char* data, std::size_t len) {
  for (;;) {
    const ssize_t n = read(fd, data, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

// Blocking read of exactly `len` bytes (setup-time hellos only).
bool read_fully(int fd, char* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = read_some(fd, data + got, len - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpTransport::TcpTransport(EpollLoop& loop, int num_hosts, double time_scale,
                           std::vector<double> link_rates)
    : loop_(loop),
      num_hosts_(num_hosts),
      time_scale_(time_scale),
      link_rates_(std::move(link_rates)) {
  WADC_ASSERT(num_hosts_ >= 2, "tcp mesh needs at least two hosts");
  WADC_ASSERT(std::isfinite(time_scale_) && time_scale_ > 0,
              "time scale must be finite and > 0, got ", time_scale_);
  WADC_ASSERT(link_rates_.size() ==
                  static_cast<std::size_t>(num_hosts_) *
                      static_cast<std::size_t>(num_hosts_),
              "link_rates must be num_hosts^2 entries");
  payload_scratch_.assign(kMaxWireBytes, 0);
  conns_.resize(link_rates_.size());
  setup_mesh();
}

TcpTransport::~TcpTransport() {
  for (Conn& c : conns_) {
    if (c.send_fd >= 0) {
      loop_.del_fd(c.send_fd);
      close(c.send_fd);
    }
    if (c.recv_fd >= 0) {
      loop_.del_fd(c.recv_fd);
      close(c.recv_fd);
    }
    if (c.pace_timer != 0) loop_.cancel_timer(c.pace_timer);
  }
  for (const int fd : listen_fds_) {
    if (fd >= 0) close(fd);
  }
}

TcpTransport::Conn& TcpTransport::channel(int src, int dst) {
  WADC_ASSERT(src >= 0 && src < num_hosts_ && dst >= 0 && dst < num_hosts_ &&
                  src != dst,
              "bad channel ", src, "->", dst);
  return conns_[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(num_hosts_) +
                static_cast<std::size_t>(dst)];
}

const TcpTransport::Conn& TcpTransport::channel(int src, int dst) const {
  return const_cast<TcpTransport*>(this)->channel(src, dst);
}

int TcpTransport::listen_port(int host) const {
  WADC_ASSERT(host >= 0 && host < num_hosts_, "bad host ", host);
  return listen_ports_[static_cast<std::size_t>(host)];
}

void TcpTransport::setup_mesh() {
  // One loopback listener per simulated host, on a distinct ephemeral
  // port. Backlog must absorb the whole mesh's pending connects (every
  // other host connects before any accept runs).
  listen_fds_.assign(static_cast<std::size_t>(num_hosts_), -1);
  listen_ports_.assign(static_cast<std::size_t>(num_hosts_), 0);
  for (int h = 0; h < num_hosts_; ++h) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    WADC_ASSERT(fd >= 0, "socket() failed: ", strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    int rc = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    WADC_ASSERT(rc == 0, "bind() failed: ", strerror(errno));
    rc = listen(fd, 128);
    WADC_ASSERT(rc == 0, "listen() failed: ", strerror(errno));
    socklen_t len = sizeof(addr);
    rc = getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    WADC_ASSERT(rc == 0, "getsockname() failed: ", strerror(errno));
    listen_fds_[static_cast<std::size_t>(h)] = fd;
    listen_ports_[static_cast<std::size_t>(h)] =
        static_cast<int>(ntohs(addr.sin_port));
  }

  // Connect the full ordered mesh. Loopback connects complete as soon as
  // they land in the listener's accept queue, so plain blocking connects
  // are safe and keep setup free of async machinery.
  for (int src = 0; src < num_hosts_; ++src) {
    for (int dst = 0; dst < num_hosts_; ++dst) {
      if (src == dst) continue;
      const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      WADC_ASSERT(fd >= 0, "socket() failed: ", strerror(errno));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port =
          htons(static_cast<std::uint16_t>(listen_port(dst)));
      const int rc =
          connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      WADC_ASSERT(rc == 0, "connect(host", dst,
                  ") failed: ", strerror(errno));
      Hello hello;
      hello.src = src;
      hello.dst = dst;
      const ssize_t n = write_some(fd, reinterpret_cast<char*>(&hello),
                                   sizeof(hello));
      WADC_ASSERT(n == static_cast<ssize_t>(sizeof(hello)),
                  "hello write failed: ", strerror(errno));
      set_nodelay(fd);
      Conn& conn = channel(src, dst);
      conn.owner = this;
      conn.src = src;
      conn.dst = dst;
      conn.send_fd = fd;
    }
  }

  // Accept every queued connection and route it to its channel via the
  // hello. Accepts are blocking: the connects above are already queued.
  for (int dst = 0; dst < num_hosts_; ++dst) {
    for (int i = 0; i < num_hosts_ - 1; ++i) {
      const int fd =
          accept(listen_fds_[static_cast<std::size_t>(dst)], nullptr,
                 nullptr);
      WADC_ASSERT(fd >= 0, "accept() failed: ", strerror(errno));
      Hello hello;
      const bool ok =
          read_fully(fd, reinterpret_cast<char*>(&hello), sizeof(hello));
      WADC_ASSERT(ok, "hello read failed");
      WADC_ASSERT(hello.magic == kHelloMagic, "bad hello magic");
      WADC_ASSERT(hello.dst == dst, "hello routed to the wrong listener");
      set_nodelay(fd);
      Conn& conn = channel(hello.src, hello.dst);
      WADC_ASSERT(conn.recv_fd < 0, "duplicate hello for channel");
      conn.recv_fd = fd;
    }
  }

  // Switch the whole mesh to non-blocking, register with the loop, and
  // open for traffic.
  for (Conn& conn : conns_) {
    if (conn.send_fd < 0) continue;
    set_nonblocking(conn.send_fd);
    set_nonblocking(conn.recv_fd);
    loop_.add_fd(conn.send_fd, 0, &TcpTransport::send_io_trampoline, &conn);
    loop_.add_fd(conn.recv_fd, EPOLLIN, &TcpTransport::recv_io_trampoline,
                 &conn);
    conn.open = true;
  }
}

void TcpTransport::set_completion(CompletionFn fn, void* ctx) {
  completion_fn_ = fn;
  completion_ctx_ = ctx;
}

void TcpTransport::start_transfer(int src, int dst, double bytes,
                                  int priority, int tag, std::uint64_t seq) {
  WADC_ASSERT(completion_fn_ != nullptr,
              "start_transfer before set_completion");
  WADC_ASSERT(inflight_.count(seq) == 0, "duplicate transfer seq");
  Conn& conn = channel(src, dst);
  if (!conn.open) {
    // Channel already failed (peer closed): surface immediately.
    completion_fn_(completion_ctx_, seq, /*delivered=*/false);
    return;
  }

  OutFrame frame;
  frame.header.seq = seq;
  frame.header.logical_bytes = bytes;
  frame.header.tag = tag;
  frame.header.priority = priority;
  frame.header.wire_len = static_cast<std::uint32_t>(
      std::min<double>(std::max(bytes, 1.0), kMaxWireBytes));

  // Leaky-bucket pacing in wall time (see header comment).
  double rate = rate_fn_ != nullptr
                    ? rate_fn_(rate_ctx_, src, dst)
                    : link_rates_[static_cast<std::size_t>(src) *
                                      static_cast<std::size_t>(num_hosts_) +
                                  static_cast<std::size_t>(dst)];
  rate = rate > 0 ? rate * time_scale_ : 0;  // 0 = unlimited, release now
  if (rate > 0) {
    rate = std::max(rate, kMinRateBytesPerWallSecond);
    const double now = monotonic_seconds();
    const double release = std::max(now, conn.next_free);
    frame.release_at = release + bytes / rate;
    conn.next_free = frame.release_at;
  }

  inflight_.emplace(seq, static_cast<std::size_t>(&conn - conns_.data()));
  conn.write_queue.push_back(frame);
  flush(conn);
}

void TcpTransport::cancel_transfer(std::uint64_t seq) {
  const auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;
  Conn& conn = conns_[it->second];
  inflight_.erase(it);
  // Still queued (and not mid-write)? Drop it before it hits the wire.
  for (auto q = conn.write_queue.begin(); q != conn.write_queue.end(); ++q) {
    if (q->header.seq == seq) {
      if (q->written == 0) {
        conn.write_queue.erase(q);
        return;
      }
      break;  // partially written: the frame must finish; swallow later
    }
  }
  // Already on the wire: the receiver will see it; swallow the completion.
  cancelled_.insert(seq);
}

void TcpTransport::flush(Conn& conn) {
  if (!conn.open) return;
  const double now = monotonic_seconds();
  while (!conn.write_queue.empty()) {
    OutFrame& frame = conn.write_queue.front();
    if (frame.release_at > now) {
      // Not yet released by the pacer: wake up when it is.
      if (conn.pace_timer == 0) {
        conn.pace_timer = loop_.add_timer(
            frame.release_at, &TcpTransport::pace_timer_trampoline, &conn);
      }
      return;
    }
    const std::size_t total = sizeof(FrameHeader) + frame.header.wire_len;
    while (frame.written < total) {
      const char* src;
      std::size_t len;
      if (frame.written < sizeof(FrameHeader)) {
        src = reinterpret_cast<const char*>(&frame.header) + frame.written;
        len = sizeof(FrameHeader) - frame.written;
      } else {
        const std::size_t off = frame.written - sizeof(FrameHeader);
        src = payload_scratch_.data() + off;
        len = frame.header.wire_len - off;
      }
      const ssize_t n = write_some(conn.send_fd, src, len);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Kernel buffer full: real backpressure. Resume on EPOLLOUT.
          if (!conn.want_writable) {
            conn.want_writable = true;
            loop_.mod_fd(conn.send_fd, EPOLLOUT);
          }
          return;
        }
        // EPIPE/ECONNRESET: the peer is gone.
        fail_channel(conn);
        return;
      }
      frame.written += static_cast<std::size_t>(n);
      wire_bytes_sent_ += static_cast<std::uint64_t>(n);
    }
    conn.write_queue.pop_front();
  }
  if (conn.want_writable) {
    conn.want_writable = false;
    loop_.mod_fd(conn.send_fd, 0);
  }
}

void TcpTransport::on_send_writable(Conn& conn) { flush(conn); }

void TcpTransport::on_recv_readable(Conn& conn) {
  if (!conn.open) return;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = read_some(conn.recv_fd, buf, sizeof(buf));
    if (n > 0) {
      conn.rx.insert(conn.rx.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      // Orderly peer close mid-stream: everything unresolved on this
      // channel failed.
      parse_frames(conn);
      fail_channel(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fail_channel(conn);
    return;
  }
  parse_frames(conn);
}

void TcpTransport::parse_frames(Conn& conn) {
  for (;;) {
    const std::size_t avail = conn.rx.size() - conn.rx_consumed;
    if (avail < sizeof(FrameHeader)) break;
    FrameHeader header;
    memcpy(&header, conn.rx.data() + conn.rx_consumed, sizeof(header));
    WADC_ASSERT(header.magic == kDataMagic, "corrupt frame stream");
    WADC_ASSERT(header.wire_len <= kMaxWireBytes,
                "oversized frame: ", header.wire_len);
    if (avail < sizeof(FrameHeader) + header.wire_len) break;
    conn.rx_consumed += sizeof(FrameHeader) + header.wire_len;
    ++frames_delivered_;
    deliver(header.seq, /*delivered=*/true);
    if (!conn.open) return;  // a completion handler may tear us down
  }
  // Compact once the consumed prefix dominates; keeps capacity.
  if (conn.rx_consumed > 0 &&
      (conn.rx_consumed == conn.rx.size() ||
       conn.rx_consumed >= (1u << 16))) {
    conn.rx.erase(conn.rx.begin(),
                  conn.rx.begin() +
                      static_cast<std::ptrdiff_t>(conn.rx_consumed));
    conn.rx_consumed = 0;
  }
}

void TcpTransport::fail_channel(Conn& conn) {
  if (!conn.open) return;
  conn.open = false;
  if (conn.pace_timer != 0) {
    loop_.cancel_timer(conn.pace_timer);
    conn.pace_timer = 0;
  }
  loop_.del_fd(conn.send_fd);
  loop_.del_fd(conn.recv_fd);
  close(conn.send_fd);
  close(conn.recv_fd);
  conn.send_fd = conn.recv_fd = -1;
  conn.write_queue.clear();
  conn.rx.clear();
  conn.rx_consumed = 0;
  // Fail every transfer routed on this channel, in seq order.
  const std::size_t index = static_cast<std::size_t>(&conn - conns_.data());
  std::vector<std::uint64_t> victims;
  for (const auto& [seq, conn_index] : inflight_) {
    if (conn_index == index) victims.push_back(seq);
  }
  for (const std::uint64_t seq : victims) deliver(seq, /*delivered=*/false);
}

void TcpTransport::deliver(std::uint64_t seq, bool delivered) {
  if (cancelled_.erase(seq) > 0) return;  // abandoned by the caller
  const auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;  // cancelled while queued, or unknown
  inflight_.erase(it);
  completion_fn_(completion_ctx_, seq, delivered);
}

void TcpTransport::close_channel(int src, int dst) {
  fail_channel(channel(src, dst));
}

void TcpTransport::send_io_trampoline(void* ctx, std::uint32_t events) {
  auto* conn = static_cast<Conn*>(ctx);
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    conn->owner->fail_channel(*conn);
    return;
  }
  conn->owner->on_send_writable(*conn);
}

void TcpTransport::recv_io_trampoline(void* ctx, std::uint32_t events) {
  auto* conn = static_cast<Conn*>(ctx);
  if ((events & EPOLLERR) != 0) {
    conn->owner->fail_channel(*conn);
    return;
  }
  // EPOLLHUP alone still allows draining buffered bytes; the read loop
  // surfaces the close.
  conn->owner->on_recv_readable(*conn);
}

void TcpTransport::pace_timer_trampoline(void* ctx, std::uint64_t timer_id) {
  auto* conn = static_cast<Conn*>(ctx);
  if (conn->pace_timer == timer_id) conn->pace_timer = 0;
  conn->owner->flush(*conn);
}

}  // namespace wadc::net::tcp
