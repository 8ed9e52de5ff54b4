#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <vector>

#include "net/socket_util.hpp"
#include "serial/reader.hpp"

namespace cg::net {

namespace {

/// One frame awaiting the wire as three segments, header | payload |
/// trailer: the payload is the sender's moved buffer, never copied.
struct OutFrame {
  serial::FrameHeader header;
  serial::Bytes payload;
  serial::FrameTrailer trailer;

  std::size_t size() const {
    return header.size() + payload.size() + trailer.size();
  }
};

}  // namespace

struct TcpTransport::Conn {
  int fd = -1;
  bool connecting = false;      ///< non-blocking connect still in flight
  bool hello_seen = false;      ///< first inbound HELLO consumed
  Endpoint peer;                ///< who the frames are "from"
  serial::FrameDecoder decoder;
  std::deque<OutFrame> outq;    ///< frames awaiting the wire
  std::size_t out_pos = 0;      ///< bytes of outq.front() already written
  bool want_write = false;      ///< EPOLLOUT currently requested
};

namespace {

// sys_fail / set_nonblocking come from net/socket_util.hpp, shared with the
// obs HTTP server.

/// Parse "tcp:<host>:<port>"; only dotted-quad IPv4 and "localhost".
sockaddr_in parse_tcp(const Endpoint& e) {
  if (e.value.rfind("tcp:", 0) != 0) {
    throw std::invalid_argument("TcpTransport can only address tcp: endpoints, got " +
                                e.value);
  }
  const std::string rest = e.value.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("malformed tcp endpoint: " + e.value);
  }
  std::string host = rest.substr(0, colon);
  if (host == "localhost") host = "127.0.0.1";
  const int port = std::stoi(rest.substr(colon + 1));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("unresolvable host in endpoint: " + e.value);
  }
  return addr;
}

}  // namespace

TcpTransport::TcpTransport(std::uint16_t port) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) sys_fail("epoll_create1");

  const Listener l = make_loopback_listener(port);
  listen_fd_ = l.fd;
  port_ = l.port;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    sys_fail("epoll_ctl listen");
  }
}

TcpTransport::~TcpTransport() {
  for (auto& [fd, c] : conns_) {
    (void)c;
    ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Endpoint TcpTransport::local() const { return tcp_endpoint("127.0.0.1", port_); }

void TcpTransport::queue_frame(Conn& c, serial::Frame f) {
  // Header and CRC trailer are computed before the payload moves out.
  const serial::FrameHeader header = serial::encode_frame_header(f);
  const serial::FrameTrailer trailer = serial::encode_frame_trailer(f);
  c.outq.push_back(OutFrame{header, std::move(f.payload), trailer});
  ++stats_.frames_sent;
  if (c.connecting) {
    if (!c.want_write) {
      c.want_write = true;
      update_epoll(c);
    }
    return;
  }
  // Opportunistic drain: most sends go straight to the kernel without a
  // round-trip through epoll. try_drain arms EPOLLOUT itself on EAGAIN.
  try_drain(c);
}

void TcpTransport::apply_socket_buffers(int fd) {
  if (socket_buf_bytes_ <= 0) return;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &socket_buf_bytes_,
             sizeof(socket_buf_bytes_));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &socket_buf_bytes_,
             sizeof(socket_buf_bytes_));
}

bool TcpTransport::try_drain(Conn& c) {
  constexpr std::size_t kMaxFrames = 64;  // per writev
  while (!c.outq.empty()) {
    iovec iov[3 * kMaxFrames];
    std::size_t niov = 0;
    std::size_t queued = 0;
    // The head frame's first out_pos bytes are already on the wire; the
    // offset may fall in any of its three segments.
    std::size_t skip = c.out_pos;
    const auto add = [&](const std::uint8_t* p, std::size_t len) {
      if (skip >= len) {
        skip -= len;
        return;
      }
      iov[niov].iov_base = const_cast<std::uint8_t*>(p + skip);
      iov[niov].iov_len = len - skip;
      queued += len - skip;
      ++niov;
      skip = 0;
    };
    std::size_t frames = 0;
    for (const OutFrame& f : c.outq) {
      if (frames++ == kMaxFrames) break;
      add(f.header.data(), f.header.size());
      add(f.payload.data(), f.payload.size());
      add(f.trailer.data(), f.trailer.size());
    }
    ssize_t n = ::writev(c.fd, iov, static_cast<int>(niov));
    ++stats_.writev_calls;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c.fd);
      return false;
    }
    stats_.bytes_sent += static_cast<std::uint64_t>(n);
    if (static_cast<std::size_t>(n) < queued) ++stats_.partial_writes;
    // Retire fully-written buffers; a partially-written head stays put with
    // its offset advanced, so its remaining bytes always go out first and
    // two frames can never interleave on the wire.
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      const std::size_t head_rem = c.outq.front().size() - c.out_pos;
      if (left >= head_rem) {
        left -= head_rem;
        c.out_pos = 0;
        c.outq.pop_front();
      } else {
        c.out_pos += left;
        left = 0;
      }
    }
  }
  const bool want = !c.outq.empty();
  if (want != c.want_write) {
    c.want_write = want;
    update_epoll(c);
  }
  return true;
}

void TcpTransport::flush() {
  // Collect fds first: try_drain may close (and erase) a connection.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) {
    if (!c.connecting && !c.outq.empty()) fds.push_back(fd);
  }
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) try_drain(it->second);
  }
}

void TcpTransport::update_epoll(Conn& c) {
  epoll_event ev{};
  ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

TcpTransport::Conn& TcpTransport::connect_to(const Endpoint& to) {
  const sockaddr_in addr = parse_tcp(to);

  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket");
  set_nonblocking(fd);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  apply_socket_buffers(fd);
  ++stats_.conns_opened;

  int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    sys_fail("connect");
  }

  Conn c;
  c.fd = fd;
  c.connecting = (rc < 0);
  c.peer = to;  // we dialed, so we already know who this is

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;  // EPOLLOUT signals connect completion
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    sys_fail("epoll_ctl add");
  }
  c.want_write = true;

  auto [it, _] = conns_.emplace(fd, std::move(c));
  by_peer_[to.value] = fd;

  // Introduce ourselves so the peer can label our frames.
  serial::Frame hello;
  hello.type = serial::FrameType::kHeartbeat;
  hello.payload = serial::to_bytes(local().value);
  queue_frame(it->second, std::move(hello));
  return it->second;
}

void TcpTransport::send(const Endpoint& to, serial::Frame frame) {
  Conn* c = nullptr;
  if (auto it = by_peer_.find(to.value); it != by_peer_.end()) {
    auto cit = conns_.find(it->second);
    if (cit != conns_.end()) c = &cit->second;
  }
  if (!c) c = &connect_to(to);
  queue_frame(*c, std::move(frame));
}

void TcpTransport::accept_ready() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      return;  // transient accept errors: keep serving
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    apply_socket_buffers(fd);
    ++stats_.conns_accepted;

    Conn c;
    c.fd = fd;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    auto [it, _] = conns_.emplace(fd, std::move(c));

    // Send our HELLO so the dialer can label inbound frames too.
    serial::Frame hello;
    hello.type = serial::FrameType::kHeartbeat;
    hello.payload = serial::to_bytes(local().value);
    queue_frame(it->second, std::move(hello));
  }
}

void TcpTransport::conn_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;

  // Zero-copy read: land bytes straight in the decoder's buffer.
  for (;;) {
    auto span = c.decoder.recv_span(16384);
    ssize_t n = ::read(fd, span.data(), span.size());
    ++stats_.read_calls;
    c.decoder.commit(n > 0 ? static_cast<std::size_t>(n) : 0);
    if (n > 0) {
      stats_.bytes_received += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) == span.size()) continue;
      break;  // short read: the socket buffer is drained
    }
    if (n == 0) {  // orderly shutdown
      close_conn(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(fd);
    return;
  }

  // Dispatch complete frames. A HELLO (first heartbeat) is consumed to
  // learn the peer's listening endpoint.
  for (;;) {
    std::optional<serial::Frame> f;
    try {
      f = c.decoder.next();
    } catch (const serial::DecodeError&) {
      close_conn(fd);
      return;
    }
    if (!f) break;
    if (f->type == serial::FrameType::kHeartbeat && !c.hello_seen) {
      // Both sides open with a HELLO; consume it. On accepted connections
      // it also tells us the dialer's listening endpoint.
      c.hello_seen = true;
      if (c.peer.empty()) {
        c.peer = Endpoint{serial::to_string(f->payload)};
        by_peer_[c.peer.value] = fd;
      }
      continue;
    }
    if (handler_) {
      ++delivered_in_poll_;
      ++stats_.frames_delivered;
      handler_(c.peer, std::move(*f));
      // The handler may have closed this connection (indirectly); re-check.
      if (conns_.find(fd) == conns_.end()) return;
    }
  }
}

void TcpTransport::conn_writable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  c.connecting = false;
  try_drain(c);
}

void TcpTransport::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!it->second.peer.empty()) {
    auto pit = by_peer_.find(it->second.peer.value);
    if (pit != by_peer_.end() && pit->second == fd) by_peer_.erase(pit);
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  ++stats_.conns_closed;
}

std::size_t TcpTransport::poll_wait(int timeout_ms) {
  delivered_in_poll_ = 0;
  epoll_event events[64];
  int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t ev = events[i].events;
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    if (ev & (EPOLLERR | EPOLLHUP)) {
      // For an in-flight connect this is connection-refused; either way the
      // connection is unusable.
      close_conn(fd);
      continue;
    }
    if (ev & EPOLLOUT) conn_writable(fd);
    if (ev & EPOLLIN) conn_readable(fd);
  }
  return delivered_in_poll_;
}

}  // namespace cg::net
