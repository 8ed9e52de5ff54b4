// ConGrid -- TCP transport (epoll reactor).
//
// A from-scratch asio substitute sized for what ConGrid needs: one
// non-blocking listener plus on-demand outbound connections, driven by a
// single-threaded epoll loop that the owner pumps via poll(). Frames are
// delimited with the serial framing layer, so a Frame sent here is
// byte-identical to one sent over the simulator.
//
// Identity: a freshly accepted connection only reveals the peer's ephemeral
// port, not the endpoint other nodes dial. Each side therefore opens every
// connection with a HELLO frame (type kHeartbeat, payload = its listening
// endpoint string); the transport consumes HELLOs internally and labels all
// subsequent frames on that connection with the advertised endpoint.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/transport.hpp"

namespace cg::net {

/// I/O counters for one TcpTransport (diagnostics + bench_wire). Syscall
/// counts are the interesting part: batching should show frames_sent >>
/// writev_calls on a chatty workload.
struct TcpStats {
  std::uint64_t frames_sent = 0;      ///< frames queued towards the wire
  std::uint64_t frames_delivered = 0; ///< frames handed to the handler
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t partial_writes = 0;   ///< writev drained less than queued
  std::uint64_t conns_opened = 0;     ///< outbound dials
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;
};

/// Polled TCP transport bound to 127.0.0.1. Not thread-safe: construct,
/// send and poll from one thread (run one per peer thread).
///
/// Output path: each send() queues the frame on its connection as three
/// segments -- encoded header, the moved payload buffer, CRC trailer -- so
/// the payload is never copied, then opportunistically drains with
/// scatter-gather writev(). A short write or EAGAIN leaves the partially-sent
/// frame at the queue head with its byte offset recorded (it may fall in any
/// segment), so frame bytes are never reordered or interleaved -- the
/// remainder goes out first when EPOLLOUT fires.
/// Input path: read() lands directly in the frame decoder's buffer
/// (FrameDecoder::recv_span), no staging copy.
class TcpTransport final : public Transport {
 public:
  /// Bind and listen on the given port; 0 picks an ephemeral port (read it
  /// back from local()). Throws std::runtime_error on socket errors.
  explicit TcpTransport(std::uint16_t port = 0);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Endpoint local() const override;
  void send(const Endpoint& to, serial::Frame frame) override;
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }

  /// Non-blocking: process whatever I/O is ready now.
  std::size_t poll() override { return poll_wait(0); }

  /// Attempt to drain all queued output immediately.
  void flush() override;

  /// Block up to timeout_ms for I/O, then process it. Returns frames
  /// delivered to the handler.
  std::size_t poll_wait(int timeout_ms);

  /// Open connections (diagnostic).
  std::size_t connection_count() const { return conns_.size(); }

  /// I/O counters since construction.
  const TcpStats& stats() const { return stats_; }

  /// Force SO_SNDBUF/SO_RCVBUF on every subsequently created socket.
  /// Test hook: a tiny send buffer makes partial writes certain, which is
  /// how the no-interleaving guarantee is exercised. 0 = kernel default.
  void set_socket_buffer_bytes(int bytes) { socket_buf_bytes_ = bytes; }

 private:
  struct Conn;

  void accept_ready();
  void conn_readable(int fd);
  void conn_writable(int fd);
  void close_conn(int fd);
  Conn& connect_to(const Endpoint& to);
  void queue_frame(Conn& c, serial::Frame f);
  bool try_drain(Conn& c);  ///< returns false if the conn was closed
  void apply_socket_buffers(int fd);
  void update_epoll(Conn& c);

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int socket_buf_bytes_ = 0;
  FrameHandler handler_;
  TcpStats stats_;
  std::unordered_map<int, Conn> conns_;          // by fd
  std::unordered_map<std::string, int> by_peer_; // endpoint value -> fd
  std::size_t delivered_in_poll_ = 0;
};

}  // namespace cg::net
