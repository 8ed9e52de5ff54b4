#include "net/loopback.hpp"

#include <fstream>
#include <thread>

namespace cg::net {

// ---------------------------------------------------------- FaultTransport

FaultTransport::FaultTransport(TcpLoopbackBackend& owner, std::uint32_t node,
                               TcpTransport& inner)
    : owner_(owner), node_(node), inner_(inner) {
  inner_.set_handler([this](const Endpoint& from, serial::Frame f) {
    owner_.route_recv(*this, from, std::move(f));
  });
}

void FaultTransport::send(const Endpoint& to, serial::Frame frame) {
  owner_.route_send(node_, to, std::move(frame), /*is_replay=*/false);
}

void FaultTransport::set_handler(FrameHandler handler) {
  handler_ = std::move(handler);
}

// ----------------------------------------------------- TcpLoopbackBackend

Transport& TcpLoopbackBackend::add_node() {
  auto tcp = std::make_unique<TcpTransport>();
  if (socket_buf_bytes_ > 0) tcp->set_socket_buffer_bytes(socket_buf_bytes_);
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  node_by_endpoint_[tcp->local().value] = id;
  tcps_.push_back(std::move(tcp));
  nodes_.push_back(std::make_unique<FaultTransport>(*this, id, *tcps_.back()));
  return *nodes_.back();
}

void TcpLoopbackBackend::schedule(double delay_s, std::function<void()> fn) {
  timers_.push(
      Timer{now() + std::max(delay_s, 0.0), timer_seq_++, std::move(fn)});
}

bool TcpLoopbackBackend::pump() {
  bool moved = false;
  // Fire timers due now. Timers scheduled by a firing timer for "now" run
  // in the same pump, like the simulator's event loop.
  const double t = now();
  while (!timers_.empty() && timers_.top().at <= t) {
    auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    fn();
    moved = true;
  }
  for (auto& tcp : tcps_) {
    if (tcp->poll_wait(0) > 0) moved = true;
  }
  return moved;
}

void TcpLoopbackBackend::run_until(double t_s) {
  while (now() < t_s) {
    if (!pump()) {
      // Idle: sleep briefly rather than spin. 200 us keeps the compressed
      // test timelines (timers of a few ms) accurate enough.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

bool TcpLoopbackBackend::run_until(double t_s,
                                   const std::function<bool()>& done) {
  while (!done()) {
    if (now() >= t_s) break;
    if (!pump()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return done();
}

void TcpLoopbackBackend::set_up(std::size_t node, bool up) {
  if (node < nodes_.size()) nodes_[node]->up_ = up;
}

std::uint32_t TcpLoopbackBackend::node_of(const Endpoint& e) const {
  auto it = node_by_endpoint_.find(e.value);
  return it != node_by_endpoint_.end() ? it->second
                                       : static_cast<std::uint32_t>(-1);
}

void TcpLoopbackBackend::log_frame(std::uint32_t from, std::uint32_t to,
                                   const serial::Frame& f,
                                   const char* verdict) {
  if (wire_log_cap_ == 0) return;
  wire_log_.push_back(WireLogRecord{
      now(), from, to, static_cast<std::uint8_t>(f.type),
      static_cast<std::uint32_t>(f.payload.size()), verdict});
  while (wire_log_.size() > wire_log_cap_) wire_log_.pop_front();
}

void TcpLoopbackBackend::route_send(std::uint32_t from, const Endpoint& to,
                                    serial::Frame frame, bool is_replay) {
  // Only the fault plan and the wire log need the destination's node id;
  // an unfaulted, unlogged frame skips the endpoint lookup.
  const std::uint32_t dst = (faults_ || wire_log_cap_ > 0)
                                ? node_of(to)
                                : static_cast<std::uint32_t>(-1);
  // A node inside a crash window sends nothing.
  if (!nodes_[from]->up_) {
    log_frame(from, dst, frame, "dropped");
    return;
  }
  if (faults_ && !is_replay) {
    const FaultAction a = faults_->on_frame(from, dst);
    // On a real wire, corruption IS loss: the kernel checksum or our frame
    // CRC rejects the bytes and the reliable layer retransmits. Model it
    // as a drop so both backends exercise the same recovery path.
    if (a.drop || a.corrupt) {
      log_frame(from, dst, frame, "dropped");
      return;
    }
    if (a.duplicates > 0) {
      // The extra copy arrives late, like the sim's fresh-latency copy.
      log_frame(from, dst, frame, "dup");
      schedule(a.copy_lag_s, [this, from, to, copy = frame]() mutable {
        route_send(from, to, std::move(copy), /*is_replay=*/true);
      });
    }
    if (a.extra_delay_s > 0.0) {
      log_frame(from, dst, frame, "delayed");
      schedule(a.extra_delay_s,
               [this, from, to, f = std::move(frame)]() mutable {
                 route_send(from, to, std::move(f), /*is_replay=*/true);
               });
      return;
    }
  }
  log_frame(from, dst, frame, "sent");
  tcps_[from]->send(to, std::move(frame));
}

void TcpLoopbackBackend::route_recv(FaultTransport& ft, const Endpoint& from,
                                    serial::Frame frame) {
  // Inbound boundary: a crashed node hears nothing (frames already in the
  // kernel's buffers still arrive at the socket; we blackhole them here,
  // mirroring SimNetwork's delivery-time up-check).
  if (!ft.up_) {
    log_frame(node_of(from), ft.node_, frame, "rx_dropped");
    return;
  }
  if (ft.handler_) ft.handler_(from, std::move(frame));
}

bool TcpLoopbackBackend::dump_wire_log(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const WireLogRecord& r : wire_log_) {
    out << "{\"t\":" << r.t << ",\"from\":" << r.from << ",\"to\":" << r.to
        << ",\"type\":" << static_cast<int>(r.type)
        << ",\"bytes\":" << r.bytes << ",\"verdict\":\"" << r.verdict
        << "\"}\n";
  }
  return true;
}

}  // namespace cg::net
