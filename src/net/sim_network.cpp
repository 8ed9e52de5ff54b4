#include "net/sim_network.hpp"

#include <algorithm>
#include <stdexcept>

#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "serial/reader.hpp"

namespace cg::net {

void SimTransport::send(const Endpoint& to, serial::Frame frame) {
  net_->submit(id_, to, std::move(frame));
}

SimNetwork::SimNetwork(LinkParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

SimNetwork::~SimNetwork() = default;

SimTransport& SimNetwork::add_node() {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back(std::unique_ptr<SimTransport>(new SimTransport(this, id)));
  up_.push_back(true);
  lamports_.emplace_back();
  return *nodes_.back();
}

void SimNetwork::set_up(std::uint32_t id, bool up) {
  if (up_.at(id) != up) {
    ++(up ? stats_.node_up : stats_.node_down);
    if (obs_.tracer) {
      obs_.tracer.event("sim:" + std::to_string(id),
                        up ? "net.node_up" : "net.node_down",
                        obs::TraceContext{0, 0, lamport_of(id)});
    }
  }
  up_.at(id) = up;
}

void SimNetwork::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                         std::string_view scope) {
  obs::bind_counters(registry, scope, "net", stats_);
  obs_.link_delay_s =
      registry.histogram(obs::scoped(scope, "net.link_delay_s"));
  obs_.tracer = tracer;
  if (tracer) tracer->set_clock([this] { return now_; });
}

void SimNetwork::schedule(double delay_s, std::function<void()> fn) {
  if (delay_s < 0.0) throw std::invalid_argument("schedule: negative delay");
  push_event(now_ + delay_s, std::move(fn));
}

void SimNetwork::push_event(double time, std::function<void()> fn) {
  queue_.push(Event{time, next_seq_++, std::move(fn)});
}

void SimNetwork::submit(std::uint32_t from, const Endpoint& to,
                        serial::Frame frame) {
  // Parse the "sim:<id>" target.
  if (to.value.rfind("sim:", 0) != 0) {
    throw std::invalid_argument("SimTransport can only address sim: endpoints, got " +
                                to.value);
  }
  const std::uint32_t dst =
      static_cast<std::uint32_t>(std::stoul(to.value.substr(4)));
  if (dst >= nodes_.size()) {
    throw std::out_of_range("sim endpoint refers to unknown node " + to.value);
  }

  ++stats_.messages_sent;
  const std::size_t wire_bytes = serial::kFrameHeaderSize +
                                 frame.payload.size() +
                                 serial::kFrameTrailerSize;
  stats_.bytes_sent += wire_bytes;

  // A sender that is itself down cannot transmit.
  if (!up_.at(from)) {
    ++stats_.messages_to_down_node;
    return;
  }

  // Scripted faults (drop / duplicate / delay / corrupt). While a hook is
  // installed, delivery also verifies the payload CRC captured here, so
  // in-flight corruption is rejected at the receiver instead of handed to
  // the application.
  const bool verify_crc = static_cast<bool>(fault_fn_);
  // The CRC the sender stamped on the wire: captured before any in-flight
  // corruption, so a flipped bit is caught at delivery.
  const std::uint32_t sent_crc =
      verify_crc ? serial::crc32(frame.payload) : 0u;

  FaultAction action;
  if (fault_fn_) {
    action = fault_fn_(from, dst, frame);
    if (action.drop) {
      ++stats_.messages_dropped;
      return;
    }
    if (action.corrupt && !frame.payload.empty()) {
      // Flip one deterministic-random bit per corrupted frame.
      const std::uint64_t bit = rng_.below(frame.payload.size() * 8);
      frame.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }

  for (int copy = 0; copy < 1 + action.duplicates; ++copy) {
    if (copy > 0) {
      ++stats_.messages_duplicated;
    }
    deliver_copy(from, dst, frame, action.extra_delay_s, sent_crc,
                 verify_crc);
  }
}

void SimNetwork::deliver_copy(std::uint32_t from, std::uint32_t dst,
                              serial::Frame frame, double extra_delay_s,
                              std::uint32_t sent_crc, bool verify_crc) {
  const std::size_t wire_bytes = serial::kFrameHeaderSize +
                                 frame.payload.size() +
                                 serial::kFrameTrailerSize;
  double latency = params_.base_latency_s + rng_.uniform() * params_.jitter_s;
  if (wire_bytes > params_.small_frame_bytes && params_.bandwidth_Bps > 0.0) {
    latency += static_cast<double>(wire_bytes) / params_.bandwidth_Bps;
  }
  latency += extra_delay_s;
  obs_.link_delay_s.observe(latency);

  push_event(now_ + latency,
             [this, from, dst, verify_crc, sent_crc,
              f = std::move(frame)]() mutable {
               if (!up_.at(dst)) {
                 ++stats_.messages_to_down_node;
                 return;
               }
               if (verify_crc && serial::crc32(f.payload) != sent_crc) {
                 ++stats_.messages_corrupt_rejected;
                 if (obs_.tracer) {
                   obs_.tracer.event("sim:" + std::to_string(dst),
                                     "net.corrupt_reject",
                                     obs::TraceContext{0, 0, lamport_of(dst)});
                 }
                 return;
               }
               ++stats_.messages_delivered;
               // Wire-level clock merge: envelopes carry the sender's
               // Lamport stamp; merging here orders this node's network
               // events after the send even when the layers above never
               // look at the context. Skipped entirely when untraced.
               if (obs_.tracer && f.type == serial::FrameType::kReliable &&
                   f.payload.size() >= 8 + obs::kTraceContextWireSize) {
                 lamports_[dst].merge(serial::peek_envelope_trace(f).lamport);
               } else if (obs_.tracer &&
                          f.type == serial::FrameType::kBatch) {
                 // A batch may carry several envelopes; merge each stamp so
                 // batching never loosens the happens-before order.
                 try {
                   for (const serial::Frame& sub : serial::decode_batch(f)) {
                     if (sub.type == serial::FrameType::kReliable &&
                         sub.payload.size() >=
                             8 + obs::kTraceContextWireSize) {
                       lamports_[dst].merge(
                           serial::peek_envelope_trace(sub).lamport);
                     }
                   }
                 } catch (const serial::DecodeError&) {
                   // Corrupt batch: deliver anyway; the layer above drops it.
                 }
               }
               auto& node = *nodes_.at(dst);
               if (node.handler_) {
                 node.handler_(sim_endpoint(from), std::move(f));
               }
             });
}

bool SimNetwork::step() {
  if (queue_.empty()) return false;
  // Move the event out before running it: the callback may push new events.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ev.fn();
  return true;
}

std::size_t SimNetwork::run_until(double t) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
    ++n;
  }
  now_ = std::max(now_, t);
  return n;
}

std::size_t SimNetwork::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace cg::net
