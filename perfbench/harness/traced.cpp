#include "traced.hpp"

#include "core/service/protocol.hpp"
#include "serial/bytes.hpp"

namespace perfbench {

namespace {

namespace serial = cg::serial;
using cg::core::ControlType;

/// Kind of the first frame sent inside the running timer callback; set by
/// traced_scheduler, filled by TracedTransport::send.
thread_local std::string* t_timer_kind = nullptr;

std::string classify_inner(const serial::Frame& f) {
  switch (f.type) {
    case serial::FrameType::kData: return "data";
    case serial::FrameType::kCode: return "code";
    case serial::FrameType::kDiscovery: return "discovery";
    case serial::FrameType::kHeartbeat: return "heartbeat";
    case serial::FrameType::kAck: return "ack";
    case serial::FrameType::kBatch: return "batch";
    case serial::FrameType::kReliable: return "envelope";
    case serial::FrameType::kControl: break;
  }
  try {
    switch (cg::core::control_type(f)) {
      case ControlType::kStatusRequest:
      case ControlType::kStatus: return "probe";
      case ControlType::kCheckpointRequest:
      case ControlType::kCheckpointData: return "checkpoint";
      case ControlType::kDeploy:
      case ControlType::kDeployAck: return "deploy";
      default: return "recovery";
    }
  } catch (const std::exception&) {
    return "control";
  }
}

}  // namespace

const char* size_class(std::size_t payload_bytes) {
  if (payload_bytes < kSmallFrameBytes) return "small";
  if (payload_bytes >= kBulkFrameBytes) return "bulk";
  return "mid";
}

void SendTally::add(const Span& sp) {
  if (sp.layer != "net.send" || sp.kind == "flush") return;
  const std::string c = size_class(sp.bytes);
  frames[c] += 1;
  bytes[c] += static_cast<double>(sp.bytes);
  seconds[c] += sp.end - sp.start;
}

void SendTally::report(double ops, std::map<std::string, double>& layer) const {
  const auto get = [](const std::map<std::string, double>& m, const char* c) {
    const auto it = m.find(c);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* c : {"small", "bulk"}) {
    const double b = get(bytes, c);
    layer[std::string("net.frames_sent.") + c] = get(frames, c) / ops;
    layer[std::string("net.bytes_sent.") + c] = b / ops;
    layer[std::string("net.send_s_per_mb.") + c] =
        b > 0 ? get(seconds, c) / (b / 1e6) : 0.0;
  }
}

std::string classify_frame(const serial::Frame& f, std::uint64_t* msg_id) {
  if (msg_id) *msg_id = 0;
  if (f.type != serial::FrameType::kReliable) return classify_inner(f);
  try {
    const serial::ReliableEnvelope env = serial::decode_envelope(f);
    if (msg_id) *msg_id = env.msg_id;
    return classify_inner(env.inner);
  } catch (const std::exception&) {
    return "malformed";
  }
}

cg::core::UnitRegistry timed_registry(
    const cg::core::UnitRegistry& base, SpanRecorder& rec,
    const std::map<std::string, std::pair<std::string, std::string>>& layers) {
  cg::core::UnitRegistry out = base;
  for (const auto& [type, layer] : layers) {
    out.add(base.info(type), [&base, &rec, type, layer] {
      return std::make_unique<TimedUnit>(base.create(type), rec, layer.first,
                                         layer.second);
    });
  }
  return out;
}

void TracedTransport::send(const cg::net::Endpoint& to, serial::Frame frame) {
  if (!rec_.enabled()) {
    inner_.send(to, std::move(frame));
    return;
  }
  std::uint64_t id = 0;
  std::string kind = classify_frame(frame, &id);
  if (id != 0 && !sent_ids_.emplace(to.value, id).second) kind = "retx";
  if (t_timer_kind && t_timer_kind->empty()) *t_timer_kind = kind;
  ScopedSpan s(&rec_, "net.send", kind, frame.payload.size());
  inner_.send(to, std::move(frame));
}

void TracedTransport::flush() {
  ScopedSpan s(&rec_, "net.send", "flush");
  inner_.flush();
}

void TracedTransport::set_handler(cg::net::FrameHandler handler) {
  inner_.set_handler([this, h = std::move(handler)](
                         const cg::net::Endpoint& from, serial::Frame f) {
    if (!rec_.enabled()) {
      h(from, std::move(f));
      return;
    }
    if (tap_) tap_(f);
    const std::string kind = classify_frame(f);
    ScopedSpan s(&rec_, "service.handler", kind, f.payload.size());
    h(from, std::move(f));
  });
}

cg::net::Scheduler traced_scheduler(cg::net::Scheduler inner,
                                    SpanRecorder& rec) {
  return [inner = std::move(inner), &rec](double delay_s,
                                           std::function<void()> fn) {
    inner(delay_s, [&rec, fn = std::move(fn)] {
      if (!rec.enabled()) {
        fn();
        return;
      }
      std::string kind;
      std::string* saved = t_timer_kind;
      t_timer_kind = &kind;
      const std::uint32_t id = rec.begin("timer");
      fn();
      rec.end(id);
      t_timer_kind = saved;
      rec.set_kind(id, kind.empty() ? "quiet" : kind);
    });
  };
}

}  // namespace perfbench
