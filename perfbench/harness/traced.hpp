// perfbench -- decorators that time calls into the program from outside.
//
// None of these change what the program does: each forwards every call to
// the real object and records a span around it. The untraced run does not
// install them at all, so its end-to-end figures carry no harness cost.
//
//   TimedUnit       wraps a real unit (InspiralFilter, RenderFrame, ...);
//                   process() and configure() become spans of the unit's
//                   layer ("dsp", "galaxy", "gw", ...).
//   TracedTransport sits between a backend's transport and the service on
//                   top of it: send()/flush() become "net.send" spans, every
//                   delivered frame a "service.handler" span, each tagged
//                   with the frame's kind (ack, retransmit, probe, data...).
//   traced_scheduler wraps a backend's scheduler: every timer callback
//                   becomes a "timer" span, reclassified afterwards by what
//                   it sent (a retransmit timer, a supervisor probe round).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/unit/registry.hpp"
#include "net/time.hpp"
#include "net/transport.hpp"
#include "spans.hpp"

namespace perfbench {

/// Size classes of the per-layer network metrics.
constexpr std::size_t kSmallFrameBytes = 1024;   ///< small: payload < 1 kB
constexpr std::size_t kBulkFrameBytes = 64 * 1024;  ///< bulk: >= 64 kB

/// "small", "bulk" or "mid" for a payload size.
const char* size_class(std::size_t payload_bytes);

/// "net.send" spans (flushes excluded) tallied by size class, for the
/// net.frames_sent, net.bytes_sent and net.send_s_per_mb metrics.
struct SendTally {
  std::map<std::string, double> frames, bytes, seconds;

  /// Counts `sp` when it is a send; other spans are ignored.
  void add(const Span& sp);
  /// The small and bulk metrics, frame and byte counts per operation.
  void report(double ops, std::map<std::string, double>& layer) const;
};

/// What a frame carries, read through the public codecs: "ack", "data",
/// "code", "discovery", "heartbeat", "batch", or for control messages
/// "probe" (status request/reply), "checkpoint", "deploy", "recovery"
/// (fence, rebind, promote, resume, bounce, cancel). Envelopes are
/// classified by their inner frame; `msg_id` receives the envelope's id
/// (0 when the frame is not an envelope).
std::string classify_frame(const cg::serial::Frame& f,
                           std::uint64_t* msg_id = nullptr);

/// Unit decorator: forwards everything, timing configure() and process().
class TimedUnit final : public cg::core::Unit {
 public:
  TimedUnit(std::unique_ptr<cg::core::Unit> inner, SpanRecorder& rec,
            std::string process_layer, std::string configure_layer)
      : inner_(std::move(inner)),
        rec_(rec),
        process_layer_(std::move(process_layer)),
        configure_layer_(std::move(configure_layer)) {}

  const cg::core::UnitInfo& info() const override { return inner_->info(); }
  void configure(const cg::core::ParamSet& p) override {
    ScopedSpan s(&rec_, configure_layer_, "configure");
    inner_->configure(p);
  }
  void process(cg::core::ProcessContext& ctx) override {
    ScopedSpan s(&rec_, process_layer_, "process");
    inner_->process(ctx);
  }
  cg::serial::Bytes save_state() const override {
    return inner_->save_state();
  }
  void restore_state(const cg::serial::Bytes& state) override {
    inner_->restore_state(state);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cg::core::Unit> inner_;
  SpanRecorder& rec_;
  std::string process_layer_;
  std::string configure_layer_;
};

/// A copy of `base` in which each listed unit type is created wrapped in a
/// TimedUnit. `layers` maps type name -> (process layer, configure layer).
/// `base` and `rec` must outlive the returned registry's units.
cg::core::UnitRegistry timed_registry(
    const cg::core::UnitRegistry& base, SpanRecorder& rec,
    const std::map<std::string, std::pair<std::string, std::string>>& layers);

/// Transport decorator recording send and delivery spans.
class TracedTransport final : public cg::net::Transport {
 public:
  /// Called with every delivered frame before the service sees it (the
  /// benchmark captures one DeployMsg this way for the codec replay).
  using Tap = std::function<void(const cg::serial::Frame&)>;

  TracedTransport(cg::net::Transport& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  cg::net::Endpoint local() const override { return inner_.local(); }
  void send(const cg::net::Endpoint& to, cg::serial::Frame frame) override;
  void set_handler(cg::net::FrameHandler handler) override;
  std::size_t poll() override { return inner_.poll(); }
  void flush() override;

  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  cg::net::Transport& inner_;
  SpanRecorder& rec_;
  Tap tap_;
  /// (peer, envelope id) pairs sent: a repeat is a retransmit ("retx").
  std::set<std::pair<std::string, std::uint64_t>> sent_ids_;
};

/// Scheduler whose callbacks run inside "timer" spans. When the recorder is
/// enabled each timer span is relabelled with the kind of the first frame it
/// sent ("retx", "probe", ...) or "quiet" when it sent nothing.
cg::net::Scheduler traced_scheduler(cg::net::Scheduler inner,
                                    SpanRecorder& rec);

}  // namespace perfbench
