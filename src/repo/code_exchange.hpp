// ConGrid -- code transfer protocol.
//
// The wire half of on-demand code download: an executing peer fetches a
// module artifact from its owner; the owner answers from its
// ModuleRepository. Rides in kCode frames so it composes with the same
// frame-handler chain as discovery and pipes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "repo/repository.hpp"

namespace cg::repo {

struct CodeExchangeStats {
  CONGRID_COUNTERS(
      requests_sent,
      requests_served,
      requests_not_found,
      artifacts_received,
      bytes_served,
      bytes_received)       ///< encoded-artifact bytes fetched
};

/// One per peer. Chain it behind PipeServe:
///   pipes.set_fallback_handler([&](auto& f, auto fr){ code.on_frame(f, fr); });
class CodeExchange {
 public:
  using FetchHandler = std::function<void(std::optional<ModuleArtifact>)>;

  /// `transport` is used for sending; inbound frames must be fed to
  /// on_frame by whoever owns the handler chain.
  explicit CodeExchange(net::Transport& transport) : transport_(transport) {}

  /// Serve requests from this repository (nullptr = serve nothing).
  void serve_from(const ModuleRepository* repo) { repo_ = repo; }

  /// Request `name` (at `version`, or the owner's latest when empty) from
  /// `owner`. The handler fires once, with nullopt when the owner does not
  /// have the module. `trace` is the causal context of whatever caused the
  /// fetch (e.g. the deploy span waiting on the module); it travels in the
  /// request -- a fixed 24 bytes, zero-filled when untraced -- and is
  /// echoed in the response, so the owner's serve event joins the trace.
  std::uint64_t fetch(const net::Endpoint& owner, const std::string& name,
                      const std::string& version, FetchHandler on_done,
                      const obs::TraceContext& trace = {});

  /// Bind CodeExchangeStats as "<node>.code.<field>" and a tracer: served
  /// requests become "code.serve" events on `node`, stamped with the
  /// requester's causal context.
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view node = {});

  /// Feed a frame from the handler chain. Consumes kCode frames; passes
  /// everything else to the fallback.
  void on_frame(const net::Endpoint& from, serial::Frame frame);

  void set_fallback_handler(net::FrameHandler h) { fallback_ = std::move(h); }

  const CodeExchangeStats& stats() const { return stats_; }

 private:
  net::Transport& transport_;
  const ModuleRepository* repo_ = nullptr;
  std::unordered_map<std::uint64_t, FetchHandler> pending_;
  std::uint64_t next_req_ = 1;
  net::FrameHandler fallback_;
  CodeExchangeStats stats_;
  obs::TracerRef tracer_;
  std::string trace_node_;
};

}  // namespace cg::repo
