// ConGrid -- churn driver: replay availability traces onto a network.
//
// Turns a sampled Trace into set_up(node, true/false) calls scheduled on a
// NetworkBackend, so peers in an experiment actually drop off and return at
// the trace's boundaries (trace times are relative to the call).
#pragma once

#include <cstdint>

#include "churn/availability.hpp"
#include "net/backend.hpp"
#include "obs/obs.hpp"

namespace cg::churn {

/// Schedule up/down transitions for `node` according to `trace`. The node
/// is marked down at t=0 unless the trace's first interval starts at 0.
/// Call before running the world.
///
/// When `registry` is given, each applied transition bumps
/// "churn.node_up" / "churn.node_down" and, with a tracer, emits a
/// per-node "churn.up"/"churn.down" event at the transition's time --
/// this is how availability shows up next to retransmit and recovery
/// metrics in one snapshot.
void apply_trace(net::NetworkBackend& net, std::uint32_t node,
                 const Trace& trace, obs::Registry* registry = nullptr,
                 obs::Tracer* tracer = nullptr);

/// Sample a trace from `model` and apply it; returns the trace for
/// bookkeeping (e.g. computing expected availability).
Trace apply_model(net::NetworkBackend& net, std::uint32_t node,
                  const AvailabilityModel& model, double duration_s,
                  dsp::Rng& rng, obs::Registry* registry = nullptr,
                  obs::Tracer* tracer = nullptr);

}  // namespace cg::churn
